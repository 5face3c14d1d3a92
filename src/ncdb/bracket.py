"""Bracket specifications and their Leibniz extension to the whole algebra.

A :class:`BracketSpec` stores the bracket <<v_i, v_j>> on ordered pairs of
positive generators (absent pairs are zero).  Everything else is derived:

* brackets on inverse letters follow one rule, forced by <<a,1>> = 0,
      <<b^-1, a>> = -(1 (x) b^-1) <<b, a>> (b^-1 (x) 1)
      <<a, b^-1>> = -(b^-1 (x) 1) <<a, b>> (1 (x) b^-1),
  applied to both slots of the positive entry's terms in one pass;
* brackets of arbitrary monomials come from the closed-form double sum over
  letter positions, equivalent to iterating the two Leibniz rules
      <<a,bc>> = (b (x) 1) <<a,c>> + <<a,b>> (1 (x) c)
      <<ab,c>> = (1 (x) a) <<b,c>> + <<a,c>> (b (x) 1);
  one walk (``_positions``) serves <<u, w>> and {u, w} alike, whose words
  are built by ``+`` on a free algebra, where no letter can cancel, and by
  ``concat``, which cancels x x^-1, on a Laurent one;
* every public operation -- the double and multiplied brackets and both
  Jacobiators -- is one multilinear extension (``BracketSpec._extend``) of
  a monomial kernel over sparse operands, which refuses an operand that is
  not an ``Element`` before any kernel runs.  Kernels take the bracket they
  compose as an argument: ``_djac_words`` a ``dbr``, so a caller that
  brackets many monomial triples can pass it a memo of ``_dbr_words``, and
  ``_mb_words`` a letter bracket, the spec's own or, for the h0 residual,
  the letter skew defects.  :func:`jacobiator_ids`, the one formula of the
  Jacobiator, takes the spec and reads {u, w} on interned word ids.  Every
  kernel merges its terms through ``_merge_term``.

A spec is a frozen value, its ``table`` a read-only map of its own copies
of the nonzero entries, so no memo can outlive the value it was computed
from.  One memo rule: kernels keep nothing; the spec's memos serve the
sweeps, {u, w} on interned word ids (``_mb_ids``) for the Jacobi sweeps of
:mod:`ncdb.axioms` and :mod:`ncdb.repspace` and the one class map, word id
-> id of its cyclic normal form (``_cls``), for :func:`jacobiator_ids` and
:func:`ncdb.axioms.sweep`; element-level operations compute through their
kernels, save ``jacobiator``, which goes through :func:`jacobiator_ids`
and so reads ``_mb_ids``.  Memos take no part in equality and hold only
idempotent pure values, safe to share.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from types import MappingProxyType

from .freealg import (
    Element,
    FreeAlgebra,
    Tensor2,
    Tensor3,
    _merge_term,
    concat,
    cyclic_normal_form,
)


def _positions(u, w, letter):
    """The Leibniz sum over letter positions of ``_dbr_words`` and
    ``_mb_words``: for each pair (a, b) whose letter bracket letter(u_a, w_b)
    is nonzero, yields u_<a, u_>a, w_<b, w_>b and that bracket."""
    for a, x in enumerate(u):
        up, us = u[:a], u[a + 1 :]
        for b, y in enumerate(w):
            lb = letter(x, y)
            if lb:
                yield up, us, w[:b], w[b + 1 :], lb


def _memo(factory):
    """A field built empty per instance and kept out of init, equality and repr."""
    return field(default_factory=factory, init=False, compare=False, repr=False)


@dataclass(frozen=True)
class BracketSpec:
    """A generator bracket table plus the machinery of its Leibniz extension."""

    algebra: FreeAlgebra
    table: MappingProxyType
    weight: tuple = None
    _letter_cache: dict = _memo(dict)  # (x, y) -> raw {(w1, w2): coef}
    _mb_cache: dict = _memo(dict)      # never written: perfbench/tracing.py reads its size (ROADMAP item 2 deletes it)
    _word_ids: dict = _memo(lambda: {(): 0})  # interning: the sweeps key words by small ids
    _id_words: list = _memo(lambda: [()])
    _mb_id_cache: dict = _memo(dict)   # (uid, wid) -> {word id: coef}, read by the sweeps
    _cls_ids: dict = _memo(dict)       # word id -> id of its cyclic normal form

    def __post_init__(self):
        algebra = self.algebra
        clean = {}
        for (i, j), u in self.table.items():
            if not all(isinstance(k, int) and 1 <= k <= algebra.d for k in (i, j)):
                raise ValueError(f"table pair ({i},{j}) out of range")
            if not isinstance(u, Tensor2) or u.algebra != algebra:
                raise ValueError(f"table entry for ({i},{j}) is not a tensor over {algebra}")
            if u:
                clean[(i, j)] = Tensor2(algebra, MappingProxyType(dict(u.terms)))
        object.__setattr__(self, "table", MappingProxyType(clean))
        if self.weight is not None:
            weight = algebra.weight_vector(self.weight)
            if weight != algebra.letter_weights(weight[: algebra.d]):
                raise ValueError("the weight of an inverse letter must be minus its generator's")
            object.__setattr__(self, "weight", weight)

    def __repr__(self):
        return f"BracketSpec({self.algebra}, {len(self.table)} entries)"

    # -- letter-level bracket -------------------------------------------------

    def _letter_raw(self, x: int, y: int) -> dict:
        cached = self._letter_cache.get((x, y))
        if cached is not None:
            return cached
        for g in (x, y):  # a refused pair caches nothing
            self.algebra.validate_word((g,))
        u = self.table.get((abs(x), abs(y)))
        sign = -1 if (x < 0) != (y < 0) else 1  # each inverse slot conjugates and negates
        raw = {}
        for (p, q), c in (u.terms.items() if u is not None else ()):
            if x < 0:
                p, q = concat(p, (x,)), concat((x,), q)
            if y < 0:
                p, q = concat((y,), p), concat(q, (y,))
            _merge_term(raw, (p, q), sign * c)
        self._letter_cache[x, y] = raw
        return raw

    def letter_bracket(self, x: int, y: int) -> Tensor2:
        """Bracket of two single letters (signed generator indices)."""
        return Tensor2(self.algebra, dict(self._letter_raw(x, y)))

    # -- monomial-level raw helpers --------------------------------------------

    def _dbr_words(self, u, w) -> dict:
        """Raw tensor-square bracket <<u, w>> of two monomials: each term
        c * p (x) q of <<u_a, w_b>> gives c * w_<b p u_>a (x) u_<a q w_>b."""
        res = {}
        free = not self.algebra.has_inverses
        for up, us, wp, ws, lb in _positions(u, w, self._letter_raw):
            for (p, q), c in lb.items():
                pair = (wp + p + us, up + q + ws) if free else (concat(concat(wp, p), us), concat(concat(up, q), ws))
                _merge_term(res, pair, c)
        return res

    @staticmethod
    def _djac_words(u, v, w, dbr) -> dict:
        """Raw double Jacobiator {(w1, w2, w3): coef} of three monomials,
        with ``dbr`` as the monomial double bracket (not memoized here):
        <<u,<<v,w>>>>_L - <<v,<<u,w>>>>_R - <<<<u,v>>,w>>_L, that is each
        term p (x) q of <<v,w>> fed through <<u,p>> (x) q, minus each of
        <<u,w>> through p (x) <<v,q>>, minus each of <<u,v>> through
        <<p,w>> with q inserted in the middle."""
        res = {}
        for (p, q), c in dbr(v, w).items():
            for (k1, k2), d in dbr(u, p).items():
                _merge_term(res, (k1, k2, q), c * d)
        for (p, q), c in dbr(u, w).items():
            c = -c
            for (k1, k2), d in dbr(v, q).items():
                _merge_term(res, (p, k1, k2), c * d)
        for (p, q), c in dbr(u, v).items():
            c = -c
            for (k1, k2), d in dbr(p, w).items():
                _merge_term(res, (k1, q, k2), c * d)
        return res

    def _mb_words(self, u, w, letter) -> dict:
        """Raw multiplied bracket {u, w} of two monomials (not memoized), with
        ``letter`` as the double bracket of two letters: each term c * p (x) q
        of letter(u_a, w_b) gives c * w_<b p u_>a u_<a q w_>b."""
        res = {}
        free = not self.algebra.has_inverses
        for up, us, wp, ws, lb in _positions(u, w, letter):
            for (p, q), c in lb.items():
                word = wp + p + us + up + q + ws if free else concat(concat(concat(wp, p), us), concat(concat(up, q), ws))
                _merge_term(res, word, c)
        return res

    # -- interned-id variants used by the bounded sweeps -------------------------

    def _wid(self, w) -> int:
        i = self._word_ids.get(w)
        if i is None:
            i = len(self._id_words)
            self._word_ids[w] = i
            self._id_words.append(w)
        return i

    def _mb_ids(self, uid: int, wid: int) -> dict:
        """{u, w} on interned word ids, returned as an id-keyed dict."""
        key = (uid, wid)
        cached = self._mb_id_cache.get(key)
        if cached is not None:
            return cached
        raw = self._mb_words(self._id_words[uid], self._id_words[wid], self._letter_raw)
        out = {}
        for word, c in raw.items():
            out[self._wid(word)] = c
        self._mb_id_cache[key] = out
        return out

    def _cls(self, uid: int) -> int:
        """The id of the cyclic normal form of the word of id ``uid``."""
        k = self._cls_ids.get(uid)
        if k is None:
            k = self._cls_ids[uid] = self._wid(cyclic_normal_form(self._id_words[uid]))
        return k

    # -- public bracket operations ----------------------------------------------

    def _extend(self, cls, kernel, *args):
        """The multilinear extension behind every public bracket: the sum of
        c_1 * ... * c_n * kernel(w_1, ..., w_n) over the terms c_i * w_i of
        each argument."""
        for x in args:
            if not isinstance(x, Element):
                raise ValueError(f"operand of type {type(x).__name__} is not an Element")
        if any(x.algebra != self.algebra for x in args):
            raise ValueError("algebra mismatch")
        terms = {}
        for cell in itertools.product(*(x.terms.items() for x in args)):
            c = 1
            for _, ci in cell:
                c *= ci
            for k, v in kernel(*(w for w, _ in cell)).items():
                _merge_term(terms, k, c * v)
        return cls(self.algebra, terms)

    def dbracket(self, a: Element, b: Element) -> Tensor2:
        """The double bracket <<a, b>>, extended bilinearly."""
        return self._extend(Tensor2, self._dbr_words, a, b)

    def mbracket(self, a: Element, b: Element) -> Element:
        """The multiplied bracket {a, b} = m o <<a, b>>, extended bilinearly."""
        return self._extend(Element, lambda u, w: self._mb_words(u, w, self._letter_raw), a, b)

    def djac(self, a: Element, b: Element, c: Element) -> Tensor3:
        """Double Jacobiator <<a,<<b,c>>>>_L - <<b,<<a,c>>>>_R - <<<<a,b>>,c>>_L,
        extended trilinearly from :meth:`_djac_words`."""
        return self._extend(Tensor3, lambda u, v, w: self._djac_words(u, v, w, self._dbr_words), a, b, c)

    def jacobiator(self, a: Element, b: Element, c: Element) -> Element:
        """{a,{b,c}} - {b,{a,c}} - {{a,b},c}, extended trilinearly from
        :func:`jacobiator_ids` on the interned words of each term."""
        word_of = self._id_words

        def kernel(*words):
            return {word_of[k]: v for k, v in jacobiator_ids(self, *map(self._wid, words)).items()}

        return self._extend(Element, kernel, a, b, c)


def jacobiator_ids(spec: BracketSpec, a: int, b: int, c: int) -> dict:
    """The nonzero terms of {a,{b,c}} - {b,{a,c}} - {{a,b},c} on three
    interned monomial ids, keyed by id, through ``spec._mb_ids``.  The terms
    of {a,b} are merged by cyclic class first, and each class with a nonzero
    sum is bracketed with c once, at its normal form (proved in
    :func:`ncdb.axioms.check_jacobi`)."""
    mb = spec._mb_ids
    res = {}
    for w, cw in mb(b, c).items():
        for u, cu in mb(a, w).items():
            _merge_term(res, u, cw * cu)
    for w, cw in mb(a, c).items():
        for u, cu in mb(b, w).items():
            _merge_term(res, u, -cw * cu)
    classes = {}
    for w, cw in mb(a, b).items():
        _merge_term(classes, spec._cls(w), cw)
    for k, ck in classes.items():
        for u, cu in mb(k, c).items():
            _merge_term(res, u, -ck * cu)
    return res
