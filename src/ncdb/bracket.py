"""Bracket specifications and their Leibniz extension to the whole algebra.

A :class:`BracketSpec` stores the bracket <<v_i, v_j>> on ordered pairs of
positive generators (absent pairs are zero).  Everything else is derived:

* brackets on inverse letters come from conjugating with the inverse and
  negating, once per side, which is forced by <<a,1>> = 0;
* brackets of arbitrary monomials come from the closed-form double sum over
  letter positions, equivalent to iterating the two Leibniz rules
      <<a,bc>> = (b (x) 1) <<a,c>> + <<a,b>> (1 (x) c)
      <<ab,c>> = (1 (x) a) <<b,c>> + <<a,c>> (b (x) 1);
* the bracket is extended bilinearly over sparse elements.

The sweeps in :mod:`ncdb.axioms` iterate over many monomial pairs/triples,
so the spec memoizes raw dict-level results per word pair; caches are only
ever filled with idempotent pure values and are safe to share.
"""

from __future__ import annotations

from types import MappingProxyType

from .freealg import (
    Element,
    FreeAlgebra,
    Tensor2,
    Tensor3,
    _merge_term,
    concat,
    split_word,
    segment,
)

__all__ = ["BracketSpec", "split_word", "segment"]


class BracketSpec:
    """A generator bracket table plus the machinery of its Leibniz extension."""

    def __init__(self, algebra: FreeAlgebra, table: dict, weight=None):
        self.algebra = algebra
        clean = {}
        for (i, j), u in table.items():
            if not (1 <= i <= algebra.d and 1 <= j <= algebra.d):
                raise ValueError(f"table pair ({i},{j}) out of range")
            if not isinstance(u, Tensor2) or u.algebra != algebra:
                raise ValueError(f"table entry for ({i},{j}) is not a tensor over {algebra}")
            if u:
                clean[(i, j)] = u
        # read-only: the memo caches below are derived from it
        self.table = MappingProxyType(clean)
        if weight is not None:
            weight = tuple(weight)
            if len(weight) != len(algebra.letters):
                raise ValueError(
                    f"weight length {len(weight)} != letter count {len(algebra.letters)}"
                )
        self.weight = weight
        self._letter_cache = {}  # (x, y) -> raw {(w1, w2): coef}
        self._mb_cache = {}      # (u, w) -> raw {word: coef}
        # interning: sweeps key everything by small word ids instead of tuples
        self._word_ids = {(): 0}
        self._id_words = [()]
        self._mb_id_cache = {}   # (uid, wid) -> {word id: coef}
        self._cnf_ids = {}       # word id -> id of its cyclic normal form

    def __repr__(self):
        return f"BracketSpec({self.algebra}, {len(self.table)} entries)"

    def entry(self, i: int, j: int) -> Tensor2:
        """Table value for a positive generator pair (zero when absent)."""
        u = self.table.get((i, j))
        return u if u is not None else self.algebra.zero_t2()

    def scale(self, c) -> "BracketSpec":
        return BracketSpec(
            self.algebra,
            {k: u.scale(c) for k, u in self.table.items()},
            None if self.weight is None else tuple(c * w for w in self.weight),
        )

    # -- letter-level bracket -------------------------------------------------

    def _letter_raw(self, x: int, y: int) -> dict:
        key = (x, y)
        cached = self._letter_cache.get(key)
        if cached is not None:
            return cached
        if x < 0 and -x not in self.algebra.inverted:
            raise ValueError(f"letter {x}: generator not invertible")
        if y < 0 and -y not in self.algebra.inverted:
            raise ValueError(f"letter {y}: generator not invertible")
        if x < 0:
            # <<b^-1, a>> = -(1 (x) b^-1) <<b, a>> (b^-1 (x) 1)
            base = self._letter_raw(-x, y)
            raw = {}
            for (p, q), c in base.items():
                _merge_term(raw, (concat(p, (x,)), concat((x,), q)), -c)
        elif y < 0:
            # <<a, b^-1>> = -(b^-1 (x) 1) <<a, b>> (1 (x) b^-1)
            base = self._letter_raw(x, -y)
            raw = {}
            for (p, q), c in base.items():
                _merge_term(raw, (concat((y,), p), concat(q, (y,))), -c)
        else:
            u = self.table.get((x, y))
            raw = dict(u.terms) if u is not None else {}
        self._letter_cache[key] = raw
        return raw

    def letter_bracket(self, x: int, y: int) -> Tensor2:
        """Bracket of two single letters (signed generator indices)."""
        return Tensor2(self.algebra, dict(self._letter_raw(x, y)))

    # -- monomial-level raw helpers --------------------------------------------

    def _dbr_words(self, u, w) -> dict:
        """Raw tensor-square bracket of two monomials via the positional double sum."""
        res = {}
        lr = self._letter_raw
        for a in range(len(u)):
            x = u[a]
            us = u[a + 1 :]
            up = u[:a]
            for b in range(len(w)):
                lb = lr(x, w[b])
                if not lb:
                    continue
                wp = w[:b]
                ws = w[b + 1 :]
                for (p, q), c in lb.items():
                    # (b_prefix (x) a_prefix) . (p (x) q) . (a_suffix (x) b_suffix)
                    _merge_term(
                        res,
                        (concat(concat(wp, p), us), concat(concat(up, q), ws)),
                        c,
                    )
        return res

    def _mb_words(self, u, w) -> dict:
        """Raw multiplied bracket {u, w} of two monomials, memoized."""
        key = (u, w)
        cached = self._mb_cache.get(key)
        if cached is not None:
            return cached
        res = {}
        lr = self._letter_raw
        reduced = self.algebra.has_inverses
        for a in range(len(u)):
            x = u[a]
            mid = concat(u[a + 1 :], u[:a])  # a_suffix a_prefix
            for b in range(len(w)):
                lb = lr(x, w[b])
                if not lb:
                    continue
                wp = w[:b]
                ws = w[b + 1 :]
                if reduced:
                    for (p, q), c in lb.items():
                        word = concat(concat(concat(wp, p), mid), concat(q, ws))
                        _merge_term(res, word, c)
                else:
                    for (p, q), c in lb.items():
                        word = wp + p + mid + q + ws
                        v = res.get(word)
                        res[word] = c if v is None else v + c
        if not reduced:
            res = {k: v for k, v in res.items() if v}
        self._mb_cache[key] = res
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
        raw = self._mb_words(self._id_words[uid], self._id_words[wid])
        out = {}
        wid_of = self._wid
        for word, c in raw.items():
            out[wid_of(word)] = c
        self._mb_id_cache[key] = out
        return out

    def _cnf_id(self, wid: int) -> int:
        i = self._cnf_ids.get(wid)
        if i is None:
            from .freealg import cyclic_normal_form

            i = self._wid(cyclic_normal_form(self._id_words[wid]))
            self._cnf_ids[wid] = i
        return i

    # -- public bracket operations ----------------------------------------------

    def _check(self, *elts):
        for e in elts:
            if e.algebra != self.algebra:
                raise ValueError("algebra mismatch")

    def dbracket(self, a: Element, b: Element) -> Tensor2:
        """The double bracket <<a, b>>, extended bilinearly."""
        self._check(a, b)
        terms = {}
        for u, cu in a.terms.items():
            for w, cw in b.terms.items():
                c = cu * cw
                for k, v in self._dbr_words(u, w).items():
                    _merge_term(terms, k, c * v)
        return Tensor2(self.algebra, terms)

    def mbracket(self, a: Element, b: Element) -> Element:
        """The multiplied bracket {a, b} = m o <<a, b>>."""
        self._check(a, b)
        terms = {}
        for u, cu in a.terms.items():
            for w, cw in b.terms.items():
                c = cu * cw
                for k, v in self._mb_words(u, w).items():
                    _merge_term(terms, k, c * v)
        return Element(self.algebra, terms)

    def tbracket_L(self, a: Element, u: Tensor2) -> Tensor3:
        """<<a, b (x) c>>_L = <<a, b>> (x) c."""
        self._check(a, u)
        terms = {}
        for (w1, w2), cu in u.terms.items():
            for wa, ca in a.terms.items():
                c = ca * cu
                for (p, q), v in self._dbr_words(wa, w1).items():
                    _merge_term(terms, (p, q, w2), c * v)
        return Tensor3(self.algebra, terms)

    def tbracket_R(self, a: Element, u: Tensor2) -> Tensor3:
        """<<a, b (x) c>>_R = b (x) <<a, c>>."""
        self._check(a, u)
        terms = {}
        for (w1, w2), cu in u.terms.items():
            for wa, ca in a.terms.items():
                c = ca * cu
                for (p, q), v in self._dbr_words(wa, w2).items():
                    _merge_term(terms, (w1, p, q), c * v)
        return Tensor3(self.algebra, terms)

    def tbracket_swapL(self, u: Tensor2, a: Element) -> Tensor3:
        """<<b (x) c, a>>_L = <<b, a>> otimes_1 c, inserting c in the middle."""
        self._check(u, a)
        terms = {}
        for (w1, w2), cu in u.terms.items():
            for wa, ca in a.terms.items():
                c = ca * cu
                for (p, q), v in self._dbr_words(w1, wa).items():
                    _merge_term(terms, (p, w2, q), c * v)
        return Tensor3(self.algebra, terms)

    def djac(self, a: Element, b: Element, c: Element) -> Tensor3:
        """Double Jacobiator <<a,<<b,c>>>>_L - <<b,<<a,c>>>>_R - <<<<a,b>>,c>>_L."""
        return (
            self.tbracket_L(a, self.dbracket(b, c))
            - self.tbracket_R(b, self.dbracket(a, c))
            - self.tbracket_swapL(self.dbracket(a, b), c)
        )

    def jacobiator(self, a: Element, b: Element, c: Element) -> Element:
        """{a,{b,c}} - {b,{a,c}} - {{a,b},c}, computed exactly."""
        return (
            self.mbracket(a, self.mbracket(b, c))
            - self.mbracket(b, self.mbracket(a, c))
            - self.mbracket(self.mbracket(a, b), c)
        )
