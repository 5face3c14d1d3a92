"""Numeric cross-checks on representation spaces.

Generators are sent to exact-rational N x N matrices; words evaluate by
matrix multiplication and elements by linearity.  Because every coefficient
is an exact rational, the trace identities implied by the symbolic axioms
can be asserted with equality -- there are no tolerances anywhere.

Evaluation runs on integers.  A :class:`MatrixPoint` clears denominators
once: with D the lcm of the denominators of every letter matrix (stored
inverses included) it keeps the integer matrices N_g = D * M_g, so a word w
has N(w) = D**len(w) * M(w).  ``word_matrix`` and ``word_trace`` divide back
and return exact ``Fraction`` values.

:func:`check_induced_poisson` clears the remaining denominators once per
spec and point.  E is the lcm of the coefficient denominators of every
letter bracket, and L = 3*maxdeg + 2*max(t - 2, 0) bounds the length of any
word the sweep can meet, t being the longest p (x) q term of a letter
bracket.  Every word is traced as the integer T(w) = D**(L - len(w)) *
tr N(w) = D**L * tr M(w), and every bracket coefficient c enters as the
integer E * c.  A trace {u, w} is then an exact integer scaled by E * D**L,
and a Jacobi sum one scaled by E**2 * D**L; a sum is zero exactly when the
rational it stands for is.  Only a witness divides back, through
``Fraction(sum, scale)``, so its text is the reduced rational.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType

from .freealg import Element, FreeAlgebra
from .bracket import BracketSpec
from .axioms import VerificationReport, check_double_poisson, report, sweep

# Fraction matrices, tuples of row tuples: the plain reference arithmetic


def mat_identity(n):
    return tuple(
        tuple(Fraction(1) if i == j else Fraction(0) for j in range(n)) for i in range(n)
    )


def mat_mul(a, b):
    n = len(a)
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum(ra[k] * cb[k] for k in range(n)) for cb in bt) for ra in a
    )


def mat_trace(a):
    return sum(a[i][i] for i in range(len(a)))


def mat_inverse(a):
    """Exact inverse by Gauss-Jordan elimination, or None when singular."""
    n = len(a)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(a)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return None
        m[col], m[pivot] = m[pivot], m[col]
        pv = m[col][col]
        m[col] = [x / pv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return tuple(tuple(row[n:]) for row in m)


@dataclass
class MatrixPoint:
    """One exact-rational point of the N-dimensional representation space.

    ``mats`` maps each positive generator index to its matrix; matrices for
    inverted generators have exact stored inverses (``invs``), computed by
    elimination.  Both mappings are read-only after construction.  ``denom``
    is the common denominator D of all letter matrices; the word cache holds
    the integer matrices N(w) = D**len(w) * M(w) and their traces.
    """

    algebra: FreeAlgebra
    size: int
    mats: dict
    invs: dict = field(default_factory=dict)
    _words: dict = field(default_factory=dict, repr=False)
    _traces: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        for i in range(1, self.algebra.d + 1):
            if i not in self.mats:
                raise ValueError(f"missing matrix for generator {i}")
        for i in self.algebra.inverted:
            if i not in self.invs:
                inv = mat_inverse(self.mats[i])
                if inv is None:
                    raise ValueError(f"matrix for generator {i} is singular")
                self.invs[i] = inv
        # read-only copies: the integer caches below are built from them
        self.mats = MappingProxyType(dict(self.mats))
        self.invs = MappingProxyType(dict(self.invs))
        letters = {g: self.letter_matrix(g) for g in self.algebra.letters}
        d = math.lcm(*(x.denominator for m in letters.values() for row in m for x in row))
        self.denom = d
        # columns of N_g, the right factor of every product below
        self._cols = {
            g: tuple(zip(*(tuple(x.numerator * (d // x.denominator) for x in row) for row in m)))
            for g, m in letters.items()
        }
        n = self.size
        self._words[()] = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))

    @classmethod
    def random(cls, algebra: FreeAlgebra, size: int, seed: int) -> "MatrixPoint":
        """Seeded sample with entries p/q, p in [-9,9], q in [1,9]; matrices
        for inverted generators are redrawn until exactly nonsingular."""
        rng = random.Random(seed)

        def draw():
            return tuple(
                tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(size))
                for _ in range(size)
            )

        mats, invs = {}, {}
        for i in range(1, algebra.d + 1):
            m = draw()
            if i in algebra.inverted:
                inv = mat_inverse(m)
                while inv is None:
                    m = draw()
                    inv = mat_inverse(m)
                invs[i] = inv
            mats[i] = m
        return cls(algebra, size, mats, invs)

    def letter_matrix(self, g: int):
        if g > 0:
            return self.mats[g]
        if -g not in self.invs:
            raise ValueError(f"no stored inverse for generator {-g}")
        return self.invs[-g]

    def _int_matrix(self, w):
        """N(w) = D**len(w) * M(w), an integer matrix."""
        m = self._words.get(w)
        if m is None:
            cols = self._cols[w[-1]]
            m = tuple(
                tuple(sum(x * y for x, y in zip(ra, cb)) for cb in cols)
                for ra in self._int_matrix(w[:-1])
            )
            self._words[w] = m
        return m

    def _int_trace(self, w):
        """tr N(w) = D**len(w) * tr M(w), an integer.

        Only the prefix matrix N(w[:-1]) is formed: the trace of its product
        with the last letter needs no more than the diagonal.
        """
        t = self._traces.get(w)
        if t is None:
            if w:
                rows = zip(self._int_matrix(w[:-1]), self._cols[w[-1]])
                t = sum(x * y for ra, cb in rows for x, y in zip(ra, cb))
            else:
                t = self.size
            self._traces[w] = t
        return t

    def word_matrix(self, w):
        scale = self.denom ** len(w)
        return tuple(tuple(Fraction(x, scale) for x in row) for row in self._int_matrix(w))

    def word_trace(self, w):
        return Fraction(self._int_trace(w), self.denom ** len(w))


def eval_element(x: Element, p: MatrixPoint):
    """Evaluate an element at the point: multiplicative on words, linear."""
    if x.algebra != p.algebra:
        raise ValueError("algebra mismatch")
    n = p.size
    out = [[Fraction(0)] * n for _ in range(n)]
    for w, c in x.terms.items():
        m = p.word_matrix(w)
        for i in range(n):
            row = out[i]
            mr = m[i]
            for j in range(n):
                row[j] += c * mr[j]
    return tuple(tuple(row) for row in out)


def eval_trace(x: Element, p: MatrixPoint):
    if x.algebra != p.algebra:
        raise ValueError("algebra mismatch")
    return sum((c * p.word_trace(w) for w, c in x.terms.items()), Fraction(0))


def induced_trace_bracket(spec: BracketSpec, a: Element, b: Element, p: MatrixPoint):
    """tr({a, b}) at the point: the induced bracket of trace functions."""
    return eval_trace(spec.mbracket(a, b), p)


class _Memo(dict):
    """A dict that fills a missing key with ``fn(key)``."""

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


def check_induced_poisson(spec: BracketSpec, p: MatrixPoint, maxdeg: int = 3,
                          all_witnesses: bool = False) -> VerificationReport:
    """Trace-level skew symmetry and Jacobi identity at one matrix point.

    For all monomials a, b, c of degree <= maxdeg (units are trivial and
    skipped): tr({a,b} + {b,a}) == 0 and tr({a,{b,c}} - {b,{a,c}} - {{a,b},c})
    == 0, exactly over the rationals (summed as scaled integers, see the
    module docstring).
    """
    alg = spec.algebra
    words = alg.words_up_to(maxdeg, include_unit=False)
    ids = [spec._wid(w) for w in words]
    # E, L and the powers D**(L - k) of the module docstring
    raws = [spec._letter_raw(x, y) for x in alg.letters for y in alg.letters]
    e = math.lcm(*(c.denominator for raw in raws for c in raw.values()))
    longest = max((len(l) + len(r) for raw in raws for l, r in raw), default=0)
    bound = 3 * maxdeg + 2 * max(longest - 2, 0)
    dpow = [p.denom ** (bound - k) for k in range(bound + 1)]
    pair_scale = e * dpow[0]
    mb = spec._mb_ids
    word_of = spec._id_words

    def traced(wid):  # T(w) = D**(L - len(w)) * tr N(w)
        w = word_of[wid]
        if len(w) > bound:
            raise RuntimeError(f"word of length {len(w)} exceeds the trace bound {bound}")
        return dpow[len(w)] * p._int_trace(w)

    def int_row(key):  # {u, w} as [(word id, E * coef)]
        return [(k, c.numerator * (e // c.denominator)) for k, c in mb(*key).items()]

    def mb_trace(key):  # E * D**L * tr({u, w}), converting its row without keeping it
        t = 0
        for k, c in mb(*key).items():
            t += c.numerator * (e // c.denominator) * trace_of[k]
        return t

    trace_of = _Memo(traced)
    rows = _Memo(int_row)  # only ever indexed by pairs of sweep words
    mbt = _Memo(mb_trace)

    def triple(a, b):
        ab = rows[a, b]

        def at(c):
            t = 0
            for w, cw in rows[b, c]:
                t += cw * mbt[a, w]
            for w, cw in rows[a, c]:
                t -= cw * mbt[b, w]
            for w, cw in ab:
                t -= cw * mbt[w, c]
            return t

        return at

    params = {"size": p.size, "maxdeg": maxdeg}
    params["pairs"], witnesses = sweep(spec, ids, 2, lambda a, b: mbt[a, b] + mbt[b, a],
                                       lambda t: str(Fraction(t, pair_scale)), "0", all_witnesses)
    if witnesses and not all_witnesses:
        return report("induced_trace_skew", spec, params, witnesses)
    params["triples"], more = sweep(spec, ids, 3, triple,
                                    lambda t: str(Fraction(t, e * pair_scale)), "0", all_witnesses)
    return report("induced_trace_poisson", spec, params, witnesses + more)


def coordinate_bracket(spec: BracketSpec, a: Element, b: Element, p: MatrixPoint):
    """Entrywise bracket {a_ij, b_uv} of matrix coordinate functions.

    Only defined for brackets passing the double Poisson check (trivial
    weight); for nonzero weights only trace functions carry an induced
    bracket.  Returns a nested tuple indexed [i][j][u][v].
    """
    if not check_double_poisson(spec).passed:
        raise ValueError("coordinate brackets require a double Poisson bracket")
    n = p.size
    u = spec.dbracket(a, b)
    out = [[[[Fraction(0)] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for (w1, w2), c in u.terms.items():
        m1 = p.word_matrix(w1)
        m2 = p.word_matrix(w2)
        for i in range(n):
            for j in range(n):
                for uu in range(n):
                    for v in range(n):
                        # {a_ij, b_uv} = <<a,b>>'_uj <<a,b>>''_iv
                        out[i][j][uu][v] += c * m1[uu][j] * m2[i][v]
    return tuple(tuple(tuple(tuple(r) for r in plane) for plane in block) for block in out)
