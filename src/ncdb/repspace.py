"""Numeric cross-checks on representation spaces.

Generators are sent to exact-rational N x N matrices; words evaluate by
matrix multiplication and elements by linearity.  Because every coefficient
is an exact rational, the trace identities implied by the symbolic axioms
can be asserted with equality -- there are no tolerances anywhere.

Evaluation runs on integers.  A :class:`MatrixPoint` clears denominators
once: with D the lcm of the denominators of every letter matrix (stored
inverses included) it keeps the integer matrices N_g = D * M_g, so a word w
has N(w) = D**len(w) * M(w).  ``word_trace`` divides back and returns an
exact ``Fraction``.

:func:`check_induced_poisson` clears the remaining denominators once per
spec and point.  E is the lcm of the coefficient denominators of every
letter bracket, and L = 3*maxdeg + 2*max(t - 2, 0) bounds the length of any
word the check can meet, t being the longest p (x) q term of a letter
bracket.  Both stages evaluate a derivation d on the letters with one rule:
for a scale S (E for d = {a,-}, E**2 for d = J(a,b,-)) each letter x gets
one integer matrix, the sum of S * c * D**(L - len(w)) * N(w) over the terms
c*w of d(x), which is S * D**L times the matrix of d(x); each word
x_1 ... x_k keeps its rotations N(x_{i+1} ... x_k x_1 ... x_{i-1}) times
D**(maxdeg - k), so every cell is the integer S * D**(L + maxdeg - 1) *
tr d(c).  A sum is zero exactly when the rational it stands for is.  Only a
witness divides back, through ``Fraction(sum, scale)``, so its text is the
reduced rational.

Both stages compute once per cyclic class of a, or per pair of classes of
(a, b), through the class rule of :func:`ncdb.axioms.sweep`: tr kills
[A,A], so tr{a,b} = tr{cnf a, cnf b}, and J(a,b,x) = J(cnf a, cnf b, x)
exactly.  The pair stage reads {a, x} from the spec's memo of {u, w} on
ids, and the triple stage reads J(a,b,x) as {b, x} of the Jacobi-defect
spec of a (:func:`ncdb.bracket.jacobi_defect_spec`), built once per class
and kept on the spec; both memos serve every later point of the spec.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType

from .freealg import Element, FreeAlgebra, coef_str, exact
from .bracket import BracketSpec, _memo, jacobi_defect_spec
from .axioms import VerificationReport, report, sweep, sweep_ids


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


MAX_SIZE = 64  # largest matrix point: each word matrix holds size**2 integers


def _checked_size(n):
    if type(n) is not int or not 1 <= n <= MAX_SIZE:  # a bool is not a size
        raise ValueError(f"size must be an int from 1 to {MAX_SIZE}, got {n!r}")
    return n


@dataclass(frozen=True)
class MatrixPoint:
    """One exact-rational point of the N-dimensional representation space.

    ``mats`` maps each generator 1..d, and nothing else, to its ``size`` x
    ``size`` matrix of ``int`` or ``Fraction`` entries, kept as read-only
    tuples; ``invs`` holds the exact inverse of each inverted one and
    ``denom`` the common denominator D of all letter matrices.  Its one
    memo, of N(w) = D**len(w) * M(w), is not compared; ``word_trace``
    reads it and keeps nothing of its own.
    """

    algebra: FreeAlgebra
    size: int
    mats: MappingProxyType
    invs: MappingProxyType = field(init=False)
    denom: int = field(init=False)
    _cols: dict = field(init=False, compare=False, repr=False)  # columns of N_g
    _words: dict = _memo(dict)
    _traces: dict = _memo(dict)  # never written: perfbench/tracing.py reads its size (ROADMAP item 2 deletes it)

    def __post_init__(self):
        n = _checked_size(self.size)
        mats = {}
        for i in range(1, self.algebra.d + 1):
            m = self.mats.get(i)
            if m is None:
                raise ValueError(f"missing matrix for generator {i}")
            if len(m) != n or any(len(row) != n for row in m):
                raise ValueError(f"matrix for generator {i} is not {n} x {n}")
            mats[i] = tuple(map(tuple, m))
            for x in itertools.chain.from_iterable(mats[i]):
                exact(x)
        if len(mats) != len(self.mats):
            key = next(k for k in self.mats if k not in mats)
            raise ValueError(f"matrix for {key!r}, which is not a generator 1..{self.algebra.d}")
        invs = {}
        for i in self.algebra.inverted:
            invs[i] = mat_inverse(mats[i])
            if invs[i] is None:
                raise ValueError(f"matrix for generator {i} is singular")
        object.__setattr__(self, "mats", MappingProxyType(mats))
        object.__setattr__(self, "invs", MappingProxyType(invs))
        letters = {g: self.letter_matrix(g) for g in self.algebra.letters}
        d = math.lcm(*(x.denominator for m in letters.values() for row in m for x in row))
        object.__setattr__(self, "denom", d)
        object.__setattr__(self, "_cols", {
            g: tuple(zip(*(tuple(x.numerator * (d // x.denominator) for x in row) for row in m)))
            for g, m in letters.items()
        })
        self._words[()] = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))

    @classmethod
    def random(cls, algebra: FreeAlgebra, size: int, seed: int) -> "MatrixPoint":
        """Seeded sample with entries p/q, p in [-9,9], q in [1,9]; matrices
        for inverted generators are redrawn until exactly nonsingular."""
        rng = random.Random(seed)
        _checked_size(size)

        def draw():
            return tuple(
                tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(size))
                for _ in range(size)
            )

        mats = {}
        for i in range(1, algebra.d + 1):
            m = draw()
            while i in algebra.inverted and mat_inverse(m) is None:
                m = draw()
            mats[i] = m
        return cls(algebra, size, mats)

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

    def word_trace(self, w):
        m = self._int_matrix(w)
        return Fraction(sum(m[i][i] for i in range(self.size)), self.denom ** len(w))


def eval_trace(x: Element, p: MatrixPoint):
    if not isinstance(x, Element):
        raise ValueError(f"operand of type {type(x).__name__} is not an Element")
    if x.algebra != p.algebra:
        raise ValueError("algebra mismatch")
    return sum((c * p.word_trace(w) for w, c in x.terms.items()), Fraction(0))


def induced_trace_bracket(spec: BracketSpec, a: Element, b: Element, p: MatrixPoint):
    """tr({a, b}) at the point: the induced bracket of trace functions."""
    return eval_trace(spec.mbracket(a, b), p)


def check_induced_poisson(spec: BracketSpec, p: MatrixPoint, maxdeg: int = 3,
                          all_witnesses: bool = False) -> VerificationReport:
    """Trace-level skew symmetry and Jacobi identity at one matrix point.

    For all monomials a, b, c of degree <= maxdeg (units are trivial and
    skipped): tr({a,b} + {b,a}) == 0 and tr({a,{b,c}} - {b,{a,c}} - {{a,b},c})
    == 0, exactly over the rationals (summed as scaled integers, see the
    module docstring).  A point of another algebra is a ValueError.

    Both residuals meet the class contract of :func:`ncdb.axioms.sweep`, so
    each is computed once per pair of cyclic classes of (a, b).  By the
    proof in :func:`ncdb.axioms.check_h0_skew`, {u, w} = {cnf(u), w} exactly
    and {u, w} = {u, cnf(w)} mod [A,A]; tr kills [A,A], so
    tr{a,b} = tr{cnf(a), cnf(b)}.  By the proof in
    :func:`ncdb.axioms.check_jacobi`, J(a,b,x) = J(cnf(a), cnf(b), x)
    exactly.

    Both stages go through the derivation rule of :func:`ncdb.axioms.check_jacobi`
    (proved there): {a,-} is a derivation, and so, for fixed a and b, is
    c -> J(a,b,c).  Trace is cyclic, so for such a derivation d, on
    c = x_1 ... x_k,
        tr d(c) = sum_i tr(d(x_i) x_{i+1} ... x_k x_1 ... x_{i-1}),
    in particular tr{a, c} = sum_i tr({a,x_i} x_{i+1} ... x_{i-1}).  Each
    derivation is evaluated at the point once per letter x (inverse letters
    included), and each cell sums its rotations' traces: the pair stage
    forms one row {a,-} per cyclic class a and reads tr{a,b} + tr{b,a} off
    the rows of a and b (a normal form is itself a sweep word), the triple
    stage one row J(a,b,-) per ordered pair of classes.  J is evaluated only
    on letters, and at the point, through the Jacobi-defect spec of a that
    ``check_jacobi`` reads too, but never read off the rows or verdicts of
    ``check_jacobi``: no row is decided on the letters or mirrored here.
    """
    alg = spec.algebra
    if p.algebra != alg:
        raise ValueError("algebra mismatch")
    words = alg.words_up_to(maxdeg, include_unit=False)
    ids = list(sweep_ids(spec, words, 3)[1])  # the triple stage is the larger sweep
    # E, L and the powers D**(L - k) of the module docstring
    raws = [spec._letter_raw(x, y) for x in alg.letters for y in alg.letters]
    e = math.lcm(*(c.denominator for raw in raws for c in raw.values()))
    longest = max((len(l) + len(r) for raw in raws for l, r in raw), default=0)
    bound = 3 * maxdeg + 2 * max(longest - 2, 0)
    dpow = [p.denom ** (bound - k) for k in range(bound + 1)]
    word_of = spec._id_words
    letters = [(g, spec._wid((g,))) for g in alg.letters]

    # the rotations v = x_i ... x_k x_1 ... x_{i-1} of each word, each as x_i and the
    # transposed, flattened D**(maxdeg - k) * N(x_{i+1} ... x_{i-1})
    rotation_ids = {}
    cyclic = {c: [rotation_ids.setdefault(w[i:] + w[:i], len(rotation_ids)) for i in range(len(w))]
              for c, w in zip(ids, words)}
    rotations = [(v[0], [p.denom ** (maxdeg - len(v)) * y for col in zip(*p._int_matrix(v[1:])) for y in col])
                 for v in rotation_ids]

    def cells(derivation, scale):
        """{c: scale * D**(L + maxdeg - 1) * tr derivation(c)} over the sweep words."""
        at_letter = {}
        for g, x in letters:  # scale * D**L * derivation(x) at the point, flattened
            m = [0] * (p.size * p.size)
            for w, c in derivation(x).items():
                if len(w) > bound:
                    raise RuntimeError(f"word of length {len(w)} exceeds the trace bound {bound}")
                f = dpow[len(w)] * c.numerator * (scale // c.denominator)
                m = [s + f * y for s, y in zip(m, itertools.chain.from_iterable(p._int_matrix(w)))]
            at_letter[g] = m
        at_rotation = [sum(map(operator.mul, at_letter[g], r)) for g, r in rotations]
        return {c: sum(map(at_rotation.__getitem__, vs)) for c, vs in cyclic.items()}

    row = functools.cache(lambda a: cells(lambda x: {word_of[k]: c for k, c in spec._mb_ids(a, x).items()}, e))
    dcell = p.denom ** (bound + maxdeg - 1)  # the power of D in every cell
    params = {"size": p.size, "maxdeg": maxdeg}
    params["pairs"], witnesses = sweep(spec, ids, 2, lambda a, b: row(a)[b] + row(b)[a],
                                       lambda t, _: coef_str(Fraction(t, e * dcell)), "0", all_witnesses)
    if witnesses and not all_witnesses:
        return report("induced_trace_skew", spec, params, witnesses)

    def jacobi_row(a, b):  # the derivation x -> J(a,b,x), through the Jacobi-defect spec of a
        kernel, v = jacobi_defect_spec(spec, a)._mb_words, word_of[b]
        return cells(lambda x: kernel(v, word_of[x]), e * e).__getitem__

    params["triples"], more = sweep(spec, ids, 3, jacobi_row,
                                    lambda t, _: coef_str(Fraction(t, e * e * dcell)), "0", all_witnesses)
    return report("induced_trace_poisson", spec, params, witnesses + more)
