"""Decision procedures for the bracket axiom systems.

Every check returns a :class:`VerificationReport`: axiom name, pass/fail,
the parameters of the sweep, and (on failure) counterexample witnesses with
the offending inputs and the exact nonzero residual.  Reports are
deterministic: the same spec and bounds yield byte-identical JSON.

Every check is one of two generator-level comparisons or one bounded sweep.

* :func:`pair_witnesses` compares, on every ordered letter pair (x, y), the
  skew defect <<x,y>> + flip(<<y,x>>) with the quadratic form
  s * (x (x) y - y (x) x) + k * (1 (x) xy - yx (x) 1).  Cyclic skew symmetry
  is (s, k) = (0, 0); weight l is ((l_x + l_y)/2, (l_x - l_y)/2); a mixed
  type reads (s, k) off its two matrices; lambda-double-Lie is (lambda, 0).
* :func:`triple_witnesses` compares, on every ordered letter triple, the
  double Jacobiator with :func:`poisson_rhs` at a weight vector: zero for
  double Poisson, (lambda, ..., lambda) for lambda-double-Lie.

Both are sufficient for the axiom on the whole algebra because the brackets
are Leibniz extensions.  :func:`sweep` is the deliberately independent brute
force: it runs a residual kernel over unordered pairs or ordered triples of
monomials up to a degree.  Its kernels are the cyclic normal form of
{a,b} + {b,a} (``check_h0_skew``), the Jacobiator itself (``check_jacobi``)
and an integer trace at a matrix point (``repspace.check_induced_poisson``).
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass, field
from fractions import Fraction

from .freealg import (
    Element,
    Tensor2,
    _merge_term,
    concat,
    inner_act,
    otimes1_right,
)
from .bracket import BracketSpec

HALF = Fraction(1, 2)


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class Witness:
    inputs: tuple
    expected: str
    actual: str
    residual: str

    def as_dict(self):
        return {
            "inputs": list(self.inputs),
            "expected": self.expected,
            "actual": self.actual,
            "residual": self.residual,
        }


@dataclass
class VerificationReport:
    axiom: str
    passed: bool
    params: dict = field(default_factory=dict)
    witnesses: list = field(default_factory=list)

    @property
    def status(self) -> str:
        return "pass" if self.passed else "fail"

    def as_dict(self):
        return {
            "schema": "ncdb-report/1",
            "axiom": self.axiom,
            "status": self.status,
            "params": self.params,
            "witnesses": [w.as_dict() for w in self.witnesses],
        }

    def to_json(self, indent=None) -> str:
        return json.dumps(self.as_dict(), indent=indent, sort_keys=True)

    def summary(self) -> str:
        head = f"{self.status.upper():4s} {self.axiom}"
        extras = ", ".join(f"{k}={v}" for k, v in sorted(self.params.items()) if k != "algebra")
        if extras:
            head += f"  [{extras}]"
        if self.witnesses:
            w = self.witnesses[0]
            head += f"\n     witness {w.inputs}: residual {w.residual}"
        return head


@dataclass(frozen=True)
class MixedType:
    """Quadratic skew-defect coefficients: a symmetric matrix on the
    factor-swap terms and a skew matrix (zero diagonal) on the one-sided
    product terms."""

    sym: tuple
    skew: tuple

    def __post_init__(self):
        d = len(self.sym)
        sym = tuple(tuple(row) for row in self.sym)
        skew = tuple(tuple(row) for row in self.skew)
        object.__setattr__(self, "sym", sym)
        object.__setattr__(self, "skew", skew)
        if any(len(r) != d for r in sym) or len(skew) != d or any(len(r) != d for r in skew):
            raise ValueError("matrices must be square of the same size")
        for i in range(d):
            if skew[i][i] != 0:
                raise ValueError("skew part must have zero diagonal")
            for j in range(d):
                if sym[i][j] != sym[j][i]:
                    raise ValueError("first matrix must be symmetric")
                if skew[i][j] != -skew[j][i]:
                    raise ValueError("second matrix must be skew-symmetric")

    @property
    def d(self):
        return len(self.sym)


# ---------------------------------------------------------------------------
# the two generator-level comparisons and the bounded sweep


def report(axiom: str, spec: BracketSpec, params: dict, witnesses: list) -> VerificationReport:
    """A report that passes exactly when there are no witnesses."""
    return VerificationReport(axiom, not witnesses, {"algebra": spec.algebra.describe(), **params}, witnesses)


def skew_defect(spec: BracketSpec, x: int, y: int) -> Tensor2:
    """<<x, y>> + flip(<<y, x>>) on single letters."""
    return spec.letter_bracket(x, y) + spec.letter_bracket(y, x).flip()


def poisson_rhs(spec: BracketSpec, x: int, y: int, z: int, lx, ly):
    """Prescribed double Jacobiator value on a letter triple of weights lx, ly."""
    alg = spec.algebra
    u = spec.letter_bracket(x, z)
    half_sum = Fraction(lx + ly) * HALF
    half_diff = Fraction(lx - ly) * HALF
    rhs = alg.zero_t3()
    if half_sum and u:
        rhs = rhs - otimes1_right(alg.letter_elt(y), u).scale(half_sum)
    if half_diff and u:
        shifted = inner_act(alg.letter_elt(y), u, alg.one())  # u' (x) y.u''
        rhs = rhs + otimes1_right(alg.one(), shifted).scale(half_diff)
    return rhs


def _letter_witnesses(spec: BracketSpec, arity: int, lhs, rhs) -> list:
    """Witnesses of every ordered letter tuple where lhs(*letters) differs
    from rhs(indices, letters); indices point into ``algebra.letters``."""
    alg = spec.algebra
    letters = alg.letters
    witnesses = []
    for idx in itertools.product(range(len(letters)), repeat=arity):
        cell = tuple(letters[i] for i in idx)
        actual, expected = lhs(*cell), rhs(idx, cell)
        if actual != expected:
            names = tuple(alg.render_word((g,)) for g in cell)
            witnesses.append(Witness(names, str(expected), str(actual), str(actual - expected)))
    return witnesses


def pair_witnesses(spec: BracketSpec, form) -> list:
    """Letter pairs whose skew defect is not the quadratic form
    s * (x (x) y - y (x) x) + k * (1 (x) xy - yx (x) 1), (s, k) = form(i, j)."""
    alg = spec.algebra

    def rhs(idx, cell):
        (x, y), (s, k) = cell, form(*idx)
        terms = {}
        if s:
            _merge_term(terms, ((x,), (y,)), s)
            _merge_term(terms, ((y,), (x,)), -s)
        if k:  # concat: a Laurent pair x, x^-1 cancels here
            _merge_term(terms, ((), concat((x,), (y,))), k)
            _merge_term(terms, (concat((y,), (x,)), ()), -k)
        return Tensor2(alg, terms)

    return _letter_witnesses(spec, 2, lambda x, y: skew_defect(spec, x, y), rhs)


def triple_witnesses(spec: BracketSpec, weights) -> list:
    """Letter triples whose double Jacobiator is not :func:`poisson_rhs`."""
    elts = {g: spec.algebra.letter_elt(g) for g in spec.algebra.letters}
    return _letter_witnesses(
        spec, 3,
        lambda x, y, z: spec.djac(elts[x], elts[y], elts[z]),
        lambda idx, cell: poisson_rhs(spec, *cell, weights[idx[0]], weights[idx[1]]),
    )


def sweep(spec: BracketSpec, ids, arity: int, residual, render, expected: str, all_witnesses: bool):
    """The bounded sweep over unordered pairs a <= b (arity 2) or ordered
    triples (arity 3) of interned monomial ids, in order.

    For pairs ``residual(a, b)`` is the residual; for triples
    ``residual(a, b)`` returns the residual as a function of c, so work that
    depends on (a, b) alone is done once per pair.  A residual is falsy when
    the identity holds; a failing cell becomes a witness whose residual
    text is ``render`` of it.  Stops at the first witness unless
    ``all_witnesses``.  Returns (cells visited, witnesses).
    """
    if arity == 2:
        rows = (((a,), functools.partial(residual, a), ids[i:]) for i, a in enumerate(ids))
    else:
        rows = (((a, b), residual(a, b), ids) for a in ids for b in ids)
    name = spec.algebra.render_word
    word_of = spec._id_words
    count = 0
    witnesses = []
    for head, at, tails in rows:
        for z in tails:
            count += 1
            res = at(z)
            if res:
                text = render(res)
                names = tuple(name(word_of[k]) for k in head + (z,))
                witnesses.append(Witness(names, expected, text, text))
                if not all_witnesses:
                    return count, witnesses
    return count, witnesses


def _id_element(spec: BracketSpec, res: dict) -> str:
    return str(Element(spec.algebra, {spec._id_words[k]: v for k, v in res.items() if v}))


def _weights(spec: BracketSpec, weights) -> tuple:
    weights = tuple(weights)
    if len(weights) != len(spec.algebra.letters):
        raise ValueError(f"expected {len(spec.algebra.letters)} weights, got {len(weights)}")
    return weights


# ---------------------------------------------------------------------------
# generator-level checks


def check_cyclic_skew(spec: BracketSpec) -> VerificationReport:
    """<<x,y>> = -flip(<<y,x>>) on every letter pair (sufficient by Leibniz)."""
    witnesses = pair_witnesses(spec, lambda i, j: (0, 0))
    return report("cyclic_skew_symmetry", spec, {"pairs": len(spec.algebra.letters) ** 2}, witnesses)


def check_double_poisson(spec: BracketSpec) -> VerificationReport:
    """Cyclic skew-symmetry plus vanishing double Jacobiator on generators."""
    n = len(spec.algebra.letters)
    witnesses = pair_witnesses(spec, lambda i, j: (0, 0)) + triple_witnesses(spec, (0,) * n)
    return report("double_poisson", spec, {"pairs": n ** 2, "triples": n ** 3}, witnesses)


def check_weight(spec: BracketSpec, weights) -> VerificationReport:
    """The skew defect on every letter pair equals the weighted quadratic form.

    On a localised algebra the letter list includes the inverse letters, whose
    weights must be the negated base weights (the unique consistent extension).
    """
    w = _weights(spec, weights)
    witnesses = pair_witnesses(
        spec, lambda i, j: (Fraction(w[i] + w[j]) * HALF, Fraction(w[i] - w[j]) * HALF)
    )
    params = {"weights": [str(Fraction(x)) for x in w], "pairs": len(w) ** 2}
    return report("weighted_skew_symmetry", spec, params, witnesses)


def infer_weight(spec: BracketSpec):
    """Solve the weighted-skew condition for the weight vector, or None.

    Weights are read off positive generator pairs; inverse letters always
    carry the negated weight of their generator.  The result is validated
    with :func:`check_weight` before being returned.
    """
    alg = spec.algebra
    d = alg.d
    lam = [None] * d
    for i in range(1, d + 1):
        for j in range(1, d + 1):
            if i == j:
                continue
            defect = skew_defect(spec, i, j)
            terms = defect.terms
            s = terms.get(((i,), (j,)), 0)  # (lam_i + lam_j)/2
            t = terms.get(((), (i, j)), 0)  # (lam_i - lam_j)/2
            li = s + t
            lj = s - t
            if lam[i - 1] is None:
                lam[i - 1] = li
            if lam[j - 1] is None:
                lam[j - 1] = lj
    if d == 1:
        lam = [0]
    if any(v is None for v in lam):
        return None
    full = tuple(lam) + tuple(-lam[i - 1] for i in alg.inverted)
    full = tuple(Fraction(v) for v in full)
    if not check_weight(spec, full).passed:
        return None
    return full


def check_mixed_type(spec: BracketSpec, mtype: MixedType) -> VerificationReport:
    """Skew defect on generator pairs equals the prescribed quadratic form."""
    alg = spec.algebra
    if alg.has_inverses:
        raise ValueError("mixed types are defined on free algebras only")
    if mtype.d != alg.d:
        raise ValueError("type size does not match generator count")
    witnesses = pair_witnesses(spec, lambda i, j: (mtype.sym[i][j], mtype.skew[i][j]))
    return report("mixed_type", spec, {"pairs": alg.d ** 2}, witnesses)


def infer_mixed_type(spec: BracketSpec):
    """Coefficient extraction of the quadratic type from the skew defects.

    Returns None if some defect falls outside the four-dimensional quadratic
    span.  Diagonal entries of the symmetric part are a free gauge; they are
    set from the weight equations when those are solvable, else to zero.
    """
    alg = spec.algebra
    if alg.has_inverses:
        raise ValueError("mixed types are defined on free algebras only")
    d = alg.d
    sym = [[0] * d for _ in range(d)]
    skw = [[0] * d for _ in range(d)]
    for i in range(1, d + 1):
        defect = skew_defect(spec, i, i)
        if defect:
            return None
    for i in range(1, d + 1):
        for j in range(i + 1, d + 1):
            defect = skew_defect(spec, i, j)
            terms = dict(defect.terms)
            lam = terms.pop(((i,), (j,)), 0)
            lam2 = terms.pop(((j,), (i,)), 0)
            mu_ij = terms.pop(((), (i, j)), 0)
            mu_ji = terms.pop(((j, i), ()), 0)
            if terms or lam2 != -lam or mu_ji != -mu_ij:
                return None
            sym[i - 1][j - 1] = sym[j - 1][i - 1] = lam
            skw[i - 1][j - 1] = mu_ij
            skw[j - 1][i - 1] = -mu_ij
    # gauge-fix the diagonal from the weight equations when consistent
    for i in range(d):
        vals = {sym[i][j] + skw[i][j] for j in range(d) if j != i}
        if len(vals) == 1:
            sym[i][i] = vals.pop()
    mt = MixedType(tuple(map(tuple, sym)), tuple(map(tuple, skw)))
    if not check_mixed_type(spec, mt).passed:
        return None
    return mt


def check_wsk_condition(mtype: MixedType) -> bool:
    """The index condition sym[i][j] - sym[k][l] == skew[i][l] - skew[k][j]."""
    d = mtype.d
    rng = range(d)
    return all(
        mtype.sym[i][j] - mtype.sym[k][l] == mtype.skew[i][l] - mtype.skew[k][j]
        for i in rng
        for j in rng
        for k in rng
        for l in rng
    )


def check_poisson_property(spec: BracketSpec, weights) -> VerificationReport:
    """The double Jacobiator on letter triples takes its prescribed value."""
    w = _weights(spec, weights)
    params = {"weights": [str(Fraction(x)) for x in w], "triples": len(w) ** 3}
    return report("poisson_property", spec, params, triple_witnesses(spec, w))


def check_lambda_double_lie(spec: BracketSpec, lam) -> VerificationReport:
    """Skew and Jacobiator axioms for a bracket that stays inside V (x) V:
    the weight-(lam, ..., lam) comparisons."""
    alg = spec.algebra
    if alg.has_inverses:
        raise ValueError("defined for free algebras only")
    for (i, j), u in spec.table.items():
        for (w1, w2) in u.terms:
            if len(w1) != 1 or len(w2) != 1 or w1[0] < 0 or w2[0] < 0:
                names = (alg.render_word((i,)), alg.render_word((j,)))
                witness = Witness(names, "a combination of generator (x) generator terms", str(u), str(u))
                return VerificationReport(
                    "lambda_double_lie", False, {"algebra": alg.describe(), "reason": "not V(x)V-valued"}, [witness]
                )
    lam = Fraction(lam)
    witnesses = pair_witnesses(spec, lambda i, j: (lam, 0)) + triple_witnesses(spec, (lam,) * alg.d)
    return report("lambda_double_lie", spec, {"lambda": str(lam)}, witnesses)


# ---------------------------------------------------------------------------
# bounded brute-force sweeps


def check_h0_skew(spec: BracketSpec, maxdeg: int = 4, all_witnesses: bool = False) -> VerificationReport:
    """{a,b} + {b,a} lies in [A,A] for all monomials of degree <= maxdeg.

    The residual is symmetric in (a, b), so unordered pairs are swept.  On a
    localised algebra the sweep runs over reduced Laurent monomials and the
    commutator classes are cyclic classes of cyclically reduced words.
    """
    words = spec.algebra.words_up_to(maxdeg)
    mb = spec._mb_ids
    cnf = spec._cnf_id

    def residual(a, b):  # {a,b} + {b,a} on cyclic normal forms
        res = {}
        for part in (mb(a, b), mb(b, a)):
            for w, c in part.items():
                k = cnf(w)
                v = res.get(k)
                res[k] = c if v is None else v + c
        return any(res.values()) and res

    pairs, witnesses = sweep(spec, [spec._wid(w) for w in words], 2, residual,
                             lambda res: _id_element(spec, res), "0 mod commutators", all_witnesses)
    return report("h0_skew_symmetry", spec, {"maxdeg": maxdeg, "pairs": pairs, "words": len(words)}, witnesses)


def check_jacobi(spec: BracketSpec, maxdeg: int = 3, all_witnesses: bool = False) -> VerificationReport:
    """{a,{b,c}} - {b,{a,c}} - {{a,b},c} = 0 exactly on bounded monomials.

    Triples containing the unit monomial vanish identically ({1,-} = 0 = {-,1})
    and are skipped; the reported triple count is over nonunit monomials.
    """
    words = spec.algebra.words_up_to(maxdeg, include_unit=False)
    mb = spec._mb_ids

    def residual(a, b):
        ab = mb(a, b).items()

        def at(c):
            res = {}
            get = res.get
            for w, cw in mb(b, c).items():
                for u, cu in mb(a, w).items():
                    v = get(u)
                    res[u] = cw * cu if v is None else v + cw * cu
            for w, cw in mb(a, c).items():
                for u, cu in mb(b, w).items():
                    v = get(u)
                    res[u] = -cw * cu if v is None else v - cw * cu
            for w, cw in ab:
                for u, cu in mb(w, c).items():
                    v = get(u)
                    res[u] = -cw * cu if v is None else v - cw * cu
            return any(res.values()) and res

        return at

    triples, witnesses = sweep(spec, [spec._wid(w) for w in words], 3, residual,
                               lambda res: _id_element(spec, res), "0", all_witnesses)
    return report("jacobi_identity", spec, {"maxdeg": maxdeg, "triples": triples, "words": len(words)}, witnesses)


# ---------------------------------------------------------------------------
# batteries


def modified_double_poisson_battery(spec: BracketSpec, weights=None, pair_deg: int = 4, triple_deg: int = 3):
    """The full verification pipeline for a modified double Poisson bracket.

    Returns (reports, weights_used).  If no weight vector is supplied and none
    is stored on the spec, one is inferred; failure to infer is itself a
    failing report.
    """
    reports = []
    if weights is None:
        weights = spec.weight
    if weights is None:
        weights = infer_weight(spec)
        if weights is None:
            reports.append(
                VerificationReport(
                    "weighted_skew_symmetry",
                    False,
                    {"algebra": spec.algebra.describe(), "reason": "no consistent weight vector exists"},
                    [],
                )
            )
            return reports, None
    weights = tuple(weights)
    reports.append(check_weight(spec, weights))
    reports.append(check_poisson_property(spec, weights))
    reports.append(check_h0_skew(spec, pair_deg))
    reports.append(check_jacobi(spec, triple_deg))
    return reports, weights
