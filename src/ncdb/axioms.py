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
  double Jacobiator with :func:`poisson_rhs` at the same forms: (0, 0) for
  double Poisson, (lambda, 0) for lambda-double-Lie.  The
  Jacobiators read their double brackets through one memo that lives for
  that check, so each bracket of a letter and a word is computed once.

A comparison at a weight vector reads its forms from one table per check,
:func:`_form_table`, computed once per ordered pair of weight values.  Its
weights, s and k are in stored form (:func:`ncdb.freealg.exact`), as the
table coefficients are, so an integral spec at integral forms compares
``int`` terms only; :func:`weight_form` itself returns ``Fraction``s.

Both compare raw term dicts on every tuple first and keep only the dicts of
a failing one; no tensor is built, and text is rendered from those dicts,
through one memo of word names per check, only once the witness cap holds.

Both are sufficient for the axiom on the whole algebra because the brackets
are Leibniz extensions.  :func:`sweep` is the bounded check on monomials: it
runs a residual kernel over unordered pairs or ordered triples of monomials
up to a degree, and counts every cell; :func:`sweep_ids` refuses one of more
than ``MAX_CELLS`` cells, and the sweep itself one of more than
``MAX_WITNESSES`` witnesses.  It applies the class rule of the package:
every kernel depends on a and b only through their cyclic classes, so the
sweep computes it once per pair of classes, at their normal forms, read
from the spec's one class map (``BracketSpec._cls``), which the Jacobiator
also reads to bracket the words of {a,b} with c once per class.  Its
kernels are the cyclic normal form of {a,b} + {b,a}, which is the
multiplied bracket {a,b} of the spec whose table is the letter skew defects
(``check_h0_skew``, through that spec's ``BracketSpec._mb_words``), an
integer trace at a matrix point (``repspace.check_induced_poisson``) and
the Jacobiator itself (:func:`ncdb.bracket.jacobiator_ids`, read by
``check_jacobi`` and at the point by ``check_induced_poisson``).  Each
kernel's class rule is proved in the docstring of its checker.

Both symbolic sweeps decide on the letters what a proof settles there: for
fixed (a, b) the Jacobiator is a derivation in c, so a row that vanishes on
the letters is not scanned, and skew defects that are a weight form make
every h0 residual 0, so that sweep is not run at all, and make the Jacobi
row (b, a) the row (a, b) negated, so only rows a < b are built.  So the
symbolic sweeps are not independent of the letter comparisons; the
independent evidence is the trace check of ``repspace``, which sweeps every
pair and triple at a matrix point and builds a Jacobi row for every ordered
pair of classes, and the unreduced sweeps of the test oracles.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass, field
from fractions import Fraction

from .freealg import Tensor2, WordNames, _merge_term, coef_str, concat, cyclic_normal_form, exact, render_terms
from .bracket import BracketSpec, jacobiator_ids


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
        for row in sym + skew:
            for x in row:
                exact(x)  # refuses floats and strings; the entries are kept as given
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


def skew_defect(spec: BracketSpec, x: int, y: int) -> dict:
    """Raw terms of <<x, y>> + flip(<<y, x>>) on single letters."""
    terms = dict(spec._letter_raw(x, y))
    for (p, q), c in spec._letter_raw(y, x).items():
        _merge_term(terms, (q, p), c)
    return terms


def skew_defect_spec(spec: BracketSpec) -> BracketSpec:
    """The defect spec: the ``BracketSpec`` over ``spec.algebra`` whose
    table holds the :func:`skew_defect` of every ordered pair of generators.
    Its letter brackets are the skew defects of all letters, inverse letters
    included (proved in :func:`check_h0_skew`), and its ``_letter_cache``
    is their memo."""
    alg, gens = spec.algebra, range(1, spec.algebra.d + 1)
    return BracketSpec(alg, {(x, y): Tensor2(alg, skew_defect(spec, x, y)) for x in gens for y in gens})


def weight_form(lx, ly) -> tuple:
    """(s, k) = ((lx + ly)/2, (lx - ly)/2) for letters x, y of weights lx, ly:
    weighted skew symmetry prescribes :func:`form_terms` (x, y, s, k) as their
    skew defect, and :func:`poisson_rhs` scales by the same s and k."""
    return Fraction(lx + ly, 2), Fraction(lx - ly, 2)


def _form_table(weights):
    """(i, j) -> the :func:`weight_form` of letters i and j, indices into
    ``weights``: one table per check, computed once per ordered pair of
    weight values.  Weights, s and k are in stored form (:func:`exact`), so
    an integral form is a pair of ``int``s and the letter comparisons of an
    integral spec run in ``int`` arithmetic."""
    values = [exact(x) for x in weights]
    forms = {key: tuple(map(exact, weight_form(*key))) for key in itertools.product(dict.fromkeys(values), repeat=2)}
    rows = [[forms[a, b] for b in values] for a in values]
    return lambda i, j: rows[i][j]


def form_terms(x: int, y: int, s, k) -> dict:
    """Raw terms of s * (x (x) y - y (x) x) + k * (1 (x) xy - yx (x) 1)."""
    terms = {}
    if s:
        _merge_term(terms, ((y,), (x,)), -s)
        _merge_term(terms, ((x,), (y,)), s)
    if k:  # concat: a Laurent pair x, x^-1 cancels here
        _merge_term(terms, ((), concat((x,), (y,))), k)
        _merge_term(terms, (concat((y,), (x,)), ()), -k)
    return terms


def poisson_rhs(spec: BracketSpec, x: int, y: int, z: int, s, k) -> dict:
    """Raw terms of the prescribed double Jacobiator value on a letter triple
    whose letters x, y have the :func:`weight_form` (s, k): each term
    c * p (x) q of <<x, z>> gives -s * c * p (x) y (x) q plus
    k * c * p (x) 1 (x) yq.  <<x, z>> is a letter bracket, read from the
    spec's letter cache; the Jacobiator these terms are compared with goes
    through the per-check memo of :func:`triple_witnesses`."""
    terms = {}
    for (p, q), c in spec._letter_raw(x, z).items():
        if s:
            _merge_term(terms, (p, (y,), q), -s * c)
        if k:
            _merge_term(terms, (p, (), concat((y,), q)), k * c)
    return terms


def _letter_witnesses(spec: BracketSpec, arity: int, compare) -> list:
    """Witnesses of every ordered letter tuple whose raw terms
    ``compare(indices, letters)`` returns as two different dicts (actual,
    expected); indices point into ``algebra.letters``.

    The comparison runs over every tuple first and keeps only the two raw
    dicts of each failing one, so more than ``MAX_WITNESSES`` is a
    ValueError, as in :func:`sweep`, raised before any text exists.  Then
    each failing tuple is rendered from its dicts, its residual merged on
    raw terms, through one memo of word names for the whole check.
    """
    alg = spec.algebra
    letters = alg.letters
    failing = []
    for idx in itertools.product(range(len(letters)), repeat=arity):
        cell = tuple(letters[i] for i in idx)
        actual, expected = compare(idx, cell)
        if actual != expected:
            if len(failing) == MAX_WITNESSES:
                raise ValueError(f"sweep has more than {MAX_WITNESSES} witnesses")
            failing.append((cell, actual, expected))
    names = WordNames(alg)
    witnesses = []
    for cell, actual, expected in failing:
        residual = dict(actual)
        for key, c in expected.items():
            _merge_term(residual, key, -c)
        witnesses.append(Witness(tuple(names[(g,)][1] for g in cell),
                                 render_terms(alg, expected, arity, names),
                                 render_terms(alg, actual, arity, names),
                                 render_terms(alg, residual, arity, names)))
    return witnesses


def pair_witnesses(spec: BracketSpec, form) -> list:
    """Letter pairs whose skew defect is not the quadratic form
    s * (x (x) y - y (x) x) + k * (1 (x) xy - yx (x) 1), (s, k) = form(i, j)."""
    return _letter_witnesses(spec, 2, lambda idx, cell: (
        skew_defect(spec, *cell), form_terms(*cell, *form(*idx))))


def triple_witnesses(spec: BracketSpec, form) -> list:
    """Letter triples whose double Jacobiator is not :func:`poisson_rhs` at
    (s, k) = form(i, j), i and j indexing the triple's first two letters.

    Each triple's Jacobiator is ``BracketSpec._djac_words`` on its three
    letters, through a memo of ``_dbr_words`` that lives for this one check:
    every bracket <<x, p>> of a letter and a word of the table is computed
    once, however many triples read it.  Forms are in stored form, as
    :func:`_form_table` gives them, so on an integral spec every term is an
    ``int`` product compared with ``int``s.
    """
    dbr = functools.cache(spec._dbr_words)
    djac = spec._djac_words
    return _letter_witnesses(spec, 3, lambda idx, cell: (
        djac((cell[0],), (cell[1],), (cell[2],), dbr),
        poisson_rhs(spec, *cell, *form(idx[0], idx[1]))))


MAX_CELLS = 50_000_000  # most cells one sweep may count; Jacobi to degree 5 on three generators has 363**3


def sweep_ids(spec: BracketSpec, words, arity: int) -> tuple:
    """(cells, ids): the number of cells of a :func:`sweep` of ``arity`` over
    ``words``, n (n + 1) / 2 unordered pairs or n**3 triples of n words, and
    their interned ids, an iterator that interns each word as it is read, so
    a check decided without sweeping interns none.

    More than ``MAX_CELLS`` cells is a ValueError, raised before any bracket
    is computed: the word cap bounds the words, not the cells, and a sweep's
    memos grow with its cells.
    """
    n = len(words)
    cells = n * (n + 1) // 2 if arity == 2 else n ** 3
    if cells > MAX_CELLS:
        raise ValueError(f"{n} monomials give a sweep of {cells} cells, more than {MAX_CELLS}")
    return cells, map(spec._wid, words)


MAX_WITNESSES = 100_000  # most witnesses one sweep may keep; the largest report of the tests has 43,086


def sweep(spec: BracketSpec, ids, arity: int, residual, render, expected: str, all_witnesses: bool):
    """The bounded sweep over unordered pairs a <= b (arity 2) or ordered
    triples (arity 3) of interned monomial ids, in order.

    For pairs ``residual(a, b)`` is the residual; for triples
    ``residual(a, b)`` returns the residual as a function of c, so work that
    depends on (a, b) alone is done once per pair, or None when the row is
    known to hold on every c: its cells are counted and not visited.  A
    residual is falsy when the identity holds; a failing cell becomes a
    witness whose residual text is ``render(residual, names)``, ``names``
    being the sweep's one :class:`ncdb.freealg.WordNames` memo keyed by
    interned id, which also names the cell's monomials.  Stops at the first
    witness unless ``all_witnesses``; more than ``MAX_WITNESSES`` is a
    ValueError.  Returns (cells visited, witnesses).

    The contract on ``residual``: its value at (a, b) is its value at
    (cnf(a), cnf(b)), cnf being :func:`cyclic_normal_form`, and for pairs
    it is symmetric in a and b.  So the sweep calls it at the normal forms
    only: once per unordered pair of classes (arity 2) or once per ordered
    pair (arity 3), memoized for this sweep.  It still visits and counts
    every cell in order, and witnesses name the original monomials.
    """
    ids = list(ids)
    cls = spec._cls  # the spec's one class map, word id -> id of its normal form
    memo = functools.cache(residual)
    if arity == 2:
        rows = (((a,), lambda b, ca=cls(a): memo(*sorted((ca, cls(b)))), ids[i:]) for i, a in enumerate(ids))
    else:
        rows = (((a, b), memo(cls(a), cls(b)), ids) for a in ids for b in ids)
    names = WordNames(spec.algebra, spec._id_words)
    count = 0
    witnesses = []
    for head, at, tails in rows:
        if at is None:
            count += len(tails)
            continue
        for z in tails:
            count += 1
            res = at(z)
            if res:
                if len(witnesses) == MAX_WITNESSES:
                    raise ValueError(f"sweep has more than {MAX_WITNESSES} witnesses")
                text = render(res, names)
                witnesses.append(Witness(tuple(names[k][1] for k in head + (z,)), expected, text, text))
                if not all_witnesses:
                    return count, witnesses
    return count, witnesses


# ---------------------------------------------------------------------------
# generator-level checks


def check_cyclic_skew(spec: BracketSpec) -> VerificationReport:
    """<<x,y>> = -flip(<<y,x>>) on every letter pair (sufficient by Leibniz)."""
    witnesses = pair_witnesses(spec, lambda i, j: (0, 0))
    return report("cyclic_skew_symmetry", spec, {"pairs": len(spec.algebra.letters) ** 2}, witnesses)


def check_double_poisson(spec: BracketSpec) -> VerificationReport:
    """Cyclic skew-symmetry plus vanishing double Jacobiator on generators."""
    n = len(spec.algebra.letters)
    form = lambda i, j: (0, 0)  # weight_form(0, 0) in stored form
    witnesses = pair_witnesses(spec, form) + triple_witnesses(spec, form)
    return report("double_poisson", spec, {"pairs": n ** 2, "triples": n ** 3}, witnesses)


def check_weight(spec: BracketSpec, weights) -> VerificationReport:
    """The skew defect on every letter pair equals the weighted quadratic form.

    On a localised algebra the letter list includes the inverse letters, whose
    weights must be the negated base weights (the unique consistent extension).
    """
    w = spec.algebra.weight_vector(weights)
    witnesses = pair_witnesses(spec, _form_table(w))
    params = {"weights": [coef_str(x) for x in w], "pairs": len(w) ** 2}
    return report("weighted_skew_symmetry", spec, params, witnesses)


def _read_form(spec: BracketSpec, i: int, j: int) -> tuple:
    """The (s, k) that :func:`pair_witnesses` compares the (i, j) skew defect
    against: its x_i (x) x_j and 1 (x) x_i x_j coefficients."""
    terms = skew_defect(spec, i, j)
    return terms.get(((i,), (j,)), 0), terms.get(((), (i, j)), 0)


def infer_weight(spec: BracketSpec):
    """Solve the weighted-skew condition for the weight vector, or None.

    The weights are read off the pairs (x_1, x_j), where (s, k) is
    ((l_1 + l_j)/2, (l_1 - l_j)/2): l_1 = s + k from (x_1, x_2) and
    l_j = s - k from each (x_1, x_j).  Inverse letters carry the negated
    weight of their generator.  The result is validated with
    :func:`check_weight` on every letter pair before being returned.
    """
    alg = spec.algebra
    forms = [_read_form(spec, 1, j) for j in range(2, alg.d + 1)]
    base = [sum(forms[0]) if forms else 0] + [s - k for s, k in forms]
    full = alg.weight_vector(alg.letter_weights(base))
    return full if check_weight(spec, full).passed else None


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

    Each pair i < j gives (s, k) = (sym[i][j], skew[i][j]).  Returns None
    when the skew defects are not the type so read, which
    :func:`check_mixed_type` decides on every pair, the diagonal included:
    a defect outside the four-dimensional quadratic span fails there.
    Diagonal entries of the symmetric part are a free gauge; they are set
    from the weight equations when those are solvable, else to zero.
    """
    alg = spec.algebra
    if alg.has_inverses:
        raise ValueError("mixed types are defined on free algebras only")
    d = alg.d
    sym = [[0] * d for _ in range(d)]
    skw = [[0] * d for _ in range(d)]
    for i, j in itertools.combinations(range(d), 2):
        s, k = _read_form(spec, i + 1, j + 1)
        sym[i][j] = sym[j][i] = s
        skw[i][j], skw[j][i] = k, -k
    # gauge-fix the diagonal from the weight equations when consistent
    for i in range(d):
        vals = {sym[i][j] + skw[i][j] for j in range(d) if j != i}
        if len(vals) == 1:
            sym[i][i] = vals.pop()
    mt = MixedType(tuple(map(tuple, sym)), tuple(map(tuple, skw)))
    return mt if check_mixed_type(spec, mt).passed else None


def check_poisson_property(spec: BracketSpec, weights) -> VerificationReport:
    """The double Jacobiator on letter triples takes its prescribed value."""
    w = spec.algebra.weight_vector(weights)
    params = {"weights": [coef_str(x) for x in w], "triples": len(w) ** 3}
    return report("poisson_property", spec, params, triple_witnesses(spec, _form_table(w)))


def check_lambda_double_lie(spec: BracketSpec, lam) -> VerificationReport:
    """Skew and Jacobiator axioms for a bracket that stays inside V (x) V:
    the weight-(lam, ..., lam) comparisons."""
    alg = spec.algebra
    if alg.has_inverses:
        raise ValueError("defined for free algebras only")
    lam = exact(lam)
    for (i, j), u in spec.table.items():
        for (w1, w2) in u.terms:
            if len(w1) != 1 or len(w2) != 1 or w1[0] < 0 or w2[0] < 0:
                names = (alg.render_word((i,)), alg.render_word((j,)))
                witness = Witness(names, "a combination of generator (x) generator terms", str(u), str(u))
                return report("lambda_double_lie", spec, {"reason": "not V(x)V-valued"}, [witness])
    form = lambda i, j: (lam, 0)  # weight_form(lam, lam) in stored form
    witnesses = pair_witnesses(spec, form) + triple_witnesses(spec, form)
    return report("lambda_double_lie", spec, {"lambda": coef_str(lam)}, witnesses)


# ---------------------------------------------------------------------------
# bounded sweeps on monomials


def check_h0_skew(spec: BracketSpec, maxdeg: int = 4, all_witnesses: bool = False) -> VerificationReport:
    """{a,b} + {b,a} lies in [A,A] for all monomials of degree <= maxdeg.

    The residual is symmetric in (a, b), so unordered pairs are swept.  On a
    localised algebra the sweep runs over reduced Laurent monomials and the
    commutator classes are cyclic classes of cyclically reduced words.

    The residual, {a,b} + {b,a} on cyclic normal forms, meets the class
    contract of :func:`sweep`.  ``BracketSpec._mb_words`` sums over the
    letters x of u, and u enters each summand only through x and the
    rotation of u that follows it; a rotation of u has the same letters and
    rotations, so {bc, w} = {cb, w}.  So {-, w} vanishes on [A,A], and
    {u, w} = {cnf(u), w} exactly: cnf(u) is reached from u by rotations and,
    on a Laurent algebra, by cancellation, as in x (y x^-1) -> (y x^-1) x = y.
    In the second argument the Leibniz rule {u, bc} = b{u,c} + {u,b}c gives
    {u, bc} - {u, cb} = [b,{u,c}] + [{u,b},c], so {u, -} maps [A,A] into
    itself and {u, w} = {u, cnf(w)} mod [A,A].  Hence the residual at
    (a, b) is the residual at (cnf(a), cnf(b)).

    It is {a,b} of the defect spec, :func:`skew_defect_spec`, whose table
    holds the skew defects D(x, y) = :func:`skew_defect` (x, y) of the
    ordered pairs of generators: built once per sweep and read as
    ``defects._mb_words`` (a, b), each word put to its cnf.  A term
    c * p (x) q of <<x,y>>, x = a_i and y = b_j, gives c * b_<j p A_i q b_>j
    in {a,b} and under D alike, A_i = a_>i a_<i.  One of <<y,x>> gives
    a_<i p B_j q a_>i in {b,a}; in D(x, y) it is the term c * q (x) p of
    flip(<<y,x>>), whose word b_<j q A_i p b_>j is a rotation of it.  On a
    Laurent algebra the two words are conjugate in the free group, so one
    cnf serves, and the defect spec's inverse-letter brackets are the skew
    defects of the inverse letters.  Write <<x,y>> = sum p (x) q and
    <<y,x>> = sum r (x) s, so D(x,y) = sum p (x) q + sum s (x) r.  By the
    inverse rule of ``BracketSpec._letter_raw``, <<x^-1,y>> =
    -sum p x^-1 (x) x^-1 q and flip(<<y,x^-1>>) = -sum s x^-1 (x) x^-1 r,
    whose sum is the rule's image of D(x,y); the second slot works the
    same way, and an inverse in both slots is the two rules in turn.

    When every letter skew defect is a weight form (:func:`infer_weight`
    finds weights l), the residual is 0 at every (a, b): the sweep is decided
    on the letters and its n (n + 1) / 2 pairs are counted, not visited.
    Write alpha_i = a_i A_i and beta_j = b_j B_j for the rotations of a and
    b.  At (x, y) = (a_i, b_j) the defect is :func:`form_terms` (x, y, s, k),
    (s, k) = :func:`weight_form` (l_x, l_y), and its four terms put through
    the word above give the classes s[alpha_i beta_j] - s[alpha_(i+1)
    beta_(j+1)] + k[alpha_(i+1) beta_j] - k[alpha_i beta_(j+1)], indices mod
    |a| and |b|.  So the coefficient of [alpha_i beta_j] collects to
    s(a_i, b_j) - s(a_(i-1), b_(j-1)) + k(a_(i-1), b_j) - k(a_i, b_(j-1)),
    in which each weight appears once with + 1/2 and once with - 1/2: it is
    0 for any weights, inverse letters included, and pairs (i, j) of one
    class add zeros.
    """
    words = spec.algebra.words_up_to(maxdeg)
    pairs, ids = sweep_ids(spec, words, 2)  # refuses an oversized sweep before any letter bracket
    witnesses = []
    if infer_weight(spec) is None:  # else a weight form: every residual is 0, see above
        word_of, defects = spec._id_words, skew_defect_spec(spec)

        def residual(a, b):  # {a,b} + {b,a} on cyclic normal forms: {a,b} of the skew defects
            res = {}
            for word, c in defects._mb_words(word_of[a], word_of[b]).items():
                _merge_term(res, spec._wid(cyclic_normal_form(word)), c)
            return res

        pairs, witnesses = sweep(spec, ids, 2, residual, lambda res, names: render_terms(spec.algebra, res, 1, names),
                                 "0 mod commutators", all_witnesses)
    return report("h0_skew_symmetry", spec, {"maxdeg": maxdeg, "pairs": pairs, "words": len(words)}, witnesses)


def check_jacobi(spec: BracketSpec, maxdeg: int = 3, all_witnesses: bool = False) -> VerificationReport:
    """{a,{b,c}} - {b,{a,c}} - {{a,b},c} = 0 exactly on bounded monomials.

    Triples containing the unit monomial vanish identically ({1,-} = 0 = {-,1})
    and are skipped; the reported triple count is over nonunit monomials.

    Applying m to the Leibniz rule <<a,bc>> = (b (x) 1)<<a,c>> + <<a,b>>(1 (x) c)
    gives {a,bc} = b{a,c} + {a,b}c, so D_u = {u,-} is a derivation for every
    monomial u; ``BracketSpec._mb_words`` computes it as exactly this
    positional sum over the letters of its second argument.  On a Laurent
    algebra the brackets of inverse letters are forced by <<a,1>> = 0, so
    D_u(x^-1) = -x^-1 D_u(x) x^-1 and D_u is a derivation there too.  For
    fixed a and b the residual c -> D_a(D_b(c)) - D_b(D_a(c)) - D_{{a,b}}(c)
    is a commutator of derivations minus a linear combination of them, so a
    derivation D.  On a monomial c = x_1 ... x_k over ``algebra.letters``
    (inverse letters included), D(c) is the sum over i of
    x_1 ... x_{i-1} D(x_i) x_{i+1} ... x_k.  Hence a row (a, b) whose
    residual vanishes on every letter vanishes on every monomial c of any
    degree: it is counted as ``len(words)`` passing triples and not
    scanned.  Any other row is scanned cell by cell in order.

    The row meets the class contract of :func:`sweep`: J(a,b,c) =
    J(cnf(a),cnf(b),c) exactly.  By the proof in :func:`check_h0_skew`,
    {u, w} = {cnf(u), w} exactly and {u, w} = {u, cnf(w)} mod [A,A], and
    {-, c} vanishes on [A,A].  Replacing a changes only first arguments:
    {a,{b,c}}, {a,c} and {a,b}.  Replacing b changes the first arguments of
    {b,c} and {b,{a,c}}, and {a,b} by an element of [A,A], which {-, c}
    maps to 0.  The third argument stays a word: J is a derivation in c, so
    rotating c changes J by a commutator, not by 0.  The same exact rule
    groups the third term: with {a,b} = sum_w c_w w and K running over the
    cyclic classes of its words, {{a,b},c} = sum_K (sum_{w in K} c_w)
    {cnf K, c}, so :func:`ncdb.bracket.jacobiator_ids` brackets each class
    of nonzero sum with c once, at its normal form.

    When every letter skew defect is a weight form (:func:`infer_weight`
    finds weights), rows are built only for class pairs a < b.  For such a
    spec :func:`check_h0_skew` proves {a,b} + {b,a} in [A,A] for every pair
    of monomials, and {-, c} vanishes on [A,A] exactly, so {{a,b},c} =
    -{{b,a},c}.  The other two terms of J(b,a,c) are those of J(a,b,c)
    negated, hence J(a,b,c) + J(b,a,c) = 0 exactly.  So the row (b, a) is
    the row (a, b) with every cell negated, read through the one cell memo
    of that pair, and over Q the row (a, a) is 0.  Any other spec builds
    every ordered pair.
    """
    words = spec.algebra.words_up_to(maxdeg, include_unit=False)
    ids = sweep_ids(spec, words, 3)[1]
    letters = [spec._wid((g,)) for g in spec.algebra.letters]
    mirror = infer_weight(spec) is not None  # J(b,a,c) = -J(a,b,c), see above

    @functools.cache
    def direct(a, b):  # not recursive, so no sweep closure reaches itself and keeps the spec alive
        at = functools.cache(functools.partial(jacobiator_ids, spec, a, b))  # one for a class pair's rows
        return at if any(map(at, letters)) else None  # a derivation in c

    def row(a, b):
        if not mirror or a < b:
            return direct(a, b)
        at = direct(b, a) if a > b else None  # the row (a, a) is 0
        return None if at is None else lambda c: {u: -v for u, v in at(c).items()}

    triples, witnesses = sweep(spec, ids, 3, row, lambda res, names: render_terms(spec.algebra, res, 1, names),
                               "0", all_witnesses)
    return report("jacobi_identity", spec, {"maxdeg": maxdeg, "triples": triples, "words": len(words)}, witnesses)


# ---------------------------------------------------------------------------
# batteries


def modified_double_poisson_battery(spec: BracketSpec, weights=None, pair_deg: int = 4, triple_deg: int = 3):
    """The full verification pipeline for a modified double Poisson bracket.

    Returns (reports, weights_used).  If no weight vector is supplied and none
    is stored on the spec, one is inferred; failure to infer is itself a
    failing report.
    """
    if weights is None:
        weights = spec.weight
    if weights is None:
        weights = infer_weight(spec)
        if weights is None:
            params = {"algebra": spec.algebra.describe(), "reason": "no consistent weight vector exists"}
            return [VerificationReport("weighted_skew_symmetry", False, params, [])], None
    weights = tuple(weights)
    return [
        check_weight(spec, weights),
        check_poisson_property(spec, weights),
        check_h0_skew(spec, pair_deg),
        check_jacobi(spec, triple_deg),
    ], weights
