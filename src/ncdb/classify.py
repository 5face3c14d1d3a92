"""Constructors for the classified bracket families and the grid searches
that reproduce their classification tables.

Families (all tables are quadratic, all parameters exact rationals):

* ``mdb_one`` / ``mdb_two``  -- the two conjectured 3-generator brackets,
  of weights (1,-1,-1) and (-1,-1,-1);
* ``kontsevich``             -- the 2-generator bracket behind the Kontsevich
  system, weight (1,-1), Laurent-localisable;
* ``cl1`` / ``cl1_case1`` / ``cl1_case2`` -- the d=2 quadratic ansatz with
  zero self-brackets, parameterised by a 4-vector, and its two Poisson
  sub-families at opposite/equal weights;
* ``cl3a`` / ``cl3b``        -- the d=3 families of weights (1,1,1) and
  (1,1,-1) with binary parameters;
* ``cld`` / ``cld2``         -- two families on d >= 4 generators of weight
  (1,...,1,-1,...,-1) with delta leading +1s.

Every family gives its weights and one orientation (i, j) per generator
pair; :func:`weighted_table` stores each entry followed by the (j, i) entry
that weighted skew symmetry forces, so no reversed entry is written by hand.

The searches enumerate the full parameter grids, filter with the generic
axiom checks, and also evaluate the closed-form survivor conditions so that
the two routes can be compared pointwise.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .freealg import FreeAlgebra, exact
from .bracket import BracketSpec
from .axioms import check_poisson_property, check_weight, modified_double_poisson_battery

TRIPLE_SOLUTIONS = (
    (0, 0, 0),
    (1, 0, 0),
    (0, 0, 1),
    (1, 1, 0),
    (0, 1, 1),
    (1, 1, 1),
)

_FAMILIES = {}


@dataclass(frozen=True)
class FamilyParams:
    """A family tag plus its parameter tuple, with domain validation."""

    variant: str
    args: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "args", tuple(map(exact, self.args)))
        if self.variant not in _FAMILIES:
            raise ValueError(f"unknown family {self.variant!r}")
        _FAMILIES[self.variant][0](self.args)


def build(params: FamilyParams):
    """Instantiate a family: returns (BracketSpec, weight vector)."""
    return _FAMILIES[params.variant][1](*params.args)


def _family(name, validate):
    def deco(fn):
        _FAMILIES[name] = (validate, fn)
        return fn

    return deco


def _no_args(args):
    if args:
        raise ValueError("this family takes no parameters")


def _binary_triples(args):
    if len(args) != 6 or any(a not in (0, 1) for a in args):
        raise ValueError("expected six parameters in {0,1}")


def weighted_table(A: FreeAlgebra, weights, entries) -> dict:
    """The bracket table of weight ``weights`` with the given orientations.

    ``entries`` maps ordered generator pairs (i, j) to the raw terms
    {(w1, w2): coef} of <<x_i, x_j>>.  Each entry is stored, and right after
    it the (j, i) entry that weighted skew symmetry forces,
    <<x_j, x_i>> = -flip<<x_i, x_j>> + s (x_j (x) x_i - x_i (x) x_j)
                   + k (1 (x) x_j x_i - x_i x_j (x) 1),
    with s, k = (l_j + l_i)/2, (l_j - l_i)/2.
    """
    table = {}
    for (i, j), terms in entries.items():
        s = Fraction(weights[j - 1] + weights[i - 1], 2)
        k = Fraction(weights[j - 1] - weights[i - 1], 2)
        forced = {((i,), (j,)): -s, ((j,), (i,)): s, ((), (j, i)): k, ((i, j), ()): -k}
        for (a, b), c in terms.items():
            forced[(b, a)] = forced.get((b, a), 0) - c
        table[(i, j)] = A.tensor2(terms)
        table[(j, i)] = A.tensor2(forced)
    return table


def _spec(A: FreeAlgebra, weights, entries):
    return BracketSpec(A, weighted_table(A, weights, entries), weights), weights


# ---------------------------------------------------------------------------
# fixed specs


@_family("mdbI", _no_args)
def mdb_one():
    """First conjectured bracket on K<x1,x2,x3>, weight (1,-1,-1)."""
    return _spec(FreeAlgebra(("x1", "x2", "x3")), (Fraction(1), Fraction(-1), Fraction(-1)), {
        (1, 2): {((2, 1), ()): -1},
        (2, 3): {((2,), (3,)): -1},
        (3, 1): {((), (3, 1)): -1},
    })


@_family("mdbII", _no_args)
def mdb_two():
    """Second conjectured bracket on K<x1,x2,x3>, weight (-1,-1,-1)."""
    return _spec(FreeAlgebra(("x1", "x2", "x3")), (Fraction(-1),) * 3, {
        (1, 2): {((1,), (2,)): -1},
        (2, 3): {((3,), (2,)): 1},
        (3, 1): {((1,), (3,)): 1, ((3,), (1,)): -1},
    })


@_family("kontsevich", _no_args)
def kontsevich():
    """The 2-generator bracket of the Kontsevich system, weight (1,-1).

    This is ``cl1_case1`` at lam=1, alpha=0, beta=1 with both generators
    meant to be inverted afterwards (see ncdb.localize).
    """
    return cl1_case1(1, 0, 1)


# ---------------------------------------------------------------------------
# d = 2 ansatz


def _arity(*names):
    def validate(args):
        if len(args) != len(names):
            raise ValueError(f"expected ({', '.join(names)})")

    return validate


@_family("cl1", _arity("lam", "rho", "g1", "g2", "g3", "g4"))
def cl1(lam, rho, g1, g2, g3, g4):
    """The general quadratic d=2 ansatz with zero self-brackets.

    The mixed entry is an arbitrary combination of the four quadratic terms;
    the opposite entry is then forced by the weighted skew condition for
    weight (lam, rho).
    """
    g1, g2, g3, g4 = (Fraction(g) / 2 for g in (g1, g2, g3, g4))
    return _spec(FreeAlgebra(("v", "w")), (Fraction(lam), Fraction(rho)), {
        (1, 2): {((1,), (2,)): -g1, ((2,), (1,)): g2, ((), (1, 2)): -g3, ((2, 1), ()): g4},
    })


@_family("cl1_case1", _arity("lam", "alpha", "beta"))
def cl1_case1(lam, alpha, beta):
    """d=2 Poisson family at weight (lam, -lam): one-sided product terms."""
    lam = Fraction(lam)
    return _spec(FreeAlgebra(("v", "w")), (lam, -lam), {
        (1, 2): {((), (1, 2)): Fraction(alpha), ((2, 1), ()): -Fraction(beta)},
    })


@_family("cl1_case2", _arity("lam", "alpha~", "beta~"))
def cl1_case2(lam, alphat, betat):
    """d=2 Poisson family at weight (lam, lam): factor-swap terms."""
    lam = Fraction(lam)
    return _spec(FreeAlgebra(("v", "w")), (lam, lam), {
        (1, 2): {((1,), (2,)): Fraction(alphat), ((2,), (1,)): -Fraction(betat)},
    })


# ---------------------------------------------------------------------------
# d = 3 binary families


@_family("cl3a", _binary_triples)
def cl3a(a1, a2, a3, b1, b2, b3):
    """d=3 family of weight (1,1,1); Poisson iff both parameter triples solve
    the survivor condition (see ``triple_condition``)."""
    return _spec(FreeAlgebra(("v1", "v2", "v3")), (Fraction(1),) * 3, {
        (1, 2): {((1,), (2,)): a3, ((2,), (1,)): -b3},
        (1, 3): {((1,), (3,)): a2, ((3,), (1,)): -b2},
        (2, 3): {((2,), (3,)): a1, ((3,), (2,)): -b1},
    })


@_family("cl3b", _binary_triples)
def cl3b(a1, a2, a3, b1, b2, b3):
    """d=3 family of weight (1,1,-1); the pairs with the third generator use
    one-sided product terms.  Poisson iff (a1,a2,b3) and (b1,b2,a3) solve the
    survivor condition."""
    return _spec(FreeAlgebra(("v1", "v2", "v3")), (Fraction(1), Fraction(1), Fraction(-1)), {
        (1, 2): {((1,), (2,)): a3, ((2,), (1,)): -b3},
        (1, 3): {((), (1, 3)): a2, ((3, 1), ()): -b2},
        (2, 3): {((), (2, 3)): a1, ((3, 2), ()): -b1},
    })


# ---------------------------------------------------------------------------
# d >= 4 families


def sign_weight(d: int, delta: int):
    """delta leading +1 weights followed by d - delta entries -1."""
    return tuple(Fraction(1) if i < delta else Fraction(-1) for i in range(d))


def _validate_cld(args):
    if len(args) != 2:
        raise ValueError("expected (d, delta)")
    d, delta = args
    if not (isinstance(d, int) and isinstance(delta, int)):
        raise ValueError("d and delta must be integers")
    if d < 4:
        raise ValueError("family defined for d >= 4")
    if d > 64:
        raise ValueError("at most 64 generators: the table grows as d^2")
    if not 0 <= delta <= d:
        raise ValueError("need 0 <= delta <= d")


def _blocks(d: int, delta: int, inside_plus, across, inside_minus):
    """A family of weight sign_weight(d, delta) whose entry for i < j is
    given per block: both in the +1 block, across the blocks, both in -1."""
    entries = {}
    for i in range(1, d + 1):
        for j in range(i + 1, d + 1):
            block = inside_plus if j <= delta else across if i <= delta else inside_minus
            entries[(i, j)] = block(i, j)
    return _spec(FreeAlgebra.standard(d), sign_weight(d, delta), entries)


@_family("cld", _validate_cld)
def cld(d: int, delta: int):
    """First d >= 4 family of weight sign_weight(d, delta): the bracket of a
    pair is a swap difference inside each sign block and a one-sided product
    difference across blocks; the forced orientation is zero."""
    return _blocks(
        d, delta,
        lambda i, j: {((i,), (j,)): 1, ((j,), (i,)): -1},
        lambda i, j: {((), (i, j)): 1, ((j, i), ()): -1},
        lambda i, j: {((i,), (j,)): -1, ((j,), (i,)): 1},
    )


@_family("cld2", _validate_cld)
def cld2(d: int, delta: int):
    """Second d >= 4 family of weight sign_weight(d, delta): single-term
    brackets, with the reversed orientation carrying the opposite sign."""
    return _blocks(
        d, delta,
        lambda i, j: {((i,), (j,)): 1},
        lambda i, j: {((j, i), ()): -1},
        lambda i, j: {((i,), (j,)): -1},
    )


# ---------------------------------------------------------------------------
# closed-form survivor conditions


def cl1_conditions(lam, rho, gamma) -> bool:
    """Closed-form Poisson conditions for the d=2 ansatz: rho = -lam with
    g1 = g2 = 0 and g3, g4 in {0, -2 lam}, or rho = lam with g3 = g4 = 0 and
    g1, g2 in {0, -2 lam}.

    This is the mixed-triple group of the paper's conditions, and it decides
    alone for every rational input: in both cases every product in the
    first-orientation group (g1 g3, g2 g4, g (lam + g/2)) and in the
    reversed-orientation group (lam + rho + g' times lam - rho + g'') has a
    zero factor, so those two groups are implied.
    """
    lam, rho = Fraction(lam), Fraction(rho)
    g1, g2, g3, g4 = (Fraction(g) for g in gamma)
    if rho == -lam:
        zero, free = (g1, g2), (g3, g4)
    elif rho == lam:
        zero, free = (g3, g4), (g1, g2)
    else:
        return False
    return not any(zero) and all(g * (g + 2 * lam) == 0 for g in free)


def triple_condition(t) -> bool:
    """The binary survivor condition t1*t2 + t2*t3 - t1*t3 - t2 == 0."""
    t1, t2, t3 = t
    return t1 * t2 + t2 * t3 - t1 * t3 - t2 == 0


# ---------------------------------------------------------------------------
# grid searches


def _is_poisson(spec: BracketSpec, w) -> bool:
    return check_weight(spec, w).passed and check_poisson_property(spec, w).passed


def search_cl1_grid(lam, rhos=None, gamma_values=None):
    """The d=2 grid with both the generic verdict (weight + Jacobiator
    checks) and the closed-form verdict per point, for pointwise comparison.

    By default it is the full 2 x 16 grid rho in {lam,-lam}, gamma in
    {0,-2 lam}^4, built around a nonzero lam.  Passing ``rhos`` or
    ``gamma_values`` samples an exploratory grid instead, which is NOT
    exhaustive for any classification.  Repeated values count once, in
    first-seen order.
    """
    lam = Fraction(lam)
    if rhos is None and gamma_values is None and lam == 0:
        raise ValueError("the grid is built around a nonzero weight")
    rhos = dict.fromkeys(map(Fraction, (lam, -lam) if rhos is None else rhos))
    values = tuple(dict.fromkeys(map(Fraction, (0, -2 * lam) if gamma_values is None else gamma_values)))
    rows = []
    for rho in rhos:
        for gamma in itertools.product(values, repeat=4):
            spec, w = build(FamilyParams("cl1", (lam, rho) + gamma))
            rows.append(
                {
                    "rho": rho,
                    "gamma": gamma,
                    "generic": _is_poisson(spec, w),
                    "closed_form": cl1_conditions(lam, rho, gamma),
                }
            )
    return rows


def cl1_survivors(rows):
    """The sorted (rho, gamma) of the grid rows that pass the generic checks."""
    return sorted((r["rho"], r["gamma"]) for r in rows if r["generic"])


def search_cl1(lam, rhos=None, gamma_values=None):
    """Survivors (rho, gamma) of :func:`search_cl1_grid`."""
    return cl1_survivors(search_cl1_grid(lam, rhos, gamma_values))


def _search_cl3(family, triples):
    """All surviving parameter pairs of a d=3 binary family, each pair being
    the two triples ``triples(*params)`` whose survivor condition decides
    the point; asserts closed-form agreement pointwise."""
    survivors = []
    for params in itertools.product((0, 1), repeat=6):
        ok = _is_poisson(*build(FamilyParams(family, params)))
        pair = triples(*params)
        if ok != all(map(triple_condition, pair)):
            raise AssertionError(f"condition/verifier mismatch at {params}")
        if ok:
            survivors.append(pair)
    return sorted(survivors)


def search_cl3a():
    """All ((a1,a2,a3),(b1,b2,b3)) in {0,1}^3 x {0,1}^3 passing the generic
    checks; asserts agreement with the closed-form conditions pointwise."""
    return _search_cl3("cl3a", lambda a1, a2, a3, b1, b2, b3: ((a1, a2, a3), (b1, b2, b3)))


def search_cl3b():
    """All surviving pairs ((a1,a2,b3),(b1,b2,a3)) of the weight-(1,1,-1)
    family; asserts closed-form agreement pointwise."""
    return _search_cl3("cl3b", lambda a1, a2, a3, b1, b2, b3: ((a1, a2, b3), (b1, b2, a3)))


def verify_family_props(d: int, delta: int, pair_deg: int = 3, triple_deg: int = 2):
    """Check both d >= 4 families at (d, delta): weighted skew symmetry and
    the Poisson property on generators, plus bounded brute-force sweeps.

    Returns a dict family name -> list of reports.
    """
    out = {}
    for name in ("cld", "cld2"):
        spec, w = build(FamilyParams(name, (d, delta)))
        out[name] = modified_double_poisson_battery(spec, w, pair_deg, triple_deg)[0]
    return out


def builtin(name: str, args=()):
    return build(FamilyParams(name, tuple(args)))
