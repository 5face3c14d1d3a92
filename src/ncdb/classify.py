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

The searches enumerate the full parameter grids, filter with the generic
axiom checks, and also evaluate the closed-form survivor conditions so that
the two routes can be compared pointwise.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .freealg import FreeAlgebra
from .bracket import BracketSpec
from .axioms import (
    check_h0_skew,
    check_jacobi,
    check_poisson_property,
    check_weight,
)

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
        object.__setattr__(self, "args", tuple(self.args))
        if self.variant not in _FAMILIES:
            raise ValueError(f"unknown family {self.variant!r}")
        _FAMILIES[self.variant][0](self.args)


def build(params: FamilyParams):
    """Instantiate a family: returns (BracketSpec, weight vector)."""
    spec, weight = _FAMILIES[params.variant][1](*params.args)
    return spec, weight


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


# ---------------------------------------------------------------------------
# fixed specs


@_family("mdbI", _no_args)
def mdb_one():
    """First conjectured bracket on K<x1,x2,x3>, weight (1,-1,-1)."""
    A = FreeAlgebra(("x1", "x2", "x3"))
    table = {
        (1, 2): A.tensor2({((2, 1), ()): -1}),
        (2, 1): A.tensor2({((1, 2), ()): 1}),
        (2, 3): A.tensor2({((2,), (3,)): -1}),
        (3, 2): A.tensor2({((2,), (3,)): 1}),
        (3, 1): A.tensor2({((), (3, 1)): -1}),
        (1, 3): A.tensor2({((), (1, 3)): 1}),
    }
    w = (Fraction(1), Fraction(-1), Fraction(-1))
    return BracketSpec(A, table, w), w


@_family("mdbII", _no_args)
def mdb_two():
    """Second conjectured bracket on K<x1,x2,x3>, weight (-1,-1,-1)."""
    A = FreeAlgebra(("x1", "x2", "x3"))
    table = {
        (1, 2): A.tensor2({((1,), (2,)): -1}),
        (2, 1): A.tensor2({((1,), (2,)): 1}),
        (2, 3): A.tensor2({((3,), (2,)): 1}),
        (3, 2): A.tensor2({((3,), (2,)): -1}),
        (3, 1): A.tensor2({((1,), (3,)): 1, ((3,), (1,)): -1}),
    }
    w = (Fraction(-1), Fraction(-1), Fraction(-1))
    return BracketSpec(A, table, w), w


@_family("kontsevich", _no_args)
def kontsevich():
    """The 2-generator bracket of the Kontsevich system, weight (1,-1).

    This is ``cl1_case1`` at lam=1, alpha=0, beta=1 with both generators
    meant to be inverted afterwards (see ncdb.localize).
    """
    A = FreeAlgebra(("v", "w"))
    table = {
        (1, 2): A.tensor2({((2, 1), ()): -1}),
        (2, 1): A.tensor2({((1, 2), ()): 1}),
    }
    w = (Fraction(1), Fraction(-1))
    return BracketSpec(A, table, w), w


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
    lam, rho = Fraction(lam), Fraction(rho)
    g1, g2, g3, g4 = (Fraction(g) for g in (g1, g2, g3, g4))
    A = FreeAlgebra(("v", "w"))
    half = Fraction(1, 2)
    table = {
        (1, 2): A.tensor2(
            {
                ((1,), (2,)): -g1 * half,
                ((2,), (1,)): g2 * half,
                ((), (1, 2)): -g3 * half,
                ((2, 1), ()): g4 * half,
            }
        ),
        (2, 1): A.tensor2(
            {
                ((1,), (2,)): -(lam + rho + g2) * half,
                ((2,), (1,)): (lam + rho + g1) * half,
                ((), (2, 1)): -(lam - rho + g4) * half,
                ((1, 2), ()): (lam - rho + g3) * half,
            }
        ),
    }
    w = (lam, rho)
    return BracketSpec(A, table, w), w


@_family("cl1_case1", _arity("lam", "alpha", "beta"))
def cl1_case1(lam, alpha, beta):
    """d=2 Poisson family at weight (lam, -lam): one-sided product terms."""
    lam, alpha, beta = Fraction(lam), Fraction(alpha), Fraction(beta)
    A = FreeAlgebra(("v", "w"))
    table = {
        (1, 2): A.tensor2({((), (1, 2)): alpha, ((2, 1), ()): -beta}),
        (2, 1): A.tensor2({((), (2, 1)): -lam + beta, ((1, 2), ()): lam - alpha}),
    }
    w = (lam, -lam)
    return BracketSpec(A, table, w), w


@_family("cl1_case2", _arity("lam", "alpha~", "beta~"))
def cl1_case2(lam, alphat, betat):
    """d=2 Poisson family at weight (lam, lam): factor-swap terms."""
    lam, alphat, betat = Fraction(lam), Fraction(alphat), Fraction(betat)
    A = FreeAlgebra(("v", "w"))
    table = {
        (1, 2): A.tensor2({((1,), (2,)): alphat, ((2,), (1,)): -betat}),
        (2, 1): A.tensor2({((1,), (2,)): -lam + betat, ((2,), (1,)): lam - alphat}),
    }
    w = (lam, lam)
    return BracketSpec(A, table, w), w


# ---------------------------------------------------------------------------
# d = 3 binary families


@_family("cl3a", _binary_triples)
def cl3a(a1, a2, a3, b1, b2, b3):
    """d=3 family of weight (1,1,1); Poisson iff both parameter triples solve
    the survivor condition (see ``triple_condition``)."""
    A = FreeAlgebra(("v1", "v2", "v3"))
    table = {
        (1, 2): A.tensor2({((1,), (2,)): a3, ((2,), (1,)): -b3}),
        (2, 1): A.tensor2({((1,), (2,)): -1 + b3, ((2,), (1,)): 1 - a3}),
        (1, 3): A.tensor2({((1,), (3,)): a2, ((3,), (1,)): -b2}),
        (3, 1): A.tensor2({((1,), (3,)): -1 + b2, ((3,), (1,)): 1 - a2}),
        (2, 3): A.tensor2({((2,), (3,)): a1, ((3,), (2,)): -b1}),
        (3, 2): A.tensor2({((2,), (3,)): -1 + b1, ((3,), (2,)): 1 - a1}),
    }
    w = (Fraction(1), Fraction(1), Fraction(1))
    return BracketSpec(A, table, w), w


@_family("cl3b", _binary_triples)
def cl3b(a1, a2, a3, b1, b2, b3):
    """d=3 family of weight (1,1,-1); the pairs with the third generator use
    one-sided product terms.  Poisson iff (a1,a2,b3) and (b1,b2,a3) solve the
    survivor condition."""
    A = FreeAlgebra(("v1", "v2", "v3"))
    table = {
        (1, 2): A.tensor2({((1,), (2,)): a3, ((2,), (1,)): -b3}),
        (2, 1): A.tensor2({((1,), (2,)): -1 + b3, ((2,), (1,)): 1 - a3}),
        (1, 3): A.tensor2({((), (1, 3)): a2, ((3, 1), ()): -b2}),
        (3, 1): A.tensor2({((), (3, 1)): -1 + b2, ((1, 3), ()): 1 - a2}),
        (2, 3): A.tensor2({((), (2, 3)): a1, ((3, 2), ()): -b1}),
        (3, 2): A.tensor2({((), (3, 2)): -1 + b1, ((2, 3), ()): 1 - a1}),
    }
    w = (Fraction(1), Fraction(1), Fraction(-1))
    return BracketSpec(A, table, w), w


# ---------------------------------------------------------------------------
# d >= 4 families


def sign_weight(d: int, delta: int):
    """delta leading +1 weights followed by d - delta entries -1."""
    return tuple(Fraction(1) if i < delta else Fraction(-1) for i in range(d))


def _validate_cld(args):
    if len(args) != 2:
        raise ValueError("expected (d, delta)")
    d, delta = args
    if d < 4:
        raise ValueError("family defined for d >= 4")
    if d > 64:
        raise ValueError("at most 64 generators: the table grows as d^2")
    if not 0 <= delta <= d:
        raise ValueError("need 0 <= delta <= d")


@_family("cld", _validate_cld)
def cld(d: int, delta: int):
    """First d >= 4 family of weight sign_weight(d, delta): the bracket of a
    pair is a swap difference inside each sign block and a one-sided product
    difference across blocks; one orientation per pair is zero."""
    A = FreeAlgebra.standard(d)
    table = {}
    for i in range(1, d + 1):
        for j in range(i + 1, d + 1):
            if j <= delta:
                table[(i, j)] = A.tensor2({((i,), (j,)): 1, ((j,), (i,)): -1})
            elif i <= delta:
                table[(i, j)] = A.tensor2({((), (i, j)): 1, ((j, i), ()): -1})
            else:
                table[(i, j)] = A.tensor2({((i,), (j,)): -1, ((j,), (i,)): 1})
    w = sign_weight(d, delta)
    return BracketSpec(A, table, w), w


@_family("cld2", _validate_cld)
def cld2(d: int, delta: int):
    """Second d >= 4 family of weight sign_weight(d, delta): single-term
    brackets, with the reversed orientation carrying the opposite sign."""
    A = FreeAlgebra.standard(d)
    table = {}
    for i in range(1, d + 1):
        for j in range(i + 1, d + 1):
            if j <= delta:
                table[(i, j)] = A.tensor2({((i,), (j,)): 1})
                table[(j, i)] = A.tensor2({((i,), (j,)): -1})
            elif i <= delta:
                table[(i, j)] = A.tensor2({((j, i), ()): -1})
                table[(j, i)] = A.tensor2({((i, j), ()): 1})
            else:
                table[(i, j)] = A.tensor2({((i,), (j,)): -1})
                table[(j, i)] = A.tensor2({((i,), (j,)): 1})
    w = sign_weight(d, delta)
    return BracketSpec(A, table, w), w


# ---------------------------------------------------------------------------
# closed-form survivor conditions


def cl1_conditions(lam, rho, gamma) -> bool:
    """Closed-form Poisson conditions for the d=2 ansatz.

    Three groups, all polynomial identities in (lam, rho, gamma):
    the first-orientation Jacobiator conditions, the reversed-orientation
    conditions, and the mixed-triple conditions that discard two candidate
    quadruples.
    """
    lam, rho = Fraction(lam), Fraction(rho)
    g1, g2, g3, g4 = (Fraction(g) for g in gamma)
    half = Fraction(1, 2)
    cond1 = (
        g1 * g3 == 0
        and g2 * g4 == 0
        and all(g * (lam + g * half) == 0 for g in (g1, g2, g3, g4))
    )
    if not cond1:
        return False
    cond2 = (
        (lam + rho + g2) * (lam - rho + g3) == 0
        and (lam + rho + g1) * (lam - rho + g4) == 0
        and all((lam + rho + g) * (lam - rho + g) == 0 for g in (g1, g2, g3, g4))
    )
    if not cond2:
        return False
    # mixed-triple conditions, by the sign of rho relative to lam
    if rho == -lam:
        cond3 = (
            g1 == 0
            and g2 == 0
            and g3 * (g3 + 2 * lam) == 0
            and g4 * (g4 + 2 * lam) == 0
        )
    elif rho == lam:
        cond3 = (
            g3 == 0
            and g4 == 0
            and g1 * (g1 + 2 * lam) == 0
            and g2 * (g2 + 2 * lam) == 0
        )
    else:
        cond3 = False
    return cond3


def triple_condition(t) -> bool:
    """The binary survivor condition t1*t2 + t2*t3 - t1*t3 - t2 == 0."""
    t1, t2, t3 = t
    return t1 * t2 + t2 * t3 - t1 * t3 - t2 == 0


def cl3a_conditions(alphas, betas) -> bool:
    return triple_condition(alphas) and triple_condition(betas)


def cl3b_conditions(alphas_b3, betas_a3) -> bool:
    return triple_condition(alphas_b3) and triple_condition(betas_a3)


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
    exhaustive for any classification.
    """
    lam = Fraction(lam)
    if rhos is None and gamma_values is None and lam == 0:
        raise ValueError("the grid is built around a nonzero weight")
    rhos = (lam, -lam) if rhos is None else rhos
    values = tuple(map(Fraction, (0, -2 * lam) if gamma_values is None else gamma_values))
    rows = []
    for rho in map(Fraction, rhos):
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


search_cl1_custom = search_cl1  # the exploratory spelling: pass rhos and gamma_values


def search_cl3a():
    """All ((a1,a2,a3),(b1,b2,b3)) in {0,1}^3 x {0,1}^3 passing the generic
    checks; asserts agreement with the closed-form conditions pointwise."""
    survivors = []
    for alphas in itertools.product((0, 1), repeat=3):
        for betas in itertools.product((0, 1), repeat=3):
            spec, w = build(FamilyParams("cl3a", alphas + betas))
            ok = _is_poisson(spec, w)
            if ok != cl3a_conditions(alphas, betas):
                raise AssertionError(
                    f"condition/verifier mismatch at {alphas}, {betas}"
                )
            if ok:
                survivors.append((alphas, betas))
    survivors.sort()
    return survivors


def search_cl3b():
    """All surviving pairs ((a1,a2,b3),(b1,b2,a3)) of the weight-(1,1,-1)
    family; asserts closed-form agreement pointwise."""
    survivors = []
    for raw in itertools.product((0, 1), repeat=6):
        a1, a2, a3, b1, b2, b3 = raw
        spec, w = build(FamilyParams("cl3b", raw))
        ok = _is_poisson(spec, w)
        if ok != cl3b_conditions((a1, a2, b3), (b1, b2, a3)):
            raise AssertionError(f"condition/verifier mismatch at {raw}")
        if ok:
            survivors.append(((a1, a2, b3), (b1, b2, a3)))
    survivors.sort()
    return survivors


def verify_family_props(d: int, delta: int, pair_deg: int = 3, triple_deg: int = 2):
    """Check both d >= 4 families at (d, delta): weighted skew symmetry and
    the Poisson property on generators, plus bounded brute-force sweeps.

    Returns a dict family name -> list of reports.
    """
    out = {}
    for name in ("cld", "cld2"):
        spec, w = build(FamilyParams(name, (d, delta)))
        out[name] = [
            check_weight(spec, w),
            check_poisson_property(spec, w),
            check_h0_skew(spec, pair_deg),
            check_jacobi(spec, triple_deg),
        ]
    return out


# fixed builtins exposed to the CLI and the acceptance suite
BUILTIN_NAMES = ("mdbI", "mdbII", "kontsevich")


def builtin(name: str, args=()):
    return build(FamilyParams(name, tuple(args)))
