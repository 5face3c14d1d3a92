"""Acceptance suite: one test per shipped guarantee, every assertion exact.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS lines and timings.  Everything is integer/rational arithmetic; there are
no tolerances to tune anywhere.
"""

import itertools
import random
import time
from fractions import Fraction

from ncdb.freealg import Tensor3, concat, reduce_word, _merge_term
from ncdb.bracket import BracketSpec
from ncdb.axioms import (
    check_h0_skew,
    check_jacobi,
    check_poisson_property,
    check_weight,
)
from ncdb.classify import (
    TRIPLE_SOLUTIONS,
    FamilyParams,
    build,
    builtin,
    search_cl1,
    search_cl1_grid,
    search_cl3a,
    search_cl3b,
    verify_family_props,
)
from ncdb.localize import localize
from ncdb.repspace import MatrixPoint, check_induced_poisson
from ncdb.speclang import parse, render
from oracles import flip
from test_speclang import random_document

F = Fraction


def _announce(num, label, t0):
    print(f"\nACCEPTANCE {num} ({label}): PASS  [{time.time() - t0:.1f}s]")


def test_criterion_1_conjectured_brackets():
    """Both conjectured 3-generator brackets satisfy the full battery."""
    t0 = time.time()
    for name, weight in (("mdbI", (F(1), F(-1), F(-1))), ("mdbII", (F(-1), F(-1), F(-1)))):
        spec, w = builtin(name)
        assert w == weight
        r = check_weight(spec, weight)
        assert r.passed and r.params["pairs"] == 9
        r = check_poisson_property(spec, weight)
        assert r.passed and r.params["triples"] == 27
        assert check_h0_skew(spec, 4).passed
        assert check_jacobi(spec, 3).passed
    assert time.time() - t0 < 120
    _announce(1, "conjectured brackets: weight, Poisson property, H0-skew(4), Jacobi(3)", t0)


def test_criterion_2_two_generator_classification():
    """The d=2 grid search returns the two four-element families and the
    closed-form conditions agree with the generic verifier pointwise."""
    t0 = time.time()
    survivors = set(search_cl1(1))
    expected = {
        (F(-1), (F(0), F(0), F(0), F(0))),
        (F(-1), (F(0), F(0), F(-2), F(0))),
        (F(-1), (F(0), F(0), F(0), F(-2))),
        (F(-1), (F(0), F(0), F(-2), F(-2))),
        (F(1), (F(0), F(0), F(0), F(0))),
        (F(1), (F(-2), F(0), F(0), F(0))),
        (F(1), (F(0), F(-2), F(0), F(0))),
        (F(1), (F(-2), F(-2), F(0), F(0))),
    }
    assert survivors == expected
    gammas = {g for _, g in survivors}
    assert (F(0), F(-2), F(-2), F(0)) not in gammas
    assert (F(-2), F(0), F(0), F(-2)) not in gammas
    rows = search_cl1_grid(1)
    assert len(rows) == 32
    assert all(r["generic"] == r["closed_form"] for r in rows)
    _announce(2, "d=2 grid: 8 survivors, 2 exclusions, closed form == verifier on 2x16", t0)


def test_criterion_3_three_generator_classification():
    """Both d=3 searches return exactly 36 pairs built from the six triples,
    and the survivor set is invariant under the generator permutations."""
    t0 = time.time()
    for search in (search_cl3a, search_cl3b):
        survivors = search()
        assert len(survivors) == 36
        assert set(survivors) == set(itertools.product(TRIPLE_SOLUTIONS, TRIPLE_SOLUTIONS))
    cl3a = set(search_cl3a())
    swap12 = {((a[1], a[0], 1 - a[2]), (b[1], b[0], 1 - b[2])) for a, b in cl3a}
    swap23 = {((1 - a[0], a[2], a[1]), (1 - b[0], b[2], b[1])) for a, b in cl3a}
    assert swap12 == cl3a and swap23 == cl3a
    _announce(3, "d=3 grids: 36 + 36 survivors from the six triples, permutation-invariant", t0)


def test_criterion_4_higher_rank_families():
    """Both families pass for every (d, delta) with d in {4,5}: generator-level
    weight and Poisson checks plus bounded H0/Jacobi brute force (degrees 3/2)."""
    t0 = time.time()
    cases = 0
    for d in (4, 5):
        for delta in range(d + 1):
            out = verify_family_props(d, delta, pair_deg=3, triple_deg=2)
            for fam, reports in out.items():
                bad = [r.axiom for r in reports if not r.passed]
                assert not bad, (fam, d, delta, bad)
            cases += 1
    assert cases == 11  # (4+1) + (5+1)
    assert time.time() - t0 < 600
    _announce(4, "families at d in {4,5}, all delta: 22 spec/weight cases verified", t0)


def test_criterion_5_localisation():
    """Inverting both generators of the 2-generator bracket: the weight
    extension rule, the Poisson property on all letter triples (inverse
    letters included), and exact bounded Jacobi on Laurent monomials."""
    t0 = time.time()
    spec, w = builtin("kontsevich")
    loc, wext = localize(spec, w, (1, 2))
    # extension rule: base weights followed by their negations in plan order,
    # i.e. the multiset {1, 1, -1, -1}
    assert wext == w + (-w[0], -w[1])
    assert tuple(sorted(wext, reverse=True)) == (1, 1, -1, -1)
    assert check_weight(loc, wext).passed
    r = check_poisson_property(loc, wext)
    assert r.passed and r.params["triples"] == 64
    assert check_jacobi(loc, 3).passed
    _announce(5, "Laurent localisation: weights {1,1,-1,-1}, Poisson property, Jacobi(3)", t0)


def test_criterion_6_sufficiency_implication():
    """Weighted skew + Poisson property imply bounded H0-skew and Jacobi with
    zero violations over the bundled specs and 200 sampled grid points; and
    every sampled point failing the Poisson property fails bounded Jacobi."""
    t0 = time.time()
    bundled = [builtin("mdbI"), builtin("mdbII"), builtin("kontsevich")]
    for rho, gamma in search_cl1(1):
        bundled.append(build(FamilyParams("cl1", (F(1), rho) + gamma)))
    for spec, w in bundled:
        assert check_weight(spec, w).passed
        assert check_poisson_property(spec, w).passed
        assert check_h0_skew(spec, 4).passed
        assert check_jacobi(spec, 3).passed

    rng = random.Random(2024)
    cache = {}
    implication_violations = []
    converse_violations = []
    samples = 0
    while samples < 200:
        fam = rng.choice(("cl3a", "cl3b"))
        params = tuple(rng.randint(0, 1) for _ in range(6))
        samples += 1
        key = (fam, params)
        if key not in cache:
            spec, w = build(FamilyParams(fam, params))
            ok_weight = check_weight(spec, w).passed
            ok_poisson = check_poisson_property(spec, w).passed
            if ok_weight and ok_poisson:
                good = check_h0_skew(spec, 4).passed and check_jacobi(spec, 3).passed
                cache[key] = ("poisson", good)
            else:
                jac_fails = not check_jacobi(spec, 3).passed
                cache[key] = ("not_poisson", jac_fails)
        status, flag = cache[key]
        if status == "poisson" and not flag:
            implication_violations.append(key)
        if status == "not_poisson" and not flag:
            converse_violations.append(key)
    assert samples == 200
    assert not implication_violations, implication_violations
    # the converse is reported, not assumed: on these grids it holds
    # everywhere, with the generator triple already a Jacobi witness
    assert not converse_violations, (
        "grid points failing the Poisson property but passing bounded Jacobi "
        f"(a genuine finding if nonempty): {converse_violations}"
    )
    _announce(6, f"implication over {len(bundled)} bundled specs + 200 samples "
                 f"({len(cache)} distinct points)", t0)


def test_criterion_7_representation_traces():
    """Trace identities at seeded exact matrix points for both conjectured
    brackets, sizes 2 and 3, five points each; plus the sign-flip mutation."""
    t0 = time.time()
    for name in ("mdbI", "mdbII"):
        spec, _ = builtin(name)
        for size in (2, 3):
            for k in range(5):
                p = MatrixPoint.random(spec.algebra, size, seed=100 * size + k)
                rep = check_induced_poisson(spec, p, 3)
                assert rep.passed, (name, size, k, rep.witnesses[:1])
                assert rep.params["pairs"] == 39 * 40 // 2
                assert rep.params["triples"] == 39 ** 3

    spec, _ = builtin("mdbII")
    alg = spec.algebra
    table = {kk: alg.tensor2(dict(u.terms)) for kk, u in spec.table.items()}
    table[(2, 3)] = table[(2, 3)].scale(-1)
    corrupted = BracketSpec(alg, table)
    assert not check_h0_skew(corrupted, 2).passed  # symbolic oracle fails first
    p = MatrixPoint.random(alg, 2, seed=424)
    rep = check_induced_poisson(corrupted, p, 3)
    assert not rep.passed and rep.witnesses
    _announce(7, "trace identities at 20 seeded points, mutation detected", t0)


def test_criterion_8_infrastructure():
    """Parser round trip, reduction confluence, and the Jacobiator derivation
    laws including the first-slot correction term."""
    t0 = time.time()

    # 500 random documents survive parse(render(.)) structurally
    rng = random.Random(8)
    for _ in range(500):
        doc = random_document(rng)
        assert parse(render(doc)) == doc

    # 1000 random letter sequences: streaming reduction equals the
    # rescan-until-stable oracle
    rng = random.Random(88)
    letters = [1, -1, 2, -2, 3, -3]
    for _ in range(1000):
        seq = rng.choices(letters, k=rng.randint(0, 12))
        naive = list(seq)
        changed = True
        while changed:
            changed = False
            for i in range(len(naive) - 1):
                if naive[i] == -naive[i + 1]:
                    del naive[i : i + 2]
                    changed = True
                    break
        assert reduce_word(seq) == tuple(naive)

    # 200 random monomial triples: Jacobiator derivation laws, exact
    spec, _ = builtin("mdbI")
    alg = spec.algebra
    words = [w for w in alg.words_up_to(3) if w]
    rng = random.Random(888)
    for _ in range(200):
        w1, w2, w3 = (rng.choice(words) for _ in range(3))
        a, b, c = (alg.element({w: 1}) for w in (w1, w2, w3))

        # third slot: DJ(a, b, c1 c2) splits with outer multipliers
        c1, c2 = alg.element({w3: 1}), alg.element({w1: 1})
        left = Tensor3(alg, {(w3, (), ()): 1})
        right = Tensor3(alg, {((), (), w1): 1})
        assert spec.djac(a, b, c1 * c2) == left * spec.djac(a, b, c2) + spec.djac(a, b, c1) * right

        # second slot
        left = Tensor3(alg, {((), (), w2): 1})
        right = Tensor3(alg, {((), w3, ()): 1})
        assert spec.djac(a, alg.element({w2: 1}) * alg.element({w3: 1}), c) == left * spec.djac(
            a, alg.element({w3: 1}), c
        ) + spec.djac(a, alg.element({w2: 1}), c) * right

        # first slot carries the skew-defect correction term
        a1, a2 = alg.element({w2: 1}), alg.element({w3: 1})
        mid = Tensor3(alg, {((), w2, ()): 1})
        right = Tensor3(alg, {(w3, (), ()): 1})
        main = mid * spec.djac(a2, b, c) + spec.djac(a1, b, c) * right
        u = spec.dbracket(a2, c)
        defect = spec.dbracket(b, a1) + flip(spec.dbracket(a1, b))
        corr_terms = {}
        for (p, q), cu in u.terms.items():
            for (r1, r2), cd in defect.terms.items():
                _merge_term(corr_terms, (p, r1, concat(r2, q)), cu * cd)
        assert spec.djac(a1 * a2, b, c) == main - Tensor3(alg, corr_terms)

    _announce(8, "500 round trips, 1000 reductions, 200 derivation-law triples", t0)
