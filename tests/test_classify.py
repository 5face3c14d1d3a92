import itertools
from fractions import Fraction

import pytest

from ncdb.axioms import check_poisson_property, check_weight, infer_weight
from ncdb.classify import (
    TRIPLE_SOLUTIONS,
    FamilyParams,
    build,
    builtin,
    cl1_conditions,
    cl1_survivors,
    search_cl1,
    search_cl1_grid,
    search_cl3a,
    search_cl3b,
    sign_weight,
    triple_condition,
    verify_family_props,
)

F = Fraction


class TestBuild:
    def test_mdbI_table(self):
        spec, w = builtin("mdbI")
        alg = spec.algebra
        assert w == (1, -1, -1)
        assert spec.entry(1, 2) == alg.tensor2({((2, 1), ()): -1})
        assert spec.entry(2, 1) == alg.tensor2({((1, 2), ()): 1})
        assert spec.entry(2, 3) == alg.tensor2({((2,), (3,)): -1})
        assert spec.entry(3, 2) == alg.tensor2({((2,), (3,)): 1})
        assert spec.entry(3, 1) == alg.tensor2({((), (3, 1)): -1})
        assert spec.entry(1, 3) == alg.tensor2({((), (1, 3)): 1})
        assert spec.entry(1, 1).is_zero()

    def test_negated_mdbII_is_the_cl3a_point(self):
        # scaling by -1 with v_i := x_i reproduces the binary-family point
        # alphas (0,0,1), betas (1,0,0)
        spec, _ = builtin("mdbII")
        neg = spec.scale(-1)
        point, _ = build(FamilyParams("cl3a", (0, 0, 1, 1, 0, 0)))
        for pair in point.table:
            assert point.entry(*pair).terms == neg.entry(*pair).terms
        for pair in neg.table:
            assert point.entry(*pair).terms == neg.entry(*pair).terms

    def test_cld_entries(self):
        spec, w = build(FamilyParams("cld", (4, 2)))
        alg = spec.algebra
        assert w == sign_weight(4, 2) == (1, 1, -1, -1)
        assert spec.entry(1, 3) == alg.tensor2({((), (1, 3)): 1, ((3, 1), ()): -1})
        assert spec.entry(3, 1).is_zero()
        assert spec.entry(1, 2) == alg.tensor2({((1,), (2,)): 1, ((2,), (1,)): -1})
        assert spec.entry(3, 4) == alg.tensor2({((3,), (4,)): -1, ((4,), (3,)): 1})

    def test_cld_sign_flip_symmetry(self):
        # delta = 0 is the negation of delta = d, with negated weight
        lo, wlo = build(FamilyParams("cld", (4, 0)))
        hi, whi = build(FamilyParams("cld", (4, 4)))
        assert wlo == tuple(-x for x in whi)
        neg = hi.scale(-1)
        for i in range(1, 5):
            for j in range(1, 5):
                assert lo.entry(i, j) == neg.entry(i, j)

    def test_cl3a_zero_parameters(self):
        spec, _ = build(FamilyParams("cl3a", (0, 0, 0, 0, 0, 0)))
        alg = spec.algebra
        assert spec.entry(1, 2).is_zero()
        assert spec.entry(2, 1) == alg.tensor2({((1,), (2,)): -1, ((2,), (1,)): 1})
        assert spec.entry(1, 1).is_zero()

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            FamilyParams("cld", (3, 1))  # d >= 4 required
        with pytest.raises(ValueError):
            FamilyParams("cld", (4, 5))  # delta <= d
        FamilyParams("cld", (64, 2))  # the cap on d is accepted...
        for name in ("cld", "cld2"):
            with pytest.raises(ValueError):
                FamilyParams(name, (65, 1))  # ...and one above it refused
        with pytest.raises(ValueError):
            FamilyParams("cl3a", (0, 0, 2, 0, 0, 0))  # binary parameters
        with pytest.raises(ValueError):
            FamilyParams("nosuch", ())
        with pytest.raises(ValueError):
            FamilyParams("cl1", (0.1, -0.1, 0, 0, 0, 0))  # exact parameters only
        for args in ((4, F(3, 2)), (F(9, 2), 2), (4.0, 2)):
            with pytest.raises(ValueError):
                FamilyParams("cld", args)  # integer d and delta
        assert FamilyParams("cld", (F(4), F(2))).args == (4, 2)


class TestSearchCL1:
    EXPECTED = {
        (F(-1), (F(0), F(0), F(0), F(0))),
        (F(-1), (F(0), F(0), F(-2), F(0))),
        (F(-1), (F(0), F(0), F(0), F(-2))),
        (F(-1), (F(0), F(0), F(-2), F(-2))),
        (F(1), (F(0), F(0), F(0), F(0))),
        (F(1), (F(-2), F(0), F(0), F(0))),
        (F(1), (F(0), F(-2), F(0), F(0))),
        (F(1), (F(-2), F(-2), F(0), F(0))),
    }

    def test_exactly_eight_survivors(self):
        assert set(search_cl1(1)) == self.EXPECTED

    def test_excluded_quadruples(self):
        got = {g for _, g in search_cl1(1)}
        assert (F(0), F(-2), F(-2), F(0)) not in got
        assert (F(-2), F(0), F(0), F(-2)) not in got

    def test_closed_form_agrees_pointwise(self):
        rows = search_cl1_grid(1)
        assert len(rows) == 32
        for row in rows:
            assert row["generic"] == row["closed_form"], row

    def test_closed_form_is_all_three_groups(self):
        """cl1_conditions keeps only the mixed-triple group; on a rational
        grid it agrees with the conjunction of all three groups."""

        def three_groups(lam, rho, gamma):
            g1, g2, g3, g4 = gamma
            first = g1 * g3 == 0 and g2 * g4 == 0 and all(g * (lam + g / 2) == 0 for g in gamma)
            reversed_ = ((lam + rho + g2) * (lam - rho + g3) == 0
                         and (lam + rho + g1) * (lam - rho + g4) == 0
                         and all((lam + rho + g) * (lam - rho + g) == 0 for g in gamma))
            if rho == -lam:
                mixed = g1 == g2 == 0 and all(g * (g + 2 * lam) == 0 for g in (g3, g4))
            else:
                mixed = rho == lam and g3 == g4 == 0 and all(g * (g + 2 * lam) == 0 for g in (g1, g2))
            return first and reversed_ and mixed

        verdicts = set()
        for lam in (F(1), F(-1, 2), F(0)):
            for rho in (lam, -lam, F(1, 3)):
                for gamma in itertools.product((F(0), -2 * lam, -lam, F(1)), repeat=4):
                    verdict = cl1_conditions(lam, rho, gamma)
                    assert verdict == three_groups(lam, rho, gamma), (lam, rho, gamma)
                    verdicts.add(verdict)
        assert verdicts == {True, False}

    def test_closed_form_agrees_for_other_scales(self):
        for lam in (F(2), F(1, 2), F(-3)):
            for row in search_cl1_grid(lam):
                assert row["generic"] == row["closed_form"], (lam, row)

    def test_survivors_satisfy_bounded_jacobi(self):
        from ncdb.axioms import check_jacobi

        for rho, gamma in search_cl1(1):
            spec, _ = build(FamilyParams("cl1", (F(1), rho) + gamma))
            assert check_jacobi(spec, 3).passed

    def test_unequal_weight_magnitudes_never_poisson(self):
        # emergent consequence of the classification: with the quadratic
        # ansatz, Poisson requires rho^2 == lam^2; scan rho = 2, -1/2
        for rho in (F(2), F(-1, 2)):
            for gamma in itertools.product((F(0), F(-2)), repeat=4):
                spec, w = build(FamilyParams("cl1", (F(1), rho) + gamma))
                ok = check_weight(spec, w).passed and check_poisson_property(spec, w).passed
                assert not ok

    def test_exploratory_grid(self):
        # widening rho away from +-lam finds nothing (emergent obstruction),
        # while including +-lam recovers the standard survivors
        assert search_cl1(1, (F(2), F(-2), F(1, 2)), (F(0), F(-2))) == []
        got = search_cl1(1, (F(1), F(-1)), (F(0), F(-2)))
        assert set(got) == set(search_cl1(1))

    def test_exploratory_grid_counts_repeated_values_once(self):
        # at lam = 0 the default gamma values 0 and -2 lam coincide
        rows = search_cl1_grid(0, rhos=(0,))
        assert len(rows) == 1 and len(cl1_survivors(rows)) == 1
        rows = search_cl1_grid(1, gamma_values=(0, 0, -2))
        assert len(rows) == 32
        assert set(cl1_survivors(rows)) == self.EXPECTED
        assert len(search_cl1_grid(1, rhos=(1, F(2, 2), -1))) == 32

    def test_kontsevich_is_a_case1_member(self):
        spec, w = builtin("kontsevich")
        member, wm = build(FamilyParams("cl1_case1", (1, 0, 1)))
        assert w == wm
        for pair in ((1, 2), (2, 1)):
            assert spec.entry(*pair) == member.entry(*pair)


class TestSearchCL3:
    def test_triple_solution_set(self):
        sols = {t for t in itertools.product((0, 1), repeat=3) if triple_condition(t)}
        assert sols == set(TRIPLE_SOLUTIONS)

    def test_cl3a_count_and_components(self):
        survivors = search_cl3a()
        assert len(survivors) == 36
        assert {a for a, _ in survivors} == set(TRIPLE_SOLUTIONS)
        assert {b for _, b in survivors} == set(TRIPLE_SOLUTIONS)
        assert set(survivors) == set(itertools.product(TRIPLE_SOLUTIONS, TRIPLE_SOLUTIONS))

    def test_cl3b_count_and_components(self):
        survivors = search_cl3b()
        assert len(survivors) == 36
        assert set(survivors) == set(itertools.product(TRIPLE_SOLUTIONS, TRIPLE_SOLUTIONS))

    def test_mdbII_parameters_survive_cl3a(self):
        assert ((0, 0, 1), (1, 0, 0)) in search_cl3a()

    def test_mdbI_parameters_survive_cl3b(self):
        assert ((0, 1, 1), (1, 0, 0)) in search_cl3b()

    def test_permutation_symmetry_of_solutions(self):
        sols = set(TRIPLE_SOLUTIONS)
        swap12 = {(a2, a1, 1 - a3) for (a1, a2, a3) in sols}
        swap23 = {(1 - a1, a3, a2) for (a1, a2, a3) in sols}
        assert swap12 == sols
        assert swap23 == sols

    def test_permutation_symmetry_of_cl3a_survivors(self):
        survivors = set(search_cl3a())
        swapped = {
            ((a[1], a[0], 1 - a[2]), (b[1], b[0], 1 - b[2])) for a, b in survivors
        }
        assert swapped == survivors


class TestFamilies:
    @pytest.mark.parametrize("d,delta", [(4, 0), (4, 2), (5, 5)])
    def test_family_props(self, d, delta):
        out = verify_family_props(d, delta, pair_deg=2, triple_deg=2)
        for fam, reports in out.items():
            assert all(r.passed for r in reports), (fam, [r.axiom for r in reports if not r.passed])

    def test_inferred_weights_match(self):
        for name in ("cld", "cld2"):
            spec, w = build(FamilyParams(name, (4, 1)))
            assert infer_weight(spec) == w
