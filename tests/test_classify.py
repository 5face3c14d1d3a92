import functools
import itertools
from fractions import Fraction

import pytest

from ncdb import classify
from ncdb.axioms import (
    check_jacobi,
    check_poisson_property,
    check_weight,
    form_terms,
    infer_weight,
    poisson_rhs,
    skew_defect,
    weight_form,
)
from ncdb.bracket import BracketSpec
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
        assert spec.letter_bracket(1, 2) == alg.tensor2({((2, 1), ()): -1})
        assert spec.letter_bracket(2, 1) == alg.tensor2({((1, 2), ()): 1})
        assert spec.letter_bracket(2, 3) == alg.tensor2({((2,), (3,)): -1})
        assert spec.letter_bracket(3, 2) == alg.tensor2({((2,), (3,)): 1})
        assert spec.letter_bracket(3, 1) == alg.tensor2({((), (3, 1)): -1})
        assert spec.letter_bracket(1, 3) == alg.tensor2({((), (1, 3)): 1})
        assert not spec.letter_bracket(1, 1)

    def test_negated_mdbII_is_the_cl3a_point(self):
        # scaling by -1 with v_i := x_i reproduces the binary-family point
        # alphas (0,0,1), betas (1,0,0)
        spec, _ = builtin("mdbII")
        neg = BracketSpec(spec.algebra, {k: u.scale(-1) for k, u in spec.table.items()})
        point, _ = build(FamilyParams("cl3a", (0, 0, 1, 1, 0, 0)))
        for pair in point.table:
            assert point.letter_bracket(*pair).terms == neg.letter_bracket(*pair).terms
        for pair in neg.table:
            assert point.letter_bracket(*pair).terms == neg.letter_bracket(*pair).terms

    def test_cld_entries(self):
        spec, w = build(FamilyParams("cld", (4, 2)))
        alg = spec.algebra
        assert w == sign_weight(4, 2) == (1, 1, -1, -1)
        assert spec.letter_bracket(1, 3) == alg.tensor2({((), (1, 3)): 1, ((3, 1), ()): -1})
        assert not spec.letter_bracket(3, 1)
        assert spec.letter_bracket(1, 2) == alg.tensor2({((1,), (2,)): 1, ((2,), (1,)): -1})
        assert spec.letter_bracket(3, 4) == alg.tensor2({((3,), (4,)): -1, ((4,), (3,)): 1})

    def test_cld_sign_flip_symmetry(self):
        # delta = 0 is the negation of delta = d, with negated weight
        lo, wlo = build(FamilyParams("cld", (4, 0)))
        hi, whi = build(FamilyParams("cld", (4, 4)))
        assert wlo == tuple(-x for x in whi)
        neg = BracketSpec(hi.algebra, {k: u.scale(-1) for k, u in hi.table.items()})
        for i in range(1, 5):
            for j in range(1, 5):
                assert lo.letter_bracket(i, j) == neg.letter_bracket(i, j)

    def test_cl3a_zero_parameters(self):
        spec, _ = build(FamilyParams("cl3a", (0, 0, 0, 0, 0, 0)))
        alg = spec.algebra
        assert not spec.letter_bracket(1, 2)
        assert spec.letter_bracket(2, 1) == alg.tensor2({((1,), (2,)): -1, ((2,), (1,)): 1})
        assert not spec.letter_bracket(1, 1)

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
        # the arity is the builder's: its parameter names, checked before the domain
        for name, args, message in (
            ("mdbI", (1,), "this family takes no parameters"),
            ("cl1", (1, 2), "expected (lam, rho, g1, g2, g3, g4)"),
            ("cl1_case2", (1,), "expected (lam, alphat, betat)"),
            ("cl3a", (0, 1, 2), "expected (a1, a2, a3, b1, b2, b3)"),
            ("cld", (4,), "expected (d, delta)"),
        ):
            with pytest.raises(ValueError) as ei:
                FamilyParams(name, args)
            assert str(ei.value) == message


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

    def test_grid_cap(self, monkeypatch):
        """A grid of exactly ``MAX_GRID`` points is searched; one more is
        refused before any spec is built."""
        monkeypatch.setattr(classify, "MAX_GRID", 32)
        assert len(search_cl1_grid(1)) == 32
        monkeypatch.setattr(classify, "MAX_GRID", 31)
        built = []
        monkeypatch.setattr(classify, "build", built.append)
        with pytest.raises(ValueError, match="a grid of 32 points, more than 31"):
            search_cl1_grid(1)
        assert not built

    def test_kontsevich_is_a_case1_member(self):
        spec, w = builtin("kontsevich")
        member, wm = build(FamilyParams("cl1_case1", (1, 0, 1)))
        assert w == wm
        for pair in ((1, 2), (2, 1)):
            assert spec.letter_bracket(*pair) == member.letter_bracket(*pair)


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

    def test_cld_families_for_every_d_and_delta(self):
        """cld(d, delta) and cld2(d, delta) are weighted skew symmetric and
        Poisson for every d >= 4 and 0 <= delta <= d, by locality.

        Both properties are letter-level comparisons of raw dicts (criterion
        4): a letter pair's skew defect <<x,y>> + flip<<y,x>> against its
        weight form, and a letter triple's double Jacobiator (``_djac_words``
        on letters) against ``poisson_rhs``.  Each side reads only brackets
        among the tuple's own letters: the skew defect reads <<x,y>> and
        <<y,x>>; the Jacobiator reads <<y,z>>, <<x,z>> and <<x,y>>, then the
        bracket of a letter of the triple with each word of those, whose
        letters are again among x, y, z; ``poisson_rhs`` reads <<x,z>>.  In
        ``classify._blocks`` the entry of a pair i < j is one formula per
        pair of sign blocks, in the letters i and j, and the forced (j, i)
        entry depends only on their weights, which are +-1 by block.  So a
        tuple's two dicts are fixed, up to relabelling its letters, by its
        type: the order pattern of its indices (repeats included) and the
        block of each index.

        The +1 block comes first, so a type's distinct indices, in order,
        run through + blocks and then - blocks; with three indices in each
        block, cld(6, 3) and cld2(6, 3) realise every type of a pair or a
        triple.  The test builds the table of types there and asserts that
        every residual is 0.  For every d <= 12 and every delta it asserts
        that each letter pair and triple has a type in the table, and for
        d <= 8 that the tuple's two dicts are its type representative's
        after relabelling: the locality above, checked.
        """

        def dicts_of(spec):  # a letter tuple -> its (actual, expected) raw dicts
            dbr = functools.cache(spec._dbr_words)

            def dicts(cell):
                form = weight_form(spec.weight[cell[0] - 1], spec.weight[cell[1] - 1])
                if len(cell) == 2:
                    return skew_defect(spec, *cell), form_terms(*cell, *form)
                return spec._djac_words(*((g,) for g in cell), dbr), poisson_rhs(spec, *cell, *form)
            return dicts

        def letter_type(cell, delta):
            order = sorted(set(cell))
            return tuple((order.index(g), g <= delta) for g in cell)

        def relabel(terms, to):
            return {tuple(tuple(to[g] for g in w) for w in key): c for key, c in terms.items()}

        for name in ("cld", "cld2"):
            dicts = dicts_of(build(FamilyParams(name, (6, 3)))[0])
            table = {}  # type -> (its first letter tuple, that tuple's two dicts)
            for cell in itertools.chain(*(itertools.product(range(1, 7), repeat=n) for n in (2, 3))):
                table.setdefault(letter_type(cell, 3), (cell, dicts(cell)))
            assert len(table) == 8 + 44  # pair types and triple types
            assert all(actual == expected for _, (actual, expected) in table.values())
            for d in range(4, 13):
                for delta in range(d + 1):
                    dicts = dicts_of(build(FamilyParams(name, (d, delta)))[0]) if d <= 8 else None
                    for n in (2, 3):
                        for cell in itertools.product(range(1, d + 1), repeat=n):
                            rep, rep_dicts = table[letter_type(cell, delta)]
                            if dicts is not None:
                                to = dict(zip(rep, cell))
                                assert dicts(cell) == tuple(relabel(t, to) for t in rep_dicts), (name, d, delta, cell)

    @pytest.mark.parametrize("name", ["cld", "cld2"])
    def test_cld_jacobi_to_degree_2_for_every_d_and_delta(self, name):
        """cld(d, delta) and cld2(d, delta) satisfy the Jacobi identity on
        every triple of monomials of degree <= 2, for every d >= 4 and
        0 <= delta <= d, by locality.

        {u, w} sums, over the letters x of u and y of w, terms built from
        <<x, y>> and the letters of u and w, and every word of a letter
        bracket of these families is in its two letters.  So J(a,b,c) is
        built from the brackets among the letters of a, b and c alone, and
        an injective relabelling s of letters that carries each of those
        brackets to the bracket of the relabelled letters carries J(a,b,c)
        to J(s a, s b, s c); J(a,b,c) = 0 iff its image is.  As in the test
        above, the bracket of two indices is fixed, up to relabelling, by
        their order and their blocks.  A triple of degree <= 2 has at most 6
        distinct indices, at most 6 in each block, and the +1 block comes
        first in both algebras, so the map that sends the +1 indices in
        order to 1, 2, ... and the -1 indices in order to 7, 8, ... keeps
        order and blocks and lands in cld(12, 6).  Its degree-2 sweep visits
        every triple of words of degree <= 2 in 12 letters, so its passing
        proves the identity for every (d, delta) at this degree.
        """
        r = check_jacobi(build(FamilyParams(name, (12, 6)))[0], 2)
        assert r.passed and r.params["words"] == 156 and r.params["triples"] == 156 ** 3
