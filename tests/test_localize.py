from fractions import Fraction

import pytest

from ncdb.freealg import FreeAlgebra
from ncdb.bracket import BracketSpec
from ncdb.axioms import check_jacobi, check_poisson_property, check_weight, infer_weight
from ncdb.classify import FamilyParams, build, builtin
from ncdb.localize import localize

from oracles import inner_act, outer_act


@pytest.fixture(scope="module")
def kont():
    return builtin("kontsevich")


class TestPlan:
    def test_validation(self, kont):
        spec, w = kont
        with pytest.raises(ValueError):
            localize(spec, w, ())
        with pytest.raises(ValueError):
            localize(spec, w, (1, 1))
        with pytest.raises(ValueError):
            localize(spec, w, (3,))
        loc, wext = localize(spec, w, (2,))
        with pytest.raises(ValueError):
            localize(loc, wext, (1,))


class TestLocalize:
    def test_kontsevich_full_inversion(self, kont):
        spec, w = kont
        loc, wext = localize(spec, w, (1, 2))
        # extended weight follows the negation rule in plan order; as a
        # multiset this is two +1s and two -1s
        assert wext == (1, -1, -1, 1)
        assert sorted(wext, reverse=True) == [1, 1, -1, -1]
        assert loc.algebra.letters == (1, 2, -1, -2)
        assert check_weight(loc, wext).passed
        assert check_poisson_property(loc, wext).passed

    def test_single_generator_plans(self, kont):
        spec, w = kont
        for i in (1, 2):
            loc, wext = localize(spec, w, (i,))
            assert wext == w + (-w[i - 1],)
            assert check_weight(loc, wext).passed
            assert check_poisson_property(loc, wext).passed

    def test_zero_spec(self):
        # the zero bracket admits only the zero weight (the prescribed skew
        # defect must itself vanish), which then extends by negation
        alg = FreeAlgebra.standard(2)
        zero = BracketSpec(alg, {})
        loc, wext = localize(zero, (Fraction(0), Fraction(0)), (2,))
        assert wext == (0, 0, 0)
        assert not loc.table
        with pytest.raises(ValueError):
            localize(zero, (Fraction(2), Fraction(-5)), (2,))

    def test_rejects_wrong_base_weight(self, kont):
        spec, _ = kont
        with pytest.raises(ValueError):
            localize(spec, (1, 1), (1,))

    def test_inverse_brackets_derived_not_stored(self, kont):
        spec, w = kont
        loc, _ = localize(spec, w, (1, 2))
        assert set(loc.table) == set(spec.table)
        alg = loc.algebra
        # <<v, w^-1>> = -w^-1 . (-wv (x) 1) . w^-1 = v (x) w^-1
        assert loc.letter_bracket(1, -2) == alg.tensor2({((1,), (-2,)): 1})

    def test_bundled_specs_localise_poisson(self):
        for name in ("mdbI", "mdbII"):
            spec, w = builtin(name)
            for i in (1, 2, 3):
                loc, wext = localize(spec, w, (i,))
                assert check_weight(loc, wext).passed
                assert check_poisson_property(loc, wext).passed

    def test_binary_family_point_localises(self):
        spec, w = build(FamilyParams("cl3b", (0, 1, 0, 1, 0, 1)))
        loc, wext = localize(spec, w, (3, 1))
        assert wext == (1, 1, -1, 1, -1)
        assert check_poisson_property(loc, wext).passed

    def test_laurent_bounded_jacobi(self, kont):
        spec, w = kont
        loc, _ = localize(spec, w, (1, 2))
        assert check_jacobi(loc, 2).passed

    def test_inferred_weight_on_laurent(self, kont):
        spec, w = kont
        loc, wext = localize(spec, w, (1, 2))
        assert infer_weight(loc) == wext


class TestUnitCoherence:
    def test_bracket_with_relation_word_vanishes(self, kont):
        spec, w = kont
        loc, _ = localize(spec, w, (1, 2))
        alg = loc.algebra
        # <<a, v v^-1>> expanded by the product rule is identically zero
        for a in (alg.gen(1), alg.gen(2), alg.element({(1, -2, 1): 1})):
            for g in (1, 2):
                v, vinv = alg.letter_elt(g), alg.letter_elt(-g)
                expanded = outer_act(v, loc.dbracket(a, vinv), alg.one()) + outer_act(
                    alg.one(), loc.dbracket(a, v), vinv
                )
                assert expanded.is_zero()
                expanded_first = inner_act(v, loc.dbracket(vinv, a), alg.one()) + inner_act(
                    alg.one(), loc.dbracket(v, a), vinv
                )
                assert expanded_first.is_zero()

    def test_jacobiator_on_reduced_relation_inputs(self, kont):
        spec, w = kont
        loc, _ = localize(spec, w, (1, 2))
        alg = loc.algebra
        # v v^-1 reduces to the unit, so every bracket with it vanishes
        rel = alg.element({(): 1})
        assert loc.dbracket(alg.gen(1), rel).is_zero()
        assert loc.jacobiator(rel, alg.gen(1), alg.gen(2)).is_zero()
