import itertools
import json
import random
from fractions import Fraction

import pytest

from ncdb.freealg import FreeAlgebra, Tensor3, concat, _merge_term, reduce_mod_commutators
from ncdb.bracket import BracketSpec
from ncdb.axioms import (
    MixedType,
    check_cyclic_skew,
    check_double_poisson,
    check_h0_skew,
    check_jacobi,
    check_lambda_double_lie,
    check_mixed_type,
    check_poisson_property,
    check_weight,
    check_wsk_condition,
    infer_mixed_type,
    infer_weight,
)
from ncdb.classify import FamilyParams, build, builtin


@pytest.fixture(scope="module")
def mdbI():
    return builtin("mdbI")[0]


@pytest.fixture(scope="module")
def mdbII():
    return builtin("mdbII")[0]


def zero_spec(d=2):
    alg = FreeAlgebra.standard(d)
    return BracketSpec(alg, {})


class TestCyclicSkew:
    def test_zero_spec_passes(self):
        assert check_cyclic_skew(zero_spec()).passed

    def test_mdbII_first_witness_pair(self, mdbII):
        r = check_cyclic_skew(mdbII)
        assert not r.passed
        w = r.witnesses[0]
        assert w.inputs == ("x1", "x2")
        alg = mdbII.algebra
        residual = mdbII.letter_bracket(1, 2) + mdbII.letter_bracket(2, 1).flip()
        assert residual == alg.tensor2({((1,), (2,)): -1, ((2,), (1,)): 1})
        assert w.residual == str(residual)

    def test_self_skew_single_generator(self):
        alg = FreeAlgebra(("v",))
        spec = BracketSpec(alg, {(1, 1): alg.tensor2({((1, 1), ()): 1, ((), (1, 1)): -1})})
        assert check_cyclic_skew(spec).passed


class TestDoublePoisson:
    def test_zero_spec(self):
        assert check_double_poisson(zero_spec()).passed

    def test_one_generator_quadratic(self):
        alg = FreeAlgebra(("v",))
        # skew but with nonvanishing Jacobiator: fails (computed outcome)
        spec = BracketSpec(alg, {(1, 1): alg.tensor2({((1, 1), ()): 1, ((), (1, 1)): -1})})
        assert not check_double_poisson(spec).passed
        # the other quadratic self-bracket is genuinely double Poisson
        spec2 = BracketSpec(alg, {(1, 1): alg.tensor2({((1,), (1, 1)): 1, ((1, 1), (1,)): -1})})
        assert check_double_poisson(spec2).passed

    def test_mdbI_fails(self, mdbI):
        assert not check_double_poisson(mdbI).passed

    def test_weight_zero_degeneration(self):
        alg = FreeAlgebra(("v",))
        spec = BracketSpec(alg, {(1, 1): alg.tensor2({((1,), (1, 1)): 1, ((1, 1), (1,)): -1})})
        assert check_double_poisson(spec).passed
        zeros = (Fraction(0),)
        assert check_weight(spec, zeros).passed
        assert check_poisson_property(spec, zeros).passed


class TestMixedType:
    def test_infer_for_mdbI(self, mdbI):
        mt = infer_mixed_type(mdbI)
        assert mt.sym == ((1, 0, 0), (0, -1, -1), (0, -1, -1))
        assert mt.skew == ((0, 1, 1), (-1, 0, 0), (-1, 0, 0))
        assert check_mixed_type(mdbI, mt).passed
        assert check_wsk_condition(mt)

    def test_zero_spec_type(self):
        mt = infer_mixed_type(zero_spec(2))
        assert mt.sym == ((0, 0), (0, 0))
        assert mt.skew == ((0, 0), (0, 0))

    def test_outside_span_fails(self):
        alg = FreeAlgebra.standard(2)
        spec = BracketSpec(alg, {(1, 2): alg.tensor2({((1, 1), (2,)): 1})})
        assert infer_mixed_type(spec) is None

    def test_validation(self):
        with pytest.raises(ValueError):
            MixedType(((0, 1), (2, 0)), ((0, 0), (0, 0)))  # not symmetric
        with pytest.raises(ValueError):
            MixedType(((0, 0), (0, 0)), ((1, 0), (0, 0)))  # nonzero diagonal


class TestWeight:
    def test_bundled_weights(self, mdbI, mdbII):
        assert infer_weight(mdbI) == (1, -1, -1)
        assert infer_weight(mdbII) == (-1, -1, -1)
        kont, _ = builtin("kontsevich")
        assert infer_weight(kont) == (1, -1)

    def test_check_weight_pass_fail(self, mdbI):
        assert check_weight(mdbI, (1, -1, -1)).passed
        r = check_weight(mdbI, (1, 1, -1))
        assert not r.passed and r.witnesses

    def test_infer_fails_outside_span(self):
        alg = FreeAlgebra.standard(2)
        spec = BracketSpec(alg, {(1, 2): alg.tensor2({((1,), (2,)): 1, ((), (1, 2)): 1})})
        # defect has an asymmetric swap part: v1 (x) v2 appears without -v2 (x) v1
        assert infer_weight(spec) is None

    def test_rescaling_scales_weight(self, mdbI):
        scaled = mdbI.scale(Fraction(3, 2))
        assert infer_weight(scaled) == (Fraction(3, 2), Fraction(-3, 2), Fraction(-3, 2))


class TestPoissonProperty:
    def test_mdbI_passes_at_its_weight(self, mdbI):
        assert check_poisson_property(mdbI, (1, -1, -1)).passed

    def test_relabelled_negated_mdbI_is_cl3b_point(self, mdbI):
        # -1 x bracket, generators reordered (v1,v2,v3) := (x3,x2,x1): weight (1,1,-1)
        spec, w = build(FamilyParams("cl3b", (0, 1, 0, 1, 0, 1)))
        assert check_weight(spec, w).passed
        assert check_poisson_property(spec, w).passed
        # cross-check one relabelled entry against -mdbI: <<v3,v2>> = x2 x3 (x) 1
        alg = spec.algebra
        assert spec.entry(3, 2) == alg.tensor2({((2, 3), ()): 1})

    def test_zero_spec_any_weight(self):
        assert check_poisson_property(zero_spec(2), (Fraction(5), Fraction(-7, 3))).passed

    def test_cl3a_all_ones(self):
        spec, w = build(FamilyParams("cl3a", (1, 1, 1, 1, 1, 1)))
        assert check_poisson_property(spec, w).passed

    def test_djac_formula_extends_to_elements(self, mdbI):
        # with the Poisson property verified on letters, the same formula holds
        # with an arbitrary element in the third slot
        rng = random.Random(61)
        alg = mdbI.algebra
        weights = (1, -1, -1)
        words = [w for w in alg.words_up_to(3) if w]
        for _ in range(25):
            c_word = rng.choice(words)
            c = alg.element({c_word: rng.randint(1, 3)})
            for (i, j) in (((1), (2)), ((2), (3)), ((3), (1))):
                lhs = mdbI.djac(alg.gen(i), alg.gen(j), c)
                u = mdbI.dbracket(alg.gen(i), c)
                li, lj = weights[i - 1], weights[j - 1]
                half_sum = Fraction(li + lj, 2)
                half_diff = Fraction(li - lj, 2)
                terms = {}
                for (p, q), cc in u.terms.items():
                    if half_sum:
                        _merge_term(terms, (p, (j,), q), -half_sum * cc)
                    if half_diff:
                        _merge_term(terms, (p, (), concat((j,), q)), half_diff * cc)
                assert lhs == Tensor3(alg, terms)


class TestH0Skew:
    def test_mdbI_degree3(self, mdbI):
        assert check_h0_skew(mdbI, 3).passed

    def test_single_entry_fails(self):
        alg = FreeAlgebra.standard(2)
        spec = BracketSpec(alg, {(1, 2): alg.tensor2({((1,), (2,)): 1})})
        r = check_h0_skew(spec, 2)
        assert not r.passed
        w = r.witnesses[0]
        assert w.inputs == ("v1", "v2")
        assert w.residual == "v1*v2"

    def test_poisson_failing_grid_point_still_h0_skew(self):
        # the weighted skew condition alone forces H0 skew symmetry; take a
        # parameter point that fails the Jacobiator conditions
        spec, w = build(FamilyParams("cl3a", (0, 1, 0, 0, 0, 0)))
        assert check_weight(spec, w).passed
        assert not check_poisson_property(spec, w).passed
        assert check_h0_skew(spec, 3).passed

    def test_all_witnesses_flag(self):
        alg = FreeAlgebra.standard(2)
        spec = BracketSpec(alg, {(1, 2): alg.tensor2({((1,), (2,)): 1})})
        r = check_h0_skew(spec, 2, all_witnesses=True)
        assert len(r.witnesses) > 1


class TestJacobi:
    def test_mdbII_degree2(self, mdbII):
        assert check_jacobi(mdbII, 2).passed

    def test_zero_spec(self):
        assert check_jacobi(zero_spec(), 3).passed

    def test_talph_violating_point_fails(self):
        # (0,1,0) violates the survivor condition: 0+0-0-1 = -1 != 0
        spec, w = build(FamilyParams("cl3a", (0, 1, 0, 0, 0, 0)))
        r = check_jacobi(spec, 3)
        assert not r.passed
        assert r.witnesses[0].inputs == ("v1", "v2", "v3")


class TestLambdaDoubleLie:
    def test_cl3a_survivor_is_1_double_lie(self):
        spec, _ = build(FamilyParams("cl3a", (0, 0, 1, 1, 0, 0)))
        assert check_lambda_double_lie(spec, 1).passed

    def test_mdbI_not_linear_valued(self, mdbI):
        r = check_lambda_double_lie(mdbI, 1)
        assert not r.passed
        assert r.params.get("reason") == "not V(x)V-valued"

    def test_zero_spec_lambda_zero(self):
        assert check_lambda_double_lie(zero_spec(), 0).passed

    def test_homogeneous_weight_equivalence(self):
        # for a linear-valued spec, being Poisson of weight (1,1,1) is the same
        # as the lambda = 1 double Lie axioms
        for args in ((1, 1, 1, 1, 1, 1), (0, 1, 0, 0, 0, 0), (1, 0, 0, 0, 0, 1)):
            spec, w = build(FamilyParams("cl3a", args))
            lhs = check_lambda_double_lie(spec, 1).passed
            rhs = check_weight(spec, w).passed and check_poisson_property(spec, w).passed
            assert lhs == rhs


class TestReports:
    def test_deterministic_json(self, mdbI):
        a = check_weight(builtin("mdbI")[0], (1, -1, -1)).to_json()
        b = check_weight(builtin("mdbI")[0], (1, -1, -1)).to_json()
        assert a == b

    def test_schema_valid(self, mdbI):
        jsonschema = pytest.importorskip("jsonschema")
        import pathlib

        schema = json.loads(
            (pathlib.Path(__file__).resolve().parents[1] / "docs" / "report_schema.json").read_text()
        )
        for rep in (
            check_weight(mdbI, (1, -1, -1)),
            check_h0_skew(builtin("mdbII")[0], 2),
            check_cyclic_skew(builtin("mdbII")[0]),
        ):
            jsonschema.validate(rep.as_dict(), schema)

    def test_fail_reports_carry_witnesses(self, mdbII):
        r = check_cyclic_skew(mdbII)
        assert not r.passed and len(r.witnesses) >= 1
        d = r.as_dict()
        assert d["status"] == "fail" and d["witnesses"]


def _scaled_mdb2():
    spec = builtin("mdbII")[0]
    table = dict(spec.table)
    table[(2, 3)] = table[(2, 3)].scale(Fraction(-3, 7))
    return BracketSpec(spec.algebra, table)


def _broken_laurent():
    """The Laurent Kontsevich table with one entry doubled: not Poisson."""
    alg = FreeAlgebra(("v", "w"), inverted=(1, 2))
    table = {
        (1, 2): alg.tensor2({((2, 1), ()): -1}),
        (2, 1): alg.tensor2({((1, 2), ()): 2}),
    }
    return BracketSpec(alg, table)


@pytest.mark.parametrize("make", [_scaled_mdb2, _broken_laurent])
def test_sweeps_match_bracket_arithmetic(make):
    """Every witness of both sweeps, in order, against mbracket / jacobiator."""
    spec = make()
    alg = spec.algebra
    name = alg.render_word

    def elt(w):
        return alg.element({w: 1})

    words = alg.words_up_to(2, include_unit=False)
    expected = []
    for cell in itertools.product(words, repeat=3):
        j = spec.jacobiator(*map(elt, cell))
        if j:
            expected.append((tuple(map(name, cell)), str(j)))
    r = check_jacobi(spec, 2, all_witnesses=True)
    assert expected and [(w.inputs, w.residual) for w in r.witnesses] == expected

    words = alg.words_up_to(2)
    expected = []
    for i, a in enumerate(words):
        for b in words[i:]:
            x = spec.mbracket(elt(a), elt(b)) + spec.mbracket(elt(b), elt(a))
            if reduce_mod_commutators(x):
                expected.append(((name(a), name(b)), str(reduce_mod_commutators(x))))
    r = check_h0_skew(spec, 2, all_witnesses=True)
    assert expected and [(w.inputs, w.residual) for w in r.witnesses] == expected
