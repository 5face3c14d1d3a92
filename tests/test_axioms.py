import gc
import hashlib
import itertools
import json
import random
import weakref
from fractions import Fraction

import pytest

from ncdb import axioms, repspace
from ncdb.freealg import FreeAlgebra, Tensor3, concat, cyclic_normal_form, _merge_term
from ncdb.bracket import BracketSpec, jacobiator_ids
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
    infer_mixed_type,
    infer_weight,
)
from ncdb.classify import FamilyParams, build, builtin, search_cl1, verify_family_props
from ncdb.localize import localize
from ncdb.repspace import MatrixPoint, check_induced_poisson, eval_trace

import oracles
from oracles import flip, reduce_mod_commutators, unreduced_check_h0_skew, unreduced_check_jacobi
from test_golden_reports import _laurent_kontsevich, _random_spec


@pytest.fixture(scope="module")
def mdbI():
    return builtin("mdbI")[0]


@pytest.fixture(scope="module")
def mdbII():
    return builtin("mdbII")[0]


def count_calls(monkeypatch, spec, name):
    """The argument tuples of each call of the ``BracketSpec`` method
    ``name`` on ``spec``, recorded by patching the class, since a frozen
    spec refuses a patch of its own attribute."""
    calls = []
    kernel = getattr(BracketSpec, name)

    def spy(self, *args):
        if self is spec:
            calls.append(args)
        return kernel(self, *args)

    monkeypatch.setattr(BracketSpec, name, spy)
    return calls


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
        residual = mdbII.letter_bracket(1, 2) + flip(mdbII.letter_bracket(2, 1))
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
        # its index condition sym[i][j] - sym[k][l] == skew[i][l] - skew[k][j]
        assert all(mt.sym[i][j] - mt.sym[k][l] == mt.skew[i][l] - mt.skew[k][j]
                   for i, j, k, l in itertools.product(range(3), repeat=4))

    def test_zero_spec_type(self):
        mt = infer_mixed_type(zero_spec(2))
        assert mt.sym == ((0, 0), (0, 0))
        assert mt.skew == ((0, 0), (0, 0))

    def test_outside_span_fails(self):
        alg = FreeAlgebra.standard(2)
        spec = BracketSpec(alg, {(1, 2): alg.tensor2({((1, 1), (2,)): 1})})
        assert infer_mixed_type(spec) is None

    @pytest.mark.parametrize("entries", [
        {(1, 1): {((1,), (1,)): 1}},   # nonzero diagonal defect 2 v1 (x) v1
        {(1, 2): {((1,), (2,)): 1}},   # v1 (x) v2 without -v2 (x) v1
        {(1, 2): {((), (1, 2)): 1}},   # 1 (x) v1v2 without -v2v1 (x) 1
    ])
    def test_defect_off_its_read_form_fails(self, entries):
        # each is read as some type on the pairs i < j, which check_mixed_type refutes
        alg = FreeAlgebra.standard(2)
        spec = BracketSpec(alg, {pair: alg.tensor2(terms) for pair, terms in entries.items()})
        assert infer_mixed_type(spec) is None

    def test_validation(self):
        with pytest.raises(ValueError):
            MixedType(((0, 1), (2, 0)), ((0, 0), (0, 0)))  # not symmetric
        with pytest.raises(ValueError):
            MixedType(((0, 0), (0, 0)), ((1, 0), (0, 0)))  # nonzero diagonal
        with pytest.raises(ValueError):
            MixedType(((0, 0.5), (0.5, 0)), ((0, 0), (0, 0)))  # float entries
        with pytest.raises(ValueError):
            MixedType(((0, 0), (0, 0)), ((0, "1"), ("-1", 0)))  # string entries
        with pytest.raises(ValueError, match="square"):
            MixedType(((0, 0), (0,)), ((0, 0), (0, 0)))  # a short row
        with pytest.raises(ValueError, match="square"):
            MixedType(((0, 0), (0, 0)), ((0,),))  # skew part of another size
        with pytest.raises(ValueError, match="skew-symmetric"):
            MixedType(((0, 0), (0, 0)), ((0, 1), (1, 0)))
        with pytest.raises(ValueError, match="type size"):
            check_mixed_type(zero_spec(3), MixedType(((0, 0), (0, 0)), ((0, 0), (0, 0))))


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

    def test_pair_off_the_first_generator_contradicts(self, mdbI):
        # the (x1, xj) pairs still read (1, -1, -1); the extra 1 (x) x2x3 in
        # <<x2, x3>> breaks weighted skew symmetry on the (x2, x3) pair only
        table = dict(mdbI.table)
        table[(2, 3)] = table[(2, 3)] + mdbI.algebra.tensor2({((), (2, 3)): 1})
        spec = BracketSpec(mdbI.algebra, table)
        assert infer_weight(spec) is None
        failing = {w.inputs for w in check_weight(spec, (1, -1, -1)).witnesses}
        assert failing == {("x2", "x3"), ("x3", "x2")}

    def test_non_exact_weights_refused(self, mdbI):
        for call in (
            lambda: check_weight(mdbI, (0.1, -1, -1)),
            lambda: check_poisson_property(mdbI, (0.1, -1, -1)),
            lambda: check_lambda_double_lie(mdbI, 0.1),
            lambda: BracketSpec(mdbI.algebra, {}, (0.1, -1, -1)),
        ):
            with pytest.raises(ValueError):
                call()
        weight = BracketSpec(mdbI.algebra, {}, (1, Fraction(-2, 2), -1)).weight
        assert weight == (1, -1, -1) and all(type(w) is Fraction for w in weight)

    @pytest.mark.parametrize("laurent", [False, True])
    def test_weight_length_refused(self, mdbI, laurent):
        """One rule for every weight vector: one weight per letter, inverse
        letters included; n - 1 and n + 1 weights are refused alike."""
        spec = localize(builtin("kontsevich")[0], (1, -1), (1, 2))[0] if laurent else mdbI
        n = len(spec.algebra.letters)
        for m in (n - 1, n + 1):
            w = (1,) * m
            for call in (
                lambda: BracketSpec(spec.algebra, {}, w),
                lambda: check_weight(spec, w),
                lambda: check_poisson_property(spec, w),
            ):
                with pytest.raises(ValueError, match=f"expected {n} weights, got {m}"):
                    call()

    def test_rescaling_scales_weight(self, mdbI):
        scaled = BracketSpec(mdbI.algebra, {k: u.scale(Fraction(3, 2)) for k, u in mdbI.table.items()})
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
        assert spec.letter_bracket(3, 2) == alg.tensor2({((2, 3), ()): 1})

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
        # the weighted skew condition alone forces H0 skew symmetry (proved in
        # the check_h0_skew docstring); take a point that fails the Jacobiator
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

    @pytest.mark.parametrize("name", ["mdbI", "mdbII", "kontsevich"])
    def test_builtins_degree4(self, name):
        spec, _ = builtin(name)
        r = check_jacobi(spec, 4)
        assert r.passed and r.params["triples"] == len(spec.algebra.words_up_to(4, include_unit=False)) ** 3

    def test_cl1_survivors_degree4(self):
        survivors = search_cl1(1)
        assert survivors
        for rho, gamma in survivors:
            spec, _ = build(FamilyParams("cl1", (Fraction(1), rho) + gamma))
            assert check_jacobi(spec, 4).passed, (rho, gamma)

    def test_laurent_kontsevich_degree3(self):
        spec, w = builtin("kontsevich")
        loc, _ = localize(spec, w, (1, 2))
        r = check_jacobi(loc, 3)
        assert r.passed and r.params["triples"] == 52 ** 3


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


@pytest.mark.parametrize("sweep", [
    lambda spec, w: check_jacobi(spec, 0),
    lambda spec, w: check_h0_skew(spec, 0),
    lambda spec, w: check_h0_skew(spec, -1),
    lambda spec, w: check_induced_poisson(spec, MatrixPoint.random(spec.algebra, 2, 0), 0),
    lambda spec, w: axioms.modified_double_poisson_battery(spec, w, 0, 3),
    lambda spec, w: verify_family_props(4, 2, 0, 0),
], ids=["jacobi", "h0skew_0", "h0skew_-1", "rep", "battery", "family_props"])
def test_sweep_below_degree_one_refused(sweep, mdbI):
    """A degree below 1 leaves at most the unit word, over which every
    sweep would pass vacuously, so it is refused as on the command line."""
    with pytest.raises(ValueError, match="at least 1"):
        sweep(mdbI, builtin("mdbI")[1])


@pytest.mark.parametrize("call", [
    lambda spec: check_jacobi(spec, True),
    lambda spec: check_h0_skew(spec, 2.5),
    lambda spec: check_induced_poisson(spec, MatrixPoint.random(spec.algebra, 2, 0), True),
    lambda spec: MatrixPoint.random(spec.algebra, True, 0),
    lambda spec: spec.algebra.words_up_to(Fraction(2)),
], ids=["jacobi_bool", "h0skew_float", "rep_bool", "size_bool", "words_fraction"])
def test_non_int_degree_or_size_refused(call, mdbI):
    """A bool would pass as 1 and reach a report's "maxdeg" or "size" as
    true, which the report schema refuses; a float would reach range()."""
    with pytest.raises(ValueError, match="must be an int"):
        call(mdbI)


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


JACOBI_SPECS = {
    **{f"random_{k}": (lambda k=k: _random_spec(k)) for k in (0, 1, 4)},
    "mdbII_scaled": _scaled_mdb2,
    "cl3a_point": lambda: build(FamilyParams("cl3a", (0, 0, 0, 1, 0, 1)))[0],
    "cl3b_point": lambda: build(FamilyParams("cl3b", (0, 0, 0, 0, 1, 0)))[0],
    "laurent": _laurent_kontsevich,
}
# the Laurent spec passes, so its plain sweep at degree 3 visits all 52**3 cells (5 s)
JACOBI_CASES = (
    [(name, 2, True) for name in JACOBI_SPECS]
    + [(name, 3, True) for name in ("random_0", "random_4")]
    + [(name, 3, False) for name in JACOBI_SPECS if name != "laurent"]
)


@pytest.mark.parametrize("name,maxdeg,all_witnesses", JACOBI_CASES)
def test_jacobi_row_reduction_matches_full_sweep(name, maxdeg, all_witnesses):
    """Deciding rows on the letters keeps every report byte of the full sweep."""
    make = JACOBI_SPECS[name]
    full = unreduced_check_jacobi(make(), maxdeg, all_witnesses).to_json()
    same = check_jacobi(make(), maxdeg, all_witnesses).to_json() == full  # not inline: a diff of megabytes is slow
    assert same


@pytest.mark.parametrize("make,maxdeg,all_witnesses,witnesses,digest", [
    (JACOBI_SPECS["cl3a_point"], 3, True, 47_682,
     "0b04e446ad9fc9e863c8d65747f69fcec325159db86f97a12b35834efe57f97e"),
    (_laurent_kontsevich, 4, False, 0,
     "28b81fd3d72394f7462ab10a0691299218175952e9cb38979deefe1c3c4ba364"),
], ids=["cl3a_point_3", "laurent_4"])
def test_jacobi_high_degree_digests(make, maxdeg, all_witnesses, witnesses, digest):
    """Reports of weight forms the plain sweep above is too slow to reach,
    pinned by the sha256 of their JSON as the sweep over every ordered pair
    of classes wrote it: a failing one with every witness, and a passing
    one on a Laurent algebra."""
    r = check_jacobi(make(), maxdeg, all_witnesses)
    assert len(r.witnesses) == witnesses
    assert hashlib.sha256(r.to_json().encode()).hexdigest() == digest


def test_jacobi_row_reduction_runs_both_paths(monkeypatch):
    """The -3/7 mdbII at degree 2 decides some rows on the letters and scans
    the others, so the comparison above exercises both paths.  The cl3a
    point, a weight form, also scans mirrored rows (b, a), b > a, and its
    diagonal rows are all decided."""
    rows = []  # per (a, b) class pair: (a, b, True when skipped, False when scanned)
    real = axioms.sweep

    def spy(spec, ids, arity, residual, *rest):
        def watched(a, b):
            at = residual(a, b)
            rows.append((a, b, at is None))
            return at

        return real(spec, ids, arity, watched, *rest)

    monkeypatch.setattr(axioms, "sweep", spy)
    check_jacobi(_scaled_mdb2(), 2, all_witnesses=True)
    assert {decided for _, _, decided in rows} == {True, False}
    rows.clear()
    check_jacobi(JACOBI_SPECS["cl3a_point"](), 2, all_witnesses=True)
    assert {decided for a, b, decided in rows if a != b} == {True, False}
    assert any(a > b and not decided for a, b, decided in rows)
    assert all(decided for a, b, decided in rows if a == b)


@pytest.mark.parametrize("make,mirrored", [
    (lambda: builtin("mdbI")[0], True), (_laurent_kontsevich, True),
    (JACOBI_SPECS["random_0"], False), (_scaled_mdb2, False),
], ids=["mdbI", "laurent", "random_0", "mdbII_scaled"])
def test_jacobi_mirrors_rows_of_a_weight_form(make, mirrored, monkeypatch):
    """A spec whose skew defects are a weight form evaluates the Jacobiator
    kernel on exactly the class pairs a < b: each row (b, a) is its
    partner's negated, and each row (a, a) is 0.  Any other spec evaluates
    it on every ordered class pair, the diagonal included."""
    spec = make()
    assert (infer_weight(spec) is not None) is mirrored
    pairs = set()
    real = axioms.jacobiator_ids
    monkeypatch.setattr(axioms, "jacobiator_ids", lambda mb, a, b, c: pairs.add((a, b)) or real(mb, a, b, c))
    check_jacobi(spec, 2, all_witnesses=True)
    words = spec.algebra.words_up_to(2, include_unit=False)
    classes = {spec._wid(cyclic_normal_form(w)) for w in words}
    ordered = set(itertools.product(classes, repeat=2))  # every row reads its letters
    assert pairs == ({(a, b) for a, b in ordered if a < b} if mirrored else ordered)


# free and Laurent specs, passing (mdbI, laurent) and failing
GROUPING_SPECS = {"mdbI": lambda: builtin("mdbI")[0], **JACOBI_SPECS,
                  "random_3": lambda: _random_spec(3), "laurent_broken": _broken_laurent}


@pytest.mark.parametrize("name", GROUPING_SPECS)
def test_grouped_jacobiator_matches_three_loops(name):
    """Merging the words of {a,b} by cyclic class before bracketing them
    with c leaves the dict of the three plain loops, on sampled id triples
    of words up to degree 3, dozens of them not their own normal form."""
    spec = GROUPING_SPECS[name]()
    rng = random.Random(f"grouping/{name}")
    words = spec.algebra.words_up_to(3)
    cells = [tuple(spec._wid(rng.choice(words)) for _ in range(3)) for _ in range(150)]
    assert sum(spec._cls(a) != a for a, _, _ in cells) >= 30
    grouped = nonzero = 0
    for a, b, c in cells:
        got = jacobiator_ids(spec, a, b, c)
        assert got == oracles.ungrouped_jacobiator_ids(spec, a, b, c), (a, b, c)
        ab = spec._mb_ids(a, b)
        grouped += len({spec._cls(w) for w in ab}) < len(ab)
        nonzero += bool(got)
    assert grouped  # some {a,b} has two words of one class
    assert (nonzero == 0) is (name in ("mdbI", "laurent"))


@pytest.mark.parametrize("name", GROUPING_SPECS)
def test_jacobiator_matches_mbracket_composition(name):
    """The element-level ``jacobiator``, through the id kernel, is
    ``mbracket`` composed three times, on random rational combinations."""
    spec = GROUPING_SPECS[name]()
    alg = spec.algebra
    rng = random.Random(f"composition/{name}")
    words = alg.words_up_to(2)

    def element():
        return alg.element({rng.choice(words): Fraction(rng.choice((-3, -1, 1, 2)), rng.randint(1, 3))
                            for _ in range(rng.randint(1, 3))})

    for _ in range(15):
        a, b, c = element(), element(), element()
        assert spec.jacobiator(a, b, c) == oracles.mbracket_jacobiator(spec, a, b, c)


@pytest.mark.parametrize("check,entries", [
    (lambda spec: check_jacobi(spec, 3), 1485),
    (lambda spec: check_induced_poisson(spec, MatrixPoint.random(spec.algebra, 2, 0), 3), 1602),
], ids=["jacobi", "rep"])
def test_jacobiator_brackets_classes_only(check, entries, monkeypatch):
    """In a fresh Jacobi sweep or trace check on mdbI to degree 3 every
    first argument of {u, w} on ids is its own cyclic class: the sweep
    passes class ids, and ``jacobiator_ids`` brackets each class of {a,b}
    with c once, at its normal form.  So the id memo holds ``entries``."""
    spec = builtin("mdbI")[0]
    calls = count_calls(monkeypatch, spec, "_mb_ids")
    assert check(spec).passed
    assert calls and all(spec._cls(u) == u for u, _ in calls)
    assert len(spec._mb_id_cache) == entries


@pytest.mark.parametrize("check", [
    lambda spec: check_jacobi(spec, 3),
    lambda spec: check_h0_skew(spec, 3),
    lambda spec: axioms.modified_double_poisson_battery(spec, None, 3, 2),
    lambda spec: check_induced_poisson(spec, MatrixPoint.random(spec.algebra, 2, 0), 2),
], ids=["jacobi", "h0skew", "battery", "rep"])
@pytest.mark.parametrize("make", [lambda: builtin("mdbI")[0], lambda: builtin("mdbII")[0], JACOBI_SPECS["cl3a_point"]],
                         ids=["mdbI", "mdbII", "cl3a_point"])
def test_sweeps_leave_no_cycle_through_the_spec(check, make):
    """A check keeps no reference cycle that reaches the spec, so its memos
    die with the spec's last reference, without waiting for the cyclic
    garbage collector: a sweep closure that reached itself would keep every
    row, and through them the spec, alive until a full collection."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        spec = make()
        ref = weakref.ref(spec)
        check(spec)
        del spec
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def test_element_brackets_and_traces_keep_no_memo(monkeypatch):
    """The sweeps memoize {u, w} on word ids only.  ``mbracket`` calls its
    kernel once per pair of terms on every call, and neither it nor
    ``word_trace`` / ``eval_trace`` fills a memo of its own."""
    spec = builtin("mdbI")[0]
    p = MatrixPoint.random(spec.algebra, 2, 0)
    check_h0_skew(spec, 3)
    check_jacobi(spec, 3)
    check_induced_poisson(spec, p, 2)
    assert spec._mb_id_cache and not spec._mb_cache

    calls = count_calls(monkeypatch, spec, "_mb_words")
    a = spec.algebra.element({(1, 2): 1, (3,): 2})
    b = spec.algebra.element({(2, 3, 1): -1})
    first = spec.mbracket(a, b)
    assert len(calls) == 2
    assert spec.mbracket(a, b) == first and len(calls) == 4
    assert not spec._mb_cache

    assert eval_trace(first, p) == sum(c * p.word_trace(w) for w, c in first.terms.items())
    assert not p._traces


def test_h0_skew_reads_the_normal_form_cache():
    """Words of one class meet within a sweep, so the normal-form cache hits."""
    cyclic_normal_form.cache_clear()
    check_h0_skew(_flipped_mdb2(), 3)
    assert cyclic_normal_form.cache_info().hits > 0


def _flipped_mdb2():
    """mdbII with the sign of <<x2,x3>> flipped, keeping mdbII's weights."""
    spec, w = builtin("mdbII")
    table = dict(spec.table)
    table[(2, 3)] = table[(2, 3)].scale(-1)
    return BracketSpec(spec.algebra, table, w)


H0_SPECS = {
    "mdbI": lambda: builtin("mdbI")[0],
    "mdbII_flipped": _flipped_mdb2,
    "cl3a_point": JACOBI_SPECS["cl3a_point"],
    "cl3b_point": JACOBI_SPECS["cl3b_point"],
    **{f"random_{k}": (lambda k=k: _random_spec(k)) for k in range(4)},
    "laurent": _laurent_kontsevich,
    "laurent_broken": _broken_laurent,
}
# every spec fail-fast at degree 4 and with every witness at degree 3; the Laurent
# ones, whose words such as v*w*v^-1 have shorter normal forms, at degree 4 too
H0_CASES = ([(name, 4, False) for name in H0_SPECS] + [(name, 3, True) for name in H0_SPECS]
            + [("laurent", 4, True), ("laurent_broken", 4, True)])


@pytest.mark.parametrize("name,maxdeg,all_witnesses", H0_CASES)
def test_h0_class_memo_matches_per_pair_sweep(name, maxdeg, all_witnesses):
    """One residual per pair of cyclic classes keeps every report byte of
    the sweep that brackets each pair on its own words."""
    make = H0_SPECS[name]
    full = unreduced_check_h0_skew(make(), maxdeg, all_witnesses)
    memo = check_h0_skew(make(), maxdeg, all_witnesses)
    same = memo.to_json() == full.to_json()  # not inline: a diff of megabytes is slow
    assert same, next(((x, y) for x, y in zip(full.witnesses, memo.witnesses) if x != y), "counts differ")


@pytest.mark.parametrize("make,maxdeg,all_witnesses,witnesses,digest", [
    (_flipped_mdb2, 5, True, 60_955,
     "4d6ad012fba68dfc2ad65e90cf8884fc7e74a1b0d03cf06b9f429ecfb1a7f698"),
    (lambda: builtin("kontsevich")[0], 6, False, 0,
     "994a3ba00b25efb2ba41e8a06658424c04584ae07d0b0dc35cdf0ff891ad4b62"),
], ids=["mdbII_flipped_5", "kontsevich_6"])
def test_h0_skew_high_degree_digests(make, maxdeg, all_witnesses, witnesses, digest):
    """Reports of a degree the per-pair sweep above is too slow to reach,
    pinned by the sha256 of their JSON as the per-pair route wrote it."""
    r = check_h0_skew(make(), maxdeg, all_witnesses)
    assert len(r.witnesses) == witnesses
    assert hashlib.sha256(r.to_json().encode()).hexdigest() == digest


@pytest.mark.parametrize("make,classes,swept", [
    (H0_SPECS["mdbI"], 45, False), (_laurent_kontsevich, 51, False),
    (_flipped_mdb2, 45, True), (_broken_laurent, 51, True),
], ids=["mdbI", "laurent", "mdbII_flipped", "laurent_broken"])
def test_h0_skew_brackets_once_per_pair_of_classes(make, classes, swept, monkeypatch):
    """Up to degree 4 mdbI and the flipped mdbII have 45 cyclic classes, and
    the Laurent Kontsevich spec and its doubled variant 51.  A fresh h0 sweep
    with every witness computes its residual exactly once per unordered pair
    of classes, as one ``_mb_words`` call of the defect spec (the spec of
    letter skew defects) on the pair's two class words.  The checked spec
    brackets no words and memoizes no {u, w} on ids.  The h0 route reads the
    skew defect of each ordered pair of generators once, d**2 reads: the
    defect spec derives those of the inverse letters.  mdbI and the Laurent
    Kontsevich spec, whose skew defects are weight forms, are decided on the
    letters: past ``infer_weight`` the route reads no skew defect and
    computes no residual."""
    spec = make()
    mb_ids_calls = count_calls(monkeypatch, spec, "_mb_ids")
    mb_words_calls, residuals, defects, route_start = [], [], [], []
    real_mb_words, real_sweep = BracketSpec._mb_words, axioms.sweep
    real_defect, real_infer = axioms.skew_defect, axioms.infer_weight

    def mb_words_spy(self, u, w):
        mb_words_calls.append((self, u, w))
        return real_mb_words(self, u, w)

    def infer_spy(s):
        out = real_infer(s)
        route_start.append(len(defects))  # infer_weight reads skew defects of its own
        return out

    monkeypatch.setattr(BracketSpec, "_mb_words", mb_words_spy)
    monkeypatch.setattr(axioms, "sweep", lambda spec, ids, arity, residual, *rest: real_sweep(
        spec, ids, arity, lambda a, b: residuals.append((a, b)) or residual(a, b), *rest))
    monkeypatch.setattr(axioms, "skew_defect", lambda s, x, y: defects.append((x, y)) or real_defect(s, x, y))
    monkeypatch.setattr(axioms, "infer_weight", infer_spy)
    r = check_h0_skew(spec, 4, all_witnesses=True)
    assert r.passed is not swept
    n = r.params["words"]
    assert r.params["pairs"] == n * (n + 1) // 2
    assert len(residuals) == len(set(residuals)) == (classes * (classes + 1) // 2 if swept else 0)
    bracketed = {id(s): s for s, _, _ in mb_words_calls}
    assert id(spec) not in bracketed and len(bracketed) == int(swept)
    word_of = spec._id_words
    assert [(u, w) for _, u, w in mb_words_calls] == [(word_of[a], word_of[b]) for a, b in residuals]
    assert not mb_ids_calls and not spec._mb_id_cache
    assert all(not s._mb_id_cache and s.algebra == spec.algebra for s in bracketed.values())
    gens = range(1, spec.algebra.d + 1)
    assert len(route_start) == 1
    assert sorted(defects[route_start[0]:]) == (sorted(itertools.product(gens, gens)) if swept else [])


@pytest.mark.parametrize("make", [_laurent_kontsevich, *(lambda k=k: _random_spec(k) for k in (1, 3, 5, 7)),
                                  _broken_laurent],
                         ids=["laurent", "random_1", "random_3", "random_5", "random_7", "laurent_broken"])
def test_defect_spec_brackets_every_letter_pair_to_its_skew_defect(make):
    """The defect spec stores the skew defects of the ordered pairs of
    generators only, and derives those of the inverse letters by the inverse
    rule of ``_letter_raw``: on every ordered letter pair, inverse letters
    included, its letter bracket is the skew defect of the checked spec."""
    spec = make()
    alg = spec.algebra
    assert alg.has_inverses
    defects = axioms.skew_defect_spec(spec)
    assert defects.algebra == alg and all(i > 0 and j > 0 for i, j in defects.table)
    for x, y in itertools.product(alg.letters, repeat=2):
        assert defects.letter_bracket(x, y) == alg.tensor2(axioms.skew_defect(spec, x, y)), (x, y)


def test_decided_h0_skew_interns_no_word():
    """A sweep decided on the letters checks its cell cap from the word
    count alone: the spec's word table keeps only the unit word."""
    spec = builtin("mdbI")[0]
    r = check_h0_skew(spec, 6)
    assert r.passed and r.params["words"] == 1093
    assert len(spec._id_words) == 1


def _one_generator(inverted):
    """<<x,x>> = 1 (x) x^2 - x^2 (x) 1: its skew defect is 0, a weight form."""
    alg = FreeAlgebra(("x",), inverted=(1,) if inverted else ())
    return BracketSpec(alg, {(1, 1): alg.tensor2({((), (1, 1)): 1, ((1, 1), ()): -1})})


WEIGHT_FORM_SPECS = {
    "cl1_point": (lambda: build(FamilyParams("cl1", (2, Fraction(-1, 3), 1, -3, 2, Fraction(5, 2))))[0], 4),
    "cld_point": (lambda: build(FamilyParams("cld", (4, 2)))[0], 3),
    "cld2_point": (lambda: build(FamilyParams("cld2", (4, 1)))[0], 3),
    "one_generator": (lambda: _one_generator(False), 6),
    "one_generator_laurent": (lambda: _one_generator(True), 4),
}


@pytest.mark.parametrize("name", WEIGHT_FORM_SPECS)
def test_weight_form_h0_skew_matches_per_pair_sweep(name, monkeypatch):
    """A spec whose skew defects are a weight form is decided on the letters,
    with every report byte of the sweep that brackets each pair on its own
    words: the cl1 point has weights (2, -1/3), off rho = +-lam."""
    make, maxdeg = WEIGHT_FORM_SPECS[name]
    assert infer_weight(make()) is not None
    full = unreduced_check_h0_skew(make(), maxdeg, all_witnesses=True)
    monkeypatch.setattr(axioms, "sweep", None)  # the shortcut runs no sweep
    same = check_h0_skew(make(), maxdeg, all_witnesses=True).to_json() == full.to_json()  # not inline, as above
    assert full.passed and same


def test_broken_weight_form_runs_the_sweep():
    """mdbI with <<x1,x3>> doubled breaks the weight form on the one pair
    {x1, x3}: the sweep runs and fails, as the per-pair sweep does."""
    spec = builtin("mdbI")[0]
    table = dict(spec.table)
    table[(1, 3)] = table[(1, 3)].scale(2)
    broken = BracketSpec(spec.algebra, table)
    fails = check_weight(broken, builtin("mdbI")[1]).witnesses
    assert [w.inputs for w in fails] == [("x1", "x3"), ("x3", "x1")] and infer_weight(broken) is None
    r = check_h0_skew(broken, 3, all_witnesses=True)
    same = r.to_json() == unreduced_check_h0_skew(broken, 3, all_witnesses=True).to_json()  # not inline, as above
    assert not r.passed and same


def _gauge_table(spec, weights):
    """The table of ``spec`` minus F/2 on every ordered pair of generators,
    F being the weight form of ``weights``: each skew defect D becomes D - F."""
    alg = spec.algebra
    table = dict(spec.table)
    for x, y in itertools.product(range(1, alg.d + 1), repeat=2):
        s, k = axioms.weight_form(weights[x - 1], weights[y - 1])
        half = alg.tensor2(axioms.form_terms(x, y, s / 2, k / 2))
        table[(x, y)] = table[(x, y)] - half if (x, y) in table else -half
    return table


@pytest.mark.parametrize("name", [name for name, make in H0_SPECS.items() if infer_weight(make()) is None])
def test_h0_skew_is_blind_to_a_weight_form(name):
    """Subtracting a weight form from every skew defect of a spec that is not
    one leaves every report byte of its h0 sweep: the residual of a weight
    form is 0, as the check_h0_skew docstring proves, and this sweep, which
    runs, reads it through its real fold."""
    spec = H0_SPECS[name]()
    alg = spec.algebra
    rng = random.Random(f"gauge/{name}")
    weights = tuple(Fraction(rng.randint(1, 9), rng.randint(1, 4)) * rng.choice((1, -1)) for _ in range(alg.d))
    form_only = BracketSpec(alg, _gauge_table(BracketSpec(alg, {}), weights))
    # its defects are -F, the weight form of -weights, on the inverse letters too
    assert infer_weight(form_only) == tuple(-w for w in alg.letter_weights(weights))
    gauged = BracketSpec(alg, _gauge_table(spec, weights))
    assert gauged != spec and infer_weight(gauged) is None
    r = check_h0_skew(gauged, 3, all_witnesses=True)
    same = r.to_json() == check_h0_skew(spec, 3, all_witnesses=True).to_json()  # not inline, as above
    assert r.witnesses and same


@pytest.mark.parametrize("make,classes,letters", [(H0_SPECS["mdbI"], 20, 3), (lambda: builtin("kontsevich")[0], 9, 2)],
                         ids=["mdbI", "kontsevich"])
def test_rep_jacobiator_once_per_pair_of_classes(make, classes, letters, monkeypatch):
    """Up to degree 3 mdbI has 20 cyclic classes of 39 words and the
    Kontsevich spec 9 of 14, so a fresh trace check at one point evaluates
    the Jacobiator kernel once per ordered pair of classes and letter."""
    spec = make()
    calls = []
    kernel = repspace.jacobiator_ids
    monkeypatch.setattr(repspace, "jacobiator_ids", lambda *args: calls.append(args[1:]) or kernel(*args))
    assert check_induced_poisson(spec, MatrixPoint.random(spec.algebra, 2, 0), 3).passed
    assert len(calls) == len(set(calls)) == classes ** 2 * letters


@pytest.mark.parametrize("make,classes,letters", [(H0_SPECS["mdbI"], 20, 3), (lambda: builtin("kontsevich")[0], 9, 2)],
                         ids=["mdbI", "kontsevich"])
def test_rep_pair_stage_reads_one_row_per_class(make, classes, letters, monkeypatch):
    """The pair stage of a fresh trace check reads {a, x} once per cyclic
    class a and letter x: 60 reads on mdbI up to degree 3, 18 on the
    Kontsevich spec, and no bracket of two sweep words."""
    spec = make()
    calls = count_calls(monkeypatch, spec, "_mb_ids")
    stage = {}  # arity -> the reads made during that sweep
    real = repspace.sweep

    def spy(spec, ids, arity, *rest):
        start = len(calls)
        out = real(spec, ids, arity, *rest)
        stage[arity] = calls[start:]
        return out

    monkeypatch.setattr(repspace, "sweep", spy)
    assert check_induced_poisson(spec, MatrixPoint.random(spec.algebra, 2, 0), 3).passed
    letter_ids = {spec._wid((g,)) for g in spec.algebra.letters}
    assert len(stage[2]) == len(set(stage[2])) == classes * letters
    assert {w for _, w in stage[2]} == letter_ids
    assert len(stage[3]) > 0


@pytest.mark.parametrize("check,cells,count", [
    (check_h0_skew, 91, "pairs"),      # mdbI to degree 2: 13 words with the unit
    (check_jacobi, 12 ** 3, "triples"),  # and 12 without
    (lambda spec, deg: check_induced_poisson(spec, MatrixPoint.random(spec.algebra, 1, 0), deg), 12 ** 3, "triples"),
], ids=["h0skew", "jacobi", "rep"])
def test_sweep_cell_cap(check, cells, count, monkeypatch):
    """A sweep of exactly ``MAX_CELLS`` cells runs; one more is refused
    before any bracket is computed."""
    monkeypatch.setattr(axioms, "MAX_CELLS", cells)
    assert check(builtin("mdbI")[0], 2).params[count] == cells
    monkeypatch.setattr(axioms, "MAX_CELLS", cells - 1)
    spec = builtin("mdbI")[0]
    with pytest.raises(ValueError, match=f"sweep of {cells} cells, more than {cells - 1}"):
        check(spec, 2)
    assert not spec._mb_id_cache and not spec._letter_cache


def _rep_all_witnesses():
    spec = _scaled_mdb2()
    return check_induced_poisson(spec, MatrixPoint.random(spec.algebra, 2, 31), 2, all_witnesses=True)


@pytest.mark.parametrize("check", [
    lambda: check_h0_skew(_flipped_mdb2(), 2, all_witnesses=True),
    lambda: check_jacobi(_scaled_mdb2(), 2, all_witnesses=True),
    _rep_all_witnesses,
    lambda: check_weight(_flipped_mdb2(), _flipped_mdb2().weight),
    lambda: check_poisson_property(_flipped_mdb2(), _flipped_mdb2().weight),
], ids=["h0skew", "jacobi", "rep", "weight", "poisson"])
def test_sweep_witness_cap(check, monkeypatch):
    """A sweep, or a letter comparison, of exactly ``MAX_WITNESSES``
    witnesses keeps them all; one more is refused."""
    full = check()
    # rep runs two sweeps, each under the cap: the larger one sets the limit
    limit = max(sum(len(w.inputs) == n for w in full.witnesses) for n in (2, 3))
    assert limit > 1
    monkeypatch.setattr(axioms, "MAX_WITNESSES", limit)
    assert check().to_json() == full.to_json()
    monkeypatch.setattr(axioms, "MAX_WITNESSES", limit - 1)
    with pytest.raises(ValueError, match=f"more than {limit - 1} witnesses"):
        check()


@pytest.mark.parametrize("check", [check_weight, check_poisson_property], ids=["weight", "poisson"])
def test_letter_witness_cap_refuses_before_rendering(check, monkeypatch):
    """A letter comparison past the cap is refused before any word is named:
    the comparison runs over every tuple first and renders afterwards."""
    spec = _flipped_mdb2()
    limit = len(check(spec, spec.weight).witnesses)
    assert limit > 1
    names = []
    render_word = FreeAlgebra.render_word
    monkeypatch.setattr(FreeAlgebra, "render_word", lambda self, w: names.append(w) or render_word(self, w))
    monkeypatch.setattr(axioms, "MAX_WITNESSES", limit)
    check(spec, spec.weight)
    assert names  # the counter sees the rendering of a kept report
    names.clear()
    monkeypatch.setattr(axioms, "MAX_WITNESSES", limit - 1)
    with pytest.raises(ValueError, match=f"more than {limit - 1} witnesses"):
        check(spec, spec.weight)
    assert names == []


def _cl1_rational_points(count=12):
    """Seeded cl1 points with Fraction parameters, rho = +-lam half the time
    and gammas drawn from 0, -2 lam and two other rationals, so that both
    passing and failing points occur."""
    rng = random.Random("cl1-rational")
    points = []
    for _ in range(count):
        lam = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 4))
        rho = rng.choice((lam, -lam, Fraction(rng.randint(-5, 5), rng.randint(1, 3))))
        gvals = (0, -2 * lam, Fraction(rng.randint(-4, 4), rng.randint(1, 5)))
        points.append((lam, rho) + tuple(rng.choice(gvals) for _ in range(4)))
    return points


def _family(fam, params):
    return lambda: build(FamilyParams(fam, params))


TENSOR_ROUTE_SPECS = {
    **{f"cl1_grid/{k}": _family("cl1", (1, rho) + gamma)
       for k, (rho, gamma) in enumerate(itertools.product((1, -1), itertools.product((0, -2), repeat=4)))},
    **{f"cl1_rational/{k}": _family("cl1", p) for k, p in enumerate(_cl1_rational_points())},
    **{f"{fam}/{''.join(map(str, p))}": _family(fam, p)
       for fam in ("cl3a", "cl3b") for p in itertools.product((0, 1), repeat=6)},
    **{f"{fam}/{d},{delta}": _family(fam, (d, delta))
       for fam in ("cld", "cld2") for d in (4, 5) for delta in range(d + 1)},
    "mdbI": lambda: builtin("mdbI"),
    "mdbII": lambda: builtin("mdbII"),
    "mdbII_flipped": lambda: (_flipped_mdb2(), builtin("mdbII")[1]),
    "mdbII_scaled": lambda: (_scaled_mdb2(), builtin("mdbII")[1]),
    **{f"random_{k}": (lambda k=k: (_random_spec(k), None)) for k in range(4)},
    "laurent": lambda: (_laurent_kontsevich(), None),
    "laurent_doubled": lambda: (_broken_laurent(), None),
}


def _outcome(call):
    try:
        return call().to_json()
    except ValueError as e:
        return f"ValueError: {e}"


@pytest.mark.parametrize("name", sorted(TENSOR_ROUTE_SPECS))
def test_generator_comparisons_match_tensor_route(name):
    """The raw-dict comparisons on letters, with the per-check memo, keep every
    report byte of the route that builds each double Jacobiator from the
    three triple brackets and compares it with a ``Tensor3`` value."""
    spec, own = TENSOR_ROUTE_SPECS[name]()
    n = len(spec.algebra.letters)
    weights = [tuple(Fraction((-1) ** k * (k + 1), 2) for k in range(n))]
    if own is not None:
        weights.append(own)
    pairs = [(lambda: check_double_poisson(spec), lambda: oracles.tensor_check_double_poisson(spec))]
    for w in weights:
        pairs.append((lambda w=w: check_poisson_property(spec, w),
                      lambda w=w: oracles.tensor_check_poisson_property(spec, w)))
    for lam in (1, Fraction(-1, 2)):
        pairs.append((lambda lam=lam: check_lambda_double_lie(spec, lam),
                      lambda lam=lam: oracles.tensor_check_lambda_double_lie(spec, lam)))
    for fast, slow in pairs:
        got, want = _outcome(fast), _outcome(slow)
        same = got == want  # not inline: a failing diff of long JSON is slow
        assert same, (got[:300], want[:300])


@pytest.mark.parametrize("name", sorted(TENSOR_ROUTE_SPECS))
def test_check_weight_matches_tensor_route(name):
    """``check_weight``, with its one form table of stored-form scalars, keeps
    every report byte of the route that compares each skew defect with a
    ``Tensor2`` built from ``Fraction`` forms: at half-integral weights, at
    integral weights whose odd sums give half-integral forms, and at the
    spec's own weights."""
    spec, own = TENSOR_ROUTE_SPECS[name]()
    n = len(spec.algebra.letters)
    weights = [tuple(Fraction((-1) ** k * (k + 1), 2) for k in range(n)), tuple((-1) ** k * (k + 1) for k in range(n))]
    if own is not None:
        weights.append(own)
    for w in weights:
        got, want = _outcome(lambda: check_weight(spec, w)), _outcome(lambda: oracles.tensor_check_weight(spec, w))
        same = got == want  # not inline: a failing diff of long JSON is slow
        assert same, (got[:300], want[:300])


def test_weight_forms_once_per_pair_of_weight_values_in_stored_form(monkeypatch):
    """Each letter comparison at weights builds one form table: ``weight_form``
    runs once per ordered pair of weight values, not once per letter pair,
    and each s and k is in stored form, so the 49 pairs and 343 triples of
    ``cld(7, 3)``, of weights +-1, compare ``int``s only, while the
    half-integral forms of weights (1, 2, 3) stay ``Fraction``s."""
    pairs, forms = [], []  # the weight pairs of each weight_form call; the (s, k) of each comparison
    weight_form, form_terms, poisson_rhs = axioms.weight_form, axioms.form_terms, axioms.poisson_rhs

    def spy_weight_form(lx, ly):
        pairs.append((lx, ly))
        return weight_form(lx, ly)

    def spy_form_terms(x, y, s, k):
        forms.append((s, k))
        return form_terms(x, y, s, k)

    def spy_poisson_rhs(spec, x, y, z, s, k):
        forms.append((s, k))
        return poisson_rhs(spec, x, y, z, s, k)

    monkeypatch.setattr(axioms, "weight_form", spy_weight_form)
    monkeypatch.setattr(axioms, "form_terms", spy_form_terms)
    monkeypatch.setattr(axioms, "poisson_rhs", spy_poisson_rhs)
    spec, w = build(FamilyParams("cld", (7, 3)))
    assert set(w) == {1, -1}
    for check, calls in ((check_weight, 49), (check_poisson_property, 343)):
        pairs.clear()
        forms.clear()
        assert check(spec, w).passed
        assert len(pairs) == len(set(pairs)) == 4
        assert len(forms) == calls
        assert all(type(s) is int and type(k) is int for s, k in forms)
    spec = builtin("mdbI")[0]
    for check in (check_weight, check_poisson_property):
        pairs.clear()
        forms.clear()
        check(spec, (1, 2, 3))
        assert len(pairs) == 9
        assert {type(x) for f in forms for x in f} == {int, Fraction}
        assert all(type(x) is (int if x.denominator == 1 else Fraction) for f in forms for x in f)
        assert Fraction(3, 2) in {s for s, k in forms}


@pytest.mark.parametrize("make", [lambda: builtin("mdbI")[0], lambda: builtin("mdbII")[0], _laurent_kontsevich],
                         ids=["mdbI", "mdbII", "laurent"])
def test_djac_matches_triple_bracket_route(make):
    """``djac``, the trilinear extension of the monomial kernel, against the
    three triple brackets of element-level double brackets."""
    spec = make()
    alg = spec.algebra
    rng = random.Random(f"djac/{alg}")
    words = alg.words_up_to(2)

    def elt():
        return alg.element({rng.choice(words): Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(2)})

    for _ in range(15):
        a, b, c = elt(), elt(), elt()
        assert spec.djac(a, b, c) == oracles.djac(spec, a, b, c)


def test_poisson_property_brackets_once_per_argument_pair(monkeypatch):
    """A fresh ``check_poisson_property`` computes each double bracket its
    letter triples read once, through a memo that lives for that one check."""
    spec, w = builtin("mdbI")
    calls = count_calls(monkeypatch, spec, "_dbr_words")
    assert check_poisson_property(spec, w).passed
    distinct = set(calls)
    assert len(calls) == len(distinct) == 33  # 9 letter pairs, 18 of a letter and a 2-letter word, 6 with 1
    calls.clear()
    check_poisson_property(spec, w)
    assert set(calls) == distinct and len(calls) == len(distinct)
