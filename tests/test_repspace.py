import dataclasses
import random
from fractions import Fraction

import pytest

from ncdb.freealg import FreeAlgebra
from ncdb.bracket import BracketSpec
from ncdb.axioms import check_h0_skew
from ncdb.classify import FamilyParams, build, builtin
from ncdb.localize import localize
from ncdb.repspace import MAX_SIZE, MatrixPoint, check_induced_poisson, eval_trace, induced_trace_bracket, mat_inverse

from oracles import (
    coordinate_bracket,
    eval_element,
    mat_identity,
    mat_mul,
    mat_trace,
    unreduced_check_induced_poisson,
    word_matrix,
)


@pytest.fixture(scope="module")
def mdbI():
    return builtin("mdbI")[0]


@pytest.fixture(scope="module")
def mdbII():
    return builtin("mdbII")[0]


class TestMatrices:
    def test_exact_inverse(self):
        m = ((Fraction(2), Fraction(1)), (Fraction(7), Fraction(4)))
        inv = mat_inverse(m)
        assert mat_mul(m, inv) == mat_identity(2)
        assert mat_mul(inv, m) == mat_identity(2)
        # int entries invert exactly too, never through float division
        assert mat_inverse(((2, 1), (7, 4))) == inv

    def test_singular_returns_none(self):
        m = ((Fraction(1), Fraction(2)), (Fraction(2), Fraction(4)))
        assert mat_inverse(m) is None

    def test_random_point_deterministic(self, mdbI):
        p1 = MatrixPoint.random(mdbI.algebra, 2, seed=5)
        p2 = MatrixPoint.random(mdbI.algebra, 2, seed=5)
        assert p1.mats == p2.mats
        p1.word_trace((1, 2))  # a filled memo is not compared
        assert p1 == p2

    def test_matrices_are_read_only(self, mdbI):
        p = MatrixPoint.random(mdbI.algebra, 2, seed=5)
        with pytest.raises(TypeError):
            p.mats[1] = p.mats[2]
        for name in ("size", "mats", "invs", "denom"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(p, name, 1)
        # a caller's list matrix, mutated after construction, changes nothing
        m = [[1, 2], [3, 4]]
        q = MatrixPoint(FreeAlgebra.standard(1), 2, {1: m})
        m[0][0] = 9
        assert q.letter_matrix(1) == ((1, 2), (3, 4))
        assert q.word_trace((1,)) == 5 and q.word_trace((1, 1)) == 29

    def test_inverted_generators_get_inverses(self):
        alg = FreeAlgebra(("v", "w"), inverted=(1, 2))
        p = MatrixPoint.random(alg, 3, seed=1)
        for i in (1, 2):
            assert mat_mul(p.mats[i], p.invs[i]) == mat_identity(3)

    def test_inverses_are_derived_not_given(self):
        alg = FreeAlgebra(("x",), inverted=(1,))
        p = MatrixPoint(alg, 1, {1: ((2,),)})
        assert p.invs[1] == ((Fraction(1, 2),),)
        assert p.word_trace((-1,)) == Fraction(1, 2)
        with pytest.raises(TypeError):
            MatrixPoint(alg, 1, {1: ((2,),)}, invs={1: ((5,),)})
        with pytest.raises(ValueError):
            MatrixPoint(alg, 1, {1: ((0,),)})  # singular

    def test_matrix_shape_and_entries_checked(self):
        alg = FreeAlgebra.standard(2)
        eye2 = ((1, 0), (0, 1))
        p = MatrixPoint(alg, 2, {1: eye2, 2: ((Fraction(1, 2), 0), (0, 3))})
        assert p.word_trace((1, 2)) == Fraction(7, 2)
        assert p.word_trace(()) == 2
        bad = [
            (3, {1: eye2, 2: eye2}),                          # n x n for size n + 1
            (1, {1: eye2, 2: eye2}),                          # n x n for size n - 1
            (2, {1: eye2, 2: ((1, 0), (0,))}),                # ragged row
            (2, {1: eye2, 2: ((1, 0), (0, 1), (0, 0))}),      # one row too many
            (2, {1: eye2, 2: ((1.5, 0), (0, 1))}),            # float entry
            (2, {1: eye2, 2: (("1", 0), (0, 1))}),            # string entry
            (2, {1: eye2}),                                   # missing generator
            (2, {1: eye2, 2: eye2, 7: eye2}),                 # no generator 7
            (2, {1: eye2, 2: eye2, -1: eye2}),                # an inverse letter
            (0, {1: (), 2: ()}),                              # empty point
        ]
        for size, mats in bad:
            with pytest.raises(ValueError):
                MatrixPoint(alg, size, mats)

    def test_size_cap(self):
        alg = FreeAlgebra.standard(2)
        assert MatrixPoint.random(alg, MAX_SIZE, seed=0).size == MAX_SIZE
        eye = tuple(tuple(int(i == j) for j in range(MAX_SIZE + 1)) for i in range(MAX_SIZE + 1))
        with pytest.raises(ValueError, match="from 1 to 64"):
            MatrixPoint(alg, MAX_SIZE + 1, {1: eye, 2: eye})
        for size in (MAX_SIZE + 1, 100000):  # refused before any entry is drawn
            with pytest.raises(ValueError, match="from 1 to 64"):
                MatrixPoint.random(alg, size, seed=0)


class TestEvaluation:
    def test_unit_evaluates_to_identity(self, mdbI):
        p = MatrixPoint.random(mdbI.algebra, 2, seed=0)
        assert eval_element(mdbI.algebra.one(), p) == mat_identity(2)

    def test_trace_cyclicity(self, mdbI):
        alg = mdbI.algebra
        p = MatrixPoint.random(alg, 3, seed=2)
        a = alg.element({(1, 2): 1})
        b = alg.element({(2, 1): 1})
        assert eval_trace(a, p) == eval_trace(b, p)

    def test_inverse_letter_evaluates(self):
        alg = FreeAlgebra(("v", "w"), inverted=(1,))
        p = MatrixPoint.random(alg, 2, seed=3)
        # the word v v^-1 reduces to the unit before evaluation, and the
        # stored inverse satisfies the matrix relation exactly
        assert mat_mul(p.letter_matrix(1), p.letter_matrix(-1)) == mat_identity(2)
        assert eval_element(alg.element({(-1, 2, 1): 1}), p) == mat_mul(
            mat_mul(p.letter_matrix(-1), p.letter_matrix(2)), p.letter_matrix(1)
        )

    @pytest.mark.parametrize("call,message", [
        (lambda p: eval_trace(FreeAlgebra(("x", "y")).gen(1), p), "algebra mismatch"),
        (lambda p: p.letter_matrix(-1), "no stored inverse for generator 1"),
    ], ids=["element_of_another_algebra", "inverse_on_a_free_algebra"])
    def test_point_refusals(self, call, message):
        p = MatrixPoint.random(FreeAlgebra(("v", "w")), 2, seed=0)
        with pytest.raises(ValueError, match=message):
            call(p)

    @pytest.mark.parametrize("operand", [
        lambda alg: alg.tensor2({((1,), (2,)): 1}), lambda alg: alg.gen(1).terms, lambda alg: 3,
    ], ids=["tensor2", "terms_dict", "int"])
    def test_operand_that_is_not_an_element_refused(self, operand):
        """A tensor of the right algebra, a bare term dict or a number is a
        ValueError before any word is evaluated: the point's memos are
        unchanged."""
        alg = FreeAlgebra(("v", "w"))
        p = MatrixPoint.random(alg, 2, seed=0)
        eval_trace(alg.element({(1, 2): 1}), p)
        memos = (dict(p._words), dict(p._traces))
        with pytest.raises(ValueError, match="is not an Element"):
            eval_trace(operand(alg), p)
        assert (p._words, p._traces) == memos

    def test_linearity(self, mdbI):
        alg = mdbI.algebra
        p = MatrixPoint.random(alg, 2, seed=4)
        x = alg.element({(1,): Fraction(1, 3), (2, 3): -2})
        y = alg.element({(3,): 5})
        assert eval_trace(x, p) + eval_trace(y, p) == eval_trace(x + y, p)

    def test_multiplicative_on_words(self, mdbI):
        alg = mdbI.algebra
        p = MatrixPoint.random(alg, 2, seed=6)
        a = alg.element({(1, 2): 1})
        b = alg.element({(3,): 1})
        assert eval_element(a * b, p) == mat_mul(eval_element(a, p), eval_element(b, p))


class TestTraceBracket:
    def test_value_for_mdbI(self, mdbI):
        alg = mdbI.algebra
        p = MatrixPoint.random(alg, 2, seed=7)
        # {x1, x2} = -x2 x1, so the trace bracket is -tr(X2 X1)
        got = induced_trace_bracket(mdbI, alg.gen(1), alg.gen(2), p)
        x2x1 = mat_mul(p.mats[2], p.mats[1])
        assert got == -mat_trace(x2x1)

    def test_zero_spec(self):
        alg = FreeAlgebra.standard(2)
        zero = BracketSpec(alg, {})
        p = MatrixPoint.random(alg, 2, seed=8)
        assert induced_trace_bracket(zero, alg.gen(1), alg.gen(2), p) == 0

    def test_scalar_points_commute(self, mdbI):
        alg = mdbI.algebra
        p = MatrixPoint.random(alg, 1, seed=9)
        t = induced_trace_bracket(mdbI, alg.gen(1), alg.gen(2), p) + induced_trace_bracket(
            mdbI, alg.gen(2), alg.gen(1), p
        )
        assert t == 0

    def test_commutators_trace_to_zero(self, mdbI):
        rng = random.Random(71)
        alg = mdbI.algebra
        p = MatrixPoint.random(alg, 3, seed=10)
        words = [w for w in alg.words_up_to(3) if w]
        for _ in range(30):
            a = alg.element({rng.choice(words): rng.randint(-3, 3)})
            b = alg.element({rng.choice(words): rng.randint(-3, 3)})
            assert eval_trace(a * b - b * a, p) == 0


class TestInducedPoisson:
    def test_mdbII_small_sweep(self, mdbII):
        p = MatrixPoint.random(mdbII.algebra, 2, seed=11)
        assert check_induced_poisson(mdbII, p, 2).passed

    def test_zero_spec(self):
        alg = FreeAlgebra.standard(2)
        zero = BracketSpec(alg, {})
        p = MatrixPoint.random(alg, 2, seed=12)
        assert check_induced_poisson(zero, p, 2).passed

    def test_laurent_point(self):
        spec, w = builtin("kontsevich")
        loc, _ = localize(spec, w, (1, 2))
        for seed in (13, 113):
            p = MatrixPoint.random(loc.algebra, 2, seed=seed)
            assert check_induced_poisson(loc, p, 2).passed

    def test_mutation_fails_with_trace_witness(self, mdbII):
        alg = mdbII.algebra
        table = {k: alg.tensor2(dict(u.terms)) for k, u in mdbII.table.items()}
        table[(2, 3)] = table[(2, 3)].scale(-1)  # flip one sign
        corrupted = BracketSpec(alg, table)
        # symbolic failure comes first
        sym = check_h0_skew(corrupted, 2)
        assert not sym.passed
        p = MatrixPoint.random(alg, 2, seed=14)
        rep = check_induced_poisson(corrupted, p, 2)
        assert not rep.passed
        assert rep.witnesses and rep.witnesses[0].residual != "0"

    @pytest.mark.parametrize("make,gens", [
        (lambda: _laurent_kontsevich(), ("v", "w")),   # Laurent spec, free point
        (lambda: builtin("mdbI")[0], ("x1", "x2")),     # a generator short
        (lambda: builtin("kontsevich")[0], ("v", "w", "u")),  # a generator over
    ], ids=["laurent", "fewer", "more"])
    def test_point_of_another_algebra_refused(self, make, gens):
        spec = make()
        p = MatrixPoint.random(FreeAlgebra(gens), 2, seed=0)
        with pytest.raises(ValueError, match="algebra mismatch"):
            check_induced_poisson(spec, p, 2)
        assert not spec._letter_cache and not spec._mb_id_cache

    def test_determinism(self, mdbII):
        p1 = MatrixPoint.random(mdbII.algebra, 2, seed=15)
        p2 = MatrixPoint.random(mdbII.algebra, 2, seed=15)
        r1 = check_induced_poisson(builtin("mdbII")[0], p1, 2)
        r2 = check_induced_poisson(builtin("mdbII")[0], p2, 2)
        assert r1.to_json() == r2.to_json()


def _scaled(spec, pair, factor):
    table = dict(spec.table)
    table[pair] = table[pair].scale(factor)
    return BracketSpec(spec.algebra, table)


def _laurent_kontsevich():
    spec, w = builtin("kontsevich")
    return localize(spec, w, (1, 2))[0]


TRACE_SPECS = {
    "mdbI": lambda: builtin("mdbI")[0],
    "cl3a_point": lambda: build(FamilyParams("cl3a", (0, 0, 0, 1, 0, 1)))[0],
    "cl3b_point": lambda: build(FamilyParams("cl3b", (0, 0, 0, 0, 1, 0)))[0],
    "mdbII_scaled": lambda: _scaled(builtin("mdbII")[0], (2, 3), Fraction(-3, 7)),
    "kontsevich": lambda: builtin("kontsevich")[0],
    "kontsevich_scaled": lambda: _scaled(builtin("kontsevich")[0], (1, 2), Fraction(2, 3)),
    "laurent": _laurent_kontsevich,
    "laurent_scaled": lambda: _scaled(_laurent_kontsevich(), (1, 2), Fraction(2, 3)),
}
# (spec, size, maxdeg, all_witnesses); the cl3 points fail at the triple stage.  On two
# generators every cyclic word up to degree 5 is a rotation of its reversal, so the
# order of a rotation shows only with three: cl3a at degree 3 with every witness for
# the triple stage, the scaled mdbII (534 pair witnesses) for the pair stage
TRACE_CASES = [
    ("mdbI", 1, 2, False), ("mdbI", 2, 2, True),
    ("cl3a_point", 3, 3, False), ("cl3a_point", 2, 2, True), ("cl3a_point", 2, 3, True),
    ("cl3b_point", 2, 3, False), ("cl3b_point", 3, 2, True),
    ("mdbII_scaled", 2, 3, False), ("mdbII_scaled", 1, 2, True), ("mdbII_scaled", 2, 3, True),
    ("kontsevich", 1, 3, True),
    ("kontsevich_scaled", 2, 3, True), ("kontsevich_scaled", 3, 3, False),
    ("laurent", 2, 2, False), ("laurent", 3, 2, True),
    ("laurent_scaled", 1, 3, False), ("laurent_scaled", 2, 2, True),
]


@pytest.mark.parametrize("name,size,maxdeg,all_witnesses", TRACE_CASES)
def test_trace_derivation_rule_matches_per_cell_sweep(name, size, maxdeg, all_witnesses):
    """Evaluating J(a,b,-) on the letters at the point keeps every report
    byte of the per-cell sweep, and still visits every triple."""
    runs = []
    for check in (unreduced_check_induced_poisson, check_induced_poisson):
        spec = TRACE_SPECS[name]()
        runs.append(check(spec, MatrixPoint.random(spec.algebra, size, seed=7), maxdeg, all_witnesses))
    full, rep = runs
    same = rep.to_json() == full.to_json()  # not asserted inline: a diff of megabytes is slow
    assert same, next(((x, y) for x, y in zip(full.witnesses, rep.witnesses) if x != y), "counts differ")
    if rep.passed:
        assert rep.params["triples"] == len(spec.algebra.words_up_to(maxdeg, include_unit=False)) ** 3


class TestIntegerTraces:
    """The integer trace engine against plain Fraction matrix arithmetic."""

    def test_word_trace_matches_fraction_product(self):
        rng = random.Random(29)
        alg = FreeAlgebra(("u", "v", "w"), inverted=(1, 2))
        p = MatrixPoint.random(alg, 3, seed=30)
        assert p.denom > 1
        for _ in range(40):
            w = tuple(rng.choice(alg.letters) for _ in range(rng.randint(0, 6)))
            m = word_matrix(p, w)
            scale = p.denom ** len(w)
            assert p._int_matrix(w) == tuple(tuple(x * scale for x in row) for row in m)
            assert p.word_trace(w) == mat_trace(m)

    def test_witnesses_match_fraction_brackets(self, mdbII):
        alg = mdbII.algebra
        table = dict(mdbII.table)
        table[(2, 3)] = table[(2, 3)].scale(Fraction(-3, 7))
        spec = BracketSpec(alg, table)
        p = MatrixPoint.random(alg, 2, seed=31)
        rep = check_induced_poisson(spec, p, 2, all_witnesses=True)
        assert not rep.passed
        # every pair and triple, in sweep order, whose Fraction value is nonzero
        words = alg.words_up_to(2, include_unit=False)
        elt = {w: alg.element({w: 1}) for w in words}
        expected = []
        for i, a in enumerate(words):
            for b in words[i:]:
                v = (induced_trace_bracket(spec, elt[a], elt[b], p)
                     + induced_trace_bracket(spec, elt[b], elt[a], p))
                if v:
                    expected.append(((a, b), str(v)))
        n_pairs = len(expected)
        for a in words:
            for b in words:
                for c in words:
                    v = eval_trace(spec.jacobiator(elt[a], elt[b], elt[c]), p)
                    if v:
                        expected.append(((a, b, c), str(v)))
        assert 0 < n_pairs < len(expected)
        assert [(tuple(alg.render_word(w) for w in ws), v) for ws, v in expected] == [
            (w.inputs, w.residual) for w in rep.witnesses
        ]
        assert all(w.actual == w.residual for w in rep.witnesses)


class TestCoordinateBracket:
    def dp_spec(self):
        alg = FreeAlgebra(("v",))
        return BracketSpec(
            alg, {(1, 1): alg.tensor2({((1,), (1, 1)): 1, ((1, 1), (1,)): -1})}
        )

    def test_requires_double_poisson(self, mdbI):
        alg = mdbI.algebra
        p = MatrixPoint.random(alg, 2, seed=16)
        with pytest.raises(ValueError):
            coordinate_bracket(mdbI, alg.gen(1), alg.gen(2), p)

    def test_diagonal_sum_matches_trace_bracket(self):
        spec = self.dp_spec()
        alg = spec.algebra
        p = MatrixPoint.random(alg, 2, seed=17)
        a = alg.element({(1,): 1})
        b = alg.element({(1, 1): 1})
        cb = coordinate_bracket(spec, a, b, p)
        n = p.size
        total = sum(cb[i][i][u][u] for i in range(n) for u in range(n))
        assert total == induced_trace_bracket(spec, a, b, p)

    def test_entrywise_leibniz(self):
        # {a_ij, (bc)_uv} = sum_w {a_ij, b_uw} c_wv + b_uw {a_ij, c_wv}
        spec = self.dp_spec()
        alg = spec.algebra
        p = MatrixPoint.random(alg, 2, seed=18)
        a = alg.element({(1, 1): 1})
        b = alg.element({(1,): 1})
        c = alg.element({(1, 1): 1})
        n = p.size
        lhs = coordinate_bracket(spec, a, b * c, p)
        ab = coordinate_bracket(spec, a, b, p)
        ac = coordinate_bracket(spec, a, c, p)
        bm = eval_element(b, p)
        cm = eval_element(c, p)
        for i in range(n):
            for j in range(n):
                for u in range(n):
                    for v in range(n):
                        rhs = sum(
                            ab[i][j][u][w] * cm[w][v] + bm[u][w] * ac[i][j][w][v]
                            for w in range(n)
                        )
                        assert lhs[i][j][u][v] == rhs
