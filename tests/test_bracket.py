import copy
import dataclasses
import random
import re
from fractions import Fraction

import pytest

from ncdb.freealg import FreeAlgebra, Tensor3, reduce_word
from ncdb.axioms import check_poisson_property
from ncdb.bracket import BracketSpec
from ncdb.classify import builtin
from ncdb.localize import localize

from oracles import (
    flip,
    inner_act,
    m2,
    outer_act,
    pure_t2,
    reduce_mod_commutators,
    tbracket_L,
    tbracket_R,
    tbracket_swapL,
    tensor3,
)
from test_golden_reports import _random_spec


@pytest.fixture(scope="module")
def mdbI():
    return builtin("mdbI")[0]


@pytest.fixture(scope="module")
def mdbII():
    return builtin("mdbII")[0]


@pytest.fixture(scope="module")
def kont_laurent():
    spec, _ = builtin("kontsevich")
    alg = FreeAlgebra(spec.algebra.names, (1, 2))
    return BracketSpec(alg, {k: alg.tensor2(dict(u.terms)) for k, u in spec.table.items()})


@pytest.fixture(scope="module")
def mdbI_laurent():
    return localize(*builtin("mdbI"), (1, 3))[0]


OPERATIONS = [("dbracket", 2), ("mbracket", 2), ("djac", 3), ("jacobiator", 3)]  # each public bracket, its arity


def letter_pairs(*specs):
    """(spec, x, y) for every ordered pair of letters of each spec."""
    return [(spec, x, y) for spec in specs for x in spec.algebra.letters for y in spec.algebra.letters]


# ---------------------------------------------------------------------------
# an independent oracle: extend the bracket by recursive Leibniz splitting
# instead of the positional double sum


def leibniz_recursive(spec, u, w):
    """<<u, w>> for monomials, by peeling one letter at a time."""
    alg = spec.algebra

    def one_elt(word):
        return alg.element({word: 1})

    if not u or not w:
        return alg.tensor2({})
    if len(w) > 1:
        # <<a, y b'>> = (y (x) 1) <<a, b'>> + <<a, y>> (1 (x) b')
        y, rest = (w[0],), w[1:]
        left = outer_act(one_elt(y), leibniz_recursive(spec, u, rest), alg.one())
        right = outer_act(alg.one(), leibniz_recursive(spec, u, y), one_elt(rest))
        return left + right
    if len(u) > 1:
        # <<x a', y>> = (1 (x) x) <<a', y>> + <<x, y>> (a' (x) 1)
        x, rest = (u[0],), u[1:]
        left = inner_act(one_elt(x), leibniz_recursive(spec, rest, w), alg.one())
        right = inner_act(alg.one(), leibniz_recursive(spec, x, w), one_elt(rest))
        return left + right
    return spec.letter_bracket(u[0], w[0])


class TestLetterBracket:
    def test_table_lookup(self, mdbII):
        alg = mdbII.algebra
        assert mdbII.letter_bracket(1, 2) == alg.tensor2({((1,), (2,)): -1})

    def test_refuses_what_no_spec_can_hold(self):
        """A pair outside the algebra, an entry over another algebra, a
        weight vector of the wrong length and an inverse letter whose weight
        is not minus its generator's (the .ndb text holds only the
        generators' weights) are refused; a .ndb document is a spec, so no
        document can hold them either."""
        alg, other = FreeAlgebra(("v",)), FreeAlgebra(("v", "w"))
        for table, weight in (({(1, 2): other.tensor2({((2,), ()): 1})}, None),
                              ({(1, 1): other.tensor2({((1,), ()): 1})}, None),
                              ({}, (1, 1))):
            with pytest.raises(ValueError):
                BracketSpec(alg, table, weight)
        laurent = FreeAlgebra(("v",), (1,))
        assert BracketSpec(laurent, {}, (2, -2)).weight == (2, -2)
        with pytest.raises(ValueError, match="minus its generator"):
            BracketSpec(laurent, {}, (2, 2))

    def test_refuses_non_integer_pairs(self):
        """A table pair of non-integer indices is refused, even one equal to
        an integer: no letter bracket could read its entry."""
        alg = FreeAlgebra(("x", "y"))
        entry = alg.tensor2({((1,), (2,)): 1})
        for pair in ((1.5, 2), (1.0, 2), (1, Fraction(2))):
            with pytest.raises(ValueError, match="out of range"):
                BracketSpec(alg, {pair: entry})
        assert BracketSpec(alg, {(1, 2): entry}).letter_bracket(1, 2) == entry

    @pytest.mark.parametrize("pair", [(True, 2), (2, True)], ids=["bool_first", "bool_second"])
    def test_refuses_bool_pairs(self, pair):
        """A bool is not a table index, though Python counts it as an int:
        (True, 2) is refused, not read as (1, 2)."""
        alg = FreeAlgebra(("x", "y"))
        with pytest.raises(ValueError, match=re.escape(f"table pair ({pair[0]},{pair[1]}) out of range")):
            BracketSpec(alg, {pair: alg.tensor2({((1,), (2,)): 1})})

    def test_equality_is_by_algebra_table_and_weight(self, mdbII):
        alg, table, w = mdbII.algebra, dict(mdbII.table), mdbII.weight
        fresh = BracketSpec(alg, table, w)
        fresh.dbracket(alg.gen(1), alg.gen(2) * alg.gen(3))  # a filled memo is not compared
        assert fresh == mdbII
        renamed = FreeAlgebra(("y1", "y2", "y3"))
        for other in (BracketSpec(alg, table), BracketSpec(alg, dict(list(table.items())[1:]), w),
                      BracketSpec(renamed, {k: renamed.tensor2(dict(u.terms)) for k, u in table.items()}, w)):
            assert other != mdbII
        with pytest.raises(TypeError):
            hash(mdbII)

    def test_repr_names_algebra_and_entry_count(self, mdbII):
        assert repr(mdbII) == "BracketSpec(K<x1, x2, x3>, 5 entries)"
        assert repr(BracketSpec(FreeAlgebra(("v",), (1,)), {})) == "BracketSpec(K<v^±1>, 0 entries)"

    def test_zero_default(self, mdbII):
        assert not mdbII.letter_bracket(1, 3)

    def test_table_is_read_only(self, mdbII):
        """The memo caches are derived from the table, so it must not change
        under them: neither it, an entry of it, a tensor mutated after it
        went into a table, nor any field of the frozen spec."""
        with pytest.raises(TypeError):
            mdbII.table[(1, 3)] = mdbII.table[(1, 2)]
        copy = dict(mdbII.table)
        copy[(1, 3)] = copy[(1, 2)]
        assert (1, 3) not in mdbII.table
        assert not mdbII.letter_bracket(1, 3)
        with pytest.raises(TypeError):
            mdbII.table[(1, 2)].terms[((1,), (2,))] = 5
        alg, w = mdbII.algebra, mdbII.weight
        table = {k: alg.tensor2(dict(u.terms)) for k, u in mdbII.table.items()}
        spec = BracketSpec(alg, table, w)
        assert check_poisson_property(spec, w).passed
        table[(1, 2)].terms[((1,), (2,))] = 5
        assert spec == mdbII and check_poisson_property(spec, w).passed
        assert not check_poisson_property(BracketSpec(alg, table, w), w).passed
        for name, value in (("table", builtin("mdbI")[0].table), ("weight", (5, 5, 5)), ("algebra", alg)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(spec, name, value)

    def test_inverse_second_argument(self, kont_laurent, mdbI_laurent):
        # <<w, v^-1>> = -v^-1 . <<w, v>> . v^-1 = -w (x) v^-1
        alg = kont_laurent.algebra
        assert kont_laurent.letter_bracket(2, -1) == alg.tensor2({((2,), (-1,)): -1})
        # and the defining property: <<x, b b^-1>> expands to zero by Leibniz
        for spec, x, y in letter_pairs(kont_laurent, mdbI_laurent):
            if y < 0:
                alg = spec.algebra
                got = outer_act(alg.gen(-y), spec.letter_bracket(x, y), alg.one()) + outer_act(
                    alg.one(), spec.letter_bracket(x, -y), alg.element({(y,): 1})
                )
                assert not got, (spec, x, y)

    def test_inverse_first_argument(self, kont_laurent, mdbI_laurent):
        # Leibniz consistency in the first slot: <<b b^-1, y>> = 0
        for spec, x, y in letter_pairs(kont_laurent, mdbI_laurent):
            if x < 0:
                alg = spec.algebra
                got = inner_act(alg.gen(-x), spec.letter_bracket(x, y), alg.one()) + inner_act(
                    alg.one(), spec.letter_bracket(-x, y), alg.element({(x,): 1})
                )
                assert not got, (spec, x, y)

    def test_double_inverse_order_independent(self, kont_laurent, mdbI_laurent):
        # resolve y first, then x, from the positive entry, against the engine's one pass:
        # <<a, b^-1>> = -(b^-1 (x) 1) <<a, b>> (1 (x) b^-1), <<b^-1, a>> = -(1 (x) b^-1) <<b, a>> (b^-1 (x) 1)
        for spec, x, y in letter_pairs(kont_laurent, mdbI_laurent):
            alg = spec.algebra
            expected = spec.letter_bracket(abs(x), abs(y))
            if y < 0:
                expected = outer_act(alg.element({(y,): 1}), expected, alg.element({(y,): 1})).scale(-1)
            if x < 0:
                expected = inner_act(alg.element({(x,): 1}), expected, alg.element({(x,): 1})).scale(-1)
            assert spec.letter_bracket(x, y) == expected, (spec, x, y)

    def test_inverse_rejected_on_free_algebra(self, mdbI):
        with pytest.raises(ValueError):
            mdbI.letter_bracket(1, -2)

    @pytest.mark.parametrize("x,y", [(5, 1), (0, 2), (-1, 2), (1, 4), (2, -3)])
    def test_letters_outside_the_algebra_refused(self, x, y):
        """Both letters of a pair not yet cached are checked as words of the
        algebra; a refused pair caches nothing."""
        spec = builtin("mdbI")[0]  # not the shared fixture: its cache is asserted empty
        with pytest.raises(ValueError, match="out of range|not invertible"):
            spec.letter_bracket(x, y)
        assert not spec._letter_cache


class TestDbracket:
    def test_leibniz_one_contributing_pair(self, mdbII):
        alg = mdbII.algebra
        x1 = alg.gen(1)
        assert mdbII.dbracket(x1, alg.gen(2) * alg.gen(3)) == alg.tensor2(
            {((1,), (2, 3)): -1}
        )

    def test_unit_brackets_vanish(self, mdbI):
        alg = mdbI.algebra
        a = alg.element({(1, 2): 2, (3,): Fraction(1, 3)})
        assert not mdbI.dbracket(a, alg.one())
        assert not mdbI.dbracket(alg.one(), a)

    @pytest.mark.parametrize("op,arity", OPERATIONS)
    def test_operand_of_another_algebra_refused(self, mdbI, op, arity):
        # same letters, other names: without the check every kernel would run
        stranger = FreeAlgebra.standard(3).gen(1)
        args = [mdbI.algebra.gen(2)] * (arity - 1)
        with pytest.raises(ValueError, match="algebra mismatch"):
            getattr(mdbI, op)(*args, stranger)

    @pytest.mark.parametrize("op,slot", [(op, slot) for op, arity in OPERATIONS for slot in range(arity)])
    @pytest.mark.parametrize("operand", [
        lambda alg: alg.tensor2({((1,), (2,)): 1}), lambda alg: alg.gen(1).terms, lambda alg: 3,
    ], ids=["tensor2", "terms_dict", "int"])
    def test_operand_that_is_not_an_element_refused(self, op, slot, operand):
        """A tensor of the spec's own algebra, a bare term dict or a number
        in any slot is a ValueError before any kernel runs or any word is
        interned: every memo of the spec is unchanged."""
        spec = builtin("mdbI")[0]
        alg = spec.algebra
        arity = dict(OPERATIONS)[op]
        args = [alg.element({(1, 2): 1, (3,): Fraction(1, 2)})] * arity
        getattr(spec, op)(*args)  # fills the memos its route reads
        memos = {f.name: copy.copy(getattr(spec, f.name)) for f in dataclasses.fields(spec) if not f.compare}
        args[slot] = operand(alg)
        with pytest.raises(ValueError, match="is not an Element"):
            getattr(spec, op)(*args)
        assert {name: getattr(spec, name) for name in memos} == memos

    def test_skew_defect_display(self, mdbI):
        alg = mdbI.algebra
        d = mdbI.dbracket(alg.gen(1), alg.gen(2)) + flip(mdbI.dbracket(alg.gen(2), alg.gen(1)))
        assert d == alg.tensor2({((), (1, 2)): 1, ((2, 1), ()): -1})

    def test_matches_recursive_leibniz_oracle(self, mdbI):
        rng = random.Random(23)
        words = [w for w in mdbI.algebra.words_up_to(5) if w]
        for _ in range(60):
            u, w = rng.choice(words), rng.choice(words)
            assert mdbI.dbracket(
                mdbI.algebra.element({u: 1}), mdbI.algebra.element({w: 1})
            ) == leibniz_recursive(mdbI, u, w)

    def test_matches_recursive_leibniz_on_seeded_tables(self):
        """The same comparison on the seeded rational tables of the golden
        digests, two free and two with x1 inverted, several terms per entry."""
        for seed in range(4):
            spec = _random_spec(seed)
            rng = random.Random(seed)
            words = [w for w in spec.algebra.words_up_to(3) if w]
            for _ in range(40):
                u, w = rng.choice(words), rng.choice(words)
                assert spec.dbracket(
                    spec.algebra.element({u: 1}), spec.algebra.element({w: 1})
                ) == leibniz_recursive(spec, u, w)

    def test_matches_recursive_leibniz_on_laurent(self, kont_laurent):
        rng = random.Random(29)
        words = [w for w in kont_laurent.algebra.words_up_to(4) if w]
        for _ in range(40):
            u, w = rng.choice(words), rng.choice(words)
            assert kont_laurent.dbracket(
                kont_laurent.algebra.element({u: 1}), kont_laurent.algebra.element({w: 1})
            ) == leibniz_recursive(kont_laurent, u, w)

    def test_leibniz_rule_on_elements(self, mdbI):
        rng = random.Random(31)
        alg = mdbI.algebra
        words = alg.words_up_to(2)

        def rand_elt():
            return alg.element({rng.choice(words): rng.randint(-3, 3) for _ in range(2)})

        for _ in range(40):
            a, b, c = rand_elt(), rand_elt(), rand_elt()
            # <<a, bc>> = (b (x) 1) <<a,c>> + <<a,b>> (1 (x) c)
            lhs = mdbI.dbracket(a, b * c)
            rhs = outer_act(b, mdbI.dbracket(a, c), alg.one()) + outer_act(
                alg.one(), mdbI.dbracket(a, b), c
            )
            assert lhs == rhs
            # <<ab, c>> = (1 (x) a) <<b,c>> + <<a,c>> (b (x) 1)
            lhs2 = mdbI.dbracket(a * b, c)
            rhs2 = inner_act(a, mdbI.dbracket(b, c), alg.one()) + inner_act(
                alg.one(), mdbI.dbracket(a, c), b
            )
            assert lhs2 == rhs2


class TestMbracket:
    def test_values(self, mdbI, mdbII):
        algI, algII = mdbI.algebra, mdbII.algebra
        assert mdbI.mbracket(algI.gen(1), algI.gen(2)) == algI.element({(2, 1): -1})
        assert mdbII.mbracket(algII.gen(3), algII.gen(1)) == algII.element(
            {(1, 3): 1, (3, 1): -1}
        )
        assert not mdbI.mbracket(algI.element({(1, 2): 1}), algI.one())

    def test_equals_m2_of_dbracket(self, mdbII):
        rng = random.Random(37)
        alg = mdbII.algebra
        words = alg.words_up_to(3)
        for _ in range(40):
            a = alg.element({rng.choice(words): rng.randint(-3, 3) for _ in range(2)})
            b = alg.element({rng.choice(words): rng.randint(-3, 3) for _ in range(2)})
            assert mdbII.mbracket(a, b) == m2(mdbII.dbracket(a, b))

    @staticmethod
    def _one_inverse_table():
        # seeded rational table on K<x1^±1, x2>: terms of up to two letters,
        # inverse letters included, so words cancel inside the kernel
        rng = random.Random(41)
        alg = FreeAlgebra.standard(2, "x", (1,))
        table = {}
        for i in (1, 2):
            for j in (1, 2):
                terms = {}
                for _ in range(3):
                    w = [rng.choice(alg.letters) for _ in range(rng.randint(0, 2))]
                    cut = rng.randint(0, len(w))
                    terms[reduce_word(w[:cut]), reduce_word(w[cut:])] = Fraction(
                        rng.randint(-3, 3), rng.randint(1, 3))
                table[(i, j)] = alg.tensor2(terms)
        return BracketSpec(alg, table)

    @pytest.mark.parametrize("which", ["kontsevich_laurent", "one_inverse"])
    def test_laurent_kernel_equals_m2_of_dbracket(self, which, kont_laurent):
        # the concat branch of the monomial kernel against the double bracket
        spec = kont_laurent if which == "kontsevich_laurent" else self._one_inverse_table()
        rng = random.Random(f"m2/{which}")
        alg = spec.algebra
        words = alg.words_up_to(3)
        for _ in range(40):
            a = alg.element({rng.choice(words): rng.randint(-3, 3) for _ in range(2)})
            b = alg.element({rng.choice(words): rng.randint(-3, 3) for _ in range(2)})
            assert spec.mbracket(a, b) == m2(spec.dbracket(a, b))


class TestTripleBrackets:
    def test_left(self, mdbII):
        alg = mdbII.algebra
        u = pure_t2(alg.gen(2), alg.gen(3))
        assert tbracket_L(mdbII, alg.gen(1), u) == tensor3(alg, {((1,), (2,), (3,)): -1})

    def test_right_unit(self, mdbII):
        alg = mdbII.algebra
        u = pure_t2(alg.one(), alg.one())
        assert not tbracket_R(mdbII, alg.gen(1), u)

    def test_swap_left(self, mdbII):
        alg = mdbII.algebra
        c = alg.element({(3, 3): 2})
        u = pure_t2(alg.gen(1), c)
        # <<x1 (x) c, x2>>_L = <<x1, x2>> otimes_1 c = -x1 (x) c (x) x2
        assert tbracket_swapL(mdbII, u, alg.gen(2)) == tensor3(alg, {((1,), (3, 3), (2,)): -2})

    def test_triple_brackets_bilinear(self, mdbI):
        rng = random.Random(41)
        alg = mdbI.algebra
        words = alg.words_up_to(2)
        for _ in range(20):
            a = alg.element({rng.choice(words): rng.randint(-2, 2)})
            u = alg.tensor2(
                {(rng.choice(words), rng.choice(words)): rng.randint(-2, 2) for _ in range(2)}
            )
            w = alg.tensor2(
                {(rng.choice(words), rng.choice(words)): rng.randint(-2, 2) for _ in range(2)}
            )
            assert tbracket_L(mdbI, a, u + w) == tbracket_L(mdbI, a, u) + tbracket_L(mdbI, a, w)
            assert tbracket_R(mdbI, a, u + w) == tbracket_R(mdbI, a, u) + tbracket_R(mdbI, a, w)
            assert tbracket_swapL(mdbI, u + w, a) == tbracket_swapL(mdbI, u, a) + tbracket_swapL(mdbI, w, a)


def cl3a_spec(at, bt):
    from ncdb.classify import build, FamilyParams

    return build(FamilyParams("cl3a", tuple(at) + tuple(bt)))[0]


class TestDjac:
    def test_zero_spec(self):
        alg = FreeAlgebra(("v1", "v2"))
        zero = BracketSpec(alg, {})
        assert not zero.djac(alg.gen(1), alg.gen(2), alg.gen(1))

    def test_closed_form_on_generator_triples(self):
        # engine DJac(v1,v2,v3) against the hand expansion of the binary family
        rng = random.Random(43)
        for _ in range(12):
            at = tuple(rng.randint(0, 1) for _ in range(3))
            bt = tuple(rng.randint(0, 1) for _ in range(3))
            spec = cl3a_spec(at, bt)
            alg = spec.algebra
            a1, a2, a3 = at
            b1, b2, b3 = bt
            expected = tensor3(
                alg,
                {
                    ((1,), (2,), (3,)): -(a1 * a2 + a2 * a3 - a1 * a3),
                    ((3,), (2,), (1,)): b2,
                    ((3,), (1,), (2,)): b1 * b2 + b2 * b3 - b1 * b3 - b2,
                }
            )
            assert spec.djac(alg.gen(1), alg.gen(2), alg.gen(3)) == expected

    def test_single_generator_quadratic_brackets(self):
        # <<v, v>> = v^2 (x) 1 - 1 (x) v^2 is cyclically skew but its Jacobiator
        # does NOT vanish (computed; matches a hand expansion of the nine terms)
        alg = FreeAlgebra(("v",))
        spec = BracketSpec(alg, {(1, 1): alg.tensor2({((1, 1), ()): 1, ((), (1, 1)): -1})})
        v = alg.gen(1)
        expected = tensor3(
            alg,
            {
                ((1, 1), (1,), ()): 1,
                ((1,), (1, 1), ()): -1,
                ((), (1, 1), (1,)): 1,
                ((), (1,), (1, 1)): -1,
                ((1,), (), (1, 1)): 1,
                ((1, 1), (), (1,)): -1,
            }
        )
        assert spec.djac(v, v, v) == expected
        # <<v, v>> = v (x) v^2 - v^2 (x) v, by contrast, is double Poisson
        spec2 = BracketSpec(alg, {(1, 1): alg.tensor2({((1,), (1, 1)): 1, ((1, 1), (1,)): -1})})
        assert not spec2.djac(v, v, v)


class TestJacobiator:
    def test_exact_zero_for_mdbI_generators(self, mdbI):
        alg = mdbI.algebra
        j = mdbI.jacobiator(alg.gen(1), alg.gen(2), alg.gen(3))
        assert not j
        assert not reduce_mod_commutators(j)

    def test_zero_spec_and_unit(self, mdbI):
        alg = mdbI.algebra
        zero = BracketSpec(alg, {})
        assert not zero.jacobiator(alg.gen(1), alg.gen(2), alg.gen(3))
        a = alg.element({(1, 2): 1})
        assert not mdbI.jacobiator(alg.one(), a, alg.gen(3))


class TestDerivationLaws:
    """The Jacobiator is a derivation in its second and third slots, and in the
    first slot up to an explicit correction term built from the skew defect."""

    def _random_words(self, alg, rng, n, maxdeg=3):
        words = [w for w in alg.words_up_to(maxdeg) if w]
        return [rng.choice(words) for _ in range(n)]

    def test_third_slot(self, mdbI):
        rng = random.Random(47)
        alg = mdbI.algebra
        for _ in range(25):
            a, b, c1, c2 = (alg.element({w: 1}) for w in self._random_words(alg, rng, 4))
            lhs = mdbI.djac(a, b, c1 * c2)
            left = Tensor3(alg, {(c1w, (), ()): cc for c1w, cc in c1.terms.items()})
            right = Tensor3(alg, {((), (), c2w): cc for c2w, cc in c2.terms.items()})
            rhs = left * mdbI.djac(a, b, c2) + mdbI.djac(a, b, c1) * right
            assert lhs == rhs

    def test_second_slot(self, mdbI):
        rng = random.Random(53)
        alg = mdbI.algebra
        for _ in range(25):
            a, b1, b2, c = (alg.element({w: 1}) for w in self._random_words(alg, rng, 4))
            lhs = mdbI.djac(a, b1 * b2, c)
            left = Tensor3(alg, {((), (), w): cc for w, cc in b1.terms.items()})
            right = Tensor3(alg, {((), w, ()): cc for w, cc in b2.terms.items()})
            rhs = left * mdbI.djac(a, b2, c) + mdbI.djac(a, b1, c) * right
            assert lhs == rhs

    def test_first_slot_with_correction(self, mdbI):
        rng = random.Random(59)
        alg = mdbI.algebra
        for _ in range(25):
            a1, a2, b, c = (alg.element({w: 1}) for w in self._random_words(alg, rng, 4))
            lhs = mdbI.djac(a1 * a2, b, c)
            mid = Tensor3(alg, {((), w, ()): cc for w, cc in a1.terms.items()})
            right = Tensor3(alg, {(w, (), ()): cc for w, cc in a2.terms.items()})
            main = mid * mdbI.djac(a2, b, c) + mdbI.djac(a1, b, c) * right
            w = mdbI.dbracket(a2, c)
            defect = mdbI.dbracket(b, a1) + flip(mdbI.dbracket(a1, b))
            # correction term: w' (x) defect' (x) defect'' w''
            from ncdb.freealg import concat, _merge_term

            corr_terms = {}
            for (w1, w2), cw in w.terms.items():
                for (u1, u2), cu in defect.terms.items():
                    _merge_term(corr_terms, (w1, u1, concat(u2, w2)), cw * cu)
            corr = Tensor3(alg, corr_terms)
            assert lhs == main - corr

    def test_first_slot_derivation_fails_without_skew(self, mdbI):
        # the correction term is genuinely nonzero for this bracket, so the
        # naive first-slot derivation rule fails: pick a1, b with a nonzero
        # skew defect and a2, c with a nonzero bracket
        alg = mdbI.algebra
        a1, a2, b, c = alg.gen(2), alg.gen(1), alg.gen(1), alg.gen(2)
        mid = Tensor3(alg, {((), (2,), ()): 1})
        right = Tensor3(alg, {((1,), (), ()): 1})
        main = mid * mdbI.djac(a2, b, c) + mdbI.djac(a1, b, c) * right
        assert mdbI.djac(a1 * a2, b, c) != main
