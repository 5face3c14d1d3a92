import random
from fractions import Fraction

import pytest

from ncdb.freealg import FreeAlgebra, Tensor3, reduce_word
from ncdb.bracket import BracketSpec
from ncdb.classify import builtin

from oracles import inner_act, outer_act, pure_t2, reduce_mod_commutators


@pytest.fixture(scope="module")
def mdbI():
    return builtin("mdbI")[0]


@pytest.fixture(scope="module")
def mdbII():
    return builtin("mdbII")[0]


@pytest.fixture(scope="module")
def kont_laurent():
    spec, _ = builtin("kontsevich")
    alg = spec.algebra.laurent()
    return BracketSpec(alg, {k: alg.tensor2(dict(u.terms)) for k, u in spec.table.items()})


# ---------------------------------------------------------------------------
# an independent oracle: extend the bracket by recursive Leibniz splitting
# instead of the positional double sum


def leibniz_recursive(spec, u, w):
    """<<u, w>> for monomials, by peeling one letter at a time."""
    alg = spec.algebra

    def one_elt(word):
        return alg.element({word: 1})

    if not u or not w:
        return alg.zero_t2()
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

    def test_zero_default(self, mdbII):
        assert mdbII.letter_bracket(1, 3).is_zero()

    def test_table_is_read_only(self, mdbII):
        # the memo caches are derived from the table, so it must not change under them
        with pytest.raises(TypeError):
            mdbII.table[(1, 3)] = mdbII.table[(1, 2)]
        copy = dict(mdbII.table)
        copy[(1, 3)] = copy[(1, 2)]
        assert (1, 3) not in mdbII.table
        assert mdbII.letter_bracket(1, 3).is_zero()

    def test_inverse_second_argument(self, kont_laurent):
        # <<w, v^-1>> = -v^-1 . <<w, v>> . v^-1 = -w (x) v^-1
        alg = kont_laurent.algebra
        assert kont_laurent.letter_bracket(2, -1) == alg.tensor2({((2,), (-1,)): -1})
        # and the defining property: <<w, v v^-1>> expands to zero by Leibniz
        got = outer_act(alg.gen(1), kont_laurent.letter_bracket(2, -1), alg.one()) + outer_act(
            alg.one(), kont_laurent.letter_bracket(2, 1), alg.letter_elt(-1)
        )
        assert got.is_zero()

    def test_inverse_first_argument(self, kont_laurent):
        # <<v^-1, w>> = -v^-1 * <<v, w>> * v^-1 = (w (x) v^-1 w... ) computed:
        alg = kont_laurent.algebra
        base = kont_laurent.letter_bracket(1, 2)  # -wv (x) 1
        expected = inner_act(alg.letter_elt(-1), base, alg.letter_elt(-1)).scale(-1)
        assert kont_laurent.letter_bracket(-1, 2) == expected
        # Leibniz consistency in the first slot: <<v v^-1, w>> = 0
        got = inner_act(alg.gen(1), kont_laurent.letter_bracket(-1, 2), alg.one()) + inner_act(
            alg.one(), kont_laurent.letter_bracket(1, 2), alg.letter_elt(-1)
        )
        assert got.is_zero()

    def test_double_inverse_order_independent(self, kont_laurent):
        alg = kont_laurent.algebra
        # resolve y first, then x: must agree with the engine's x-first order
        base = kont_laurent.letter_bracket(1, 2)
        via_y_first = inner_act(
            alg.letter_elt(-1),
            outer_act(alg.letter_elt(-2), base, alg.letter_elt(-2)),
            alg.letter_elt(-1),
        )
        assert kont_laurent.letter_bracket(-1, -2) == via_y_first

    def test_inverse_rejected_on_free_algebra(self, mdbI):
        with pytest.raises(ValueError):
            mdbI.letter_bracket(1, -2)


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
        assert mdbI.dbracket(a, alg.one()).is_zero()
        assert mdbI.dbracket(alg.one(), a).is_zero()

    def test_skew_defect_display(self, mdbI):
        alg = mdbI.algebra
        d = mdbI.dbracket(alg.gen(1), alg.gen(2)) + mdbI.dbracket(alg.gen(2), alg.gen(1)).flip()
        assert d == alg.tensor2({((), (1, 2)): 1, ((2, 1), ()): -1})

    def test_matches_recursive_leibniz_oracle(self, mdbI):
        rng = random.Random(23)
        words = [w for w in mdbI.algebra.words_up_to(5) if w]
        for _ in range(60):
            u, w = rng.choice(words), rng.choice(words)
            assert mdbI.dbracket(
                mdbI.algebra.element({u: 1}), mdbI.algebra.element({w: 1})
            ) == leibniz_recursive(mdbI, u, w)

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
        assert mdbI.mbracket(algI.element({(1, 2): 1}), algI.one()).is_zero()

    def test_equals_m2_of_dbracket(self, mdbII):
        rng = random.Random(37)
        alg = mdbII.algebra
        words = alg.words_up_to(3)
        for _ in range(40):
            a = alg.element({rng.choice(words): rng.randint(-3, 3) for _ in range(2)})
            b = alg.element({rng.choice(words): rng.randint(-3, 3) for _ in range(2)})
            assert mdbII.mbracket(a, b) == mdbII.dbracket(a, b).m2()

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
            assert spec.mbracket(a, b) == spec.dbracket(a, b).m2()


class TestTripleBrackets:
    def test_left(self, mdbII):
        alg = mdbII.algebra
        u = pure_t2(alg.gen(2), alg.gen(3))
        assert mdbII.tbracket_L(alg.gen(1), u) == alg.tensor3({((1,), (2,), (3,)): -1})

    def test_right_unit(self, mdbII):
        alg = mdbII.algebra
        u = pure_t2(alg.one(), alg.one())
        assert mdbII.tbracket_R(alg.gen(1), u).is_zero()

    def test_swap_left(self, mdbII):
        alg = mdbII.algebra
        c = alg.element({(3, 3): 2})
        u = pure_t2(alg.gen(1), c)
        # <<x1 (x) c, x2>>_L = <<x1, x2>> otimes_1 c = -x1 (x) c (x) x2
        assert mdbII.tbracket_swapL(u, alg.gen(2)) == alg.tensor3(
            {((1,), (3, 3), (2,)): -2}
        )

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
            assert mdbI.tbracket_L(a, u + w) == mdbI.tbracket_L(a, u) + mdbI.tbracket_L(a, w)
            assert mdbI.tbracket_R(a, u + w) == mdbI.tbracket_R(a, u) + mdbI.tbracket_R(a, w)
            assert mdbI.tbracket_swapL(u + w, a) == mdbI.tbracket_swapL(u, a) + mdbI.tbracket_swapL(w, a)


def cl3a_spec(at, bt):
    from ncdb.classify import build, FamilyParams

    return build(FamilyParams("cl3a", tuple(at) + tuple(bt)))[0]


class TestDjac:
    def test_zero_spec(self):
        alg = FreeAlgebra(("v1", "v2"))
        zero = BracketSpec(alg, {})
        assert zero.djac(alg.gen(1), alg.gen(2), alg.gen(1)).is_zero()

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
            expected = alg.tensor3(
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
        expected = alg.tensor3(
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
        assert spec2.djac(v, v, v).is_zero()


class TestJacobiator:
    def test_exact_zero_for_mdbI_generators(self, mdbI):
        alg = mdbI.algebra
        j = mdbI.jacobiator(alg.gen(1), alg.gen(2), alg.gen(3))
        assert j.is_zero()
        assert reduce_mod_commutators(j).is_zero()

    def test_zero_spec_and_unit(self, mdbI):
        alg = mdbI.algebra
        zero = BracketSpec(alg, {})
        assert zero.jacobiator(alg.gen(1), alg.gen(2), alg.gen(3)).is_zero()
        a = alg.element({(1, 2): 1})
        assert mdbI.jacobiator(alg.one(), a, alg.gen(3)).is_zero()


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
            defect = mdbI.dbracket(b, a1) + mdbI.dbracket(a1, b).flip()
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
