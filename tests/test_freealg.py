import random
from fractions import Fraction

import pytest

from ncdb.freealg import (
    FreeAlgebra,
    concat,
    cyclic_normal_form,
    reduce_word,
    word_key,
)

from oracles import inner_act, otimes1_left, outer_act, pure_t2, reduce_mod_commutators

A3 = FreeAlgebra(("v1", "v2", "v3"))
L2 = FreeAlgebra(("v", "w"), inverted=(1, 2))


def naive_reduce(letters):
    """Oracle: repeatedly rescan for an adjacent cancelling pair until stable."""
    seq = list(letters)
    changed = True
    while changed:
        changed = False
        for i in range(len(seq) - 1):
            if seq[i] == -seq[i + 1]:
                del seq[i : i + 2]
                changed = True
                break
    return tuple(seq)


class TestWords:
    def test_concat_no_cancellation(self):
        assert concat((1, 2), (3,)) == (1, 2, 3)

    def test_concat_inverse_pair(self):
        assert concat((1,), (-1,)) == ()

    def test_concat_cascade(self):
        # v1 v2^-1 . v2 v2 -> v1 v2, checked against the rescan oracle
        a, b = (1, -2), (2, 2)
        assert concat(a, b) == (1, 2)
        assert concat(a, b) == naive_reduce(a + b)

    def test_concat_associative_unit(self):
        rng = random.Random(7)
        for _ in range(300):
            ws = [
                reduce_word(rng.choices([1, -1, 2, -2], k=rng.randint(0, 6)))
                for _ in range(3)
            ]
            a, b, c = ws
            assert concat(concat(a, b), c) == concat(a, concat(b, c))
            assert concat(a, ()) == a == concat((), a)

    def test_reduction_confluence_vs_oracle(self):
        rng = random.Random(11)
        for _ in range(500):
            seq = rng.choices([1, -1, 2, -2, 3, -3], k=rng.randint(0, 12))
            assert reduce_word(seq) == naive_reduce(seq)

    def test_word_validation(self):
        with pytest.raises(ValueError):
            A3.validate_word((1, -2))  # not invertible
        with pytest.raises(ValueError):
            A3.validate_word((4,))
        L2.validate_word((1, -2))
        with pytest.raises(ValueError):
            L2.validate_word((1, -1))  # not reduced


class TestElementArithmetic:
    def test_distributivity(self):
        v1, v2, v3 = A3.gen(1), A3.gen(2), A3.gen(3)
        assert (v1 + v2) * v3 == v1 * v3 + v2 * v3

    def test_unit(self):
        x = A3.element({(1, 2): Fraction(3, 7), (2,): -1})
        assert A3.one() * x == x
        assert x * A3.one() == x

    def test_scalar_product(self):
        v1, v2 = A3.gen(1), A3.gen(2)
        assert (Fraction(2, 3) * v1) * (3 * v2) == 2 * (v1 * v2)

    def test_mul_associative_random(self):
        rng = random.Random(3)
        words = A3.words_up_to(2)
        for _ in range(50):
            xs = [
                A3.element({rng.choice(words): rng.randint(-3, 3) for _ in range(2)})
                for _ in range(3)
            ]
            a, b, c = xs
            assert (a * b) * c == a * (b * c)

    def test_zero_degree(self):
        assert A3.zero().degree() is None
        assert A3.one().degree() == 0
        assert A3.element({(1, 2): 1}).degree() == 2

    def test_no_stored_zeros(self):
        x = A3.element({(1,): 1}) - A3.element({(1,): 1})
        assert x.is_zero() and x.terms == {}


class TestTensors:
    def test_t2_mul(self):
        u = pure_t2(A3.gen(1), A3.gen(2))
        w = pure_t2(A3.gen(3), A3.gen(3))
        assert u * w == A3.tensor2({((1, 3), (2, 3)): 1})

    def test_t2_unit(self):
        u = A3.tensor2({((1,), (2, 3)): Fraction(1, 2)})
        one = pure_t2(A3.one(), A3.one())
        assert one * u == u

    def test_square_of_commutator_style_tensor(self):
        # (v1 (x) 1 - 1 (x) v1)^2, expanded by bilinearity by hand
        u = A3.tensor2({((1,), ()): 1, ((), (1,)): -1})
        expected = A3.tensor2({((1, 1), ()): 1, ((1,), (1,)): -2, ((), (1, 1)): 1})
        assert u * u == expected

    def test_outer_inner_act(self):
        u = pure_t2(A3.gen(2), A3.gen(3))
        assert outer_act(A3.gen(1), u, A3.gen(3)) == A3.tensor2({((1, 2), (3, 3)): 1})
        assert inner_act(A3.gen(1), u, A3.gen(3)) == A3.tensor2({((2, 3), (1, 3)): 1})
        assert outer_act(A3.one(), u, A3.one()) == u

    def test_flip(self):
        u = A3.tensor2({((1,), (2, 3)): 1})
        assert u.flip() == A3.tensor2({((2, 3), (1,)): 1})
        assert u.flip().flip() == u
        assert A3.tensor2({((2, 1), ()): -1}).flip() == A3.tensor2({((), (2, 1)): -1})

    def test_flip_exchanges_outer_and_inner(self):
        rng = random.Random(5)
        words = A3.words_up_to(2)
        for _ in range(30):
            u = A3.tensor2(
                {(rng.choice(words), rng.choice(words)): rng.randint(-2, 2) for _ in range(2)}
            )
            c1 = A3.element({rng.choice(words): rng.randint(-2, 2)})
            c2 = A3.element({rng.choice(words): rng.randint(-2, 2)})
            assert outer_act(c1, u, c2).flip() == inner_act(c1, u.flip(), c2)

    def test_otimes1(self):
        u = pure_t2(A3.gen(1), A3.gen(2))
        t = A3.tensor3({((1,), (3,), (2,)): 1})
        assert otimes1_left(u, A3.gen(3)) == t
        assert otimes1_left(u, A3.zero()).is_zero()

    def test_m2_m3(self):
        u = pure_t2(A3.gen(1), A3.gen(2))
        assert u.m2() == A3.element({(1, 2): 1})
        assert (u + u.flip()).m2() == A3.element({(1, 2): 1, (2, 1): 1})


class TestCyclicClasses:
    def test_minimal_rotation(self):
        assert cyclic_normal_form((2, 1)) == (1, 2)
        assert cyclic_normal_form((3, 1, 2)) == (1, 2, 3)
        assert cyclic_normal_form(()) == ()

    def test_commutator_reduces_to_zero(self):
        x = A3.element({(1, 2): 1, (2, 1): -1})
        assert reduce_mod_commutators(x).is_zero()

    def test_rotation_invariance(self):
        rng = random.Random(13)
        for _ in range(200):
            w = tuple(rng.choices([1, 2, 3], k=rng.randint(1, 6)))
            k = rng.randrange(len(w))
            rot = w[k:] + w[:k]
            diff = A3.element({w: 1}) - A3.element({rot: 1})
            assert reduce_mod_commutators(diff).is_zero()

    def test_idempotent_linear(self):
        rng = random.Random(17)
        words = A3.words_up_to(4)
        for _ in range(50):
            x = A3.element({rng.choice(words): rng.randint(-4, 4) for _ in range(4)})
            y = A3.element({rng.choice(words): rng.randint(-4, 4) for _ in range(4)})
            rx, ry = reduce_mod_commutators(x), reduce_mod_commutators(y)
            assert reduce_mod_commutators(rx) == rx
            assert reduce_mod_commutators(x + y) == rx + ry

    def test_laurent_rotation_reduces_boundary(self):
        # v w v^-1 is conjugate to w
        assert cyclic_normal_form((1, 2, -1)) == (2,)
        x = L2.element({(1, 2, -1): 1, (2,): -1})
        assert reduce_mod_commutators(x).is_zero()

    def test_laurent_rotation_invariance(self):
        rng = random.Random(19)
        for _ in range(200):
            w = reduce_word(rng.choices([1, -1, 2, -2], k=rng.randint(1, 7)))
            if not w:
                continue
            k = rng.randrange(len(w))
            rot = reduce_word(w[k:] + w[:k])
            diff = L2.element({w: 1}) - (L2.element({rot: 1}) if rot else L2.one())
            assert reduce_mod_commutators(diff).is_zero()


class TestOrderingAndRendering:
    def test_letter_order_positive_before_inverse(self):
        # +1 < -1 < +2 < -2 in the letter order, words compared by degree first
        assert word_key((2,)) < word_key((1, 1))
        assert word_key((1,)) < word_key((-1,))
        assert word_key((-1,)) < word_key((2,))

    def test_canonical_rendering(self):
        alg = FreeAlgebra(("x1", "x2", "x3"), inverted=(2,))
        u = alg.tensor2({((1, -2), (3,)): Fraction(-2, 3)})
        assert str(u) == "-2/3*x1*x2^-1 (x) x3"
        assert str(alg.zero_t2()) == "0"
        assert str(alg.one()) == "1"
        assert str(alg.element({(): Fraction(1, 2), (1,): -1})) == "1/2 - x1"

    def test_items_sorted_deglex(self):
        x = A3.element({(2,): 1, (1, 1): 1, (1,): 1})
        assert [w for w, _ in x.items()] == [(1,), (2,), (1, 1)]

    def test_exactness_no_floats(self):
        x = A3.element({(1,): Fraction(1, 3)})
        y = x + x + x
        assert y == A3.gen(1)
        assert all(isinstance(c, (int, Fraction)) for c in y.terms.values())
        # integral coefficients are stored as int, whatever type they came in
        for make, key in ((A3.element, (1,)), (A3.tensor2, ((1,), ())), (A3.tensor3, ((1,), (), ()))):
            assert type(make({key: Fraction(4, 2)}).terms[key]) is int
            assert make({key: Fraction(1, 2)}).terms[key] == Fraction(1, 2)
            for bad in (0.5, 0.0, "1"):
                with pytest.raises(ValueError):
                    make({key: bad})
        with pytest.raises(ValueError):
            A3.tensor2({((1,), (2,), (3,)): 1})
        with pytest.raises(ValueError):
            A3.gen(1).scale(0.5)
