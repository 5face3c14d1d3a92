import functools
import random
import re
import sys
from fractions import Fraction

import pytest

from ncdb import freealg
from ncdb.freealg import (
    FreeAlgebra,
    WordNames,
    _merge_term,
    coef_str,
    concat,
    cyclic_normal_form,
    letter_key,
    reduce_word,
    render_terms,
    word_key,
)

from oracles import (
    flip,
    inner_act,
    m2,
    otimes1_left,
    outer_act,
    pure_t2,
    reduce_mod_commutators,
    rotation_normal_form,
    tensor3,
)

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

    def test_generator_cap(self):
        """An algebra has at most ``MAX_GENERATORS`` generators: a spec's
        letter-bracket table grows as d^2."""
        assert FreeAlgebra.standard(freealg.MAX_GENERATORS).d == 64
        with pytest.raises(ValueError, match="more than 64 generators"):
            FreeAlgebra.standard(65)

    @pytest.mark.parametrize("make,message", [
        (lambda: FreeAlgebra(("x", "x")), "generator names must be distinct"),
        (lambda: FreeAlgebra(()), "need at least one generator"),
        (lambda: A3.gen(0), "generator index 0 out of range"),
    ], ids=["repeated_name", "no_generator", "generator_zero"])
    def test_outside_input_refused(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()

    @pytest.mark.parametrize("make,message", [
        (lambda: FreeAlgebra((1, 2)), "generator name 1 is not a str"),
        (lambda: FreeAlgebra(("x", "y"), inverted=(True,)), "inverted index True is not an int"),
        (lambda: FreeAlgebra(("x", "y"), inverted=(1.0,)), "inverted index 1.0 is not an int"),
        (lambda: A3.element({(1.5,): 1}), "letter 1.5 is not an int"),
        (lambda: A3.validate_word((True, 2)), "letter True is not an int"),
        (lambda: A3.gen(True), "generator index True is not an int"),
        (lambda: A3.element({(1,): True}), "coefficient True is not an int or a Fraction"),
    ], ids=["int_name", "bool_inverted", "float_inverted", "float_letter", "bool_letter", "bool_generator",
            "bool_coefficient"])
    def test_mistyped_input_refused(self, make, message):
        """Generator names are strs; inverted indices, letters and generator
        indices are ints, and coefficients ints or Fractions; a bool, though
        Python counts it as an int, is none of these:
        each is refused, naming the value, before it can reach a report."""
        with pytest.raises(ValueError, match=re.escape(message)):
            make()

    def test_one_letter_order(self):
        alg = FreeAlgebra(("v", "w"), (2, 1))
        assert alg.inverted == (1, 2) and alg == L2 and alg.letters == (1, 2, -1, -2)

    @pytest.mark.parametrize("alg", [A3, L2, FreeAlgebra(("u", "v", "w"), inverted=(2,))])
    @pytest.mark.parametrize("include_unit", [True, False])
    def test_word_count_cap(self, alg, include_unit, monkeypatch):
        """The count made before enumerating is exact: a cap of exactly the
        number of words passes, one less is refused."""
        for maxdeg in (1, 2, 4):
            words = alg.words_up_to(maxdeg, include_unit)
            assert len(set(words)) == len(words)
            monkeypatch.setattr(freealg, "MAX_WORDS", len(words))
            assert alg.words_up_to(maxdeg, include_unit) == words
            monkeypatch.setattr(freealg, "MAX_WORDS", len(words) - 1)
            with pytest.raises(ValueError, match=f"more than {len(words) - 1} words"):
                alg.words_up_to(maxdeg, include_unit)
            monkeypatch.undo()


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
        assert v1 * 2 == v1.scale(2) and v1 * Fraction(1, 2) == v1.scale(Fraction(1, 2))

    @pytest.mark.parametrize("op,error,message", [
        (lambda x, t: x + t, TypeError, "unsupported operand"),
        (lambda x, t: x * t, TypeError, "unsupported operand"),
        (lambda x, t: "s" * x, TypeError, "can't multiply sequence"),
        (lambda x, t: x * L2.gen(1), ValueError, "algebra mismatch"),
    ], ids=["element_plus_tensor", "element_times_tensor", "string_times_element", "other_algebra"])
    def test_operands_refused(self, op, error, message):
        with pytest.raises(error, match=message):
            op(A3.gen(1), A3.tensor2({((1,), (2,)): 1}))

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

    def test_no_stored_zeros(self):
        x = A3.element({(1,): 1}) - A3.element({(1,): 1})
        assert not x and x.terms == {}


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
        assert flip(u) == A3.tensor2({((2, 3), (1,)): 1})
        assert flip(flip(u)) == u
        assert flip(A3.tensor2({((2, 1), ()): -1})) == A3.tensor2({((), (2, 1)): -1})

    def test_flip_exchanges_outer_and_inner(self):
        rng = random.Random(5)
        words = A3.words_up_to(2)
        for _ in range(30):
            u = A3.tensor2(
                {(rng.choice(words), rng.choice(words)): rng.randint(-2, 2) for _ in range(2)}
            )
            c1 = A3.element({rng.choice(words): rng.randint(-2, 2)})
            c2 = A3.element({rng.choice(words): rng.randint(-2, 2)})
            assert flip(outer_act(c1, u, c2)) == inner_act(c1, flip(u), c2)

    def test_otimes1(self):
        u = pure_t2(A3.gen(1), A3.gen(2))
        t = tensor3(A3, {((1,), (3,), (2,)): 1})
        assert otimes1_left(u, A3.gen(3)) == t
        assert not otimes1_left(u, A3.zero())

    def test_m2_m3(self):
        u = pure_t2(A3.gen(1), A3.gen(2))
        assert m2(u) == A3.element({(1, 2): 1})
        assert m2(u + flip(u)) == A3.element({(1, 2): 1, (2, 1): 1})


class TestCyclicClasses:
    def test_minimal_rotation(self):
        assert cyclic_normal_form((2, 1)) == (1, 2)
        assert cyclic_normal_form((3, 1, 2)) == (1, 2, 3)
        assert cyclic_normal_form(()) == ()

    def test_commutator_reduces_to_zero(self):
        x = A3.element({(1, 2): 1, (2, 1): -1})
        assert not reduce_mod_commutators(x)

    def test_rotation_invariance(self):
        rng = random.Random(13)
        for _ in range(200):
            w = tuple(rng.choices([1, 2, 3], k=rng.randint(1, 6)))
            k = rng.randrange(len(w))
            rot = w[k:] + w[:k]
            diff = A3.element({w: 1}) - A3.element({rot: 1})
            assert not reduce_mod_commutators(diff)

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
        assert not reduce_mod_commutators(x)

    def test_normal_form_matches_every_rotation(self):
        """The normal form is the oracle's minimal rotation, compared one
        rotation at a time: on all free words up to length 7 on 3 letters,
        which repeat their least letter as in (1, 2, 1, 3) and (1, 1, 2, 1, 2),
        and on all reduced Laurent words up to length 5 on 2 inverted letters,
        some not cyclically reduced, as (1, 2, -1)."""
        free = FreeAlgebra.standard(3).words_up_to(7)
        laurent = FreeAlgebra.standard(2, inverted=(1, 2)).words_up_to(5)
        assert (1, 2, 1, 3) in free and (1, 1, 2, 1, 2) in free and (1, 2, -1) in laurent
        assert len(free) == 3280 and len(laurent) == 485
        for w in free + laurent:
            assert cyclic_normal_form(w) == rotation_normal_form(w), w

    def test_laurent_rotation_invariance(self):
        rng = random.Random(19)
        for _ in range(200):
            w = reduce_word(rng.choices([1, -1, 2, -2], k=rng.randint(1, 7)))
            if not w:
                continue
            k = rng.randrange(len(w))
            rot = reduce_word(w[k:] + w[:k])
            diff = L2.element({w: 1}) - (L2.element({rot: 1}) if rot else L2.one())
            assert not reduce_mod_commutators(diff)


def wide_str(c):
    """``str(c)`` with ``int()``'s digit limit lifted, where this Python has one."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is None:
        return str(c)
    sys.set_int_max_str_digits(0)
    try:
        return str(c)
    finally:
        sys.set_int_max_str_digits(limit)


def long_rationals(rng, lengths):
    """Ints and Fractions whose numerators or denominators have the given digit counts."""
    values = [10 ** (n - 1) for n in lengths] + [10 ** n - 1 for n in lengths]
    for n in lengths:
        k = rng.randrange(10 ** (n - 1), 10 ** n)
        values += [k, -k, Fraction(k, 7), Fraction(-3, k), Fraction(k, rng.randrange(2, 10 ** n))]
    return values


class TestCoefficientText:
    def test_matches_str_at_any_length(self):
        """coef_str is str() wherever str() answers, and past int()'s digit
        limit, at 4,301 digits and beyond, it is what str() gives once the
        limit is lifted."""
        rng = random.Random(5)
        values = [rng.randint(-99, 99) for _ in range(200)]
        values += [Fraction(rng.randint(-99, 99), rng.randint(1, 99)) for _ in range(200)]
        short = values + long_rationals(rng, (19, 20, 640, 4299, 4300))
        for c in short:
            assert coef_str(c) == str(c)
        for c in short + long_rationals(rng, (4301, 4302, 9000)):
            assert coef_str(c) == wide_str(c)
        assert coef_str(-(10 ** 4300)) == "-1" + "0" * 4300
        assert coef_str(Fraction(1, 10 ** 4300)) == "1/1" + "0" * 4300

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="this Python has no int() digit limit")
    def test_ignores_a_lower_int_limit(self):
        values = long_rationals(random.Random(6), (639, 640, 641, 4301))
        expected = [wide_str(c) for c in values]
        limit = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(640)
            got = [coef_str(c) for c in values]
        finally:
            sys.set_int_max_str_digits(limit)
        assert got == expected


class TestOrderingAndRendering:
    def test_letter_order_positive_before_inverse(self):
        # +1 < -1 < +2 < -2 in the letter order, words compared by degree first
        assert word_key((2,)) < word_key((1, 1))
        assert word_key((1,)) < word_key((-1,))
        assert word_key((-1,)) < word_key((2,))
        # the order is letter_key's, one integer per letter
        assert sorted([-3, 2, -1, 1, 3, -2], key=letter_key) == [1, -1, 2, -2, 3, -3]
        assert all(type(letter_key(g)) is int for g in (1, -1, 2, -2))

    def test_canonical_rendering(self):
        alg = FreeAlgebra(("x1", "x2", "x3"), inverted=(2,))
        u = alg.tensor2({((1, -2), (3,)): Fraction(-2, 3)})
        assert str(u) == "-2/3*x1*x2^-1 (x) x3"
        assert str(alg.tensor2({})) == "0"
        assert str(alg.one()) == "1"
        assert str(alg.element({(): Fraction(1, 2), (1,): -1})) == "1/2 - x1"
        # the one renderer on raw term dicts, with and without a memo
        # a unit first word prints its coefficient, whatever the arity
        assert render_terms(alg, {((), (1,), (2,)): Fraction(3, 2)}, 3) == "3/2 (x) x1 (x) x2"
        assert render_terms(alg, {((), (), ()): -1}, 3) == "-1 (x) 1 (x) 1"
        # a coefficient of magnitude 1 on any other first word is left out
        assert render_terms(alg, {((2,), ()): 1, ((1,), (2,)): -1}, 2) == "-x1 (x) x2 + x2 (x) 1"
        # a Fraction of denominator 1, as a merge leaves it, prints as an integer
        terms = {(1,): Fraction(1, 2), (): Fraction(1, 3)}
        _merge_term(terms, (1,), Fraction(3, 2))
        _merge_term(terms, (), Fraction(-10, 3))
        assert terms == {(1,): 2, (): -3} and all(type(c) is Fraction for c in terms.values())
        assert render_terms(alg, terms, 1) == "-3 + 2*x1"
        # inverse letters sort after their generator and before the next one
        assert render_terms(alg, {(1, -2): 1, (-2,): Fraction(-2, 3), (3,): 1, (2,): 4}, 1) == (
            "4*x2 - 2/3*x2^-1 + x3 + x1*x2^-1")
        assert render_terms(alg, {}, 2) == "0"
        # words sort by length before letters
        assert render_terms(alg, {(1, 1): 1, (3,): 1}, 1) == "x3 + x1*x1"
        # a memo keyed by words, or by keys standing for words, as interned ids do
        names = WordNames(alg)
        assert render_terms(alg, {((1,), (-2,)): -1}, 2, names) == "-x1 (x) x2^-1"
        assert names == {(1,): (word_key((1,)), "x1"), (-2,): (word_key((-2,)), "x2^-1")}
        ids = WordNames(alg, [(), (3,), (1, 1)])
        assert render_terms(alg, {2: 1, 1: -1, 0: 4}, 1, ids) == "4 - x3 + x1*x1"
        assert sorted(ids) == [0, 1, 2]

    def test_items_sorted_deglex(self):
        x = A3.element({(2,): 1, (1, 1): 1, (1,): 1})
        assert [w for w, _ in x.items()] == [(1,), (2,), (1, 1)]

    def test_tensor_items_sorted_deglex_per_slot(self):
        """A tensor's terms sort by the deglex key of each slot in turn."""
        alg = FreeAlgebra(("x1", "x2"), inverted=(1,))
        t2 = {((2,), ()): 1, ((-1,), (2,)): 2, ((1,), (2,)): 3, ((), (1, 1)): 4, ((), (2,)): 5}
        t3 = {((2,), (), ()): 1, ((1,), (-1,), ()): 2, ((1,), (1,), (2,)): 3, ((1,), (1,), ()): 4,
              ((), (2, -1), (1,)): 5}
        for x in (alg.tensor2(t2), tensor3(alg, t3)):
            assert [c for _, c in x.items()] == [5, 4, 3, 2, 1]

    def test_exactness_no_floats(self):
        x = A3.element({(1,): Fraction(1, 3)})
        y = x + x + x
        assert y == A3.gen(1)
        assert all(isinstance(c, (int, Fraction)) for c in y.terms.values())
        # integral coefficients are stored as int, whatever type they came in
        t3 = functools.partial(tensor3, A3)
        for make, key in ((A3.element, (1,)), (A3.tensor2, ((1,), ())), (t3, ((1,), (), ()))):
            assert type(make({key: Fraction(4, 2)}).terms[key]) is int
            assert make({key: Fraction(1, 2)}).terms[key] == Fraction(1, 2)
            for bad in (0.5, 0.0, "1"):
                with pytest.raises(ValueError):
                    make({key: bad})
        with pytest.raises(ValueError):
            A3.tensor2({((1,), (2,), (3,)): 1})
        with pytest.raises(ValueError):
            A3.gen(1).scale(0.5)
