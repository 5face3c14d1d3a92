"""Exact-rational arithmetic in free associative algebras and tensor powers.

A *word* is a tuple of nonzero signed integers: the letter ``g > 0`` is the
g-th generator, ``-g`` its inverse (only allowed when the algebra declares
that generator invertible).  Words are kept *reduced*: no adjacent pair
``g, -g``.  The empty tuple is the unit monomial.

Elements of the algebra, of its tensor square and of its tensor cube are
sparse maps from words (resp. pairs/triples of words) to exact rational
coefficients.  Coefficients are plain ``int`` or ``fractions.Fraction``;
both are exact and interoperate, so no rounding can occur anywhere.  The
constructors store every coefficient in one form (:func:`exact`): an
integral value as ``int``, any other as ``Fraction``.

Interior arithmetic works on hashed keys in whatever order the dicts give;
a canonical degree-lexicographic order is imposed only on output (iteration
helpers, rendering, serialisation), so results are deterministic across runs.
"""

from __future__ import annotations

import decimal
import functools
import sys
from dataclasses import dataclass
from fractions import Fraction

Word = tuple  # tuple of nonzero signed ints
MAX_WORDS = 100_000  # most words ``words_up_to`` builds
MAX_GENERATORS = 64  # most generators of an algebra: a spec's letter-bracket table grows as d^2

# ---------------------------------------------------------------------------
# words


def letter_key(g: int) -> int:
    """Integer sort key for a single letter: by generator index, positive before inverse."""
    return 2 * g if g > 0 else 1 - 2 * g


def word_key(w: Word):
    """Degree-lexicographic sort key for words."""
    return (len(w), tuple(map(letter_key, w)))


def reduce_word(letters) -> Word:
    """Fully reduce an arbitrary letter sequence (cancel adjacent g, -g pairs)."""
    out = []
    for g in letters:
        if out and out[-1] == -g:
            out.pop()
        else:
            out.append(g)
    return tuple(out)


def concat(a: Word, b: Word) -> Word:
    """Product of two reduced words, cancelling across the boundary."""
    i, j = len(a), 0
    n = len(b)
    while i > 0 and j < n and a[i - 1] == -b[j]:
        i -= 1
        j += 1
    return a[:i] + b[j:]


def cyclic_reduce(w: Word) -> Word:
    """Strip cancelling first/last letters until the word is cyclically reduced."""
    i, j = 0, len(w)
    while j - i >= 2 and w[i] == -w[j - 1]:
        i += 1
        j -= 1
    return w[i:j]


@functools.cache
def cyclic_normal_form(w: Word) -> Word:
    """Canonical representative of the cyclic class of ``w``.

    The word is first cyclically reduced (a rotation-invariant of its class;
    every rotation of a cyclically reduced word is again reduced), then the
    minimal rotation in letter order is taken.  Two words are equal modulo
    commutators iff their normal forms coincide.
    """
    w = cyclic_reduce(w)
    key = tuple(map(letter_key, w))
    k = min(range(len(w)), key=lambda k: key[k:] + key[:k], default=0)
    return w[k:] + w[:k]


# ---------------------------------------------------------------------------
# coefficient helpers

def exact(c):
    """The stored form of a coefficient: ``int`` if integral, else ``Fraction``.

    Anything that is not an ``int`` or a ``Fraction`` (a float, a string, a
    bool) is refused with ValueError.
    """
    if type(c) is int:
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int) and not isinstance(c, bool):
        return int(c)
    raise ValueError(f"coefficient {c!r} is not an int or a Fraction")


def coef_str(c) -> str:
    """``str(c)`` for an exact rational ``c``, at any length."""
    try:
        return str(c)
    except ValueError:  # an int past int()'s digit limit: Decimal converts it exactly
        n, d = (str(decimal.Decimal(k)) for k in (c.numerator, c.denominator))
        return n if d == "1" else f"{n}/{d}"


def digit_cap() -> int:
    """The most digits an integer literal may have: ``int()``'s limit, at
    most 4,300; a limit of 0 (none), or none to read, keeps 4,300."""
    return min(4300, getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300)


def _merge_term(terms: dict, key, c):
    v = terms.get(key)
    if v is None:
        terms[key] = c
    else:
        v = v + c
        if v:
            terms[key] = v
        else:
            del terms[key]


# ---------------------------------------------------------------------------
# the algebra descriptor


@dataclass(frozen=True)
class FreeAlgebra:
    """Descriptor of K<v1,...,vd>, optionally with some generators inverted.

    ``names`` fixes the generator order; ``inverted`` holds, in increasing
    order whatever order it is given in, the 1-based indices of generators
    that have been made invertible, so an algebra has one letter order.  The
    ``letters`` tuple -- positive generators followed by the inverse letters
    in ``inverted`` order -- is the index set used by weight vectors and
    generator-level axiom checks.
    """

    names: tuple
    inverted: tuple = ()

    def __post_init__(self):
        names, inverted = tuple(self.names), tuple(self.inverted)
        for name in names:
            if not isinstance(name, str):
                raise ValueError(f"generator name {name!r} is not a str")
        for i in inverted:
            if type(i) is not int:  # a bool is not an index
                raise ValueError(f"inverted index {i!r} is not an int")
        inverted = tuple(sorted(inverted))
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "inverted", inverted)
        if len(set(names)) != len(names):
            raise ValueError("generator names must be distinct")
        if not names:
            raise ValueError("need at least one generator")
        if len(names) > MAX_GENERATORS:
            raise ValueError(f"more than {MAX_GENERATORS} generators")
        for i in inverted:
            if not 1 <= i <= len(names):
                raise ValueError(f"inverted index {i} out of range")
        if len(set(inverted)) != len(inverted):
            raise ValueError("inverted indices must be distinct")

    @classmethod
    def standard(cls, d: int, prefix: str = "v", inverted=()) -> "FreeAlgebra":
        return cls(tuple(f"{prefix}{i}" for i in range(1, d + 1)), tuple(inverted))

    @property
    def d(self) -> int:
        return len(self.names)

    @property
    def has_inverses(self) -> bool:
        return bool(self.inverted)

    @property
    def letters(self) -> tuple:
        """All one-letter monomials: positive generators, then inverses in order."""
        return tuple(range(1, self.d + 1)) + tuple(-i for i in self.inverted)

    def letter_weights(self, base) -> tuple:
        """The weight vector on ``letters``: ``base`` on the positive
        generators, and on each inverse letter the negated weight of its
        generator (the unique consistent extension)."""
        base = tuple(base)
        return base + tuple(-base[i - 1] for i in self.inverted)

    def weight_vector(self, weights) -> tuple:
        """``weights`` as exact ``Fraction``s, one per letter of ``letters``;
        a float, a string or a vector of another length is a ValueError."""
        weights = tuple(Fraction(exact(w)) for w in weights)
        if len(weights) != len(self.letters):
            raise ValueError(f"expected {len(self.letters)} weights, got {len(weights)}")
        return weights

    def validate_word(self, w: Word):
        for g in w:
            if type(g) is not int:
                raise ValueError(f"letter {g!r} is not an int")
            if g == 0 or abs(g) > self.d:
                raise ValueError(f"letter {g} out of range for {self}")
            if g < 0 and -g not in self.inverted:
                raise ValueError(f"generator {self.names[-g - 1]} is not invertible")
        if reduce_word(w) != tuple(w):
            raise ValueError(f"word {w!r} is not reduced")

    # -- constructors -------------------------------------------------------

    def _linear(self, cls, terms: dict):
        """A ``cls`` of validated terms, each coefficient in its stored form."""
        clean = {}
        for key, c in terms.items():
            words = tuple(tuple(w) for w in ((key,) if cls.arity == 1 else key))
            if len(words) != cls.arity:
                raise ValueError(f"expected {cls.arity} words per term, got {key!r}")
            for w in words:
                self.validate_word(w)
            c = exact(c)
            if c:
                _merge_term(clean, words if cls.arity > 1 else words[0], c)
        return cls(self, clean)

    def element(self, terms: dict) -> "Element":
        return self._linear(Element, terms)

    def zero(self) -> "Element":
        return Element(self, {})

    def one(self) -> "Element":
        return Element(self, {(): 1})

    def gen(self, i: int) -> "Element":
        if type(i) is not int:
            raise ValueError(f"generator index {i!r} is not an int")
        if not 1 <= i <= self.d:
            raise ValueError(f"generator index {i} out of range")
        return Element(self, {(i,): 1})

    def tensor2(self, terms: dict) -> "Tensor2":
        return self._linear(Tensor2, terms)

    # -- enumeration and rendering ------------------------------------------

    def words_up_to(self, maxdeg: int, include_unit: bool = True):
        """All reduced words of degree <= maxdeg, in deglex order.

        More than ``MAX_WORDS`` words is a ValueError, raised before any is
        built: every sweep over them is at least quadratic in their number.
        So is a degree below 1, over which a sweep would pass vacuously, and
        one that is not an int (a bool is not a degree).
        """
        if type(maxdeg) is not int or maxdeg < 1:
            raise ValueError(f"degree must be an int of at least 1, got {maxdeg!r}")
        # reduced words of each length: a word ending in one of the 2 * len(inverted)
        # invertible letters cannot be followed by that letter's inverse
        n, m = len(self.letters), 2 * len(self.inverted)
        total, count, ending_invertible = int(include_unit), 1, 0
        for _ in range(maxdeg):
            count, ending_invertible = n * count - ending_invertible, m * count - ending_invertible
            total += count
            if total > MAX_WORDS:
                raise ValueError(f"degree {maxdeg} gives more than {MAX_WORDS} words")
        letters = sorted(self.letters, key=letter_key)
        out = [()] if include_unit else []
        level = [()]
        for _ in range(maxdeg):
            nxt = []
            for w in level:
                last = w[-1] if w else 0
                for g in letters:
                    if g != -last:
                        nxt.append(w + (g,))
            out.extend(nxt)
            level = nxt
        return out

    def render_word(self, w: Word) -> str:
        if not w:
            return "1"
        parts = []
        for g in w:
            name = self.names[abs(g) - 1]
            parts.append(name if g > 0 else name + "^-1")
        return "*".join(parts)

    def __str__(self):
        gens = ", ".join(
            n + "^±1" if (i + 1) in self.inverted else n
            for i, n in enumerate(self.names)
        )
        return f"K<{gens}>"

    def describe(self) -> dict:
        return {"generators": list(self.names), "inverted": list(self.inverted)}


# ---------------------------------------------------------------------------
# sparse linear-combination containers


class _Linear:
    """Shared machinery for sparse rational combinations keyed by word tuples."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: FreeAlgebra, terms: dict):
        self.algebra = algebra
        self.terms = terms

    def __bool__(self):
        return bool(self.terms)

    def items(self):
        """Terms in canonical order."""
        if self.arity == 1:
            return sorted(self.terms.items(), key=lambda kv: word_key(kv[0]))
        return sorted(self.terms.items(), key=lambda kv: tuple(map(word_key, kv[0])))

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self.algebra == other.algebra
            and self.terms == other.terms
        )

    __hash__ = None

    def _binop(self, other, sign):
        if type(other) is not type(self) or other.algebra != self.algebra:
            return NotImplemented
        terms = dict(self.terms)
        for k, c in other.terms.items():
            _merge_term(terms, k, sign * c)
        return type(self)(self.algebra, terms)

    def __add__(self, other):
        return self._binop(other, 1)

    def __sub__(self, other):
        return self._binop(other, -1)

    def __neg__(self):
        return type(self)(self.algebra, {k: -c for k, c in self.terms.items()})

    def scale(self, c):
        c = exact(c)
        if not c:
            return type(self)(self.algebra, {})
        return type(self)(self.algebra, {k: c * v for k, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if type(other) is not type(self):
            return NotImplemented
        if other.algebra != self.algebra:
            raise ValueError("algebra mismatch")
        terms = {}
        for ka, c1 in self.terms.items():
            for kb, c2 in other.terms.items():
                key = concat(ka, kb) if self.arity == 1 else tuple(map(concat, ka, kb))
                _merge_term(terms, key, c1 * c2)
        return type(self)(self.algebra, terms)

    def __rmul__(self, c):
        if isinstance(c, (int, Fraction)):
            return self.scale(c)
        return NotImplemented

    def __str__(self):
        return render_terms(self.algebra, self.terms, self.arity)

    __repr__ = __str__


class Element(_Linear):
    """A sparse rational combination of words: an element of the algebra."""

    arity = 1


class Tensor2(_Linear):
    """Sparse element of the tensor square, keyed by pairs of words."""

    arity = 2


class Tensor3(_Linear):
    """Sparse element of the tensor cube, keyed by triples of words."""

    arity = 3


# ---------------------------------------------------------------------------
# rendering


class WordNames(dict):
    """The memo of (sort key, name) per word that :func:`render_terms` reads,
    owned by its caller.  Keyed by the words themselves or, given ``word_of``
    (a sequence or a map), by keys k standing for the words ``word_of[k]``,
    as interned ids do."""

    def __init__(self, algebra: FreeAlgebra, word_of=None):
        super().__init__()
        self.algebra = algebra
        self.word_of = word_of

    def __missing__(self, k):
        w = k if self.word_of is None else self.word_of[k]
        entry = self[k] = (word_key(w), self.algebra.render_word(w))
        return entry


def render_terms(algebra: FreeAlgebra, terms: dict, arity: int, names: WordNames = None) -> str:
    """The canonical text of the raw terms {key: coef}, a key being a word
    (arity 1) or a tuple of ``arity`` words, in deglex order of its words.
    A caller rendering many dicts passes one ``names`` memo for them all.
    A leading unit word prints as its coefficient, a coefficient of
    magnitude 1 on any other first word is left out, and no terms print 0.
    """
    if not terms:
        return "0"
    if names is None:
        names = WordNames(algebra)
    name = names.__getitem__
    # distinct words have distinct sort keys, so rows never compare past them
    rows = sorted((tuple(map(name, key)) if arity > 1 else (name(key),), c) for key, c in terms.items())
    chunks = []
    for entries, c in rows:
        mag = coef_str(c)
        neg = mag[0] == "-"
        if neg:
            mag = mag[1:]
        parts = [e[1] for e in entries]
        if not entries[0][0][0]:  # the unit word: its key has length 0
            parts[0] = mag
        elif mag != "1":
            parts[0] = f"{mag}*{parts[0]}"
        body = " (x) ".join(parts)
        if not chunks:
            chunks.append(("-" if neg else "") + body)
        else:
            chunks.append(("- " if neg else "+ ") + body)
    return " ".join(chunks)
