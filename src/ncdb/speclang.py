"""A small declarative language for bracket specifications (.ndb files).

Grammar (EBNF; whitespace-insensitive, '#' starts a line comment)::

    document   = statement+ ;
    statement  = name_stmt | algebra_stmt | weight_stmt | bracket_stmt ;
    name_stmt  = "name" IDENT ";" ;
    algebra_stmt = "algebra" gen_decl+ ";" ;
    gen_decl   = IDENT [ "inv" ] ;
    weight_stmt = "weight" rational+ ";" ;
    bracket_stmt = "bracket" "{" IDENT "," IDENT "}" "=" tensor ";" ;
    tensor     = [ "-" ] term { ("+" | "-") term } | "0" ;
    term       = side "(x)" side ;
    side       = [ coef "*" ] word | coef | word ;
    coef       = INT [ "/" INT ] ;
    word       = factor { "*" factor } | "1" ;
    factor     = IDENT [ "^" [ "-" ] INT ] ;

"(x)" is the tensor separator; a Unicode tensor sign is accepted as an
alias on input.  "1" denotes the unit monomial, "x^-1" an inverse letter
(the generator must be declared "inv"); exponents are at most 64 in
absolute value.  A single-token lookahead suffices throughout.  Rendering
is canonical: structurally equal documents render to identical text, and
parse(render(doc)) == doc.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .freealg import FreeAlgebra, coef_str, exact, reduce_word, render_terms, word_key
from .bracket import BracketSpec

KEYWORDS = {"name", "algebra", "weight", "bracket", "inv"}
TENSOR_SEP = "(x)"
MAX_EXPONENT = 64


class ParseError(Exception):
    """Syntax or validation error with source position and expectation info."""

    def __init__(self, message, line, col):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# lexer

_SYMBOLS = {"{", "}", "=", ",", ";", "+", "-", "*", "/", "^"}


@dataclass(frozen=True)
class Token:
    kind: str  # IDENT, INT, SYM, TENSOR, EOF
    text: str
    line: int
    col: int


def tokenize(text: str):
    toks = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
        elif ch.isspace():
            i += 1
            col += 1
        elif ch == "#":
            while i < n and text[i] != "\n":
                i += 1
        elif ch == "(":
            if text[i : i + 3] == "(x)":
                toks.append(Token("TENSOR", TENSOR_SEP, line, col))
                i += 3
                col += 3
            else:
                raise ParseError("expected the tensor separator '(x)'", line, col)
        elif ch == "⊗":  # tensor sign alias
            toks.append(Token("TENSOR", TENSOR_SEP, line, col))
            i += 1
            col += 1
        elif ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(Token("INT", text[i:j], line, col))
            col += j - i
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(Token("IDENT", text[i:j], line, col))
            col += j - i
            i = j
        elif ch in _SYMBOLS:
            toks.append(Token("SYM", ch, line, col))
            i += 1
            col += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col)
    toks.append(Token("EOF", "", line, col))
    return toks


# ---------------------------------------------------------------------------
# document model


@dataclass(frozen=True)
class GenDecl:
    name: str
    invertible: bool = False


@dataclass
class SpecDocument:
    """Parsed form of a .ndb file.

    ``entries`` maps (i, j) generator index pairs to sorted tuples of
    ((word, word), coefficient) terms, each coefficient in the stored form
    of :func:`ncdb.freealg.exact`; zero entries are dropped and term order
    is canonical, so document equality is structural equality.
    """

    generators: tuple
    entries: dict = field(default_factory=dict)
    weights: tuple = None
    name: str = None

    def __post_init__(self):
        self.generators = tuple(self.generators)
        if self.weights is not None:
            self.weights = tuple(Fraction(exact(w)) for w in self.weights)
            if len(self.weights) != len(self.generators):
                raise ValueError("one weight per generator required")
        norm = {}
        for pair, terms in self.entries.items():
            terms = tuple(sorted(
                ((k, exact(c)) for k, c in dict(terms).items() if exact(c)),
                key=lambda kc: (word_key(kc[0][0]), word_key(kc[0][1])),
            ))
            if terms:
                norm[pair] = terms
        self.entries = norm

    @property
    def algebra(self) -> FreeAlgebra:
        return FreeAlgebra(
            tuple(g.name for g in self.generators),
            tuple(i + 1 for i, g in enumerate(self.generators) if g.invertible),
        )

    def to_spec(self):
        """Build the (BracketSpec, weights-or-None) pair the document denotes.

        The stored weight block covers the positive generators; on a
        localised algebra it is extended with the forced negated entries.
        """
        alg = self.algebra
        table = {
            pair: alg.tensor2(dict(terms)) for pair, terms in self.entries.items()
        }
        weights = None if self.weights is None else alg.letter_weights(self.weights)
        return BracketSpec(alg, table, weights), weights


def doc_from_spec(spec: BracketSpec, name=None) -> SpecDocument:
    alg = spec.algebra
    gens = tuple(
        GenDecl(n, (i + 1) in alg.inverted) for i, n in enumerate(alg.names)
    )
    weights = None
    if spec.weight is not None:
        weights = tuple(spec.weight[: alg.d])
    entries = {pair: tuple(u.terms.items()) for pair, u in spec.table.items()}
    return SpecDocument(gens, entries, weights, name)


# ---------------------------------------------------------------------------
# parser


class _Parser:
    def __init__(self, text):
        self.toks = tokenize(text)
        self.pos = 0

    @property
    def cur(self) -> Token:
        return self.toks[self.pos]

    def advance(self) -> Token:
        t = self.cur
        self.pos += 1
        return t

    def fail(self, expected):
        t = self.cur
        got = t.text or "end of input"
        raise ParseError(f"expected {expected}, found {got!r}", t.line, t.col)

    def expect(self, kind, text=None) -> Token:
        t = self.cur
        if t.kind != kind or (text is not None and t.text != text):
            self.fail(text or kind)
        return self.advance()

    def at_sym(self, text) -> bool:
        return self.cur.kind == "SYM" and self.cur.text == text

    # -- grammar -----------------------------------------------------------

    def document(self) -> SpecDocument:
        name = None
        gens = None
        weights = None
        raw_entries = []  # (pair names, terms) resolved after the algebra block
        while self.cur.kind != "EOF":
            t = self.cur
            if t.kind != "IDENT":
                self.fail("a statement keyword")
            if t.text == "name":
                self.advance()
                name = self.expect("IDENT").text
                self.expect("SYM", ";")
            elif t.text == "algebra":
                if gens is not None:
                    raise ParseError("duplicate algebra block", t.line, t.col)
                self.advance()
                gens = self.algebra_block()
            elif t.text == "weight":
                if weights is not None:
                    raise ParseError("duplicate weight block", t.line, t.col)
                self.advance()
                weights = self.weight_block()
            elif t.text == "bracket":
                self.advance()
                raw_entries.append(self.bracket_stmt())
            else:
                self.fail("'name', 'algebra', 'weight' or 'bracket'")
        if gens is None:
            raise ParseError("missing algebra block", self.cur.line, self.cur.col)
        index = {g.name: i + 1 for i, g in enumerate(gens)}
        entries = {}
        for (n1, t1), (n2, t2), terms in raw_entries:
            pair = []
            for nm, tok in ((n1, t1), (n2, t2)):
                if nm not in index:
                    raise ParseError(f"undeclared generator {nm!r}", tok.line, tok.col)
                pair.append(index[nm])
            pair = tuple(pair)
            if pair in entries:
                raise ParseError(
                    f"duplicate bracket entry for ({n1},{n2})", t1.line, t1.col
                )
            resolved = {}
            for (w1, w2), c in terms:
                k = (self.resolve_word(w1, index, gens), self.resolve_word(w2, index, gens))
                resolved[k] = resolved.get(k, 0) + c
            entries[pair] = tuple(resolved.items())
        if weights is not None and len(weights) != len(gens):
            raise ParseError(
                f"weight block has {len(weights)} entries for {len(gens)} generators",
                self.cur.line,
                self.cur.col,
            )
        return SpecDocument(tuple(gens), entries, weights, name)

    def resolve_word(self, word, index, gens):
        letters = []
        for nm, exp, tok in word:
            if nm not in index:
                raise ParseError(f"undeclared generator {nm!r}", tok.line, tok.col)
            g = index[nm]
            if exp < 0 and not gens[g - 1].invertible:
                raise ParseError(
                    f"generator {nm!r} is not invertible", tok.line, tok.col
                )
            letters.extend([g if exp > 0 else -g] * abs(exp))
        return reduce_word(letters)

    def algebra_block(self):
        gens = []
        while not self.at_sym(";"):
            t = self.expect("IDENT")
            if t.text in KEYWORDS:
                raise ParseError(
                    f"{t.text!r} is reserved and cannot name a generator", t.line, t.col
                )
            inv = False
            if self.cur.kind == "IDENT" and self.cur.text == "inv":
                self.advance()
                inv = True
            gens.append(GenDecl(t.text, inv))
        self.expect("SYM", ";")
        if not gens:
            self.fail("at least one generator name")
        return tuple(gens)

    def weight_block(self):
        vals = []
        while not self.at_sym(";"):
            vals.append(self.rational())
        self.expect("SYM", ";")
        if not vals:
            self.fail("at least one weight")
        return tuple(vals)

    def rational(self) -> Fraction:
        sign = 1
        if self.at_sym("-"):
            self.advance()
            sign = -1
        num = int(self.expect("INT").text)
        if self.at_sym("/"):
            self.advance()
            den = int(self.expect("INT").text)
            if den == 0:
                self.fail("a nonzero denominator")
            return Fraction(sign * num, den)
        return Fraction(sign * num)

    def bracket_stmt(self):
        self.expect("SYM", "{")
        t1 = self.cur
        n1 = self.expect("IDENT").text
        self.expect("SYM", ",")
        t2 = self.cur
        n2 = self.expect("IDENT").text
        self.expect("SYM", "}")
        self.expect("SYM", "=")
        terms = self.tensor_expr()
        self.expect("SYM", ";")
        return (n1, t1), (n2, t2), terms

    def tensor_expr(self):
        terms = []
        sign = 1
        if self.at_sym("-"):
            self.advance()
            sign = -1
        terms.extend(self.term(sign))
        while self.at_sym("+") or self.at_sym("-"):
            sign = 1 if self.advance().text == "+" else -1
            terms.extend(self.term(sign))
        return terms

    def term(self, sign):
        c1, w1 = self.side()
        if self.cur.kind != "TENSOR":
            if c1 == 0 and not w1:
                return []  # a literal 0 stands for the zero tensor
            self.fail("'(x)'")
        self.advance()
        c2, w2 = self.side()
        c = sign * c1 * c2
        if c == 0:
            return []
        return [((w1, w2), c)]

    def side(self):
        """One tensor factor: optional rational coefficient times a word.

        Returns (coef, word-as-(name, exp, token)-list).  A bare integer is a
        multiple of the unit monomial; '0' makes the whole term vanish.
        """
        if self.cur.kind == "INT":
            c = self.rational()
            if self.at_sym("*"):
                self.advance()
                return c, self.word()
            return c, []
        if self.cur.kind == "IDENT":
            return Fraction(1), self.word()
        self.fail("a coefficient or a word")

    def word(self):
        factors = [self.factor()]
        while self.at_sym("*"):
            self.advance()
            factors.append(self.factor())
        return factors

    def factor(self):
        t = self.expect("IDENT")
        exp = 1
        if self.at_sym("^"):
            self.advance()
            sign = 1
            if self.at_sym("-"):
                self.advance()
                sign = -1
            n = self.expect("INT")
            exp = sign * int(n.text)
            if exp == 0:
                self.fail("a nonzero exponent")
            if abs(exp) > MAX_EXPONENT:  # x^N expands to N letters
                raise ParseError(f"exponent {exp} exceeds {MAX_EXPONENT} in absolute value", n.line, n.col)
        return (t.text, exp, t)


def parse(text: str) -> SpecDocument:
    return _Parser(text).document()


# ---------------------------------------------------------------------------
# renderer


def render(doc: SpecDocument) -> str:
    alg = doc.algebra
    lines = []
    if doc.name:
        lines.append(f"name {doc.name};")
    gens = " ".join(
        g.name + (" inv" if g.invertible else "") for g in doc.generators
    )
    lines.append(f"algebra {gens};")
    if doc.weights is not None:
        lines.append("weight " + " ".join(coef_str(w) for w in doc.weights) + ";")
    for (i, j) in sorted(doc.entries):
        n1, n2 = doc.generators[i - 1].name, doc.generators[j - 1].name
        lines.append(
            f"bracket {{{n1},{n2}}} = {render_terms(alg, doc.entries[(i, j)], 2)};"
        )
    return "\n".join(lines) + "\n"


def quadratic_warnings(doc: SpecDocument):
    """Informational notices for entries that are not homogeneous quadratic."""
    notes = []
    for (i, j), terms in sorted(doc.entries.items()):
        if any(len(w1) + len(w2) != 2 for (w1, w2), _ in terms):
            n1 = doc.generators[i - 1].name
            n2 = doc.generators[j - 1].name
            notes.append(f"entry ({n1},{n2}) is not homogeneous quadratic")
    return notes
