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

Tokens: an IDENT is a letter or "_", then any letters, digits and "_"
(Unicode ones too, as ``str.isalnum``: "α" and "x٣" are names, "²x" is
not); an INT is a run of at most 4,300 ASCII digits 0-9 (fewer under a
lower ``int()`` digit limit).  "⊗" is an alias for the tensor separator
"(x)", and "#" comments out the rest of its line.  A column counts each
character of its line, a tab as one, from 1.  "1" denotes the unit
monomial, "x^-1" an inverse letter (the generator must be declared "inv");
exponents are at most 64 in absolute value.  A single-token lookahead
suffices throughout.

A document is what fixes a double bracket: a :class:`BracketSpec` (an
algebra, the :class:`Tensor2` value of each ordered pair of generators and
an optional weight) plus an optional name.  The parser builds the spec
through the algebra's own constructors, and an entry renders as its
canonical ``str``, so equal documents render to identical text, and
parse(render(doc)) == doc.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .freealg import MAX_GENERATORS, FreeAlgebra, coef_str, digit_cap, reduce_word
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

# one alternative per token kind, as the module docstring states them
_TOKEN = re.compile(r"(?P<NL>\n)|(?P<SKIP>[^\S\n]+|#[^\n]*)|(?P<TENSOR>\(x\)|⊗)|(?P<INT>[0-9]+)"
                    r"|(?P<IDENT>\w+)|(?P<SYM>[-{}=,;+*/^])|(?P<BAD>.)")


class Token(NamedTuple):
    kind: str  # IDENT, INT, SYM, TENSOR, EOF
    text: str
    line: int
    col: int


def tokenize(text: str):
    cap = digit_cap()  # int() refuses a longer digit string
    toks = []
    line, start = 1, 0  # start: the offset of the current line
    for m in _TOKEN.finditer(text):
        kind, tok, col = m.lastgroup, m.group(), m.start() - start + 1
        if kind == "NL":
            line, start = line + 1, m.end()
        elif kind == "BAD" or kind == "IDENT" and not (tok[0].isalpha() or tok[0] == "_"):
            # \w also takes digits of other scripts and superscripts, which may not start a name
            message = "expected the tensor separator '(x)'" if tok == "(" else f"unexpected character {tok[0]!r}"
            raise ParseError(message, line, col)
        elif kind == "INT" and len(tok) > cap:
            raise ParseError(f"integer of more than {cap} digits", line, col)
        elif kind != "SKIP":
            toks.append(Token(kind, TENSOR_SEP if kind == "TENSOR" else tok, line, col))
    toks.append(Token("EOF", "", line, len(text) - start + 1))
    return toks


# ---------------------------------------------------------------------------
# document model


@dataclass(frozen=True)
class SpecDocument:
    """A .ndb document: the :class:`BracketSpec` it denotes and a name.

    The spec holds the algebra, the table and the weight vector on the
    algebra's letters, and makes every check on them; documents compare by
    their specs' algebras, tables and weights, and by their names.
    """

    spec: BracketSpec
    name: str = None

    def to_spec(self):
        """The (BracketSpec, weights-or-None) pair the document denotes."""
        return self.spec, self.spec.weight


def doc_from_spec(spec: BracketSpec, name=None) -> SpecDocument:
    return SpecDocument(spec, name)


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
            self.fail(f"'{text}'" if text else {"IDENT": "a name", "INT": "an integer"}[kind])
        return self.advance()

    def at_sym(self, text) -> bool:
        return self.cur.kind == "SYM" and self.cur.text == text

    def nonzero_int(self, expected) -> Token:
        if self.cur.kind == "INT" and int(self.cur.text) == 0:
            self.fail(expected)
        return self.expect("INT")

    def sign(self) -> int:
        """-1 after an optional leading '-', which it consumes, else 1."""
        if self.at_sym("-"):
            self.advance()
            return -1
        return 1

    def one_or_more(self, item, what) -> list:
        """The values of ``item()`` read once or more, up to the ';' that ends the statement."""
        if self.at_sym(";"):
            self.fail(f"at least one {what}")
        vals = []
        while not self.at_sym(";"):
            vals.append(item())
        return vals

    # -- grammar -----------------------------------------------------------

    def document(self) -> SpecDocument:
        once = {"name": (lambda: self.expect("IDENT").text, "name statement"),
                "algebra": (self.algebra_stmt, "algebra block"), "weight": (self.weight_stmt, "weight block")}
        found = {}  # keyword -> (its token, its value), for each once-only statement read
        raw_entries = []  # (two factors, terms), resolved after the algebra block
        while self.cur.kind != "EOF":
            t = self.cur
            if t.kind != "IDENT":
                self.fail("a statement keyword")
            if t.text == "bracket":
                self.advance()
                raw_entries.append(self.bracket_stmt())
            elif t.text in once:
                stmt, what = once[t.text]
                if t.text in found:
                    raise ParseError(f"duplicate {what}", t.line, t.col)
                self.advance()
                found[t.text] = t, stmt()
            else:
                self.fail("'name', 'algebra', 'weight' or 'bracket'")
            self.expect("SYM", ";")
        if "algebra" not in found:
            raise ParseError("missing algebra block", self.cur.line, self.cur.col)
        alg = found["algebra"][1]
        index = {n: i + 1 for i, n in enumerate(alg.names)}
        table = {}
        for f1, f2, terms in raw_entries:
            pair = tuple(self.resolve_word([f], index, alg)[0] for f in (f1, f2))
            if pair in table:
                raise ParseError(f"duplicate bracket entry for ({f1[0]},{f2[0]})", f1[2].line, f1[2].col)
            resolved = {}
            for (w1, w2), c in terms:
                k = (self.resolve_word(w1, index, alg), self.resolve_word(w2, index, alg))
                resolved[k] = resolved.get(k, 0) + c
            table[pair] = alg.tensor2(resolved)
        weight_tok, weights = found.get("weight", (None, None))
        if weights is not None and len(weights) != alg.d:
            raise ParseError(f"weight block has {len(weights)} entries for {alg.d} generators",
                             weight_tok.line, weight_tok.col)
        weights = None if weights is None else alg.letter_weights(weights)
        return SpecDocument(BracketSpec(alg, table, weights), found.get("name", (None, None))[1])

    def resolve_word(self, word, index, alg):
        letters = []
        for nm, exp, tok in word:
            if nm not in index:
                raise ParseError(f"undeclared generator {nm!r}", tok.line, tok.col)
            g = index[nm]
            if exp < 0 and g not in alg.inverted:
                raise ParseError(f"generator {nm!r} is not invertible", tok.line, tok.col)
            letters.extend([g if exp > 0 else -g] * abs(exp))
        return reduce_word(letters)

    def algebra_stmt(self) -> FreeAlgebra:
        names = []

        def gen_decl():  # whether the generator is inverted
            t = self.expect("IDENT")
            if t.text in KEYWORDS:
                raise ParseError(
                    f"{t.text!r} is reserved and cannot name a generator", t.line, t.col
                )
            if t.text in names:
                raise ParseError(f"duplicate generator {t.text!r}", t.line, t.col)
            if len(names) == MAX_GENERATORS:
                raise ParseError(f"more than {MAX_GENERATORS} generators", t.line, t.col)
            names.append(t.text)
            inv = self.cur.kind == "IDENT" and self.cur.text == "inv"
            if inv:
                self.advance()
            return inv

        invs = self.one_or_more(gen_decl, "generator name")
        return FreeAlgebra(tuple(names), tuple(i + 1 for i, inv in enumerate(invs) if inv))

    def weight_stmt(self):
        return tuple(self.one_or_more(self.rational, "weight"))

    def rational(self) -> Fraction:
        num = self.sign() * int(self.expect("INT").text)
        if self.at_sym("/"):
            self.advance()
            return Fraction(num, int(self.nonzero_int("a nonzero denominator").text))
        return Fraction(num)

    def bracket_stmt(self):
        """The two generators, as one-letter factors, and the terms."""
        self.expect("SYM", "{")
        t1 = self.expect("IDENT")
        self.expect("SYM", ",")
        t2 = self.expect("IDENT")
        self.expect("SYM", "}")
        self.expect("SYM", "=")
        terms = self.tensor_expr()
        return (t1.text, 1, t1), (t2.text, 1, t2), terms

    def tensor_expr(self):
        terms = self.term(self.sign())
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
        return [((w1, w2), sign * c1 * c2)]

    def side(self):
        """One tensor factor: optional rational coefficient times a word.

        Returns (coef, word-as-(name, exp, token)-list).  A bare integer is a
        multiple of the unit monomial; a 0 drops the term once its words resolve.
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
            sign = self.sign()
            n = self.nonzero_int("a nonzero exponent")
            exp = sign * int(n.text)
            if abs(exp) > MAX_EXPONENT:  # x^N expands to N letters
                raise ParseError(f"exponent {exp} exceeds {MAX_EXPONENT} in absolute value", n.line, n.col)
        return (t.text, exp, t)


def parse(text: str) -> SpecDocument:
    return _Parser(text).document()


# ---------------------------------------------------------------------------
# renderer


def render(doc: SpecDocument) -> str:
    spec, alg = doc.spec, doc.spec.algebra
    lines = []
    if doc.name:
        lines.append(f"name {doc.name};")
    gens = " ".join(
        n + (" inv" if i + 1 in alg.inverted else "") for i, n in enumerate(alg.names)
    )
    lines.append(f"algebra {gens};")
    if spec.weight is not None:
        lines.append("weight " + " ".join(coef_str(w) for w in spec.weight[: alg.d]) + ";")
    for (i, j), u in sorted(spec.table.items()):
        lines.append(f"bracket {{{alg.names[i - 1]},{alg.names[j - 1]}}} = {u};")
    return "\n".join(lines) + "\n"


def quadratic_warnings(doc: SpecDocument):
    """Informational notices for entries that are not homogeneous quadratic."""
    names = doc.spec.algebra.names
    return [
        f"entry ({names[i - 1]},{names[j - 1]}) is not homogeneous quadratic"
        for (i, j), u in sorted(doc.spec.table.items())
        if any(len(w1) + len(w2) != 2 for w1, w2 in u.terms)
    ]
