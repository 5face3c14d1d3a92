import argparse
import dataclasses
import io
import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from ncdb import axioms, classify, cli, repspace
from ncdb.axioms import modified_double_poisson_battery
from ncdb.cli import _emit_reports, main
from ncdb.classify import FamilyParams, build, builtin
from ncdb.localize import localize
from ncdb.bracket import BracketSpec
from ncdb.freealg import FreeAlgebra, digit_cap, reduce_word
from ncdb.speclang import (
    ParseError,
    SpecDocument,
    doc_from_spec,
    parse,
    quadratic_warnings,
    render,
    tokenize,
)

SPECS = Path(__file__).resolve().parents[1] / "perfbench" / "specs"


class TestParse:
    def test_basic_entry(self):
        doc = parse("algebra x1 x2 x3; bracket {x1,x2} = -1 * x2*x1 (x) 1;")
        spec, weights = doc.to_spec()
        assert weights is None
        alg = spec.algebra
        assert spec.letter_bracket(1, 2) == alg.tensor2({((2, 1), ()): -1})

    def test_empty_bracket_block_is_zero_spec(self):
        doc = parse("algebra x1 x2;")
        spec, _ = doc.to_spec()
        assert not spec.table

    def test_zero_entry(self):
        for rhs in ("0", "0 (x) x2", "0*x1 (x) x2 + x1 (x) 0*x2"):
            doc = parse(f"algebra x1 x2; bracket {{x1,x2}} = {rhs};")
            assert doc.spec.table == {}

    def test_inverse_letters_with_inv_marker(self):
        doc = parse("algebra x1 inv x2; bracket {x1,x2} = x1^-1 (x) x2;")
        spec, _ = doc.to_spec()
        assert spec.letter_bracket(1, 2) == spec.algebra.tensor2({((-1,), (2,)): 1})

    def test_inverse_letter_without_inv_rejected(self):
        with pytest.raises(ParseError) as ei:
            parse("algebra x1 x2; bracket {x1,x2} = x1^-1 (x) x2;")
        assert "not invertible" in str(ei.value)

    def test_weights_and_name(self):
        doc = parse("name demo; algebra v w; weight 1 -1/2; bracket {v,w} = 2/3*v (x) w;")
        assert doc.name == "demo"
        assert doc.spec.weight == (1, Fraction(-1, 2))
        spec, weights = doc.to_spec()
        assert weights == (1, Fraction(-1, 2))

    def test_weight_extends_on_laurent(self):
        doc = parse("algebra v inv w; weight 1 -1;")
        _, weights = doc.to_spec()
        assert weights == (1, -1, -1)

    def test_comments_and_unicode_tensor(self):
        doc = parse("algebra v w;  # generators\nbracket {v,w} = v ⊗ w;")
        assert doc.spec.table[(1, 2)].terms == {((1,), (2,)): 1}

    def test_exponent_expansion_and_reduction(self):
        doc = parse("algebra v inv w; bracket {v,w} = v^2 (x) v^-2; bracket {w,v} = v*v^-1 (x) w;")
        spec, _ = doc.to_spec()
        assert spec.letter_bracket(1, 2) == spec.algebra.tensor2({((1, 1), (-1, -1)): 1})
        assert spec.letter_bracket(2, 1) == spec.algebra.tensor2({((), (2,)): 1})

    def test_exponent_cap(self):
        doc = parse("algebra v inv; bracket {v,v} = v^64 (x) v^-64;")
        assert doc.spec.table[(1, 1)].terms == {((1,) * 64, (-1,) * 64): 1}
        for exp in ("65", "-65"):
            with pytest.raises(ParseError) as ei:
                parse(f"algebra v inv; bracket {{v,v}} = v^{exp} (x) 1;")
            assert "exceeds 64" in ei.value.message

    def test_error_positions(self):
        with pytest.raises(ParseError) as ei:
            parse("algebra v w;\nbracket {v,u} = v (x) w;")
        assert ei.value.line == 2
        assert "undeclared" in ei.value.message
        with pytest.raises(ParseError) as ei:
            parse("algebra v w;\nbracket {v,w} = v (y) w;")
        assert ei.value.line == 2 and "(x)" in ei.value.message

    @pytest.mark.parametrize("text,line,col", [
        ("algebra x;\nweight 1 \u00b2;", 2, 10),                    # superscript two
        ("algebra x;\nbracket {x,x} = x^\u00b2 (x) 1;", 2, 19),     # as an exponent
        ("algebra x;\nbracket {x,x} = \u0663*x (x) 1;", 2, 17),     # Arabic-Indic three
    ], ids=["superscript", "exponent", "arabic_indic"])
    def test_only_ascii_digits_are_numbers(self, text, line, col):
        with pytest.raises(ParseError) as ei:
            parse(text)
        assert (ei.value.line, ei.value.col) == (line, col)
        assert "unexpected character" in ei.value.message

    def test_unicode_names(self):
        """A name starts with a Unicode letter or "_" and goes on with letters
        and digits of any script; each token's column counts characters."""
        text = "algebra \u03b1 x\u0663;\nbracket {\u03b1,x\u0663} = x\u0663 \u2297 \u03b1;"
        doc = parse(text)
        assert doc.spec.algebra.names == ("\u03b1", "x\u0663")
        assert doc.spec.table[(1, 2)].terms == {((2,), (1,)): 1}
        toks = [(t.kind, t.text, t.line, t.col) for t in tokenize(text)]
        assert toks[1:4] == [("IDENT", "\u03b1", 1, 9), ("IDENT", "x\u0663", 1, 11), ("SYM", ";", 1, 13)]
        assert toks[-5:] == [("IDENT", "x\u0663", 2, 18), ("TENSOR", "(x)", 2, 21), ("IDENT", "\u03b1", 2, 23),
                             ("SYM", ";", 2, 24), ("EOF", "", 2, 25)]

    def test_missing_algebra(self):
        with pytest.raises(ParseError) as ei:
            parse("bracket {v,w} = v (x) w;")
        assert "undeclared" in ei.value.message or "algebra" in ei.value.message

    def test_duplicate_entry_rejected(self):
        with pytest.raises(ParseError) as ei:
            parse("algebra v w; bracket {v,w} = v (x) w; bracket {v,w} = w (x) v;")
        assert "duplicate" in ei.value.message

    @pytest.mark.parametrize("text,line,col,message", [
        ("name a;\nalgebra x y;\nname b;", 3, 1, "duplicate name statement"),
        ("algebra x y\n  x;", 2, 3, "duplicate generator 'x'"),
        ("algebra x y;\nweight 1;\n", 2, 1, "weight block has 1 entries for 2 generators"),
        ("weight 1 2 3;\nalgebra x y;\n", 1, 1, "weight block has 3 entries for 2 generators"),
        ("algebra x;\n;", 2, 1, "expected a statement keyword, found ';'"),
        ("algebra x;\nbracet {x,x} = 0;", 2, 1, "expected 'name', 'algebra', 'weight' or 'bracket', found 'bracet'"),
        ("algebra x;\nalgebra y;", 2, 1, "duplicate algebra block"),
        ("weight 1;\nalgebra x;\nweight 2;", 3, 1, "duplicate weight block"),
        ("algebra ;", 1, 9, "expected at least one generator name, found ';'"),
        ("algebra x;\nweight ;", 2, 8, "expected at least one weight, found ';'"),
        ("algebra x;\nweight 1/0;", 2, 10, "expected a nonzero denominator, found '0'"),
        ("algebra x;\nbracket {x,x} = x^0 (x) 1;", 2, 19, "expected a nonzero exponent, found '0'"),
        ("algebra x;\nbracket {x,x} = x;", 2, 18, "expected '(x)', found ';'"),
        ("algebra x;\nbracket {x,x} = + x (x) x;", 2, 17, "expected a coefficient or a word, found '+'"),
        ("algebra x;\nbracket {x x} = 0;", 2, 12, "expected ',', found 'x'"),
        # a zero coefficient does not excuse a word from resolving
        ("algebra v w; bracket {v,w} = 0*u (x) w;", 1, 32, "undeclared generator 'u'"),
        ("algebra v w; bracket {v,w} = 0 (x) u;", 1, 36, "undeclared generator 'u'"),
        ("algebra v w; bracket {v,w} = 0*v^-1 (x) w;", 1, 32, "generator 'v' is not invertible"),
        # int() refuses more than 4,300 digits; the lexer refuses the token first
        ("algebra x; weight " + "9" * 5000 + ";", 1, 19, "integer of more than 4300 digits"),
        ("algebra x;\nbracket {x,x} = x^" + "9" * 5000 + " (x) 1;", 2, 19, "integer of more than 4300 digits"),
        # the 65th generator, at its name: "algebra " and g1 .. g64 take 255 columns
        ("algebra " + " ".join(f"g{i}" for i in range(1, 70)) + ";", 1, 256, "more than 64 generators"),
        # an expected name or integer is named in words
        ("algebra x", 1, 10, "expected a name, found 'end of input'"),
        ("weight x;", 1, 8, "expected an integer, found 'x'"),
        # lexer edge cases: a tab and a carriage return are one column each
        ("algebra x;\tweight 1 \u00b2;", 1, 21, "unexpected character '\u00b2'"),
        ("algebra x;\rweight 1 \u00b2;", 1, 21, "unexpected character '\u00b2'"),
        ("algebra x;\nbracket {x,x} = x (y) 1;", 2, 19, "expected the tensor separator '(x)'"),
        ("algebra x;\nbracket {x,x} = x \u2297", 2, 20, "expected a coefficient or a word, found 'end of input'"),
        # the end of input after a trailing comment is at its own column, not the comment's
        ("algebra x # no semicolon", 1, 25, "expected a name, found 'end of input'"),
    ], ids=["second_name", "repeated_generator", "short_weight", "long_weight_first", "no_keyword",
            "unknown_keyword", "second_algebra", "second_weight", "no_generators", "no_weights",
            "zero_denominator", "zero_exponent", "no_tensor_sign", "no_side", "expected_symbol",
            "zero_coef_undeclared", "zero_side_undeclared", "zero_coef_not_invertible",
            "long_weight_literal", "long_exponent", "generator_cap", "expected_name", "expected_integer",
            "tab", "carriage_return", "open_paren", "tensor_sign_no_side", "comment_at_end"])
    def test_statement_faults_have_positions(self, text, line, col, message):
        with pytest.raises(ParseError) as ei:
            parse(text)
        assert (ei.value.line, ei.value.col, ei.value.message) == (line, col, message)

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="this Python has no int() digit limit")
    def test_long_integer_cap_follows_the_int_limit(self, monkeypatch):
        """The lexer refuses what int() would: under a limit of 640 digits a
        1,000-digit weight is a positioned ParseError, not int()'s plain
        ValueError.  No limit (0), or no limit to read, keeps 4,300."""
        def fault(digits):
            with pytest.raises(ParseError) as ei:
                parse("algebra x; weight " + "9" * digits + ";")
            return ei.value.line, ei.value.col, ei.value.message

        limit = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(640)
            assert fault(1000) == (1, 19, "integer of more than 640 digits")
            assert parse("algebra x; weight " + "9" * 640 + ";").spec.weight == (10 ** 640 - 1,)
            sys.set_int_max_str_digits(0)
            assert fault(4301) == (1, 19, "integer of more than 4300 digits")
        finally:
            sys.set_int_max_str_digits(limit)
        monkeypatch.delattr(sys, "get_int_max_str_digits")
        assert fault(4301) == (1, 19, "integer of more than 4300 digits")

    def test_reserved_generator_name_rejected(self):
        with pytest.raises(ParseError):
            parse("algebra inv v;")

    def test_document_coefficients_are_exact(self):
        alg = FreeAlgebra(("v", "w"))
        doc = SpecDocument(BracketSpec(alg, {(1, 2): alg.tensor2({((1,), (2,)): Fraction(6, 3)})}))
        assert type(doc.spec.table[(1, 2)].terms[((1,), (2,))]) is int
        for bad in (0.1, 0.0):
            with pytest.raises(ValueError):
                SpecDocument(BracketSpec(alg, {(1, 2): alg.tensor2({((1,), (2,)): bad})}))
        # weights are refused the same way, and stored as Fraction
        doc = SpecDocument(BracketSpec(alg, {}, (1, Fraction(1, 2))))
        assert doc.spec.weight == (1, Fraction(1, 2)) and all(type(w) is Fraction for w in doc.spec.weight)
        with pytest.raises(ValueError):
            SpecDocument(BracketSpec(alg, {}, (0.1, 1)))

    def test_like_terms_collected(self):
        doc = parse("algebra v w; bracket {v,w} = v (x) w + v (x) w - 2*v (x) w;")
        assert doc.spec.table == {}


class TestRender:
    def test_round_trip_builtin(self):
        for name in ("mdbI", "mdbII", "kontsevich"):
            spec, _ = builtin(name)
            doc = doc_from_spec(spec, name=name)
            assert parse(render(doc)) == doc
            for field in ("spec", "name"):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(doc, field, None)

    def test_canonical_text(self):
        spec, _ = builtin("mdbI")
        text = render(doc_from_spec(spec, name="mdbI"))
        assert text.splitlines()[0] == "name mdbI;"
        assert "algebra x1 x2 x3;" in text
        assert "weight 1 -1 -1;" in text
        assert "bracket {x1,x2} = -x2*x1 (x) 1;" in text

    def test_render_is_stable(self):
        spec, _ = builtin("mdbII")
        doc = doc_from_spec(spec)
        assert render(doc) == render(parse(render(doc)))

    @pytest.mark.parametrize("family, params", [
        ("mdbI", ()), ("mdbII", ()), ("kontsevich", ()),
        ("cl1", (Fraction(2, 3), Fraction(-1, 2), Fraction(1, 5), -2, Fraction(3, 4), 0)),
        ("cl1_case1", (Fraction(3, 2), 1, Fraction(-1, 3))),
        ("cl1_case2", (2, Fraction(1, 2), 3)),
        ("cl3a", (1, 0, 0, 0, 1, 1)), ("cl3b", (0, 1, 0, 0, 0, 0)),
        ("cld", (4, 2)), ("cld2", (4, 1)),
        ("kontsevich_laurent", (1, 2)), ("kontsevich_laurent", (2, 1)),
    ])
    def test_round_trip_keeps_table_and_reports(self, family, params):
        if family == "kontsevich_laurent":
            base, w = builtin("kontsevich")
            spec, w = localize(base, w, params)
        else:
            spec, w = build(FamilyParams(family, params))
        doc = doc_from_spec(spec)
        assert parse(render(doc)) == doc
        parsed, pw = parse(render(doc)).to_spec()

        def typed(s):
            return {p: {k: (c, type(c)) for k, c in u.terms.items()} for p, u in s.table.items()}

        assert typed(parsed) == typed(spec)
        assert pw == w

        def battery(s, weights):
            reports, used = modified_double_poisson_battery(s, weights, 3, 2)
            return json.dumps([[r.as_dict() for r in reports], repr(used)], sort_keys=True)

        assert battery(parsed, pw) == battery(spec, w)

    @pytest.mark.parametrize("path", sorted(SPECS.glob("*.ndb")), ids=lambda p: p.stem)
    def test_benchmark_specs_are_fixed_points(self, path):
        text = path.read_text(encoding="utf-8")
        assert render(parse(text)) == text

    @pytest.mark.parametrize("name", ["mdbI", "mdbII", "kontsevich"])
    def test_benchmark_specs_render_the_builtins(self, name):
        text = (SPECS / f"{name}.ndb").read_text(encoding="utf-8")
        assert render(doc_from_spec(builtin(name)[0], name=name)) == text

    def test_quadratic_warning(self, capsys, monkeypatch):
        text = "algebra v w; bracket {v,w} = v*v (x) w;"
        notes = quadratic_warnings(parse(text))
        assert notes and "not homogeneous quadratic" in notes[0]
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        main(["verify", "-", "--max-degree", "1"])
        assert capsys.readouterr().err == f"note: {notes[0]}\n"


def random_document(rng: random.Random) -> SpecDocument:
    d = rng.randint(1, 4)
    inverted = [i for i in range(1, d + 1) if rng.random() < 0.3]
    alg = FreeAlgebra(tuple(f"g{i}" for i in range(1, d + 1)), inverted)

    def rand_word():
        letters = []
        for _ in range(rng.randint(0, 3)):
            g = rng.randint(1, d)
            if g in inverted and rng.random() < 0.4:
                letters.append(-g)
            else:
                letters.append(g)
        return reduce_word(letters)

    table = {}
    for _ in range(rng.randint(0, 4)):
        pair = (rng.randint(1, d), rng.randint(1, d))
        terms = {}
        for _ in range(rng.randint(1, 3)):
            c = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
            terms[(rand_word(), rand_word())] = c
        table[pair] = alg.tensor2(terms)
    weights = None
    if rng.random() < 0.5:
        weights = alg.letter_weights(Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(d))
    name = "spec%d" % rng.randint(0, 99) if rng.random() < 0.5 else None
    return SpecDocument(BracketSpec(alg, table, weights), name)


# what a mutation may insert or put in place of a character or a token
MUTANT_PIECES = ["name", "algebra", "weight", "bracket", "inv", "x1", "y", "0", "1", "-1", "1/2", "0/3", "^", "^-",
                 "^0", "^65", "-", "+", "*", "/", "{", "}", ",", ";", "=", "(x)", "\u2297", "(", "#", "\n", " ",
                 "\t", "\u00b2", "\u03b1", "x1 inv", "weight 1;", "name n;", "algebra a;"]


def mutate(rng: random.Random, text: str) -> str:
    """One to three deletions, insertions or replacements of a character or a token."""
    for _ in range(rng.randint(1, 3)):
        pieces = list(text) if rng.random() < 0.5 else re.findall(r"\(x\)|\w+|\s+|.", text, re.S)
        i = rng.randrange(len(pieces) + 1)
        op = rng.choice(("delete", "insert", "replace"))
        if op == "insert":
            pieces.insert(i, rng.choice(MUTANT_PIECES))
        elif pieces:
            i = min(i, len(pieces) - 1)
            pieces[i:i + 1] = [] if op == "delete" else [rng.choice(MUTANT_PIECES)]
        text = "".join(pieces)
    return text


class TestRoundTripProperty:
    def test_random_documents(self):
        rng = random.Random(97)
        for _ in range(120):
            doc = random_document(rng)
            assert parse(render(doc)) == doc

    def test_mutated_specs(self):
        """Every mutation of the benchmark specs either parses to a document
        that round-trips or raises a ParseError at a position in its text;
        no other exception escapes the parser."""
        rng = random.Random(26)
        texts = [path.read_text(encoding="utf-8") for path in sorted(SPECS.glob("*.ndb"))]
        parsed = 0
        for _ in range(3000):
            text = mutate(rng, rng.choice(texts))
            try:
                doc = parse(text)
            except ParseError as e:
                lines = text.split("\n")
                assert 1 <= e.line <= len(lines) and 1 <= e.col <= len(lines[e.line - 1]) + 1, text
            else:
                parsed += 1
                assert parse(render(doc)) == doc, text
        assert 100 < parsed < 2900  # both outcomes are exercised


class TestCli:
    def run(self, argv, stdin_text=None, capsys=None, monkeypatch=None):
        if stdin_text is not None:
            monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
        code = main(argv)
        out = capsys.readouterr()
        return code, out.out, out.err

    def test_builtin_verify_pipe(self, capsys, monkeypatch, tmp_path):
        code, text, _ = self.run(["builtin", "mdbI"], capsys=capsys, monkeypatch=monkeypatch)
        assert code == 0
        f = tmp_path / "mdbI.ndb"
        assert self.run(["builtin", "mdbI", "-o", str(f)], capsys=capsys, monkeypatch=monkeypatch) == (0, "", "")
        assert f.read_text() == text
        code, out, _ = self.run(
            ["verify", "-", "--max-degree", "2"], stdin_text=text, capsys=capsys, monkeypatch=monkeypatch
        )
        assert code == 0
        assert "PASS" in out and "FAIL" not in out

    def test_verify_json_schema(self, capsys, monkeypatch, tmp_path):
        jsonschema = pytest.importorskip("jsonschema")
        import pathlib

        code, text, _ = self.run(["builtin", "mdbII"], capsys=capsys, monkeypatch=monkeypatch)
        f = tmp_path / "spec.ndb"
        f.write_text(text)
        code, out, _ = self.run(
            ["verify", str(f), "--max-degree", "2", "--json"], capsys=capsys, monkeypatch=monkeypatch
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        schema = json.loads(
            (pathlib.Path(__file__).resolve().parents[1] / "docs" / "report_schema.json").read_text()
        )
        for rep in payload["reports"]:
            jsonschema.validate(rep, schema)

    def test_verify_corrupted_exits_1(self, capsys, monkeypatch, tmp_path):
        code, text, _ = self.run(["builtin", "mdbII"], capsys=capsys, monkeypatch=monkeypatch)
        corrupted = text.replace("bracket {x2,x3} = x3 (x) x2;", "bracket {x2,x3} = -x3 (x) x2;")
        assert corrupted != text
        f = tmp_path / "bad.ndb"
        f.write_text(corrupted)
        code, out, _ = self.run(
            ["verify", str(f), "--max-degree", "2"], capsys=capsys, monkeypatch=monkeypatch
        )
        assert code == 1
        assert "witness" in out

    def test_parse_error_exits_2(self, capsys, monkeypatch, tmp_path):
        f = tmp_path / "broken.ndb"
        f.write_text("algebra v w; bracket {v,u} = v (x) w;")
        code, _, err = self.run(["verify", str(f)], capsys=capsys, monkeypatch=monkeypatch)
        assert code == 2
        assert "parse error" in err

    @pytest.mark.parametrize("text,where", [
        ("name a;\nalgebra x y;\nname b;", "3:1"),
        ("algebra x x;", "1:11"),
        ("algebra x y;\nweight 1;\n", "2:1"),
        ("algebra x;\nweight 1/" + "9" * 5000 + ";", "2:10"),
    ], ids=["second_name", "repeated_generator", "short_weight", "long_denominator"])
    def test_statement_faults_exit_2(self, text, where, capsys, monkeypatch):
        code, out, err = self.run(["verify", "-"], stdin_text=text, capsys=capsys, monkeypatch=monkeypatch)
        assert code == 2 and out == ""
        assert err.startswith(f"parse error: {where}: ") and err.count("\n") == 1

    def test_h0skew_cell_cap_precedes_the_weight_test(self, mdbI_file, capsys, monkeypatch):
        """h0skew --max-degree 9 on three generators, 29,524 words, is refused
        at the cell cap before the weight-form test reads a letter bracket."""
        specs = []
        real = axioms.sweep_ids
        monkeypatch.setattr(axioms, "sweep_ids", lambda spec, *rest: specs.append(spec) or real(spec, *rest))
        code, out, err = self.run(["h0skew", mdbI_file, "--max-degree", "9"], capsys=capsys, monkeypatch=monkeypatch)
        assert code == 2 and not out
        assert err == "error: 29524 monomials give a sweep of 435848050 cells, more than 50000000\n"
        assert len(specs) == 1 and not specs[0]._letter_cache

    def test_oversized_cl1_grid_exits_2(self, capsys, monkeypatch):
        """--gamma-grid 1,...,40 gives 2 * 40**4 points, refused before any
        spec is built."""
        built = []
        monkeypatch.setattr(classify, "build", built.append)
        grid = ",".join(map(str, range(1, 41)))
        code, out, err = self.run(["classify", "cl1", "--gamma-grid", grid], capsys=capsys, monkeypatch=monkeypatch)
        assert code == 2 and not out
        assert err == "error: a grid of 5120000 points, more than 100000\n"
        assert not built

    @pytest.mark.parametrize("argv", [["classify", "cl3a", "--lam", "5"], ["classify", "cl3b", "--gamma-grid", "0"]])
    def test_cl1_options_refused_on_cl3(self, argv, capsys, monkeypatch):
        """--lam, --rho-grid and --gamma-grid exist only on classify cl1."""
        code, out, err = self.run(argv, capsys=capsys, monkeypatch=monkeypatch)
        assert code == 2 and not out
        assert f"error: unrecognized arguments: {argv[2]} {argv[3]}" in err

    def test_rep_points_cap(self, mdbI_file, capsys, monkeypatch):
        """More than MAX_POINTS points is refused before the spec is loaded
        or any point is drawn; exactly MAX_POINTS runs."""
        monkeypatch.setattr(cli, "MAX_POINTS", 2)
        argv = ["rep", mdbI_file, "--max-degree", "1", "--points", "2"]
        assert self.run(argv, capsys=capsys, monkeypatch=monkeypatch)[0] == 0

        def refuse(*args):
            raise AssertionError("drawn or loaded past the cap")
        monkeypatch.setattr(cli, "_load_spec", refuse)
        monkeypatch.setattr(repspace.MatrixPoint, "random", refuse)
        code, out, err = self.run(argv[:-1] + ["3"], capsys=capsys, monkeypatch=monkeypatch)
        assert code == 2 and not out
        assert err == "error: --points must be at most 2, got 3\n"

    def test_rep_seed_cap(self, mdbI_file, capsys, monkeypatch):
        """A --seed whose point seeds seed + k would pass int()'s digit limit is
        refused before the spec is loaded; a report prints each seed with str()."""
        argv = ["rep", mdbI_file, "--max-degree", "1", "--size", "1", "--seed", "9" * digit_cap(), "--points", "1"]
        code, out, err = self.run(argv, capsys=capsys, monkeypatch=monkeypatch)
        assert (code, err) == (0, "") and f"seed={'9' * digit_cap()}" in out

        def refuse(*args):
            raise AssertionError("loaded past the cap")
        monkeypatch.setattr(cli, "_load_spec", refuse)
        code, out, err = self.run(argv[:-1] + ["2"], capsys=capsys, monkeypatch=monkeypatch)
        assert code == 2 and not out
        assert err == f"error: --seed: a point seed of more than {digit_cap()} digits\n"

    @pytest.mark.parametrize("flag,value", [("--lam", "-1/2"), ("--lam", "-.5"), ("--rho-grid", "-1,1"),
                                            ("--gamma-grid", "-2,0")])
    def test_negative_cl1_values(self, flag, value, capsys, monkeypatch):
        """A negative value may follow its cl1 option as a separate word."""
        spaced = self.run(["classify", "cl1", flag, value], capsys=capsys, monkeypatch=monkeypatch)
        joined = self.run(["classify", "cl1", f"{flag}={value}"], capsys=capsys, monkeypatch=monkeypatch)
        assert spaced == joined and spaced[0] == 0 and spaced[1]
        code, out, err = self.run(["classify", "cl1", "-5"], capsys=capsys, monkeypatch=monkeypatch)
        assert code == 2 and not out and "unrecognized arguments: -5" in err

    def test_negative_builtin_params(self, capsys, monkeypatch):
        """A negative first parameter may follow --params as a separate word."""
        spaced = self.run(["builtin", "cl1", "--params", "-2,1,0,0,0,0"], capsys=capsys, monkeypatch=monkeypatch)
        joined = self.run(["builtin", "cl1", "--params=-2,1,0,0,0,0"], capsys=capsys, monkeypatch=monkeypatch)
        assert spaced == joined and spaced[0] == 0 and spaced[1]
        code, out, err = self.run(["builtin", "-5"], capsys=capsys, monkeypatch=monkeypatch)
        assert code == 2 and not out and "invalid choice: '-5'" in err

    def test_usage_error_exits_2(self, capsys, monkeypatch):
        code, _, _ = self.run(["frobnicate"], capsys=capsys, monkeypatch=monkeypatch)
        assert code == 2
        for argv in (["verify", "-", "--max-degree", "x"], ["localize", "-", "--invert", "1,x"],
                     ["classify", "cl1", "--lam", "x"]):
            code, out, err = self.run(argv, capsys=capsys, monkeypatch=monkeypatch)
            assert code == 2 and not out and f"error: argument {argv[-2]}: " in err
        # an exponent that is not an integer: Fraction, not the digit bound, names the fault
        code, out, err = self.run(["classify", "cl1", "--lam", "1ex"], capsys=capsys, monkeypatch=monkeypatch)
        assert code == 2 and not out and "error: argument --lam: Invalid literal for Fraction: '1ex'" in err

    def test_classify_cl3a_json(self, capsys, monkeypatch):
        code, out, _ = self.run(["classify", "cl3a", "--json"], capsys=capsys, monkeypatch=monkeypatch)
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == 36
        code, out, _ = self.run(["classify", "cl3a"], capsys=capsys, monkeypatch=monkeypatch)
        assert code == 0
        head, *rows = out.splitlines()
        assert head == "cl3a: 36 surviving parameter pairs"
        assert rows == [f"  {tuple(a)} , {tuple(b)}" for a, b in payload["survivors"]]

    def test_classify_cl1(self, capsys, monkeypatch):
        code, out, _ = self.run(["classify", "cl1"], capsys=capsys, monkeypatch=monkeypatch)
        assert code == 0
        assert "8 survivors" in out

    def test_localize_command(self, capsys, monkeypatch, tmp_path):
        code, text, _ = self.run(["builtin", "kontsevich"], capsys=capsys, monkeypatch=monkeypatch)
        f = tmp_path / "kont.ndb"
        f.write_text(text)
        code, out, _ = self.run(
            ["localize", str(f), "--invert", "1,2"], capsys=capsys, monkeypatch=monkeypatch
        )
        assert code == 0
        assert "algebra v inv w inv;" in out
        # an algebra has one letter order, so the order of --invert does not reach the text
        assert self.run(["localize", str(f), "--invert", "2,1"], capsys=capsys,
                        monkeypatch=monkeypatch)[1] == out
        code, out2, _ = self.run(
            ["verify", "-", "--max-degree", "2"], stdin_text=out, capsys=capsys, monkeypatch=monkeypatch
        )
        assert code == 0
        g = tmp_path / "kont_loc.ndb"
        assert self.run(["localize", str(f), "--invert", "1,2", "-o", str(g)], capsys=capsys,
                        monkeypatch=monkeypatch) == (0, "", "")
        assert g.read_text() == out

    @pytest.mark.parametrize("invert,localised", [
        ("3", False),    # out of range
        ("1,1", False),  # repeated
        ("0", False),    # below range
        ("2", True),     # the base is already localised
    ])
    def test_localize_refusals_exit_2(self, invert, localised, capsys, monkeypatch):
        _, text, _ = self.run(["builtin", "kontsevich"], capsys=capsys, monkeypatch=monkeypatch)
        if localised:
            _, text, _ = self.run(["localize", "-", "--invert", "1"], stdin_text=text,
                                  capsys=capsys, monkeypatch=monkeypatch)
            assert "algebra v inv w;" in text
        code, out, err = self.run(["localize", "-", "--invert", invert], stdin_text=text,
                                  capsys=capsys, monkeypatch=monkeypatch)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    @pytest.mark.parametrize("weight,message", [
        ("", "admits no weight vector"),             # inferred: none exists
        ("weight 1 1;\n", "not a mixed double algebra"),  # given: fails the weight check
    ], ids=["inferred", "given"])
    def test_localize_without_a_weight_exits_2(self, weight, message, capsys, monkeypatch):
        text = f"algebra v w;\n{weight}bracket {{v,w}} = v (x) w;\n"
        code, out, err = self.run(["localize", "-", "--invert", "1"], stdin_text=text,
                                  capsys=capsys, monkeypatch=monkeypatch)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ") and message in err

    def test_rep_command(self, capsys, monkeypatch, tmp_path):
        code, text, _ = self.run(["builtin", "mdbI"], capsys=capsys, monkeypatch=monkeypatch)
        f = tmp_path / "spec.ndb"
        f.write_text(text)
        code, out, _ = self.run(
            ["rep", str(f), "--size", "2", "--seed", "3", "--max-degree", "2", "--points", "2"],
            capsys=capsys,
            monkeypatch=monkeypatch,
        )
        assert code == 0

    def test_builtin_with_params(self, capsys, monkeypatch):
        code, out, _ = self.run(
            ["builtin", "cld", "--params", "4,2"], capsys=capsys, monkeypatch=monkeypatch
        )
        assert code == 0
        assert "algebra v1 v2 v3 v4;" in out
        # a wrong arity, a value outside the domain and an unknown family exit 2
        for argv, err_start in (
            (["builtin", "cl1", "--params", "1,2"], "error: expected (lam, rho, g1, g2, g3, g4)\n"),
            (["builtin", "cl3a", "--params", "0,0,2,0,0,0"], "error: expected parameters in {0,1}\n"),
            (["builtin", "nosuch"], "usage: "),
        ):
            code, out, err = self.run(argv, capsys=capsys, monkeypatch=monkeypatch)
            assert code == 2 and not out and err.startswith(err_start)

    def test_broken_pipe_exits_141_quietly(self):
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "ncdb.cli", "builtin", "cld", "--params", "8,4"],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 141
        assert proc.stderr == b""

    def test_input_caps_exit_2(self, capsys, monkeypatch, tmp_path):
        f = tmp_path / "long.ndb"
        f.write_text("algebra v; bracket {v,v} = v^65 (x) 1;")
        code, out, err = self.run(["verify", str(f)], capsys=capsys, monkeypatch=monkeypatch)
        assert code == 2 and not out and "exceeds 64" in err
        code, out, err = self.run(["builtin", "cld", "--params", "65,1"], capsys=capsys, monkeypatch=monkeypatch)
        assert code == 2 and not out and "at most 64" in err
        f.write_text("algebra " + " ".join(f"g{i}" for i in range(1, 66)) + "; bracket {g1,g2} = g1 (x) g2;")
        code, out, err = self.run(["verify", str(f)], capsys=capsys, monkeypatch=monkeypatch)
        assert code == 2 and not out and err == "parse error: 1:256: more than 64 generators\n"

    @pytest.mark.parametrize("params", ["4,3/2", "9/2,2"])
    def test_non_integral_cld_params_exit_2(self, params, capsys, monkeypatch):
        code, out, err = self.run(["builtin", "cld", "--params", params], capsys=capsys, monkeypatch=monkeypatch)
        assert code == 2 and not out and "must be integers" in err

    @pytest.mark.parametrize("argv", [
        ["classify", "cl1", "--lam", "1/0"],
        ["classify", "cl1", "--gamma-grid", "0,1/0"],
        ["classify", "cl1", "--rho-grid", "1/0"],
        ["builtin", "cld", "--params", "4,1/0"],
    ])
    def test_zero_denominator_exits_2(self, argv, capsys, monkeypatch):
        code, out, err = self.run(argv, capsys=capsys, monkeypatch=monkeypatch)
        assert code == 2 and not out
        assert "zero denominator in '1/0'" in err

    @pytest.fixture
    def mdbI_file(self, capsys, monkeypatch, tmp_path):
        code, text, _ = self.run(["builtin", "mdbI"], capsys=capsys, monkeypatch=monkeypatch)
        f = tmp_path / "mdbI.ndb"
        f.write_text(text)
        return str(f)

    @pytest.mark.parametrize("flag", ["--size", "--points", "--max-degree"])
    def test_rep_refuses_vacuous_input(self, flag, mdbI_file, capsys, monkeypatch):
        ones = {"--size": "1", "--points": "1", "--max-degree": "1"}
        argv = ["rep", mdbI_file] + [x for k, v in ones.items() for x in (k, v)]
        assert self.run(argv, capsys=capsys, monkeypatch=monkeypatch)[0] == 0
        argv[argv.index(flag) + 1] = "0"
        code, out, err = self.run(argv, capsys=capsys, monkeypatch=monkeypatch)
        assert code == 2 and not out
        assert "at least 1" in err

    @pytest.mark.parametrize("argv", [
        ["jacobi", "--max-degree", "11"],   # 3 generators: 265,719 words, the first degree past the cap
        ["jacobi", "--max-degree", "40"],
        ["jacobi", "--max-degree", "10"],   # 88,572 words, under the word cap: 6.9e14 cells
        ["h0skew", "--max-degree", "11"],
        ["h0skew", "--max-degree", "10"],   # 88,573 words: 3.9e9 pairs
        ["rep", "--size", "65"],
        ["rep", "--size", "100000"],
    ])
    def test_unbounded_sizes_exit_2(self, argv, mdbI_file, capsys, monkeypatch):
        code, out, err = self.run(argv[:1] + [mdbI_file] + argv[1:], capsys=capsys, monkeypatch=monkeypatch)
        assert code == 2 and not out
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command,flags", [
        ("h0skew", ["--max-degree", "2", "--all-witnesses"]),
        ("jacobi", ["--max-degree", "2", "--all-witnesses"]),
        ("verify", ["--max-degree", "1"]),  # the letter comparisons keep every witness
    ], ids=["h0skew", "jacobi", "verify"])
    def test_witness_cap_exits_2(self, command, flags, mdbI_file, capsys, monkeypatch, tmp_path):
        f = tmp_path / "flipped.ndb"
        f.write_text(Path(mdbI_file).read_text().replace("{x2,x3} = -x2", "{x2,x3} = x2"))
        argv = [command, str(f)] + flags
        assert self.run(argv, capsys=capsys, monkeypatch=monkeypatch)[0] == 1
        monkeypatch.setattr(axioms, "MAX_WITNESSES", 1)
        code, out, err = self.run(argv, capsys=capsys, monkeypatch=monkeypatch)
        assert code == 2 and not out
        assert err == "error: sweep has more than 1 witnesses\n"

    # every command's flags, past -h/--help
    FLAGS = {
        (): [],
        ("verify",): ["--max-degree", "--pair-degree", "--triple-degree", "--json"],
        ("jacobi",): ["--max-degree", "--all-witnesses", "--json"],
        ("h0skew",): ["--max-degree", "--all-witnesses", "--json"],
        ("classify",): [],
        ("classify", "cl1"): ["--lam", "--rho-grid", "--gamma-grid", "--json"],
        ("classify", "cl3a"): ["--json"],
        ("classify", "cl3b"): ["--json"],
        ("localize",): ["--invert", "-o", "--output"],
        ("rep",): ["--size", "--seed", "--max-degree", "--points", "--json"],
        ("builtin",): ["--params", "-o", "--output"],
    }

    def test_every_help_lists_its_flags(self, capsys, monkeypatch):
        """--help on every command exits 0 and names each of its flags and
        subcommands; the wording around them is left to argparse."""
        def walk(parser, path):
            subs = {}
            for action in parser._actions:
                if isinstance(action, argparse._SubParsersAction):
                    subs = action.choices
            yield path, parser, list(subs)
            for name, sub in subs.items():
                yield from walk(sub, path + (name,))

        commands = list(walk(cli._build_parser(), ()))
        assert {path for path, _, _ in commands} == set(self.FLAGS)
        for path, parser, subs in commands:
            flags = [f for action in parser._actions for f in action.option_strings]
            assert sorted(flags) == sorted(self.FLAGS[path] + ["-h", "--help"])
            code, out, err = self.run(list(path) + ["--help"], capsys=capsys, monkeypatch=monkeypatch)
            assert code == 0 and not err
            words = set(re.findall(r"(?<![\w-])-{0,2}[a-z][\w-]*", out))
            assert set(flags + subs) <= words, path

    @pytest.mark.parametrize("flag,value", [
        ("--lam", "1e10000000"),
        ("--gamma-grid", "0,1e1000000"),
        ("--rho-grid", "1e-4300"),        # a denominator of 4,301 digits
        ("--lam", "1_0e4299"),
        ("--lam", "0." + "5" * 4301),
        ("--lam", "1/" + "3" * 4301),
    ], ids=["exponent", "grid_exponent", "negative_exponent", "underscore", "decimals", "denominator"])
    def test_long_rationals_refused_before_they_are_built(self, flag, value, capsys, monkeypatch):
        """A literal whose numerator or denominator as written has more digits
        than the .ndb lexer takes is refused before Fraction sees it."""
        seen = []
        real = cli.Fraction
        monkeypatch.setattr(cli, "Fraction", lambda x=0: seen.append(x) or real(x))
        code, out, err = self.run(["classify", "cl1", f"{flag}={value}"], capsys=capsys, monkeypatch=monkeypatch)
        assert code == 2 and not out
        assert f"error: argument {flag}: a numerator or denominator of more than {digit_cap()} digits" in err
        assert value.split(",")[-1] not in seen

    @pytest.mark.parametrize("text", ["-1/2", "0.5", "1e3", "2/4", " 3 ", "1e4299", "1e-4299", "9" * 4300,
                                      "0." + "5" * 4299, "1/" + "3" * 4300],
                             ids=["negative", "decimal", "exponent", "reducible", "spaces", "exponent_at_cap",
                                  "negative_exponent_at_cap", "integer_at_cap", "decimals_at_cap", "denominator_at_cap"])
    def test_cli_rationals_up_to_the_cap_accepted(self, text):
        assert cli._fraction(text) == Fraction(text)

    def test_long_report_rationals_print_in_full(self, capsys, monkeypatch, tmp_path):
        """Rationals past int()'s digit limit that a spec within the lexer's
        cap produces print in full: an 8,000-digit Jacobi witness coefficient,
        and a 4,301-digit weight candidate in verify's weight inference."""
        big = tmp_path / "big.ndb"
        big.write_text(f"algebra x y z; bracket {{x,y}} = {'7' * 4000} * x (x) z; bracket {{y,z}} = y (x) x;\n")
        big2 = tmp_path / "big2.ndb"
        big2.write_text(f"algebra x y; bracket {{x,y}} = {'9' * 4300} * x (x) y + {'9' * 4300} (x) x*y;\n")
        payloads = []
        for argv in (["jacobi", str(big), "--json"], ["h0skew", str(big), "--json"], ["rep", str(big), "--json"],
                     ["verify", str(big2), "--max-degree", "2", "--json"]):
            code, out, err = self.run(argv, capsys=capsys, monkeypatch=monkeypatch)
            assert (code, err) == (1, ""), argv
            payloads.append(json.loads(out))
        witness = payloads[0]["reports"][0]["witnesses"][0]
        assert max(map(len, re.findall(r"\d+", witness["residual"]))) == 8000  # N * N
        assert payloads[3]["reports"][0]["params"]["reason"] == "no consistent weight vector exists"
        code, out, _ = self.run(["verify", str(big2), "--max-degree", "2"], capsys=capsys, monkeypatch=monkeypatch)
        assert code == 1 and "reason=no consistent weight vector exists" in out
        jsonschema = pytest.importorskip("jsonschema")
        schema = json.loads((Path(__file__).resolve().parents[1] / "docs" / "report_schema.json").read_text())
        for payload in payloads:
            for rep in payload["reports"]:
                jsonschema.validate(rep, schema)

    def test_emit_reports_refuses_empty_list(self):
        with pytest.raises(ValueError):
            _emit_reports([], as_json=True)

    @pytest.mark.parametrize("argv", [
        ["verify", "--pair-degree", "0"],
        ["verify", "--triple-degree", "0"],
        ["verify", "--max-degree", "0"],
        ["jacobi", "--max-degree", "-1"],
        ["jacobi", "--max-degree", "0"],
        ["h0skew", "--max-degree", "0"],
    ])
    def test_degree_below_one_refused(self, argv, mdbI_file, capsys, monkeypatch):
        argv = argv[:1] + [mdbI_file] + argv[1:]
        code, out, err = self.run(argv, capsys=capsys, monkeypatch=monkeypatch)
        assert code == 2 and not out
        assert "at least 1" in err
        argv[-1] = "1"
        # a trailing --max-degree 1 keeps verify's other sweep small
        assert self.run(argv + ["--max-degree", "1"], capsys=capsys,
                        monkeypatch=monkeypatch)[0] == 0

    def test_verify_pair_degree_is_not_overridden(self, mdbI_file, capsys, monkeypatch):
        code, out, _ = self.run(
            ["verify", mdbI_file, "--pair-degree", "1", "--max-degree", "2", "--json"],
            capsys=capsys, monkeypatch=monkeypatch,
        )
        assert code == 0
        degrees = {r["axiom"]: r["params"].get("maxdeg") for r in json.loads(out)["reports"]}
        assert degrees["h0_skew_symmetry"] == 1
        assert degrees["jacobi_identity"] == 2
