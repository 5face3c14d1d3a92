import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from ncdb.axioms import modified_double_poisson_battery
from ncdb.cli import _emit_reports, main
from ncdb.classify import FamilyParams, build, builtin
from ncdb.localize import localize
from ncdb.freealg import reduce_word
from ncdb.speclang import (
    GenDecl,
    ParseError,
    SpecDocument,
    doc_from_spec,
    parse,
    quadratic_warnings,
    render,
)


class TestParse:
    def test_basic_entry(self):
        doc = parse("algebra x1 x2 x3; bracket {x1,x2} = -1 * x2*x1 (x) 1;")
        spec, weights = doc.to_spec()
        assert weights is None
        alg = spec.algebra
        assert spec.entry(1, 2) == alg.tensor2({((2, 1), ()): -1})

    def test_empty_bracket_block_is_zero_spec(self):
        doc = parse("algebra x1 x2;")
        spec, _ = doc.to_spec()
        assert not spec.table

    def test_zero_entry(self):
        doc = parse("algebra x1 x2; bracket {x1,x2} = 0;")
        assert doc.entries == {}

    def test_inverse_letters_with_inv_marker(self):
        doc = parse("algebra x1 inv x2; bracket {x1,x2} = x1^-1 (x) x2;")
        spec, _ = doc.to_spec()
        assert spec.entry(1, 2) == spec.algebra.tensor2({((-1,), (2,)): 1})

    def test_inverse_letter_without_inv_rejected(self):
        with pytest.raises(ParseError) as ei:
            parse("algebra x1 x2; bracket {x1,x2} = x1^-1 (x) x2;")
        assert "not invertible" in str(ei.value)

    def test_weights_and_name(self):
        doc = parse("name demo; algebra v w; weight 1 -1/2; bracket {v,w} = 2/3*v (x) w;")
        assert doc.name == "demo"
        assert doc.weights == (1, Fraction(-1, 2))
        spec, weights = doc.to_spec()
        assert weights == (1, Fraction(-1, 2))

    def test_weight_extends_on_laurent(self):
        doc = parse("algebra v inv w; weight 1 -1;")
        _, weights = doc.to_spec()
        assert weights == (1, -1, -1)

    def test_comments_and_unicode_tensor(self):
        doc = parse("algebra v w;  # generators\nbracket {v,w} = v ⊗ w;")
        assert doc.entries[(1, 2)] == ((((1,), (2,)), Fraction(1)),)

    def test_exponent_expansion_and_reduction(self):
        doc = parse("algebra v inv w; bracket {v,w} = v^2 (x) v^-2; bracket {w,v} = v*v^-1 (x) w;")
        spec, _ = doc.to_spec()
        assert spec.entry(1, 2) == spec.algebra.tensor2({((1, 1), (-1, -1)): 1})
        assert spec.entry(2, 1) == spec.algebra.tensor2({((), (2,)): 1})

    def test_exponent_cap(self):
        doc = parse("algebra v inv; bracket {v,v} = v^64 (x) v^-64;")
        assert doc.entries[(1, 1)] == ((((1,) * 64, (-1,) * 64), Fraction(1)),)
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

    def test_missing_algebra(self):
        with pytest.raises(ParseError) as ei:
            parse("bracket {v,w} = v (x) w;")
        assert "undeclared" in ei.value.message or "algebra" in ei.value.message

    def test_duplicate_entry_rejected(self):
        with pytest.raises(ParseError) as ei:
            parse("algebra v w; bracket {v,w} = v (x) w; bracket {v,w} = w (x) v;")
        assert "duplicate" in ei.value.message

    def test_reserved_generator_name_rejected(self):
        with pytest.raises(ParseError):
            parse("algebra inv v;")

    def test_document_coefficients_are_exact(self):
        gens = (GenDecl("v"), GenDecl("w"))
        doc = SpecDocument(gens, {(1, 2): ((((1,), (2,)), Fraction(6, 3)),)})
        assert type(doc.entries[(1, 2)][0][1]) is int
        for bad in (0.1, 0.0):
            with pytest.raises(ValueError):
                SpecDocument(gens, {(1, 2): ((((1,), (2,)), bad),)})
        # weights are refused the same way, and stored as Fraction
        doc = SpecDocument(gens, {}, (1, Fraction(1, 2)))
        assert doc.weights == (1, Fraction(1, 2)) and all(type(w) is Fraction for w in doc.weights)
        with pytest.raises(ValueError):
            SpecDocument(gens, {}, (0.1, 1))

    def test_like_terms_collected(self):
        doc = parse("algebra v w; bracket {v,w} = v (x) w + v (x) w - 2*v (x) w;")
        assert doc.entries == {}


class TestRender:
    def test_round_trip_builtin(self):
        for name in ("mdbI", "mdbII", "kontsevich"):
            spec, _ = builtin(name)
            doc = doc_from_spec(spec, name=name)
            assert parse(render(doc)) == doc

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
        ("cld", (4, 2)), ("cld2", (4, 1)), ("kontsevich_laurent", ()),
    ])
    def test_round_trip_keeps_table_and_reports(self, family, params):
        if family == "kontsevich_laurent":
            base, w = builtin("kontsevich")
            spec, w = localize(base, w, (1, 2))
        else:
            spec, w = build(FamilyParams(family, params))
        parsed, pw = parse(render(doc_from_spec(spec))).to_spec()

        def typed(s):
            return {p: {k: (c, type(c)) for k, c in u.terms.items()} for p, u in s.table.items()}

        assert typed(parsed) == typed(spec)
        assert pw == w

        def battery(s, weights):
            reports, used = modified_double_poisson_battery(s, weights, 3, 2)
            return json.dumps([[r.as_dict() for r in reports], repr(used)], sort_keys=True)

        assert battery(parsed, pw) == battery(spec, w)

    def test_quadratic_warning(self):
        doc = parse("algebra v w; bracket {v,w} = v*v (x) w;")
        notes = quadratic_warnings(doc)
        assert notes and "not homogeneous quadratic" in notes[0]


def random_document(rng: random.Random) -> SpecDocument:
    d = rng.randint(1, 4)
    gens = tuple(
        GenDecl(f"g{i}", rng.random() < 0.3) for i in range(1, d + 1)
    )
    inverted = [i + 1 for i, g in enumerate(gens) if g.invertible]

    def rand_word():
        letters = []
        for _ in range(rng.randint(0, 3)):
            g = rng.randint(1, d)
            if g in inverted and rng.random() < 0.4:
                letters.append(-g)
            else:
                letters.append(g)
        return reduce_word(letters)

    entries = {}
    for _ in range(rng.randint(0, 4)):
        pair = (rng.randint(1, d), rng.randint(1, d))
        terms = {}
        for _ in range(rng.randint(1, 3)):
            c = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
            terms[(rand_word(), rand_word())] = c
        entries[pair] = tuple(terms.items())
    weights = None
    if rng.random() < 0.5:
        weights = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(d))
    name = "spec%d" % rng.randint(0, 99) if rng.random() < 0.5 else None
    return SpecDocument(gens, entries, weights, name)


class TestRoundTripProperty:
    def test_random_documents(self):
        rng = random.Random(97)
        for _ in range(120):
            doc = random_document(rng)
            assert parse(render(doc)) == doc


class TestCli:
    def run(self, argv, stdin_text=None, capsys=None, monkeypatch=None):
        if stdin_text is not None:
            monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
        code = main(argv)
        out = capsys.readouterr()
        return code, out.out, out.err

    def test_builtin_verify_pipe(self, capsys, monkeypatch):
        code, text, _ = self.run(["builtin", "mdbI"], capsys=capsys, monkeypatch=monkeypatch)
        assert code == 0
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

    def test_usage_error_exits_2(self, capsys, monkeypatch):
        code, _, _ = self.run(["frobnicate"], capsys=capsys, monkeypatch=monkeypatch)
        assert code == 2

    def test_classify_cl3a_json(self, capsys, monkeypatch):
        code, out, _ = self.run(["classify", "cl3a", "--json"], capsys=capsys, monkeypatch=monkeypatch)
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == 36

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
        code, out2, _ = self.run(
            ["verify", "-", "--max-degree", "2"], stdin_text=out, capsys=capsys, monkeypatch=monkeypatch
        )
        assert code == 0

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

    @pytest.mark.parametrize("params", ["4,3/2", "9/2,2"])
    def test_non_integral_cld_params_exit_2(self, params, capsys, monkeypatch):
        code, out, err = self.run(["builtin", "cld", "--params", params], capsys=capsys, monkeypatch=monkeypatch)
        assert code == 2 and not out and "must be integers" in err

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
