"""Command-line driver.

Exit codes: 0 all checks passed, 1 at least one check failed (reports are
still emitted), 2 usage or parse errors, 141 (128 + SIGPIPE) when the
reader of stdout went away before the output was written, as in
``ncdb ... | head``; nothing is printed then.  ``-`` names stdin/stdout so
that subcommands compose in pipes, e.g.::

    ncdb builtin mdbI | ncdb verify - --max-degree 3
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction

from . import axioms, classify, repspace, speclang
from .freealg import coef_str, digit_cap, exact
from .localize import localize

EXIT_OK, EXIT_FAIL, EXIT_USAGE, EXIT_PIPE = 0, 1, 2, 141
MAX_POINTS = 10_000  # most matrix points one ``rep`` run checks


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write_text(path: str, text: str):
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load_spec(path: str):
    doc = speclang.parse(_read_text(path))
    for note in speclang.quadratic_warnings(doc):
        print(f"note: {note}", file=sys.stderr)
    return doc.to_spec()


def _emit_reports(reports, as_json: bool, extra=None):
    if not reports:
        raise ValueError("no reports to emit")
    if as_json:
        payload = {"reports": [r.as_dict() for r in reports]}
        if extra:
            payload.update(extra)
        payload["ok"] = all(r.passed for r in reports)
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        if extra:
            for k, v in extra.items():
                print(f"{k}: {v}")
        for r in reports:
            print(r.summary())
    return EXIT_OK if all(r.passed for r in reports) else EXIT_FAIL


def _fraction(text: str) -> Fraction:
    # Fraction builds 10**e for an exponent e: bound the digits of the numerator and
    # denominator as written, as the .ndb lexer bounds each integer, before any is built
    mantissa, _, exponent = text.strip().lower().partition("e")
    num, _, den = mantissa.partition("/")
    try:
        shift = int(exponent or 0) - sum(map(str.isdecimal, num.partition(".")[2]))
    except ValueError:
        shift = 0  # not a literal: Fraction says why
    cap = digit_cap()
    if max(sum(map(str.isdecimal, num)) + max(shift, 0), sum(map(str.isdecimal, den)), 1 - shift) > cap:
        raise argparse.ArgumentTypeError(f"a numerator or denominator of more than {cap} digits")
    try:
        return Fraction(text)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(f"zero denominator in {text!r}") from None


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _int_list(text: str):
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


def _fraction_list(text: str):
    return tuple(exact(_fraction(x)) for x in text.split(","))


def _build_parser():
    p = argparse.ArgumentParser(prog="ncdb", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="full modified-double-Poisson battery")
    v.add_argument("file", help=".ndb file, or - for stdin")
    v.add_argument("--max-degree", type=_positive_int, default=None,
                   help="bound for both monomial sweeps (default: pairs 4, triples 3)")
    v.add_argument("--pair-degree", type=_positive_int, default=None)
    v.add_argument("--triple-degree", type=_positive_int, default=None)
    v.add_argument("--json", action="store_true")

    for command, check, degree, text in (
            ("jacobi", "check_jacobi", 3, "Jacobi identity on bounded monomials, each (a, b) row "
             "built once per pair of cyclic classes, and rows over unordered class pairs when the "
             "skew defects are a weight form"),
            ("h0skew", "check_h0_skew", 4, "bounded skew symmetry modulo commutators: decided on the "
             "letters when the skew defects are a weight form, else one residual per pair of cyclic classes")):
        s = sub.add_parser(command, help=text)
        s.set_defaults(run=_check, check=check)
        s.add_argument("file")
        s.add_argument("--max-degree", type=_positive_int, default=degree)
        s.add_argument("--all-witnesses", action="store_true")
        s.add_argument("--json", action="store_true")

    families = sub.add_parser("classify", help="reproduce a classification table").add_subparsers(
        dest="family", required=True)
    c = families.add_parser("cl1")  # only the cl1 grid takes options
    c._negative_number_matcher = re.compile(r"-\.?\d")  # so that --lam -1/2 reads -1/2 as its value
    c.add_argument("--lam", type=_fraction, default=Fraction(1),
                   help="weight scale for the cl1 grid (default 1)")
    c.add_argument("--rho-grid", type=_fraction_list, default=None,
                   help="exploratory: comma-separated second weights")
    c.add_argument("--gamma-grid", type=_fraction_list, default=None,
                   help="exploratory: comma-separated values for each gamma entry")
    for family, run in ((c, _classify_cl1), (families.add_parser("cl3a"), _classify_cl3),
                        (families.add_parser("cl3b"), _classify_cl3)):
        family.add_argument("--json", action="store_true")
        family.set_defaults(run=run)

    l = sub.add_parser("localize", help="extend a spec to a Laurent localisation")
    l.add_argument("file")
    l.add_argument("--invert", type=_int_list, required=True,
                   help="comma-separated generator indices (1-based)")
    l.add_argument("-o", "--output", default="-")

    r = sub.add_parser("rep", help="trace-level checks at random matrix points")
    r.add_argument("file")
    r.add_argument("--size", type=_positive_int, default=2)
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("--max-degree", type=_positive_int, default=3)
    r.add_argument("--points", type=_positive_int, default=1)
    r.add_argument("--json", action="store_true")

    b = sub.add_parser("builtin", help="emit a bundled spec as .ndb text")
    b._negative_number_matcher = c._negative_number_matcher  # so that --params -2,1 reads -2,1 as its value
    b.add_argument("name", choices=sorted(classify._FAMILIES))
    b.add_argument("--params", type=_fraction_list, default=(),
                   help="comma-separated family parameters, e.g. 4,2 for cld")
    b.add_argument("-o", "--output", default="-")
    for parser, run in ((v, _verify), (l, _localize), (r, _rep), (b, _builtin)):
        parser.set_defaults(run=run)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    try:
        code = args.run(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # point stdout at devnull so the flush at exit cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE
    except speclang.ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


# handlers read library functions as module attributes and as plain imports, so a tracer swaps every ncdb binding
def _verify(args) -> int:
    spec, weights = _load_spec(args.file)
    reports, used = axioms.modified_double_poisson_battery(
        spec, weights, args.pair_degree or args.max_degree or 4, args.triple_degree or args.max_degree or 3)
    extra = {"weights": [coef_str(w) for w in used]} if used else None
    return _emit_reports(reports, args.json, extra)


def _check(args) -> int:  # jacobi and h0skew: args.check names the checker in axioms
    spec, _ = _load_spec(args.file)
    return _emit_reports([getattr(axioms, args.check)(spec, args.max_degree, args.all_witnesses)], args.json)


def _localize(args) -> int:
    spec, weights = _load_spec(args.file)
    if weights is None:
        weights = axioms.infer_weight(spec)
        if weights is None:
            raise ValueError("spec admits no weight vector; cannot localise")
    loc, _ = localize(spec, weights, args.invert)
    _write_text(args.output, speclang.render(speclang.doc_from_spec(loc)))
    return EXIT_OK


def _rep(args) -> int:
    if args.points > MAX_POINTS:  # each point's report is kept until the output is written
        raise ValueError(f"--points must be at most {MAX_POINTS}, got {args.points}")
    cap = digit_cap()  # a report prints each point's seed with str()
    if max(abs(args.seed), abs(args.seed + args.points - 1)) >= 10 ** cap:
        raise ValueError(f"--seed: a point seed of more than {cap} digits")
    spec, _ = _load_spec(args.file)
    reports = []
    for k in range(args.points):
        p = repspace.MatrixPoint.random(spec.algebra, args.size, args.seed + k)
        r = repspace.check_induced_poisson(spec, p, args.max_degree)
        r.params["seed"] = args.seed + k
        reports.append(r)
    return _emit_reports(reports, args.json)


def _builtin(args) -> int:
    spec, _ = classify.builtin(args.name, args.params)
    _write_text(args.output, speclang.render(speclang.doc_from_spec(spec, name=args.name)))
    return EXIT_OK


def _classify_cl1(args) -> int:
    rows = classify.search_cl1_grid(args.lam, args.rho_grid, args.gamma_grid)
    survivors = classify.cl1_survivors(rows)
    exploratory = args.rho_grid is not None or args.gamma_grid is not None
    agree = all(r["generic"] == r["closed_form"] for r in rows)
    lam = coef_str(args.lam)
    if args.json:
        listing = [{"rho": coef_str(rho), "gamma": list(map(coef_str, gamma))} for rho, gamma in survivors]
        payload = {"family": "cl1", "lam": lam, "survivors": listing}
        payload.update({"exhaustive": False} if exploratory else {"closed_form_agrees": agree})
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        if exploratory:
            print(f"cl1 exploratory grid at lam={lam} (non-exhaustive): {len(survivors)} passing points")
        else:
            print(f"cl1 grid at lam={lam}: {len(survivors)} survivors")
        for rho, gamma in survivors:
            print(f"  rho={coef_str(rho)}  gamma=({', '.join(map(coef_str, gamma))})")
        if not exploratory:
            print(f"closed-form conditions agree pointwise: {agree}")
    return EXIT_OK if exploratory or agree else EXIT_FAIL


def _classify_cl3(args) -> int:
    survivors = getattr(classify, f"search_{args.family}")()
    if args.json:
        print(json.dumps({
            "family": args.family,
            "survivors": [[list(a), list(b)] for a, b in survivors],
            "count": len(survivors),
        }, indent=2, sort_keys=True))
    else:
        print(f"{args.family}: {len(survivors)} surviving parameter pairs")
        for a, b in survivors:
            print(f"  {a} , {b}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
