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
import sys
from fractions import Fraction

from . import axioms, classify, repspace, speclang
from .freealg import exact
from .localize import localize

EXIT_OK, EXIT_FAIL, EXIT_USAGE, EXIT_PIPE = 0, 1, 2, 141


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
    spec, weights = doc.to_spec()
    return doc, spec, weights


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
    try:
        return Fraction(text)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


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
    try:
        return tuple(exact(Fraction(x)) for x in text.split(","))
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


def _build_parser():
    p = argparse.ArgumentParser(prog="ncdb", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="full modified-double-Poisson battery")
    v.add_argument("file", help=".ndb file, or - for stdin")
    v.add_argument("--max-degree", type=_positive_int, default=None,
                   help="bound for both brute-force sweeps (default: pairs 4, triples 3)")
    v.add_argument("--pair-degree", type=_positive_int, default=None)
    v.add_argument("--triple-degree", type=_positive_int, default=None)
    v.add_argument("--json", action="store_true")

    j = sub.add_parser("jacobi", help="bounded brute-force Jacobi identity")
    j.add_argument("file")
    j.add_argument("--max-degree", type=_positive_int, default=3)
    j.add_argument("--all-witnesses", action="store_true")
    j.add_argument("--json", action="store_true")

    h = sub.add_parser("h0skew", help="bounded skew symmetry modulo commutators")
    h.add_argument("file")
    h.add_argument("--max-degree", type=_positive_int, default=4)
    h.add_argument("--all-witnesses", action="store_true")
    h.add_argument("--json", action="store_true")

    c = sub.add_parser("classify", help="reproduce a classification table")
    c.add_argument("family", choices=["cl1", "cl3a", "cl3b"])
    c.add_argument("--lam", type=_fraction, default=Fraction(1),
                   help="weight scale for the cl1 grid (default 1)")
    c.add_argument("--rho-grid", type=_fraction_list, default=None,
                   help="exploratory: comma-separated second weights (cl1 only)")
    c.add_argument("--gamma-grid", type=_fraction_list, default=None,
                   help="exploratory: comma-separated values for each gamma entry")
    c.add_argument("--json", action="store_true")

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
    b.add_argument("name", choices=sorted(classify._FAMILIES))
    b.add_argument("--params", type=_fraction_list, default=(),
                   help="comma-separated family parameters, e.g. 4,2 for cld")
    b.add_argument("-o", "--output", default="-")
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    try:
        code = _dispatch(args)
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


def _dispatch(args) -> int:
    if args.command == "verify":
        _, spec, weights = _load_spec(args.file)
        pair_deg, triple_deg = (4, 3) if args.max_degree is None else (args.max_degree,) * 2
        if args.pair_degree is not None:
            pair_deg = args.pair_degree
        if args.triple_degree is not None:
            triple_deg = args.triple_degree
        reports, used = axioms.modified_double_poisson_battery(
            spec, weights, pair_deg, triple_deg
        )
        extra = {"weights": [str(w) for w in used]} if used else None
        return _emit_reports(reports, args.json, extra)

    if args.command == "jacobi":
        _, spec, _ = _load_spec(args.file)
        return _emit_reports(
            [axioms.check_jacobi(spec, args.max_degree, args.all_witnesses)], args.json
        )

    if args.command == "h0skew":
        _, spec, _ = _load_spec(args.file)
        return _emit_reports(
            [axioms.check_h0_skew(spec, args.max_degree, args.all_witnesses)], args.json
        )

    if args.command == "classify":
        return _classify(args)

    if args.command == "localize":
        _, spec, weights = _load_spec(args.file)
        if weights is None:
            weights = axioms.infer_weight(spec)
            if weights is None:
                print("error: spec admits no weight vector; cannot localise", file=sys.stderr)
                return EXIT_FAIL
        loc, _ = localize(spec, weights, args.invert)
        _write_text(args.output, speclang.render(speclang.doc_from_spec(loc)))
        return EXIT_OK

    if args.command == "rep":
        _, spec, _ = _load_spec(args.file)
        reports = []
        for k in range(args.points):
            p = repspace.MatrixPoint.random(spec.algebra, args.size, args.seed + k)
            r = repspace.check_induced_poisson(spec, p, args.max_degree)
            r.params["seed"] = args.seed + k
            reports.append(r)
        return _emit_reports(reports, args.json)

    if args.command == "builtin":
        spec, _ = classify.builtin(args.name, args.params)
        _write_text(args.output, speclang.render(speclang.doc_from_spec(spec, name=args.name)))
        return EXIT_OK

    raise AssertionError("unhandled command")


def _classify(args) -> int:
    if args.family == "cl1":
        rows = classify.search_cl1_grid(args.lam, args.rho_grid, args.gamma_grid)
        survivors = classify.cl1_survivors(rows)
        exploratory = args.rho_grid is not None or args.gamma_grid is not None
        agree = all(r["generic"] == r["closed_form"] for r in rows)
        if args.json:
            listing = [{"rho": str(rho), "gamma": [str(g) for g in gamma]} for rho, gamma in survivors]
            payload = {"family": "cl1", "lam": str(args.lam), "survivors": listing}
            payload.update({"exhaustive": False} if exploratory else {"closed_form_agrees": agree})
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            if exploratory:
                print(f"cl1 exploratory grid at lam={args.lam} (non-exhaustive): "
                      f"{len(survivors)} passing points")
            else:
                print(f"cl1 grid at lam={args.lam}: {len(survivors)} survivors")
            for rho, gamma in survivors:
                print(f"  rho={rho}  gamma=({', '.join(str(g) for g in gamma)})")
            if not exploratory:
                print(f"closed-form conditions agree pointwise: {agree}")
        return EXIT_OK if exploratory or agree else EXIT_FAIL

    search = classify.search_cl3a if args.family == "cl3a" else classify.search_cl3b
    survivors = search()
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
