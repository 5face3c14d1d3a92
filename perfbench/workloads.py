"""The three workloads of the ncdb benchmark and the oracle behind each op.

A workload is a fixed list of ops (one *pass*) generated from the seed.  Every
op calls a public entry point of ncdb exactly as a user would: a library call,
or ``ncdb.cli.main`` with the spec text on stdin and stdout captured.  The
timed part of an op is ``Op.run``; turning its output into report dicts and
judging it happens afterwards, untimed.

An op fails when it raises, or when its verdict (exit code) differs from the
expectation, which never comes from ncdb itself:

* the bundled specs (mdbI, mdbII, kontsevich and its Laurent localisation) are
  theorems of the paper and must pass; the sign-flipped mdbII must fail;
* grid points are judged by closed-form survivor conditions re-derived here
  (``triple_condition``, ``cl1_condition``), not by ncdb's own copies;
* the built-in and ``.ndb`` routes of one spec must give identical reports;
* ``classify`` CLI tables must list exactly the closed-form survivor set.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

SPECS = Path(__file__).resolve().parent / "specs"
WORKLOADS = ("verify", "rep", "classify")


# ---------------------------------------------------------------------------
# independent closed-form oracles


def triple_condition(t) -> bool:
    """Binary survivor condition of the d = 3 families."""
    t1, t2, t3 = t
    return t1 * t2 + t2 * t3 - t1 * t3 - t2 == 0


def cl3_poisson(family, params) -> bool:
    a1, a2, a3, b1, b2, b3 = params
    if family == "cl3a":
        return triple_condition((a1, a2, a3)) and triple_condition((b1, b2, b3))
    return triple_condition((a1, a2, b3)) and triple_condition((b1, b2, a3))


def cl1_condition(lam, rho, gamma) -> bool:
    """Poisson condition of the d = 2 quadratic ansatz at weight (lam, rho):
    rho = -lam with only one-sided terms in {0, -2 lam}, or rho = lam with
    only factor-swap terms in {0, -2 lam}."""
    g1, g2, g3, g4 = gamma
    binary = (0, -2 * lam)
    if rho == -lam:
        return g1 == 0 and g2 == 0 and g3 in binary and g4 in binary
    if rho == lam:
        return g3 == 0 and g4 == 0 and g1 in binary and g2 in binary
    return False


# ---------------------------------------------------------------------------
# ops


@dataclass
class Output:
    code: int            # exit status; a library verdict maps to 0 pass / 1 fail
    text: str            # the bytes a user would see; digested at the default seed
    reports: list        # report dicts, for route comparison and witness bytes
    cli_bytes: int = 0   # bytes cli.main wrote to stdout


@dataclass
class Op:
    label: str
    run: object                 # () -> raw output, the timed call into ncdb
    finish: object              # raw -> Output, untimed
    expect_pass: bool
    same_as: str = None         # label of an op whose reports must be identical
    extra: object = None        # Output -> failure reason or None
    group: str = None           # digest group; defaults to the label
    seeded: bool = False        # input drawn from the seed: digest checked at the default seed only

    def __post_init__(self):
        self.group = self.group or self.label


@dataclass
class Ncdb:
    """The imported ncdb modules; ops look names up here at call time so
    that tracing wrappers installed later are seen."""

    cli: object
    classify: object
    axioms: object
    freealg: object


def call_cli(m, argv, stdin_text):
    """Run ``ncdb <argv>`` in-process with ``stdin_text`` on stdin."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = m.cli.main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue()


def _cli_output(raw):
    code, text = raw
    return Output(code, text, json.loads(text)["reports"], len(text.encode()))


def _lib_output(reports):
    dicts = [r.as_dict() for r in reports]
    return Output(0 if all(r.passed for r in reports) else 1,
                  json.dumps(dicts, sort_keys=True), dicts)


def _flipped_mdb2(m):
    """mdbII with the sign of <<x2,x3>> flipped, keeping mdbII's weights."""
    spec, w = m.classify.builtin("mdbII")
    alg = spec.algebra
    table = {k: alg.tensor2(dict(u.terms)) for k, u in spec.table.items()}
    table[(2, 3)] = table[(2, 3)].scale(-1)
    return type(spec)(alg, table, w), w


def _rng(seed, workload):
    return random.Random(f"ncdb-bench/{workload}/{seed}")


def verify_ops(m, seed, texts, tiny=False):
    """Full battery: built-in vs .ndb routes, a Laurent spec, and grid points."""
    pair, triple = (2, 2) if tiny else (4, 3)
    degs = ["--pair-degree", str(pair), "--triple-degree", str(triple)]
    ops = []

    def battery(build):
        def run():
            spec, w = build()
            return m.axioms.modified_double_poisson_battery(spec, w, pair, triple)[0]
        return run

    cases = [("mdbI", True), ("kontsevich", True), ("mdbII_flipped", False)]
    for name, ok in cases:
        build = (lambda: _flipped_mdb2(m)) if name == "mdbII_flipped" else (lambda n=name: m.classify.builtin(n))
        ops.append(Op(f"{name}/builtin", battery(build), _lib_output, ok))
        ops.append(Op(f"{name}/ndb",
                      lambda t=texts[name]: call_cli(m, ["verify", "-", "--json"] + degs, t),
                      _cli_output, ok, same_as=f"{name}/builtin"))

    def laurent():
        code, loc = call_cli(m, ["localize", "-", "--invert", "1,2"], texts["kontsevich"])
        if code:
            return code, loc
        return call_cli(m, ["verify", "-", "--json", "--pair-degree", str(pair),
                            "--triple-degree", str(min(triple, 2))], loc)
    ops.append(Op("kontsevich_laurent/ndb", laurent, _cli_output, True))

    # The Poisson point is the largest op of the pass and sets peak_rss_mb, so
    # it is drawn where that size does not depend on the draw: from cl3a (a
    # cl3b point takes about a third less time and memory), and not from the
    # six complementary cl3a points (betas = 1 - alphas), which intern 15%
    # fewer words and peak at about 123 MB instead of 139 MB.
    rng = _rng(seed, "verify")
    grid = [(fam, p) for fam in ("cl3a", "cl3b") for p in itertools.product((0, 1), repeat=6)]
    poisson = [g for g in grid if g[0] == "cl3a" and cl3_poisson(*g)
               and g[1][3:] != tuple(1 - a for a in g[1][:3])]
    other = [g for g in grid if not cl3_poisson(*g)]
    picks = [rng.choice(poisson)] + rng.sample(other, 1 if tiny else 4)
    grid_ops = []
    for fam, params in picks:
        build = lambda f=fam, p=params: m.classify.build(m.classify.FamilyParams(f, p))
        grid_ops.append(Op(f"grid/{fam}{''.join(map(str, params))}", battery(build), _lib_output,
                           cl3_poisson(fam, params), seeded=True))
    # spread the short non-Poisson points over the pass, so that the median op
    # (one of them) samples the machine's speed at several moments
    for k, op in enumerate(grid_ops[1:]):
        ops.insert(1 + 3 * k, op)
    return ops + grid_ops[:1]


def rep_ops(m, seed, texts, tiny=False):
    """``ncdb rep`` at exact matrix points; point seeds come from the seed."""
    rng = _rng(seed, "rep")
    deg = "2" if tiny else "3"
    runs = [("mdbI", "3", 1, True), ("mdbII", "2", 2, True), ("mdbII_flipped", "2", 1, False)]
    if tiny:
        runs = [(n, "2", 1, ok) for n, _, _, ok in runs]
    ops = []
    for name, size, points, ok in runs:
        argv = ["rep", "-", "--size", size, "--max-degree", deg, "--points", str(points),
                "--seed", str(rng.randrange(10**6)), "--json"]

        def count(out, n=points, ok=ok):
            if len(out.reports) != (n if ok else 1):
                return f"expected {n if ok else 1} reports, got {len(out.reports)}"
            if not ok and not out.reports[0]["witnesses"]:
                return "failing report has no witness"
            return None
        ops.append(Op(f"{name}/size{size}x{points}",
                      lambda a=argv, t=texts[name]: call_cli(m, a, t),
                      _cli_output, ok, extra=count, seeded=True))
    return ops


def _rational(rng, avoid):
    while True:
        q = Fraction(rng.choice((-1, 1)) * rng.randint(1, 7), rng.randint(1, 5))
        if q not in avoid:
            return q


def classify_ops(m, seed, texts=None, tiny=False):
    """Generator-level checks on roughly a thousand small specs, plus the
    three ``ncdb classify`` tables."""
    rng = _rng(seed, "classify")
    points = []  # (group, family, params, expected)
    one = Fraction(1)
    for rho in (one, -one):
        for gamma in itertools.product((0, -2), repeat=4):
            points.append(("cl1", "cl1", (one, rho) + gamma, cl1_condition(one, rho, gamma)))
    lam = _rational(rng, {0})
    rhos = (lam, -lam, _rational(rng, {0, lam, -lam}))
    a = _rational(rng, {0, -2 * lam})
    gvals = (Fraction(0), -2 * lam, a, _rational(rng, {0, -2 * lam, a}))
    for rho in rhos:
        for gamma in itertools.product(gvals, repeat=4):
            points.append(("cl1_rational", "cl1", (lam, rho) + gamma, cl1_condition(lam, rho, gamma)))
    for fam in ("cl3a", "cl3b"):
        for params in itertools.product((0, 1), repeat=6):
            points.append((fam, fam, params, cl3_poisson(fam, params)))
    for d in range(4, 8):
        for delta in range(d + 1):
            for fam in ("cld", "cld2"):
                points.append((f"{fam}_d{d}", fam, (d, delta), True))
    if tiny:
        points = points[:40:3] + points[-3:]

    def gen_level(fam, params):
        def run():
            spec, w = m.classify.build(m.classify.FamilyParams(fam, params))
            return (m.axioms.check_weight(spec, w), m.axioms.check_poisson_property(spec, w))
        return run

    ops = [Op(f"{group}/{i}", gen_level(fam, params), _lib_output, ok, group=group,
              seeded=group == "cl1_rational")
           for i, (group, fam, params, ok) in enumerate(points)]

    for fam in ("cl1", "cl3a", "cl3b"):
        def table(out, fam=fam):
            doc = json.loads(out.text)
            if fam == "cl1":
                got = {(r["rho"], tuple(r["gamma"])) for r in doc["survivors"]}
                want = {(str(rho), tuple(map(str, g)))
                        for rho in (one, -one) for g in itertools.product((0, -2), repeat=4)
                        if cl1_condition(one, rho, g)}
                return None if got == want and doc["closed_form_agrees"] else "cl1 table differs"
            got = {(tuple(x), tuple(y)) for x, y in doc["survivors"]}
            want = set()
            for p in itertools.product((0, 1), repeat=6):
                if cl3_poisson(fam, p):
                    a1, a2, a3, b1, b2, b3 = p
                    want.add(((a1, a2, a3), (b1, b2, b3)) if fam == "cl3a" else ((a1, a2, b3), (b1, b2, a3)))
            return None if got == want and doc["count"] == len(want) else f"{fam} table differs"
        ops.append(Op(f"table/{fam}", lambda f=fam: call_cli(m, ["classify", f, "--json"], ""),
                      lambda raw: Output(raw[0], raw[1], [], len(raw[1].encode())),
                      True, extra=table))
    return ops


MAKERS = {"verify": verify_ops, "rep": rep_ops, "classify": classify_ops}


def load_texts():
    return {p.stem: p.read_text(encoding="utf-8") for p in sorted(SPECS.glob("*.ndb"))}


def judge(op, out, seen):
    """Failure reason for one op's output, or None when it is correct."""
    if out.code != (0 if op.expect_pass else 1):
        return f"exit code {out.code}, expected {0 if op.expect_pass else 1}"
    if op.same_as is not None:
        ref = seen.get(op.same_as)
        if ref is None or json.dumps(ref.reports, sort_keys=True) != json.dumps(out.reports, sort_keys=True):
            return f"reports differ from {op.same_as}"
    if op.extra is not None:
        return op.extra(out)
    return None
