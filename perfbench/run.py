"""Benchmark of ncdb: three workloads, measured end to end and per layer.

Usage, from the root of a checkout (ncdb is imported from ``src/``)::

    python3 perfbench/run.py --workload verify|rep|classify \\
        --seed N --seconds S --trace 0|1

One invocation runs one workload in its own process.  Set-up is importing
ncdb and generating the seeded inputs; it is done once in this process for
the timed phase, and ``SETUPS`` times more in fresh Python processes, each of
which times its own import and input generation (``cold_setup``), so that
every stdlib and ncdb module it needs is loaded afresh.  The timed phase then
runs whole passes over the workload's op list, one op at a time in a closed
loop, until ``--seconds`` have elapsed (at least one pass).  Before each op
the process-global cyclic-normal-form cache is emptied, and every op builds
fresh spec and matrix-point objects, so each op is as cold as a fresh ``ncdb``
process.  After an op of 50 ms or more
the garbage collector runs (untimed), so no op inherits another's garbage;
after shorter ops it would cost more than the op.

Every op's output is checked (see ``workloads.py``).  The sha256 of every
report is also compared with ``digests.json``, recorded from the commit that
introduced the benchmark: at every seed for ops whose input does not depend on
the seed, and at the default seed for all.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``     median of the fresh-process set-up times;
* ``wall_s``      median over passes of the summed op latencies of a pass;
* ``op_p50_s``    median op latency;
* ``op_tail_s``   the highest of p50/p90/p99/p99.9 with at least ten of a
  pass's ops beyond it (the maximum when a pass has fewer than 20 ops), the
  median over passes; the percentile and the op count are printed alongside;
* ``peak_rss_mb`` peak resident set of this process;
* ``ok_ratio``    ops whose output was correct / ops attempted
  (the failure ratio is ``1 - ok_ratio``).

The four times are scaled to a reference machine speed (see ``Probe``); the
measured seconds and the probe's median are printed above the JSON line.

``--trace 1`` runs one untraced pass, then installs the wrappers of
``tracing.py`` and runs traced passes; it reports the per-layer metrics
(medians over traced passes) and ``trace.overhead_s``, the traced minus the
untraced ``wall_s``.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit status is 1 when any op failed, 2 when
ncdb cannot be set up (then nothing is printed on stdout), and 0 otherwise.
``--seconds`` defaults to ``run_seconds`` of ``BENCHMARK.json``; ``--tiny``
shrinks every workload (used by ``selftest.py``).
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import importlib
import json
import math
import resource
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 0
SETUPS = 11  # fresh-process set-ups timed per run
GC_AFTER_S = 0.05  # collect after ops at least this long (see Run.one_pass)
PROBE_INTERVAL_S = 0.25
PROBE_WINDOW_S = 2.0
PROBE_LOOPS = 20000
PROBE_REF_S = 0.0018  # typical in-run probe median on the baseline machine

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


class SetupError(Exception):
    pass


def import_ncdb():
    """Import ncdb from this checkout's ``src/`` as a fresh process would."""
    for name in [n for n in sys.modules if n == "ncdb" or n.startswith("ncdb.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        pkg = importlib.import_module("ncdb")
    except ImportError as e:
        raise SetupError(f"cannot import ncdb from {SRC}: {e}") from None
    if Path(pkg.__file__).resolve().parent != SRC / "ncdb":
        raise SetupError(f"imported ncdb from {pkg.__file__}, not from {SRC}")
    return workloads.Ncdb(*(importlib.import_module(f"ncdb.{n}") for n in ("cli", "classify", "axioms", "freealg")))


def setup(workload, seed, tiny):
    """Import ncdb and make the workload's ops; returns (ncdb, ops)."""
    m = import_ncdb()
    return m, workloads.MAKERS[workload](m, seed, workloads.load_texts(), tiny)


# Run by ``python3 -c`` in a fresh process: the same set-up as ``setup``,
# timed from before the first import; prints the elapsed seconds.
COLD_SETUP = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [{src!r}, {here!r}]
import importlib, workloads
m = workloads.Ncdb(*(importlib.import_module("ncdb." + n) for n in ("cli", "classify", "axioms", "freealg")))
workloads.MAKERS[{workload!r}](m, {seed!r}, workloads.load_texts(), {tiny!r})
print(time.perf_counter() - t0)
"""


def cold_setup(workload, seed, tiny, clock=perf_counter):
    """Set up in a fresh Python process; returns ((start, end), seconds), the
    parent's clock around the child and the child's own set-up time."""
    code = COLD_SETUP.format(src=str(SRC), here=str(HERE), workload=workload, seed=seed, tiny=tiny)
    t0 = clock()
    p = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True)
    t1 = clock()
    if p.returncode != 0:
        raise SetupError(f"set-up in a fresh process failed: {p.stderr.strip()[-500:]}")
    return (t0, t1), float(p.stdout.split()[-1])


class Probe:
    """Samples the machine's speed with a fixed pure-Python loop every
    ``PROBE_INTERVAL_S``, from a SIGALRM handler so that long ops are covered.

    On a shared virtual machine the speed of the same Python code drifts by
    tens of percent within seconds and over minutes, which swamps run-to-run
    comparisons.  Each end-to-end time is therefore scaled by ``PROBE_REF_S``
    over the median probe time within ``PROBE_WINDOW_S`` of the interval
    measured: seconds at the baseline machine's reference speed.  ``clock``
    excludes the time spent probing, and probe samples are stamped with it.
    """

    def __init__(self):
        self.times = []
        self.samples = []
        self.spent = 0.0
        self._saved = None

    def _tick(self, signum=None, frame=None):
        self.times.append(self.clock())
        t0 = perf_counter()
        s = 0
        for i in range(PROBE_LOOPS):
            s += i * i % 7
        self.samples.append(perf_counter() - t0)
        self.spent += perf_counter() - t0

    def clock(self):
        return perf_counter() - self.spent

    def scaled(self, start, end, seconds=None):
        """Seconds from ``start`` to ``end`` (or ``seconds`` taken within
        that interval) at the reference speed."""
        lo = bisect.bisect_left(self.times, start - PROBE_WINDOW_S)
        hi = bisect.bisect_right(self.times, end + PROBE_WINDOW_S)
        if seconds is None:
            seconds = end - start
        return seconds * PROBE_REF_S / statistics.median(self.samples[lo:hi] or self.samples)

    def __enter__(self):
        self._tick()
        self._saved = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._saved)
        self._tick()


class Run:
    """Executes passes and keeps what the metrics need."""

    def __init__(self, m, ops, digests, default_seed=True, clock=perf_counter):
        self.clock = clock
        self.ops = ops
        self.digests = digests      # group -> sha256, or None to skip
        self.default_seed = default_seed
        self.cnf = m.freealg.cyclic_normal_form
        self.attempted = 0
        self.failed = 0
        self.pass_spans = []        # per pass, the (start, end) clock of each op
        self.by_label = {}
        self.errors = []

    def _fail(self, label, reason):
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(f"{label}: {reason}")

    def one_pass(self, tracer=None):
        """Run every op once; returns (busy seconds, pass facts)."""
        seen, hashes, group_ops = {}, {}, {}
        spans = []
        self.pass_spans.append(spans)
        busy = 0.0
        facts = {"witness_bytes": 0, "cli_bytes": 0}
        gc.collect()
        for op in self.ops:
            self.cnf.cache_clear()
            self.attempted += 1
            group_ops.setdefault(op.group, []).append(op.label)
            if tracer is not None:
                tracer.active = True
            t0 = self.clock()
            try:
                raw, error = op.run(), None
            except Exception as e:  # an op that raises is a failed op; keep going
                raw, error = None, f"raised {type(e).__name__}: {e}"
            t1 = self.clock()
            dt = t1 - t0
            if tracer is not None:
                tracer.active = False
                tracer.after_op(self.cnf.cache_info())
            busy += dt
            spans.append((t0, t1))
            self.by_label.setdefault(op.label, []).append(dt)
            if dt >= GC_AFTER_S:
                gc.collect()
            if error is None:
                try:
                    out = op.finish(raw)
                    error = workloads.judge(op, out, seen)
                except (ValueError, KeyError, TypeError) as e:
                    error = f"unreadable output: {e}"
            if error is not None:
                self._fail(op.label, error)
                continue
            seen[op.label] = out
            hashes.setdefault(op.group, hashlib.sha256()).update(out.text.encode() + b"\n")
            facts["cli_bytes"] += out.cli_bytes
            facts["witness_bytes"] += sum(
                len(json.dumps(r.get("witnesses", []), sort_keys=True)) for r in out.reports
            )
        self.groups = {g: h.hexdigest() for g, h in hashes.items()}
        if self.digests is not None:
            seeded = {op.group for op in self.ops if op.seeded}
            for group, labels in group_ops.items():
                if group in seeded and not self.default_seed:
                    continue
                if self.groups.get(group) != self.digests.get(group):
                    # every op of a group whose bytes changed counts as failed
                    for label in labels:
                        if label in seen:
                            self._fail(label, "report bytes differ from digests.json")
        return busy, facts


def tail(passes):
    """(percentile, value): the highest of p50/p90/p99/p99.9 with at least ten
    of a pass's ops beyond it, else the maximum; taken in each pass, so that
    the number of passes does not bias it, and the median over passes."""
    per_pass = len(passes[0])
    pct = 100.0
    for p in (99.9, 99.0, 90.0, 50.0):
        if per_pass * (1 - p / 100) >= 10:
            pct = p
            break
    values = []
    for latencies in passes:
        xs = sorted(latencies)
        values.append(xs[max(1, math.ceil(pct / 100 * len(xs))) - 1])
    return pct, statistics.median(values)


UNITS = {
    "bracket.mb_ids_hit_ratio": "ratio",
    "freealg.cnf_hit_ratio": "ratio",
    "speclang.fraction_coef_share": "ratio",
    "axioms.cells_per_s": "1/s",
    "axioms.witness_bytes": "bytes",
    "cli.out_bytes": "bytes",
}


def _unit(name):
    return UNITS.get(name) or ("s" if name.endswith("_s") else "count")


def run_workload(args, digests=None):
    """Set up, run passes for ``args.seconds``; returns the result dict."""
    with Probe() as probe:
        m, ops = setup(args.workload, args.seed, args.tiny)
        # half of the timed set-ups run after the timed phase, so that their
        # median does not hang on one moment of the machine's speed
        setups = [cold_setup(args.workload, args.seed, args.tiny, probe.clock)
                  for _ in range(SETUPS - SETUPS // 2)]
        run = Run(m, ops, digests, args.seed == DEFAULT_SEED, probe.clock)
        tracer = None
        passes, traced, layer = [], [], []
        start = perf_counter()
        while True:
            if tracer is not None:
                tracer.reset()
            busy, facts = run.one_pass(tracer)
            (traced if tracer is not None else passes).append(busy)
            if tracer is not None:
                vals = tracer.layer_metrics()
                vals["axioms.witness_bytes"] = facts["witness_bytes"]
                vals["cli.out_bytes"] = facts["cli_bytes"]
                layer.append(vals)
            elif args.trace:
                tracer = Tracer().install()
                continue
            if perf_counter() - start >= args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        setups += [cold_setup(args.workload, args.seed, args.tiny, probe.clock)
                   for _ in range(SETUPS // 2)]
    result = {"passes": len(passes) + len(traced), "ops_per_pass": len(ops), "run": run,
              "probe_s": statistics.median(probe.samples)}
    if args.trace:
        # per-layer times stay in measured seconds: they have no bound
        metrics = {k: (statistics.median(v[k] for v in layer), _unit(k)) for k in layer[0]}
        metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(passes), "s")
        result["sites"] = tracer.sites
        result["metrics"] = metrics
        return result

    def times(duration):
        per_pass = [[duration(a, b) for a, b in spans] for spans in run.pass_spans]
        pct, tail_s = tail(per_pass)
        return pct, {
            "setup_s": statistics.median(duration(a, b, s) for (a, b), s in setups),
            "wall_s": statistics.median(sum(p) for p in per_pass),
            "op_p50_s": statistics.median(x for p in per_pass for x in p),
            "op_tail_s": tail_s,
        }

    result["tail_pct"], result["measured"] = times(lambda a, b, s=None: b - a if s is None else s)
    _, scaled = times(probe.scaled)
    result["metrics"] = {name: (value, "s") for name, value in scaled.items()}
    result["metrics"]["peak_rss_mb"] = (peak_rss_mb, "MB")
    result["metrics"]["ok_ratio"] = ((run.attempted - run.failed) / run.attempted, "ratio")
    return result


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float,
                   default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="shrink the workload (self-test)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    digests = None
    if not args.tiny:
        digests = json.loads(DIGESTS.read_text())[args.workload]
    try:
        res = run_workload(args, digests)
    except SetupError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    run = res["run"]
    for err in run.errors:
        print(f"FAILED {err}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: {res['passes']} passes of "
          f"{res['ops_per_pass']} ops, {run.attempted} attempted, {run.failed} failed")
    if len(run.by_label) <= 20:
        for label, ts in run.by_label.items():
            print(f"  op {label:28s} median {statistics.median(ts):.4f} s over {len(ts)}")
    if "tail_pct" in res:
        print(f"  op_tail_s is p{res['tail_pct']:g} of each pass's {res['ops_per_pass']} ops, "
              f"median over {res['passes']} passes (n={run.attempted} ops)")
    if "sites" in res:
        print(f"  tracing wrapped {res['sites']} sites")
    print(f"  speed probe median {res['probe_s'] * 1e3:.4f} ms (reference {PROBE_REF_S * 1e3:g} ms)")
    for name, value in res.get("measured", {}).items():
        print(f"  measured {name} = {value:.6g} s")
    metrics = {}
    for name, (value, unit) in res["metrics"].items():
        print(f"  {name} = {value:.6g} {unit}")
        metrics[name] = {"value": value, "unit": unit}
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 1 if run.failed else 0


if __name__ == "__main__":
    sys.exit(main())
