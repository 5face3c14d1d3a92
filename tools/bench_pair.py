"""A/B comparison of two ncdb trees on the perfbench workloads.

Usage, from the root of a checkout::

    python3 tools/bench_pair.py --base REV --out BENCH.json \\
        [--head HEAD] [--workloads verify,rep,classify] [--pairs 10] [--seed 0]

Each side is the committed files of its revision, unpacked with
``git archive`` into a fresh temporary directory, so both sides start alike.
For each workload the script runs ``perfbench/run.py`` of each tree in its
own process, for the run length ``BENCHMARK.json`` sets, in pairs whose
order alternates (base first, then head first, ...), so a drift in machine
speed falls on both sides alike.  The default of ten pairs is the fewest
that can back a claimed gain: the head must win at least nine of them.

The output JSON holds, per workload and end-to-end metric of
``BENCHMARK.json``, the per-pair values of both sides, their medians and
quartiles, and how many pairs the head won (strictly better in the metric's
direction), with two verdicts:

* ``gain``: the head won at least nine pairs in ten, and its median beats
  the base median by more than the base's interquartile range;
* ``within_bound``: the head median is no worse than the base median by
  more than the metric's relative ``bound`` in ``BENCHMARK.json``.

Each side also records whether every run was ``correct`` and how many ops
each run attempted: a side that fits more passes into the fixed run length
keeps more per-op records, which shows in its ``peak_rss_mb``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def _unpack(rev: str, dest: Path) -> Path:
    """The committed files of ``rev`` in the fresh directory ``dest``."""
    data = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as t:
        t.extractall(dest, filter="data")
    return dest


def _run(tree: Path, workload: str, seed: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    p = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{tree}: {workload} printed nothing (exit {p.returncode}):\n{p.stderr}")
    out = json.loads(lines[-1])
    print(f"  {tree.name:4s} {workload:8s} correct={out['correct']} "
          + " ".join(f"{k}={v['value']:.4g}" for k, v in out["metrics"].items()), flush=True)
    return out


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def summarize(metric: dict, base: list, head: list) -> dict:
    """The summary of one ``BENCHMARK.json`` end-to-end ``metric`` over paired
    runs, ``base[i]`` and ``head[i]`` being the values of pair i."""
    sign = 1 if metric["better"] == "lower" else -1
    wins = sum(sign * (h - b) < 0 for b, h in zip(base, head))
    base_med, head_med = statistics.median(base), statistics.median(head)
    base_q = _quartiles(base)
    return {
        "unit": metric["unit"],
        "better": metric["better"],
        "base": base,
        "head": head,
        "base_median": base_med,
        "head_median": head_med,
        "base_quartiles": base_q,
        "head_quartiles": _quartiles(head),
        "head_over_base": head_med / base_med if base_med else None,
        "head_wins": wins,
        "pairs": len(base),
        "gain": 10 * wins >= 9 * len(base) and sign * (base_med - head_med) > base_q[1] - base_q[0],
        "within_bound": sign * (head_med - base_med) <= metric["bound"] * abs(base_med),
    }


def compare(base: Path, head: Path, workloads, pairs: int, seed: int) -> dict:
    result = {}
    for workload in workloads:
        runs = {"base": [], "head": []}
        order = []
        for i in range(pairs):
            sides = ("base", "head") if i % 2 == 0 else ("head", "base")
            order.append("-".join(sides))
            for side in sides:
                runs[side].append(_run(base if side == "base" else head, workload, seed))
        entry = {"order": order, "correct": {s: [r["correct"] for r in runs[s]] for s in runs},
                 "attempted": {s: [r["attempted"] for r in runs[s]] for s in runs}, "metrics": {}}
        for metric in BENCHMARK["end_to_end"]:
            name = metric["name"]
            base_vals, head_vals = ([r["metrics"][name]["value"] for r in runs[s]] for s in ("base", "head"))
            entry["metrics"][name] = summarize(metric, base_vals, head_vals)
        result[workload] = entry
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", required=True, help="git revision of the base tree")
    p.add_argument("--head", default="HEAD", help="git revision of the head tree")
    p.add_argument("--workloads", default="verify,rep,classify")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, type=Path)
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    workloads = args.workloads.split(",")
    unknown = sorted(set(workloads) - {w["name"] for w in BENCHMARK["workloads"]})
    if unknown:
        p.error(f"unknown workloads: {', '.join(unknown)}")
    base_rev = _git("rev-parse", "--short", args.base)
    head_rev = _git("rev-parse", "--short", args.head)
    with tempfile.TemporaryDirectory(prefix="bench_pair_") as tmp:
        base = _unpack(base_rev, Path(tmp) / "base")
        head = _unpack(head_rev, Path(tmp) / "head")
        workloads = compare(base, head, workloads, args.pairs, args.seed)
    out = {
        "base": base_rev,
        "head": head_rev,
        "seed": args.seed,
        "seconds": BENCHMARK["run_seconds"],
        "machine": {"cpus": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform()},
        "workloads": workloads,
    }
    args.out.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
    for workload, entry in workloads.items():
        for name, m in entry["metrics"].items():
            print(f"{workload:8s} {name:12s} base {m['base_median']:.4g} head {m['head_median']:.4g} "
                  f"head wins {m['head_wins']}/{m['pairs']} gain {m['gain']} within_bound {m['within_bound']}")
    return 0 if all(all(c) for e in workloads.values() for c in e["correct"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
