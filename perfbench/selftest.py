"""Self-test of the ncdb benchmark; exits non-zero when a check fails.

Run from the root of a checkout: ``python3 perfbench/selftest.py``.  It takes
a few seconds: every workload runs one tiny pass (degree 2, one point).

Checks:

* every workload passes its oracle at tiny size, traced and untraced;
* the emitted metric names are exactly those listed in ``BENCHMARK.json``;
* a deliberately wrong expectation (the sign-flipped mdbII marked as
  passing) and a tampered report digest are both counted as failures;
* tracing wraps imported names at every site (``classify`` and ``localize``
  bind ``check_weight`` with ``from ... import``).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

PROBLEMS = []


def check(cond, message):
    if not cond:
        PROBLEMS.append(message)
        print(f"selftest: FAIL {message}")


def tiny(workload, trace=0):
    args = run._parse(["--workload", workload, "--seconds", "0", "--trace", str(trace), "--tiny"])
    return run.run_workload(args)


def main() -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    end_to_end = {m["name"] for m in bench["end_to_end"]}
    per_layer = {m["name"] for m in bench["per_layer"]}
    check({w["name"] for w in bench["workloads"]} == set(run.workloads.WORKLOADS),
          "BENCHMARK.json workloads differ from the benchmark's")

    for workload in run.workloads.WORKLOADS:
        res = tiny(workload)
        check(res["run"].failed == 0, f"{workload}: {res['run'].errors}")
        check(set(res["metrics"]) == end_to_end,
              f"{workload}: end-to-end names {sorted(set(res['metrics']) ^ end_to_end)} not matched")
        res = tiny(workload, trace=1)
        check(res["run"].failed == 0, f"{workload} traced: {res['run'].errors}")
        check(set(res["metrics"]) == per_layer,
              f"{workload}: per-layer names {sorted(set(res['metrics']) ^ per_layer)} not matched")

    # names bound by ``from ... import`` are wrapped too
    run.import_ncdb()
    run.Tracer().install()
    for name in ("ncdb", "ncdb.axioms", "ncdb.classify", "ncdb.localize"):
        check(hasattr(sys.modules[name].check_weight, "__wrapped__"), f"{name}.check_weight not wrapped")
    check(hasattr(sys.modules["ncdb.cli"].localize, "__wrapped__"), "ncdb.cli.localize not wrapped")

    # a wrong expectation is a failure
    m, ops = run.setup("verify", run.DEFAULT_SEED, True)
    for op in ops:
        if op.label == "mdbII_flipped/builtin":
            op.expect_pass = True
    bad = run.Run(m, ops, None)
    bad.one_pass()
    check(bad.failed >= 1 and bad.attempted == len(ops),
          f"wrong expectation gave {bad.failed} failures of {bad.attempted}")

    # so is a report whose bytes differ from the recorded digest
    m, ops = run.setup("verify", run.DEFAULT_SEED, True)
    ref = run.Run(m, ops, None)
    ref.one_pass()
    good = run.Run(m, ops, dict(ref.groups))
    good.one_pass()
    check(good.failed == 0, f"matching digests gave {good.errors}")
    tampered = dict(ref.groups, **{"mdbI/ndb": "0" * 64})
    bad = run.Run(m, ops, tampered)
    bad.one_pass()
    check(bad.failed == 1, f"tampered digest gave {bad.failed} failures")

    print("selftest:", "FAILED" if PROBLEMS else "ok")
    return 1 if PROBLEMS else 0


if __name__ == "__main__":
    sys.exit(main())
