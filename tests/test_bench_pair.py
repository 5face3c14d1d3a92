"""The verdicts of ``tools/bench_pair.py`` on synthetic paired runs."""

import importlib.util
import os
import signal
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_pair", ROOT / "tools" / "bench_pair.py")
bench_pair = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pair)

METRICS = {m["name"]: m for m in bench_pair.BENCHMARK["end_to_end"]}
WALL = METRICS["wall_s"]  # lower is better, bound 0.25
OK = METRICS["ok_ratio"]  # higher is better

BASE = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]  # median 1.0, quartiles 0.9825-1.0175


def test_summary_fields():
    head = [b - 0.1 for b in BASE]
    m = bench_pair.summarize(WALL, BASE, head)
    assert m["base"] == BASE and m["head"] == head and m["pairs"] == 10
    assert m["base_median"] == pytest.approx(1.0) and m["head_median"] == pytest.approx(0.9)
    assert m["head_wins"] == 10 and m["head_over_base"] == pytest.approx(0.9)
    assert m["unit"] == "s" and m["better"] == "lower"
    assert m["gain"] and m["within_bound"]


@pytest.mark.parametrize("losses, gain", [(0, True), (1, True), (2, False)])
def test_gain_needs_nine_pairs_in_ten(losses, gain):
    """Pairs lost by a hair leave the medians far apart, so only the win
    count moves the verdict."""
    head = [b - 0.1 for b in BASE]
    for i in (2, 6)[:losses]:  # the two lowest base values, lost by a little
        head[i] = BASE[i] + 0.001
    m = bench_pair.summarize(WALL, BASE, head)
    assert m["head_wins"] == 10 - losses
    assert m["head_median"] < m["base_median"] - 0.05
    assert m["gain"] is gain


def test_gain_needs_the_median_past_the_base_spread():
    """Ten wins by less than the base's interquartile range are no gain."""
    head = [b - 0.01 for b in BASE]
    m = bench_pair.summarize(WALL, BASE, head)
    assert m["head_wins"] == 10
    assert m["base_quartiles"][1] - m["base_quartiles"][0] > 0.01
    assert not m["gain"] and m["within_bound"]


@pytest.mark.parametrize("scale, within", [(1.0, True), (1.25, True), (1.26, False)])
def test_within_bound_is_relative_to_the_base_median(scale, within):
    m = bench_pair.summarize(WALL, [1.0] * 10, [scale] * 10)
    assert m["within_bound"] is within
    assert not m["gain"]


def test_higher_is_better_metrics():
    m = bench_pair.summarize(OK, [1.0] * 10, [1.0] * 10)
    assert m["head_wins"] == 0 and not m["gain"] and m["within_bound"]
    m = bench_pair.summarize(OK, [1.0] * 10, [0.99] * 10)
    assert not m["within_bound"]
    m = bench_pair.summarize(OK, [0.5] * 10, [1.0] * 10)
    assert m["head_wins"] == 10 and m["gain"] and m["within_bound"]


def test_one_pair():
    m = bench_pair.summarize(WALL, [1.0], [0.5])
    assert m["base_quartiles"] == (1.0, 1.0)
    assert m["gain"] and m["within_bound"]


# the perfbench/run.py of a fake tree: it records its pid, stops the script
# that started it, and would run for a minute if it were not killed
CHILD = """import os, sys, time
open({pid!r}, "w").write(str(os.getpid()))
time.sleep(0.2)
os.kill(os.getppid(), {signum})
time.sleep(60)
"""


@pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT, signal.SIGHUP], ids=["TERM", "INT", "HUP"])
def test_stopping_signal_removes_the_trees_and_the_child(signum, tmp_path, monkeypatch):
    """A stopping signal that arrives while ``perfbench/run.py`` runs ends the
    script with status 128 + signum, kills that child and removes the
    ``bench_pair_*`` directory; the caller's signal handlers are restored."""
    pid_file = tmp_path / "child.pid"

    def unpack(rev, dest):
        (dest / "perfbench").mkdir(parents=True)
        (dest / "perfbench" / "run.py").write_text(CHILD.format(pid=str(pid_file), signum=int(signum)))
        return dest

    scratch = tmp_path / "tmp"
    scratch.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))
    monkeypatch.setattr(bench_pair, "_git", lambda *args: args[-1])
    monkeypatch.setattr(bench_pair, "_unpack", unpack)
    before = signal.getsignal(signum)
    with pytest.raises(SystemExit) as stopped:
        bench_pair.main(["--base", "base", "--head", "head", "--workloads", "verify", "--pairs", "1",
                         "--out", str(tmp_path / "out.json")])
    assert stopped.value.code == 128 + signum
    assert not list(scratch.iterdir()) and not (tmp_path / "out.json").exists()
    with pytest.raises(ProcessLookupError):  # killed and reaped
        os.kill(int(pid_file.read_text()), 0)
    assert signal.getsignal(signum) is before
