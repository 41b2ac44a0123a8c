"""Tests of the benchmark's own code.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import probe  # noqa: E402
import run  # noqa: E402
import tracer as tr  # noqa: E402
from workloads import WORKLOADS, Command, Tally, trials_of  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture
def restore_env():
    saved = dict(os.environ)
    yield
    os.environ.clear()
    os.environ.update(saved)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_on_nested_span_tree():
    clock = FakeClock()
    t = tr.Tracer(clock=clock)

    def advance(dt):
        clock.now += dt

    def inner():
        advance(5)

    def middle():
        advance(3)
        inner()

    def outer():
        advance(1)
        middle()
        advance(2)
        inner()

    inner = t.wrap(tr.Target("a.inner", "m", "inner"), inner)
    middle = t.wrap(tr.Target("b.middle", "m", "middle"), middle)
    outer = t.wrap(tr.Target("b.outer", "m", "outer"), outer)
    outer()

    s = t.stats
    assert (s["a.inner"].calls, s["a.inner"].total_s, s["a.inner"].self_s) == (2, 10, 10)
    assert (s["b.middle"].calls, s["b.middle"].total_s, s["b.middle"].self_s) == (1, 8, 3)
    assert (s["b.outer"].calls, s["b.outer"].total_s, s["b.outer"].self_s) == (1, 16, 3)
    assert t.self_s("a") == 10 and t.self_s("b") == 6
    assert sum(x.self_s for x in s.values()) == s["b.outer"].total_s


def test_self_time_survives_exceptions():
    clock = FakeClock()
    t = tr.Tracer(clock=clock)

    def boom():
        clock.now += 4
        raise ValueError

    def caller():
        clock.now += 1
        with pytest.raises(ValueError):
            boom()

    boom = t.wrap(tr.Target("x.boom", "m", "boom"), boom)
    t.wrap(tr.Target("y.caller", "m", "caller"), caller)()
    assert t.stats["x.boom"].calls == 1
    assert t.stats["y.caller"].self_s == 1 and t.stats["y.caller"].total_s == 5


def test_probe_reports_a_positive_slowdown_for_each_kind():
    for kind in probe.KINDS:
        assert 0.0 < probe.slowdown(kind) < 100.0
    assert {w.probe for w in WORKLOADS.values()} <= set(probe.KINDS)


def test_missing_functions_are_reported_absent(restore_env):
    run.prepare(WORKLOADS["gates"])
    from cachesig import cache, experiments

    original_phi = cache.CacheState.phi
    original_search = experiments.binary_search
    targets = (
        tr.Target("cache.gone", "cachesig.cache", "no_such_function"),
        tr.Target("kernels.gone", "cachesig.no_such_module", "run_tape"),
        tr.Target("cache.phi", "cachesig.cache", "CacheState.phi"),
        tr.Target("algorithms.binary_search", "cachesig.algorithms", "binary_search"),
    )
    t = tr.Tracer().install(targets)
    try:
        assert sorted(t.absent) == ["cache.gone", "kernels.gone"]
        assert cache.CacheState.phi is not original_phi
        # patched where it is used, under the name it was imported as
        assert experiments.binary_search is not original_search
        state = cache.CacheState(cache.allocate_lines(cache.LayoutConfig(count=1)))
        state.phi(next(iter(state.lines())))
        assert t.missing(["cache.gone", "kernels.gone", "cache.phi",
                          "algorithms.binary_search"]) == ["algorithms.binary_search"]
        metrics = tr.layer_metrics(t)
        assert metrics["cache.phi.calls"] == (1, "count")
        assert metrics["kernels.run_tape.calls"] == (0, "count")
    finally:
        t.uninstall()
    assert cache.CacheState.phi is original_phi
    assert experiments.binary_search is original_search


def test_metric_and_workload_names():
    s = spec()
    names = [m["name"] for m in s["end_to_end"] + s["per_layer"]]
    assert len(names) == len(set(names))
    for name in names + [w["name"] for w in s["workloads"]]:
        assert NAME.fullmatch(name), name
    assert {w["name"] for w in s["workloads"]} == set(WORKLOADS)
    for w in s["workloads"]:
        assert w["why"] == WORKLOADS[w["name"]].why
    produced = set(tr.layer_metrics(tr.Tracer())) | {"trace.overhead_frac"}
    assert {m["name"] for m in s["per_layer"]} == produced


def test_tally_counts_inexact_zero_noise_rows_as_failed():
    cmd = Command(("truth-tables",), cells=1, trials=4)
    tally = Tally({})
    tally.add(cmd, 4, "gate,fan_in,runs,correct,accuracy,seed\nNOT,1,4,3,0.75,0\n")
    tally.finish()
    assert (tally.attempted, tally.failed, tally.ok) == (4, 1, False)


def test_tally_checks_noisy_cells_against_baseline():
    cmd = Command(("counter", "--sizes", "64"), cells=1, trials=100)
    row = "size,trials,correct,accuracy,measurements,seed\n64,100,{},0.6,7,0\n"
    good, bad = Tally({"counter|64": [600, 1000]}), Tally({"counter|64": [600, 1000]})
    good.add(cmd, 100, row.format(60))
    bad.add(cmd, 100, row.format(10))
    good.finish()
    bad.finish()
    assert good.ok and not bad.ok and bad.failed == 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_each_workload(name, restore_env):
    wl = WORKLOADS[name]
    run.prepare(wl)
    res = run.measure(wl, seed=1, seconds=0.001, scale=0.05, setup_repeats=1)
    tally = res.tally
    assert tally.errors == [] and tally.ok
    # the reference pass, then at least one timed pass
    per_pass = sum(c.cells * trials_of(c, 0.05) for c in wl.commands)
    assert tally.attempted % per_pass == 0 and tally.attempted >= 2 * per_pass
    assert tally.failed == 0
    assert set(res.metrics) == {m["name"] for m in spec()["end_to_end"]}
    assert all(value > 0 for value, _ in res.metrics.values())
    assert res.extra["failed_frac"] == (0.0, "fraction")
    assert 0.0 < res.extra["sim_accuracy"][0] <= 1.0


def _traced_counts(name: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name, "--seed", "3",
         "--seconds", "0.001", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stdout
    assert set(result["metrics"]) == {m["name"] for m in spec()["per_layer"]}
    return {k: m["value"] for k, m in result["metrics"].items() if m["unit"] == "count"}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_counts_repeat_for_one_seed(name):
    first = _traced_counts(name)
    assert first == _traced_counts(name)
    assert any(first.values())


def test_all_runs_every_workload_in_turn():
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "all", "--seed", "2",
         "--seconds", "0.001"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    results = json.loads(proc.stdout.strip().splitlines()[-1])
    assert list(results) == list(WORKLOADS)
    assert all(r["correct"] and r["failed"] == 0 for r in results.values())
    for name in ("trials_per_s", "setup_s", "peak_rss_mb", "failed_frac", "sim_accuracy"):
        assert proc.stdout.count(f"  {name} ") == len(WORKLOADS)


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gates", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
