"""cachesig benchmark: one workload of CLI experiments, timed and checked.

    python3 perfbench/run.py --workload gates --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from
`src/`.  Every pass calls `cachesig.cli.main` once per workload command,
with the pass's own seed derived from `--seed`.

--trace 0 reports end-to-end host metrics:
  trials_per_s  simulated trials per host second, median over passes
  setup_s       median wall time of fresh processes that each run the
                workload's commands with one trial (scaled by the median
                probe slowdown of the run)
  peak_rss_mb   peak resident memory of this process
Both timings are scaled to nominal host speed by a probe run next to
each sample (see probe.py); the raw figures are printed beside them.
--trace 1 runs a fixed number of passes with every layer wrapped (see
tracer.py), then untraced passes for --seconds, and reports the per-layer
metrics and the tracing overhead.

The last line of standard output is a JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import probe
from tracer import Tracer, layer_metrics
from workloads import WORKLOADS, Tally, Workload, trials_of

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
BASELINE = BENCH_DIR / "baseline.json"

SETUP_REPEATS = 7
TRACED_PASSES = 3
SETUP_TIMEOUT_S = 120
REFERENCE_SEED = 0   # the pass whose output hash pins the RNG stream

_SETUP_CODE = (
    "import json, sys\n"
    "from cachesig.cli import main\n"
    "for argv in json.loads(sys.argv[1]):\n"
    "    main(argv)\n"
)


class BenchError(Exception):
    pass


def pass_seed(seed: int, index: int) -> int:
    """Distinct CLI seeds per pass; experiments add small offsets to them."""
    return seed * 1_000_000 + 1000 * (index + 1)


def program_env(wl: Workload) -> dict:
    """The environment the CLI sees: no inherited CACHESIG_* settings, only
    the workload's own."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("CACHESIG_")}
    env.update(wl.env)
    return env


def run_pass(wl: Workload, seed: int, tally: Tally, scale: float = 1.0):
    """Runs every command of `wl` once through `cli.main`.

    Returns (host seconds spent in cli.main, trials completed, output text).
    Rows are checked into `tally` after the clock stops.
    """
    from cachesig import cli

    results = []
    elapsed = 0.0
    for command in wl.commands:
        trials = trials_of(command, scale)
        argv = command.argv_for(seed, trials)
        buf = io.StringIO()
        t0 = perf_counter()
        try:
            with redirect_stdout(buf):
                status = cli.main(argv)
        except (Exception, SystemExit) as exc:  # a failing command counts its trials failed
            elapsed += perf_counter() - t0
            results.append((command, trials, None,
                            f"{argv[0]}: {exc!r}\n{traceback.format_exc(limit=3)}"))
            continue
        elapsed += perf_counter() - t0
        err = None if status in (0, None) else f"{argv[0]}: exit status {status}"
        results.append((command, trials, buf.getvalue(), err))

    completed, texts = 0, []
    for command, trials, text, err in results:
        if err is not None:
            tally.add_failure(command, trials, err)
            continue
        tally.add(command, trials, text)
        completed += command.cells * trials
        texts.append(text)
    return elapsed, completed, "".join(texts)


@dataclass
class Samples:
    """Per-pass rates, raw and multiplied by the host slowdown measured
    after the pass; set-up times, and the slowdown measured after each."""
    rates: list[float] = field(default_factory=list)
    raw_rates: list[float] = field(default_factory=list)
    setups: list[float] = field(default_factory=list)
    setup_slowdowns: list[float] = field(default_factory=list)

    def setup_s(self) -> float:
        return statistics.median(self.setups) / statistics.median(self.setup_slowdowns)


def timed_passes(wl: Workload, seed: int, tally: Tally, seconds: float,
                 first_index: int = 0, max_passes: int | None = None,
                 scale: float = 1.0, setup_repeats: int = 0) -> Samples:
    """Passes until `seconds` of host time (at least one pass) or `max_passes`,
    each followed by a host-speed probe (see probe.py).

    `setup_repeats` set-up runs are spread evenly over the passes, so that
    both sample the same spells of host speed.
    """
    out, spent, i = Samples(), 0.0, first_index
    while True:
        if len(out.setups) < setup_repeats and spent >= len(out.setups) * seconds / setup_repeats:
            out.setups.append(setup_time(wl, seed))
            out.setup_slowdowns.append(probe.process_slowdown())
            continue
        dt, completed, _ = run_pass(wl, pass_seed(seed, i), tally, scale)
        rate = completed / dt if dt > 0 else 0.0
        out.raw_rates.append(rate)
        out.rates.append(rate * probe.slowdown(wl.probe))
        spent += dt
        i += 1
        done = i - first_index >= max_passes if max_passes is not None else spent >= seconds
        if done and len(out.setups) >= setup_repeats:
            return out


def setup_time(wl: Workload, seed: int) -> float:
    """Wall time of a fresh process that runs each command with one trial."""
    env = program_env(wl)
    env["PYTHONPATH"] = str(SRC)
    argvs = json.dumps(wl.argvs(pass_seed(seed, -1), scale=0.0))
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, "-c", _SETUP_CODE, argvs], cwd=ROOT, env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          timeout=SETUP_TIMEOUT_S, check=False)
    elapsed = perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"set-up run failed:\n{proc.stderr.decode(errors='replace')}")
    return elapsed


def load_baseline() -> dict:
    with open(BASELINE, encoding="utf-8") as fh:
        return json.load(fh)


def reference_pass(wl: Workload, tally: Tally, scale: float = 1.0) -> str:
    """The untimed pass at the fixed reference seed, which also warms up the
    program and the probes; returns the sha256 of its rows."""
    _, _, text = run_pass(wl, REFERENCE_SEED, tally, scale)
    for kind in probe.KINDS:
        probe.slowdown(kind)
    return hashlib.sha256(text.encode()).hexdigest()


def environment(seed: int) -> dict:
    try:
        from cachesig._kernels import backend_name
        backend = backend_name()
    except ImportError:  # the kernels module may be refactored away
        backend = None
    return {
        "python": platform.python_version(),
        "numpy": importlib.import_module("numpy").__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "kernels_backend": backend,
        "nproc": os.cpu_count(),
        "seed": seed,
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                         for p in sorted(SRC.rglob("*.py"))),
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


@dataclass
class Result:
    metrics: dict   # name -> (value, unit): the metrics of the result line
    tally: Tally
    report: dict    # printed only
    extra: dict = field(default_factory=dict)  # printed metrics, name -> (value, unit)


def measure(wl: Workload, seed: int, seconds: float, scale: float = 1.0,
            setup_repeats: int = SETUP_REPEATS) -> Result:
    """Untraced run."""
    baseline = load_baseline()
    tally = Tally(baseline["noisy"])
    sha = reference_pass(wl, tally, scale)
    sm = timed_passes(wl, seed, tally, seconds, scale=scale, setup_repeats=setup_repeats)
    tally.finish()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "trials_per_s": (statistics.median(sm.rates), "1/s"),
        "setup_s": (sm.setup_s(), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    extra = {
        # zero at a healthy commit, so reported through the result line's
        # "failed" and "attempted" rather than as a bounded metric
        "failed_frac": (tally.failed / tally.attempted, "fraction"),
        # a simulated statistic: identical for a pure speed-up
        "sim_accuracy": (tally.sim_accuracy, "fraction"),
    }
    report = {
        "passes": len(sm.rates),
        "trials_per_s_quartiles": quartiles(sm.rates),
        "raw_trials_per_s_quartiles": quartiles(sm.raw_rates),
        "raw_setup_s_runs": sm.setups,
        "setup_slowdowns": sm.setup_slowdowns,
        "rows_sha256": sha,
        "rng_stream": stream_status(wl, sha, baseline, scale),
    }
    return Result(metrics, tally, report, extra)


def stream_status(wl: Workload, sha: str, baseline: dict, scale: float) -> str:
    if scale != 1.0:
        return "not compared (scaled trials)"
    return "unchanged" if baseline["reference_sha256"].get(wl.name) == sha else "CHANGED"


def measure_traced(wl: Workload, seed: int, seconds: float) -> Result:
    """Traced run: the reference pass and a fixed number of passes with
    every layer wrapped, so that counts repeat exactly for one seed; then
    untraced passes for `seconds` give the tracing overhead."""
    baseline = load_baseline()
    tally = Tally(baseline["noisy"])
    tracer = Tracer()
    with tracer:
        reference_pass(wl, tally)
        traced = timed_passes(wl, seed, tally, 0.0, max_passes=TRACED_PASSES).rates
    untraced = timed_passes(wl, seed, tally, seconds, first_index=len(traced)).rates
    tally.finish()
    missing = tracer.missing(wl.expected)
    for key in missing:
        tally.error(f"traced function {key} recorded no calls")
    metrics = layer_metrics(tracer)
    metrics["trace.overhead_frac"] = (
        1.0 - statistics.median(traced) / statistics.median(untraced), "fraction")
    report = {
        "traced_trials_per_s": statistics.median(traced),
        "untraced_trials_per_s": statistics.median(untraced),
        "absent_functions": tracer.absent,
        "broken_hooks": [k for k, s in tracer.stats.items() if s.hook_broken],
        "functions": {k: [s.calls, round(s.total_s, 6), round(s.self_s, 6)]
                      for k, s in sorted(tracer.stats.items()) if s.calls},
    }
    return Result(metrics, tally, report)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                   help="one workload, or 'all' to run each in its own process in turn")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def prepare(wl: Workload) -> None:
    """Imports the program from this checkout's src/, with the workload's
    environment; raises BenchError when the checkout has no program."""
    if not (SRC / "cachesig" / "__init__.py").is_file():
        raise BenchError(f"no cachesig sources under {SRC}")
    env = program_env(wl)
    os.environ.clear()
    os.environ.update(env)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import cachesig

    if Path(cachesig.__file__).resolve().parent != SRC / "cachesig":
        raise BenchError(f"imported cachesig from {cachesig.__file__}, not {SRC}")


def print_result(name: str, trace: int, seed: int, res: Result) -> None:
    print(f"workload {name} ({'traced' if trace else 'untraced'}), seed {seed}")
    for metric, (value, unit) in {**res.metrics, **res.extra}.items():
        print(f"  {metric:34s} {value:>16.6g} {unit}")
    for key, value in res.report.items():
        print(f"  {key}: {json.dumps(value)}")
    for err in res.tally.errors:
        print(f"  CHECK FAILED: {err}")
    print(json.dumps({
        "correct": res.tally.ok,
        "attempted": res.tally.attempted,
        "failed": res.tally.failed,
        "metrics": {metric: {"value": value, "unit": unit}
                    for metric, (value, unit) in res.metrics.items()},
    }))


def run_all(args) -> int:
    """Each workload in its own process, one at a time; the last line maps
    workload names to their result lines."""
    results, status = {}, 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            status = proc.returncode
            continue
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    wl = WORKLOADS[args.workload]
    try:
        prepare(wl)
        if args.trace:
            res = measure_traced(wl, args.seed, args.seconds)
        else:
            res = measure(wl, args.seed, args.seconds)
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    res.report["environment"] = environment(args.seed)
    print_result(wl.name, args.trace, args.seed, res)
    return 0


if __name__ == "__main__":
    sys.exit(main())
