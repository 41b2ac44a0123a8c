"""The benchmark's workloads and the checks on their CLI output.

Each workload is a fixed list of `cachesig` CLI commands.  One *pass*
runs every command once through `cachesig.cli.main` with a per-pass trial
count and seed; the benchmark times passes and checks their rows.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

FLIP_PROB = 1e-4          # counter workload: the noise setting of acceptance criterion 8
CORRUPTION_PROB = 2e-6    # amplifier workload: the setting of acceptance criterion 5

# A noisy cell fails its check when it lies more than Z_BOUND standard
# errors from its expected value (about 6e-7 false alarms per cell).
Z_BOUND = 5.0


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]   # CLI arguments, without --seed and --trials
    cells: int              # experiment cells; a pass attempts cells * trials trials
    trials: int             # trials per cell in one pass

    def argv_for(self, seed: int, trials: int) -> list[str]:
        return list(self.argv) + ["--seed", str(seed), "--trials", str(trials)]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    commands: tuple[Command, ...]
    env: dict = field(default_factory=dict)   # CACHESIG_* overrides the CLI reads
    probe: str = "python"   # host-speed probe matching where the time goes (probe.py)
    # Traced functions (tracer keys) that must record calls on this workload.
    expected: tuple[str, ...] = ()

    def argvs(self, seed: int, scale: float = 1.0) -> list[list[str]]:
        return [c.argv_for(seed, trials_of(c, scale)) for c in self.commands]


def trials_of(command: Command, scale: float) -> int:
    return max(1, round(command.trials * scale))


_COMMON = ("cli.main", "cli.write_output", "config.load")

WORKLOADS = {w.name: w for w in (
    Workload(
        name="gates",
        why="truth-tables over the 11-gate menu at zero noise: cache reads, engine, gadgets",
        commands=(Command(("truth-tables",), cells=11, trials=200),),
        expected=_COMMON + (
            "cache.phi", "cache.touch", "cache.flush", "engine.run_primitive",
            "engine.xor_primitive", "gadgets.invert", "gadgets.replicate", "gadgets.nand",
            "gadgets.nor", "gadgets.xor_gate", "gadgets.half_adder", "timing.access",
            "experiments.run_truth_tables"),
    ),
    Workload(
        name="search",
        why="binsearch over 64 and 256 lines at zero noise: cache writes, gadgets, timed reads",
        commands=(Command(("binsearch", "--sizes", "64", "256"), cells=2, trials=12),),
        expected=_COMMON + (
            "cache.phi", "cache.touch", "cache.flush", "cache.register",
            "engine.run_primitive", "gadgets.invert", "gadgets.replicate", "gadgets.nand",
            "timing.access", "timing.measure", "timing.measure_line",
            "algorithms.binary_search", "algorithms.make_search_state",
            "experiments.run_binary_search", "experiments.spawn_rngs"),
    ),
    Workload(
        name="counter",
        why="counter over 64 and 256 lines with gadget flips: netlist compile and tape executor",
        commands=(Command(("counter", "--sizes", "64", "256"), cells=2, trials=5),),
        env={"CACHESIG_NOISE_GADGET_FLIP_PROB": repr(FLIP_PROB)},
        expected=_COMMON + (
            "netlist.build_counter_netlist", "netlist.compile", "netlist.run_program",
            "kernels.run_tape", "algorithms.count_lines", "algorithms.make_counter_state",
            "timing.measure_line", "experiments.run_counter"),
    ),
    Workload(
        name="amplifier",
        why="amp-sweep to 700k iterations and amp-consistency with corruption: amplifier kernels",
        commands=(
            Command(("amp-sweep", "--iterations", "100000", "700000"), cells=2, trials=12),
            Command(("amp-consistency", "--iterations", "100000", "--granularities", "1e8"),
                    cells=1, trials=120),
        ),
        env={"CACHESIG_NOISE_CORRUPTION_PROB_PER_ITERATION": repr(CORRUPTION_PROB)},
        probe="numpy",
        expected=_COMMON + (
            "amplifier.paired_strength", "amplifier.simulate_elapsed",
            "amplifier.recover_signal", "amplifier.strength_ensemble",
            "kernels.pair_strength", "kernels.elapsed_run",
            "experiments.run_amplifier_sweep", "experiments.run_amplifier_consistency"),
    ),
)}


def parse_rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def binomial_ok(k: int, n: int, p0: float, n0: int | None = None) -> bool:
    """k successes in n trials agree with rate p0 (itself estimated from
    n0 trials, or exact when n0 is None) within Z_BOUND standard errors."""
    var = p0 * (1.0 - p0) * (1.0 / n + (1.0 / n0 if n0 else 0.0))
    return abs(k / n - p0) <= Z_BOUND * math.sqrt(var) + 0.5 / n


class Tally:
    """Pools the rows of every pass of one workload and checks them.

    `failed` counts trials that raised, broke a measurement budget or
    missed the exact oracle in a zero-noise cell; noisy cells are pooled
    and checked against their expected rate by `finish`.
    """

    def __init__(self, baseline: dict):
        self.baseline = baseline
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.correct = 0          # pooled over cells that report correctness
        self.scored = 0
        self.noisy: dict[tuple, list[int]] = {}

    def error(self, msg: str) -> None:
        if len(self.errors) < 20:
            self.errors.append(msg)

    def add_failure(self, command: Command, trials: int, msg: str) -> None:
        self.attempted += command.cells * trials
        self.failed += command.cells * trials
        self.error(msg)

    def add(self, command: Command, trials: int, text: str) -> None:
        kind = command.argv[0]
        rows = parse_rows(text)
        want = command.cells * trials
        self.attempted += want
        if len(rows) != command.cells:
            self.failed += want
            self.error(f"{kind}: {len(rows)} rows, expected {command.cells}")
            return
        check = getattr(self, "_" + kind.replace("-", "_"))
        try:
            for row in rows:
                check(row)
        except (KeyError, ValueError) as exc:
            self.failed += want
            self.error(f"{kind}: unreadable row ({exc!r})")

    def _score(self, correct: int, total: int) -> None:
        self.correct += correct
        self.scored += total

    def _pool(self, key: tuple, k: int, n: int) -> None:
        acc = self.noisy.setdefault(key, [0, 0])
        acc[0] += k
        acc[1] += n

    def _exact(self, kind: str, row: dict, total: int, correct: int) -> None:
        self._score(correct, total)
        if correct != total:
            self.failed += total - correct
            self.error(f"{kind}: {row} is not exact at zero noise")

    def _truth_tables(self, row: dict) -> None:
        self._exact("truth-tables", row, int(row["runs"]), int(row["correct"]))

    def _binsearch(self, row: dict) -> None:
        size = int(row["size"])
        if int(row["measurements"]) != size.bit_length() - 1:
            self.error(f"binsearch: {row} breaks the log2(N) measurement budget")
        self._exact("binsearch", row, int(row["trials"]), int(row["correct"]))

    def _counter(self, row: dict) -> None:
        size, n, k = int(row["size"]), int(row["trials"]), int(row["correct"])
        if int(row["measurements"]) != size.bit_length():
            self.error(f"counter: {row} breaks the ceil(log2(n+1)) measurement budget")
        self._score(k, n)
        self._pool(("counter", size), k, n)

    def _amp_sweep(self, row: dict) -> None:
        n = int(row["trials"])
        k = round(float(row["fraction_corrupted"]) * n)
        self._pool(("amp-sweep", int(row["iterations"])), k, n)

    def _amp_consistency(self, row: dict) -> None:
        n, k = int(row["trials"]), int(row["correct"])
        self._score(k, n)
        self._pool(("amp-consistency", int(row["iterations"]), float(row["granularity_ns"])),
                   k, n)

    def finish(self) -> None:
        """Checks each pooled noisy cell against its expected rate."""
        for key, (k, n) in sorted(self.noisy.items()):
            if key[0] == "amp-sweep":
                p0, n0 = 1.0 - (1.0 - CORRUPTION_PROB) ** key[1], None
            else:
                ref = self.baseline.get("|".join(str(x) for x in key))
                if ref is None:
                    self.error(f"{key}: no recorded baseline")
                    continue
                p0, n0 = ref[0] / ref[1], ref[1]
            if not binomial_ok(k, n, p0, n0):
                self.error(f"{key}: {k}/{n} is outside the binomial bound of rate {p0:.4f}")

    @property
    def ok(self) -> bool:
        return not self.errors and self.failed == 0

    @property
    def sim_accuracy(self) -> float:
        return self.correct / self.scored if self.scored else float("nan")
