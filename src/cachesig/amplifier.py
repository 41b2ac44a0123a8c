"""Single-stage and self-reinforcing signal amplifiers.

The self-reinforcing loop turns a one-line presence bit into an
arbitrarily large timing difference: amplify into a working array,
access all but one line dependently (accumulating elapsed time), then
restore the signal from the reserved line.  Signal strength is the
elapsed-time gap between the signal-present and signal-absent cases,
(accesslen-1) * (miss-hit) per iteration at defaults.

Large ensembles run through the vectorised `simulate_elapsed` and
`paired_strength`; the gadget-level loop here is the reference
implementation and is tested equivalent.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .cache import CacheState, LayoutConfig, LineId, allocate_lines
from .engine import GadgetError
from .gadgets import GadgetContext, replicate
from .timing import LatencyModel, NoiseModel, TimerModel


@dataclass
class AmplifierConfig:
    deplen: int = 5
    accesslen: int = 23
    stride: int = 4160
    iterations: int = 1

    def __post_init__(self):
        if self.deplen < 1 or self.accesslen < 1 or self.iterations < 0:
            raise GadgetError("bad amplifier parameters")
        if self.stride < 4160:
            raise GadgetError("stride must be at least 4160")


@dataclass
class SignalStrengthSample:
    strength_ns: float
    iterations: int
    corrupted: bool


@dataclass
class AmplifierRun:
    elapsed_ns: float
    iterations: int
    corrupted: bool
    input_line: LineId  # line holding the (restored) signal afterward


def single_stage(input_line: LineId, outs, cfg: AmplifierConfig,
                 ctx: GadgetContext) -> CacheState:
    """Set accesslen output lines to the inverse of the input signal."""
    outs = list(outs)
    if len(outs) != cfg.accesslen:
        raise GadgetError("need exactly accesslen output lines")
    saved = ctx.deplen
    ctx.deplen = cfg.deplen
    try:
        replicate(input_line, outs, ctx)
    finally:
        ctx.deplen = saved
    return ctx.state


def dependent_access_time(lines, ctx: GadgetContext) -> float:
    """Serialized access chain over the lines; touches every line."""
    lines = list(lines)
    if not lines:
        raise GadgetError("need at least one line")
    total = 0.0
    for line in lines:
        total += ctx.latency.access(ctx.state.phi(line), ctx.rng)
        ctx.state.touch(line)
    return total


def per_iteration_terms(cfg: AmplifierConfig, latency: LatencyModel) -> tuple[float, float]:
    """(present_term, absent_term): elapsed contribution of one iteration
    for each live signal value.  A present signal leaves the working
    array un-fetched, so its accesses all miss."""
    n = cfg.accesslen - 1
    return n * latency.miss_ns, n * latency.hit_ns


def _fresh_lines(state: CacheState, count: int, stride: int) -> list[LineId]:
    taken = state.lines()
    base = max((l.virtual_address for l in taken), default=-stride) + stride
    start = max((l.index for l in taken), default=-1) + 1
    lines = allocate_lines(LayoutConfig(stride=stride, count=count, base=base), start)
    state.register(lines)
    return lines


def self_reinforcing(input_line: LineId, cfg: AmplifierConfig,
                     ctx: GadgetContext, working=None, spare=None) -> AmplifierRun:
    """Gadget-level self-reinforcing amplifier run for one signal value.

    Elapsed time covers only the dependent access phase; the per-iteration
    flushes and the restore inverter are bookkeeping.  With corruption
    probability > 0 the live signal may flip mid-run.
    """
    if cfg.accesslen < 2:
        raise GadgetError("self-reinforcing mode needs accesslen >= 2")
    if working is None:
        working = _fresh_lines(ctx.state, cfg.accesslen, cfg.stride)
    if len(working) != cfg.accesslen:
        raise GadgetError("working array must hold accesslen lines")
    if spare is None:
        spare = _fresh_lines(ctx.state, 1, cfg.stride)[0]

    p = ctx.noise.corruption_prob_per_iteration
    corrupted = False
    elapsed = 0.0
    current = input_line
    for _ in range(cfg.iterations):
        if p > 0 and ctx.rng.random() < p:
            corrupted = True
            if ctx.state.phi(current):
                ctx.state.flush(current)
            else:
                ctx.state.touch(current)
        for line in working:
            ctx.state.flush(line)
        single_stage(current, working, cfg, ctx)
        elapsed += dependent_access_time(working[:-1], ctx)
        ctx.state.flush(spare)
        replicate(working[-1], [spare], ctx)
        current, spare = spare, current
    return AmplifierRun(elapsed_ns=elapsed, iterations=cfg.iterations,
                        corrupted=corrupted, input_line=current)


# ---------------------------------------------------------------------------
# Vectorised ensemble paths (equivalent to the loop above at zero latency
# jitter; exercised against it in the test suite).  A flip at iteration i
# toggles the live signal from i on, so the live value is the running
# parity of the flips, counted in closed form over the flip positions.

# Uniforms per draw call: PCG64 gives the same doubles and end state as one call.
DRAW_CHUNK = 1 << 16


def flip_positions(n: int, p: float, rng) -> np.ndarray:
    """Sorted iterations of [0, n) that flip: one uniform each, below p."""
    parts = [np.flatnonzero(rng.random(min(DRAW_CHUNK, n - start)) < p) + start
             for start in range(0, n, DRAW_CHUNK)]
    return np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)


def odd_parity_count(flips: np.ndarray, n: int) -> int:
    """Iterations past an odd number of the flips k1 < k2 < ...: [k1, k2) + [k3, k4) + ..."""
    return int(flips[1::2].sum()) - int(flips[0::2].sum()) + (n if len(flips) % 2 else 0)


def simulate_elapsed(signal_present: bool, cfg: AmplifierConfig,
                     noise: NoiseModel, latency: LatencyModel, rng) -> tuple[float, bool]:
    present_term, absent_term = per_iteration_terms(cfg, latency)
    p = noise.corruption_prob_per_iteration
    if p == 0.0:
        term = present_term if signal_present else absent_term
        return cfg.iterations * term, False
    flips = flip_positions(cfg.iterations, p, rng)
    n_odd = odd_parity_count(flips, cfg.iterations)
    n_present = cfg.iterations - n_odd if signal_present else n_odd
    elapsed = present_term * n_present + absent_term * (cfg.iterations - n_present)
    return elapsed, len(flips) > 0


def paired_strength(cfg: AmplifierConfig, noise: NoiseModel,
                    latency: LatencyModel, rng) -> SignalStrengthSample:
    """Strength of one paired run (present minus absent elapsed).

    The pair shares one corruption stream: a flip toggles the live signal
    in both runs, so a flip at iteration k leaves strength (2k - n) times
    the per-iteration delta."""
    present_term, absent_term = per_iteration_terms(cfg, latency)
    delta = present_term - absent_term
    p = noise.corruption_prob_per_iteration
    if p == 0.0:
        return SignalStrengthSample(cfg.iterations * delta, cfg.iterations, False)
    flips = flip_positions(cfg.iterations, p, rng)
    signed = cfg.iterations - 2 * odd_parity_count(flips, cfg.iterations)
    return SignalStrengthSample(delta * float(signed), cfg.iterations, len(flips) > 0)


def strength_ensemble(cfg: AmplifierConfig, noise: NoiseModel,
                      latency: LatencyModel, trials: int, seed: int) -> list[SignalStrengthSample]:
    """Independent paired trials with substreams spawned from a root seed."""
    root = np.random.SeedSequence(seed)
    return [
        paired_strength(cfg, noise, latency, np.random.default_rng(child))
        for child in root.spawn(trials)
    ]


class RecoveredSignal(enum.Enum):
    PRESENT = "present"
    ABSENT = "absent"
    INDETERMINATE = "indeterminate"


def recover_signal(input_line: LineId, cfg: AmplifierConfig, timer: TimerModel,
                   ctx: GadgetContext) -> RecoveredSignal:
    """Classify a line's signal through the coarse timer.

    Two zero-corruption dry runs calibrate the present and absent elapsed
    baselines.  If the timer cannot separate the baselines the signal is
    INDETERMINATE; otherwise the measured run is assigned to the nearer
    baseline.
    """
    signal_present = ctx.state.phi(input_line)
    present_term, absent_term = per_iteration_terms(cfg, ctx.latency)
    base_p = timer.measure(cfg.iterations * present_term, ctx.rng)
    base_a = timer.measure(cfg.iterations * absent_term, ctx.rng)
    elapsed, _ = simulate_elapsed(signal_present, cfg, ctx.noise, ctx.latency, ctx.rng)
    measured = timer.measure(elapsed, ctx.rng)
    if abs(base_p - base_a) < timer.granularity_ns:
        return RecoveredSignal.INDETERMINATE
    dist_p = abs(measured - base_p)
    dist_a = abs(measured - base_a)
    if dist_p == dist_a:
        return RecoveredSignal.INDETERMINATE
    return RecoveredSignal.PRESENT if dist_p < dist_a else RecoveredSignal.ABSENT
