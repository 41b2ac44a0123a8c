"""Experiment runners behind the CLI: desk-scale reproductions of the
gate truth tables, amplifier sweeps, and the search/counter accuracy
tables.  All randomness flows from trial-indexed substreams of one root
seed, so results are byte-reproducible."""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np

from . import amplifier as amp
from . import gadgets
from .algorithms import (
    AlgorithmError,
    binary_search,
    count_lines,
    counter_bit_width,
    make_search_state,
)
from .cache import CacheState, LayoutConfig, allocate_lines
from .config import ExperimentConfig
from .gadgets import GadgetContext, GateKind
from .timing import LatencyModel, NoiseModel, TimerModel

GATE_MENU: tuple[tuple[GateKind, int], ...] = (
    (GateKind.NOT, 1),
    (GateKind.NOR, 2),
    (GateKind.NAND, 2),
    (GateKind.NAND, 4),
    (GateKind.NAND, 8),
    (GateKind.NAND, 16),
    (GateKind.NAND, 32),
    (GateKind.NAND, 64),
    (GateKind.NAND, 128),
    (GateKind.XOR, 2),
    (GateKind.HALF_ADDER, 2),
)


def spawn_rngs(seed: int, count: int) -> list[np.random.Generator]:
    return [np.random.default_rng(c) for c in np.random.SeedSequence(seed).spawn(count)]


class GateBench:
    """Reusable line allocation for repeated runs of one gate shape."""

    def __init__(self, kind: GateKind, fan_in: int):
        self.kind = kind
        self.fan_in = fan_in
        n_out = 2 if kind is GateKind.HALF_ADDER else 1
        n_scratch = gadgets.HALF_ADDER_SCRATCH if kind is GateKind.HALF_ADDER else 0
        lines = allocate_lines(LayoutConfig(count=fan_in + n_out + n_scratch))
        self.state = CacheState(lines)
        self.inputs = lines[:fan_in]
        self.outputs = lines[fan_in:fan_in + n_out]
        self.scratch = lines[fan_in + n_out:]

    def oracle(self, bits) -> tuple[bool, ...]:
        if self.kind is GateKind.NOT:
            return (not bits[0],)
        if self.kind is GateKind.NOR:
            return (not any(bits),)
        if self.kind is GateKind.NAND:
            return (not all(bits),)
        if self.kind is GateKind.XOR:
            return (bits[0] != bits[1],)
        return (bits[0] != bits[1], bits[0] and bits[1])  # half adder

    def run(self, bits, latency: LatencyModel, noise: NoiseModel, rng) -> bool:
        state = self.state
        for line in state.lines():
            state.flush(line)
        for line, bit in zip(self.inputs, bits):
            if bit:
                state.touch(line)
        ctx = GadgetContext(state=state, latency=latency, noise=noise, rng=rng)
        if self.kind is GateKind.NOT:
            gadgets.replicate(self.inputs[0], [self.outputs[0]], ctx)
        elif self.kind is GateKind.NOR:
            gadgets.nor(self.inputs[0], self.inputs[1], self.outputs[0], ctx)
        elif self.kind is GateKind.NAND:
            gadgets.nand(self.inputs, self.outputs[0], ctx)
        elif self.kind is GateKind.XOR:
            gadgets.xor_gate(self.inputs[0], self.inputs[1], self.outputs[0], ctx)
        else:
            gadgets.half_adder(self.inputs[0], self.inputs[1],
                               self.outputs[0], self.outputs[1], self.scratch, ctx)
        got = tuple(state.phi(line) for line in self.outputs)
        return got == self.oracle(bits)


def _cycled_combos(fan_in: int, runs: int):
    if fan_in <= 16:
        space = list(itertools.product((False, True), repeat=fan_in))
        return [space[i % len(space)] for i in range(runs)]
    return None  # caller draws random assignments


def truth_table_accuracy(kind: GateKind, fan_in: int, runs: int,
                         latency: LatencyModel, noise: NoiseModel, seed: int,
                         exhaustive: bool = False) -> tuple[int, int]:
    """(correct, total) over cycled-exhaustive or random input sets."""
    bench = GateBench(kind, fan_in)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    if exhaustive and fan_in <= 16:
        cases = list(itertools.product((False, True), repeat=fan_in))
    else:
        cases = _cycled_combos(fan_in, runs)
        if cases is None:
            cases = [tuple(bool(b) for b in rng.integers(0, 2, fan_in)) for _ in range(runs)]
    correct = sum(bench.run(bits, latency, noise, rng) for bits in cases)
    return correct, len(cases)


def run_truth_tables(cfg: ExperimentConfig) -> list[dict]:
    rows = []
    for trial_idx, (kind, fan_in) in enumerate(GATE_MENU):
        correct, total = truth_table_accuracy(
            kind, fan_in, cfg.trials, cfg.latency, cfg.noise,
            seed=cfg.seed + trial_idx)
        rows.append({
            "gate": kind.value,
            "fan_in": fan_in,
            "runs": total,
            "correct": correct,
            "accuracy": round(correct / total, 6),
            "seed": cfg.seed,
        })
    return rows


def run_amplifier_sweep(cfg: ExperimentConfig) -> tuple[list[dict], list[dict]]:
    """Paired present/absent ensembles per iteration count.

    Returns (detail rows, summary rows); detail rows are plot-ready.
    """
    detail, summary = [], []
    for iters in cfg.iteration_counts:
        acfg = dataclasses.replace(cfg.amplifier, iterations=iters)
        samples = amp.strength_ensemble(acfg, cfg.noise, cfg.latency,
                                        cfg.trials, cfg.seed)
        strengths = np.array([s.strength_ns for s in samples])
        for t, s in enumerate(samples):
            detail.append({
                "seed": cfg.seed, "trial": t, "iterations": iters,
                "strength_ns": s.strength_ns, "corrupted": int(s.corrupted),
            })
        summary.append({
            "iterations": iters,
            "trials": cfg.trials,
            "q1_ns": float(np.percentile(strengths, 25)),
            "median_ns": float(np.percentile(strengths, 50)),
            "q3_ns": float(np.percentile(strengths, 75)),
            "fraction_negative": float(np.mean(strengths < 0)),
            "fraction_corrupted": float(np.mean([s.corrupted for s in samples])),
            "seed": cfg.seed,
        })
    return detail, summary


def run_amplifier_consistency(cfg: ExperimentConfig) -> list[dict]:
    rows = []
    for iters in cfg.iteration_counts:
        acfg = dataclasses.replace(cfg.amplifier, iterations=iters)
        for gran in cfg.granularities_ns:
            rngs = spawn_rngs(cfg.seed, cfg.trials)
            def trial(t: int) -> str:  # each trial owns its state, timer and generator
                truth = bool(t % 2)
                line = allocate_lines(LayoutConfig(count=1))[0]
                state = CacheState([line])
                if truth:
                    state.touch(line)
                timer = TimerModel(granularity_ns=gran, jitter_ns=cfg.timer.jitter_ns)
                ctx = GadgetContext(state=state, latency=cfg.latency,
                                    noise=cfg.noise, rng=rngs[t])
                got = amp.recover_signal(line, acfg, timer, ctx)
                if got is amp.RecoveredSignal.INDETERMINATE:
                    return "indeterminate"
                return "correct" if (got is amp.RecoveredSignal.PRESENT) == truth else "incorrect"

            outcomes = amp.map_trials(trial, range(cfg.trials))
            tallies = {k: outcomes.count(k) for k in ("correct", "incorrect", "indeterminate")}
            rows.append({
                "iterations": iters,
                "granularity_ns": gran,
                "trials": cfg.trials,
                "correct": tallies["correct"],
                "incorrect": tallies["incorrect"],
                "indeterminate": tallies["indeterminate"],
                "correct_fraction": round(tallies["correct"] / cfg.trials, 6),
                "indeterminate_fraction": round(tallies["indeterminate"] / cfg.trials, 6),
                "seed": cfg.seed,
            })
    return rows


def run_binary_search(cfg: ExperimentConfig) -> list[dict]:
    rows = []
    for size in cfg.sizes:
        rounds = size.bit_length() - 1
        rngs = spawn_rngs(cfg.seed + size, cfg.trials)
        correct = 0
        for t in range(cfg.trials):
            rng = rngs[t]
            target = int(rng.integers(0, size))
            state, st = make_search_state(size, target)
            timer = TimerModel(granularity_ns=cfg.timer.granularity_ns,
                               jitter_ns=cfg.timer.jitter_ns)
            ctx = GadgetContext(state=state, latency=cfg.latency,
                                noise=cfg.noise, rng=rng)
            got = binary_search(st, timer, ctx)
            if cfg.noise.gadget_flip_prob == 0 and cfg.latency.jitter_sigma_ns == 0 \
                    and timer.measurements_taken != rounds:
                raise AlgorithmError("timed-measure budget violated")
            correct += got == target
        rows.append({
            "size": size, "trials": cfg.trials, "correct": correct,
            "accuracy": round(correct / cfg.trials, 6),
            "measurements": rounds, "seed": cfg.seed,
        })
    return rows


def run_counter(cfg: ExperimentConfig) -> list[dict]:
    ctx = GadgetContext(state=CacheState(), latency=cfg.latency, noise=cfg.noise)
    rows = []
    for size in cfg.sizes:
        width = counter_bit_width(size)
        timers = [TimerModel(granularity_ns=cfg.timer.granularity_ns,
                             jitter_ns=cfg.timer.jitter_ns) for _ in range(cfg.trials)]
        results = count_lines(size, timers, ctx, spawn_rngs(cfg.seed + size, cfg.trials))
        if any(timer.measurements_taken != width for timer in timers):
            raise AlgorithmError("timed-measure budget violated")
        correct = sum(got == want for want, got in results)
        rows.append({
            "size": size, "trials": cfg.trials, "correct": correct,
            "accuracy": round(correct / cfg.trials, 6),
            "measurements": width, "seed": cfg.seed,
        })
    return rows
