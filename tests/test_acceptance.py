"""End-to-end acceptance checks.  Each criterion reports one PASS/FAIL
line; conftest echoes the scorecard after the run."""

import sys
import time

import numpy as np
import pytest

from cachesig import amplifier as amp
from cachesig import cli, gadgets
from cachesig.algorithms import (
    binary_search,
    count_lines,
    counter_bit_width,
    make_counter_state,
    make_search_state,
)
from cachesig.asm import check_structure, emit
from cachesig.cache import CacheState, LayoutConfig, allocate_lines
from cachesig.config import ExperimentConfig
from cachesig.experiments import (
    GATE_MENU,
    run_binary_search,
    spawn_rngs,
    truth_table_accuracy,
)
from cachesig.gadgets import GadgetContext, GateKind
from cachesig.timing import LatencyModel, NoiseModel, TimerModel

from test_asm import CANONICAL, GOLDEN

LAT = LatencyModel()
QUIET = NoiseModel()

SIZES = (4, 8, 16, 32, 64, 128, 256)


SCORECARD: list[str] = []


def report(criterion: int, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {criterion}: {verdict} - {detail}"
    SCORECARD.append(line)
    print(line)
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_gate_oracle_equivalence():
    t0 = time.time()
    failures = []
    for kind, fan_in in GATE_MENU:
        exhaustive = fan_in <= 16
        runs = 0 if exhaustive else 10_000
        correct, total = truth_table_accuracy(kind, fan_in, runs, LAT, QUIET,
                                              seed=fan_in, exhaustive=exhaustive)
        if correct != total:
            failures.append((kind.value, fan_in, correct, total))
    elapsed = time.time() - t0
    report(1, not failures and elapsed < 30,
           f"all gate truth tables exact, {elapsed:.1f}s (budget 30s)"
           if not failures else f"mismatches: {failures}")


def test_criterion_2_destructive_input_law():
    rng = np.random.default_rng(2024)
    violations = 0
    kinds = (GateKind.NOT, GateKind.REPLICATE, GateKind.NAND, GateKind.NOR,
             GateKind.XOR, GateKind.HALF_ADDER)
    for _ in range(10_000):
        kind = kinds[int(rng.integers(len(kinds)))]
        noise = NoiseModel(gadget_flip_prob=float(rng.random() * 0.5))
        if kind is GateKind.HALF_ADDER:
            count = 4 + gadgets.HALF_ADDER_SCRATCH
        elif kind is GateKind.NAND:
            count = int(rng.integers(2, 9)) + 1
        elif kind is GateKind.REPLICATE:
            count = 1 + int(rng.integers(1, 6))
        else:
            count = 3 if kind in (GateKind.NOR, GateKind.XOR) else 2
        lines = allocate_lines(LayoutConfig(count=count))
        state = CacheState(lines)
        ctx = GadgetContext(state=state, latency=LAT, noise=noise, rng=rng)
        if kind is GateKind.HALF_ADDER:
            ins = lines[:2]
            for line in ins:
                if rng.integers(2):
                    state.touch(line)
            gadgets.half_adder(lines[0], lines[1], lines[2], lines[3], lines[4:], ctx)
        elif kind is GateKind.NAND:
            ins = lines[:-1]
            for line in ins:
                if rng.integers(2):
                    state.touch(line)
            gadgets.nand(ins, lines[-1], ctx)
        elif kind is GateKind.REPLICATE:
            ins = lines[:1]
            if rng.integers(2):
                state.touch(lines[0])
            gadgets.replicate(lines[0], lines[1:], ctx)
        elif kind is GateKind.NOR:
            ins = lines[:2]
            for line in ins:
                if rng.integers(2):
                    state.touch(line)
            gadgets.nor(lines[0], lines[1], lines[2], ctx)
        elif kind is GateKind.XOR:
            ins = lines[:2]
            for line in ins:
                if rng.integers(2):
                    state.touch(line)
            gadgets.xor_gate(lines[0], lines[1], lines[2], ctx)
        else:  # NOT
            ins = lines[:1]
            if rng.integers(2):
                state.touch(lines[0])
            gadgets.replicate(lines[0], [lines[1]], ctx)
        violations += not all(state.phi(line) for line in ins)
    report(2, violations == 0,
           f"guard inputs present after 10000 random invocations "
           f"({violations} violations)")


def test_criterion_3_amplifier_closed_form():
    t0 = time.time()
    worst = 0.0
    for iters in (1, 10, 10**3, 10**5):
        cfg = amp.AmplifierConfig(iterations=iters)
        sample = amp.paired_strength(cfg, QUIET, LAT, np.random.default_rng(0))
        expect = iters * (cfg.accesslen - 1) * LAT.signal_ns
        worst = max(worst, abs(sample.strength_ns - expect) / expect)
    cfg = amp.AmplifierConfig(iterations=100_000)
    strength = amp.paired_strength(cfg, QUIET, LAT,
                                   np.random.default_rng(0)).strength_ns
    gain = strength / LAT.signal_ns
    elapsed = time.time() - t0
    ok = worst < 1e-9 and abs(strength - 167.2e6) < 1.0 and gain > 1e6 \
        and elapsed < 60
    report(3, ok,
           f"closed form exact (worst rel err {worst:.1e}), 100k strength "
           f"{strength / 1e6:.1f} ms = {gain:.2e}x gain, {elapsed:.1f}s (budget 60s)")


def test_criterion_4_coarse_timer_recovery():
    cfg_hi = amp.AmplifierConfig(iterations=100_000)
    cfg_lo = amp.AmplifierConfig(iterations=1_000)
    correct = indeterminate = 0
    rngs = spawn_rngs(0, 1000)
    for t in range(1000):
        truth = bool(t % 2)
        line = allocate_lines(LayoutConfig(count=1))[0]
        state = CacheState([line])
        if truth:
            state.touch(line)
        ctx = GadgetContext(state=state, latency=LAT, noise=QUIET, rng=rngs[t])
        got = amp.recover_signal(line, cfg_hi, TimerModel(granularity_ns=100e6), ctx)
        correct += (got is amp.RecoveredSignal.PRESENT) == truth \
            and got is not amp.RecoveredSignal.INDETERMINATE
        state.flush(line)
        if truth:
            state.touch(line)
        got = amp.recover_signal(line, cfg_lo, TimerModel(granularity_ns=100e6), ctx)
        indeterminate += got is amp.RecoveredSignal.INDETERMINATE
    report(4, correct == 1000 and indeterminate == 1000,
           f"100k iters @ 100ms: {correct}/1000 correct; "
           f"1k iters @ 100ms: {indeterminate}/1000 indeterminate")


def test_criterion_5_corruption_trend():
    noise = NoiseModel(corruption_prob_per_iteration=2e-6)
    stats = {}
    for iters in (100_000, 700_000):
        samples = amp.strength_ensemble(amp.AmplifierConfig(iterations=iters),
                                        noise, LAT, 1000, seed=42)
        s = np.array([x.strength_ns for x in samples])
        stats[iters] = (float(np.median(s)), float(np.mean(s < 0)))
    ok = stats[700_000][0] > stats[100_000][0] and \
        stats[700_000][1] > stats[100_000][1]
    report(5, ok,
           f"median {stats[700_000][0] / 1e6:.0f} ms > "
           f"{stats[100_000][0] / 1e6:.0f} ms; negative fraction "
           f"{stats[700_000][1]:.3f} > {stats[100_000][1]:.3f}")


def test_criterion_6_binary_search_budget():
    bad = []
    for n in SIZES:
        rounds = n.bit_length() - 1
        for target in range(n):
            state, st = make_search_state(n, target)
            timer = TimerModel()
            ctx = GadgetContext(state=state, latency=LAT, noise=QUIET,
                                rng=np.random.default_rng(0))
            got = binary_search(st, timer, ctx)
            if got != target or timer.measurements_taken != rounds \
                    or timer.reads_taken != 2 * rounds:
                bad.append((n, target, got, timer.reads_taken))
    report(6, not bad,
           "exhaustive targets correct with exactly log2(N) timed measurements "
           f"for N in {SIZES}" if not bad else f"failures: {bad[:5]}")


def test_criterion_7_counter_budget():
    bad = []
    for n in range(1, 11):
        width = counter_bit_width(n)
        for mask in range(2 ** n):
            present = [i for i in range(n) if mask >> i & 1]
            state, st = make_counter_state(n, present)
            timer = TimerModel()
            ctx = GadgetContext(state=state, latency=LAT, noise=QUIET,
                                rng=np.random.default_rng(0))
            if count_lines(st, timer, ctx) != len(present) \
                    or timer.measurements_taken != width:
                bad.append((n, mask))
    rng = np.random.default_rng(7)
    for n in (16, 32, 64, 128, 256):
        width = counter_bit_width(n)
        for _ in range(1000):
            mask = rng.integers(0, 2, n)
            present = [i for i in range(n) if mask[i]]
            state, st = make_counter_state(n, present)
            timer = TimerModel()
            ctx = GadgetContext(state=state, latency=LAT, noise=QUIET,
                                rng=np.random.default_rng(0))
            if count_lines(st, timer, ctx) != len(present) \
                    or timer.measurements_taken != width:
                bad.append((n, len(present)))
    report(7, not bad,
           "popcount exact with exactly ceil(log2(n+1)) timed measurements "
           "(exhaustive n<=10, 1000 random subsets for n in 16..256)"
           if not bad else f"failures: {bad[:5]}")


def test_criterion_8_noise_degradation_monotone():
    noise = NoiseModel(gadget_flip_prob=1e-4)
    search_acc = []
    for n in SIZES:
        rngs = spawn_rngs(n, 1000)
        ok = 0
        for t in range(1000):
            rng = rngs[t]
            target = int(rng.integers(0, n))
            state, st = make_search_state(n, target)
            ctx = GadgetContext(state=state, latency=LAT, noise=noise, rng=rng)
            ok += binary_search(st, TimerModel(), ctx) == target
        search_acc.append(ok / 1000)
    counter_acc = []
    for n in SIZES:
        rngs = spawn_rngs(n, 1000)
        ok = 0
        for t in range(1000):
            rng = rngs[t]
            mask = rng.integers(0, 2, n)
            present = [i for i in range(n) if mask[i]]
            state, st = make_counter_state(n, present)
            ctx = GadgetContext(state=state, latency=LAT, noise=noise, rng=rng)
            ok += count_lines(st, TimerModel(), ctx) == len(present)
        counter_acc.append(ok / 1000)
    mono = all(a >= b for a, b in zip(search_acc, search_acc[1:])) and \
        all(a >= b for a, b in zip(counter_acc, counter_acc[1:]))
    report(8, mono,
           f"accuracy non-increasing in size: search {search_acc}, "
           f"counter {counter_acc}")


def test_criterion_9_emitter_golden_files():
    bad = []
    for name, req in CANONICAL.items():
        text = emit(req)
        if text != (GOLDEN / name).read_text():
            bad.append((name, "golden mismatch"))
            continue
        rep = check_structure(text)
        if not rep.ok:
            bad.append((name, "structure"))
        if req.kind.value != "forced-spec":
            if rep.delay_count != req.deplen or rep.output_loads != req.accesslen:
                bad.append((name, "counts"))
        if req.kind.value == "amplifier" and rep.stride_immediates != [req.stride]:
            bad.append((name, "stride"))
    report(9, not bad,
           f"{len(CANONICAL)} canonical emissions byte-identical to golden "
           "files and structurally valid" if not bad else f"failures: {bad}")


def test_criterion_10_determinism(capsys):
    outputs = []
    for _ in range(2):
        for fmt in ("csv", "json"):
            cli.main(["binsearch", "--sizes", "8", "16", "--trials", "50",
                      "--seed", "11", "--format", fmt])
            outputs.append(capsys.readouterr().out)
            cli.main(["amp-sweep", "--iterations", "1000", "--trials", "50",
                      "--seed", "11", "--format", fmt])
            outputs.append(capsys.readouterr().out)
    half = len(outputs) // 2
    ok = outputs[:half] == outputs[half:] and all(outputs)
    report(10, ok, "re-runs with identical config and seed are byte-identical "
           "in CSV and JSON")
