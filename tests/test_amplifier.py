import os
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cachesig import amplifier as amp
from cachesig import cli
from cachesig.cache import CacheState, LayoutConfig, allocate_lines
from cachesig.engine import GadgetError
from cachesig.gadgets import GadgetContext
from cachesig.timing import LatencyModel, NoiseModel, TimerModel

LAT = LatencyModel()


def make_ctx(count=1, seed=0, noise=None):
    lines = allocate_lines(LayoutConfig(count=count))
    ctx = GadgetContext(state=CacheState(lines), latency=LAT,
                        noise=noise or NoiseModel(), rng=np.random.default_rng(seed))
    return ctx, lines


def test_config_validation():
    with pytest.raises(GadgetError):
        amp.AmplifierConfig(accesslen=0)
    with pytest.raises(GadgetError):
        amp.AmplifierConfig(stride=4096)
    with pytest.raises(GadgetError):
        amp.AmplifierConfig(iterations=-1)


def test_single_stage_spreads_inverted_signal():
    ctx, lines = make_ctx(24)
    cfg = amp.AmplifierConfig(accesslen=23)
    ctx.state.touch(lines[0])
    amp.single_stage(lines[0], lines[1:], cfg, ctx)
    assert all(not ctx.state.phi(l) for l in lines[1:])
    ctx2, lines2 = make_ctx(24)
    amp.single_stage(lines2[0], lines2[1:], cfg, ctx2)
    assert all(ctx2.state.phi(l) for l in lines2[1:])


def test_dependent_access_time_counts_hits_and_misses():
    ctx, lines = make_ctx(4)
    ctx.state.touch(lines[0])
    total = amp.dependent_access_time(lines, ctx)
    assert total == 4.0 + 3 * 80.0
    assert all(ctx.state.phi(l) for l in lines)  # accesses fetch


def test_per_iteration_terms():
    cfg = amp.AmplifierConfig(accesslen=23)
    present, absent = amp.per_iteration_terms(cfg, LAT)
    assert present == 22 * 80.0
    assert absent == 22 * 4.0
    assert present - absent == 22 * 76.0


@pytest.mark.parametrize("signal", [False, True])
@pytest.mark.parametrize("iterations", [1, 3, 10])
def test_self_reinforcing_matches_closed_form(signal, iterations):
    ctx, lines = make_ctx(1)
    if signal:
        ctx.state.touch(lines[0])
    cfg = amp.AmplifierConfig(iterations=iterations)
    run = amp.self_reinforcing(lines[0], cfg, ctx)
    term = 22 * (80.0 if signal else 4.0)
    assert run.elapsed_ns == iterations * term
    assert not run.corrupted
    # the loop hands the signal back on its final restore line
    assert ctx.state.phi(run.input_line) == signal


def test_gadget_loop_agrees_with_kernel_path():
    noise = NoiseModel(corruption_prob_per_iteration=0.05)
    cfg = amp.AmplifierConfig(iterations=200)
    for seed in range(5):
        for signal in (False, True):
            ctx, lines = make_ctx(1, seed=seed, noise=noise)
            if signal:
                ctx.state.touch(lines[0])
            run = amp.self_reinforcing(lines[0], cfg, ctx)
            want, corrupted = amp.simulate_elapsed(
                signal, cfg, noise, LAT, np.random.default_rng(seed))
            assert run.elapsed_ns == want
            assert run.corrupted == corrupted


def test_paired_strength_zero_noise_closed_form():
    for iters in (1, 10, 1000):
        cfg = amp.AmplifierConfig(iterations=iters)
        s = amp.paired_strength(cfg, NoiseModel(), LAT, np.random.default_rng(0))
        assert s.strength_ns == iters * 22 * 76.0
        assert not s.corrupted


def test_paired_strength_flip_flips_sign_contribution():
    # with a certain flip at every iteration the pair alternates sign
    cfg = amp.AmplifierConfig(iterations=2)
    noise = NoiseModel(corruption_prob_per_iteration=1.0)
    s = amp.paired_strength(cfg, noise, LAT, np.random.default_rng(0))
    # signs: -1, +1 -> net zero
    assert s.strength_ns == 0.0
    assert s.corrupted


# The dense per-step kernels the flip-position closed form replaced: the
# running parity of the flips, one array element per iteration.
def dense_elapsed(signal_present, cfg, noise, latency, rng):
    present_term, absent_term = amp.per_iteration_terms(cfg, latency)
    p = noise.corruption_prob_per_iteration
    if p == 0.0:
        term = present_term if signal_present else absent_term
        return cfg.iterations * term, False
    flips = rng.random(cfg.iterations) < p
    n_present = int(np.sum((np.cumsum(flips) & 1) ^ signal_present))
    elapsed = present_term * n_present + absent_term * (cfg.iterations - n_present)
    return elapsed, bool(flips.any())


def dense_strength(cfg, noise, latency, rng):
    present_term, absent_term = amp.per_iteration_terms(cfg, latency)
    delta = present_term - absent_term
    p = noise.corruption_prob_per_iteration
    if p == 0.0:
        return amp.SignalStrengthSample(cfg.iterations * delta, cfg.iterations, False)
    flips = rng.random(cfg.iterations) < p
    signed = np.sum(1 - 2 * (np.cumsum(flips) & 1))
    return amp.SignalStrengthSample(delta * float(signed), cfg.iterations, bool(flips.any()))


CHUNK = amp.DRAW_CHUNK


@settings(max_examples=40, deadline=None)
@given(n=st.integers(0, 3 * CHUNK + 1), p=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
@example(n=CHUNK - 1, p=1e-3, seed=1)
@example(n=CHUNK, p=1e-3, seed=2)
@example(n=CHUNK + 1, p=1e-3, seed=3)
@example(n=2 * CHUNK + 1, p=1.0, seed=4)
@example(n=CHUNK + 1, p=1.0, seed=5)
@example(n=0, p=0.5, seed=6)
def test_kernels_equal_dense_oracle(n, p, seed):
    """Exact match, and the generator is left where the dense draw leaves it."""
    cfg = amp.AmplifierConfig(iterations=n)
    noise = NoiseModel(corruption_prob_per_iteration=p)
    runs = [(amp.paired_strength, dense_strength, ())]
    runs += [(amp.simulate_elapsed, dense_elapsed, (signal,)) for signal in (False, True)]
    for kernel, oracle, head in runs:
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        assert kernel(*head, cfg, noise, LAT, got_rng) == oracle(*head, cfg, noise, LAT, want_rng)
        assert got_rng.random() == want_rng.random()


def test_strength_ensemble_deterministic():
    cfg = amp.AmplifierConfig(iterations=1000)
    noise = NoiseModel(corruption_prob_per_iteration=1e-4)
    a = amp.strength_ensemble(cfg, noise, LAT, 50, seed=9)
    b = amp.strength_ensemble(cfg, noise, LAT, 50, seed=9)
    assert [s.strength_ns for s in a] == [s.strength_ns for s in b]
    c = amp.strength_ensemble(cfg, noise, LAT, 50, seed=10)
    assert [s.strength_ns for s in a] != [s.strength_ns for s in c]


def test_recover_signal_coarse_timer():
    for signal in (False, True):
        ctx, lines = make_ctx(1)
        if signal:
            ctx.state.touch(lines[0])
        timer = TimerModel(granularity_ns=100e6)  # 100 ms ticks
        got = amp.recover_signal(lines[0], amp.AmplifierConfig(iterations=100_000),
                                 timer, ctx)
        want = amp.RecoveredSignal.PRESENT if signal else amp.RecoveredSignal.ABSENT
        assert got is want


# Whole-number latencies keep the loop's running sum exact.
NS = st.integers(0, 120).map(float)


@settings(max_examples=60, deadline=None)
@given(hit=NS.map(lambda v: v + 1), gap=NS.map(lambda v: v + 1), delay_op=NS.map(lambda v: v + 1),
       redirect=NS, deplen=st.integers(1, 64), accesslen=st.integers(2, 6),
       iterations=st.integers(1, 4))
@example(hit=4.0, gap=76.0, delay_op=5.0, redirect=2.0, deplen=5, accesslen=23, iterations=3)
@example(hit=4.0, gap=16.0, delay_op=5.0, redirect=2.0, deplen=5, accesslen=23,
         iterations=3)  # miss 20 ns: even a miss resolves within the window
@example(hit=4.0, gap=76.0, delay_op=1.0, redirect=2.0, deplen=6, accesslen=4,
         iterations=2)  # the window equals redirect + hit
@example(hit=4.0, gap=76.0, delay_op=2.0, redirect=2.0, deplen=41, accesslen=4,
         iterations=2)  # the window equals redirect + miss
def test_closed_form_refuses_or_matches_gadget_loop(hit, gap, delay_op, redirect, deplen,
                                                    accesslen, iterations):
    """At zero noise the closed form refuses exactly the latencies under which
    the gadget loop (every stage at cfg.deplen) carries no signal, and
    otherwise gives the loop's elapsed time for each signal value."""
    lat = LatencyModel(hit_ns=hit, miss_ns=hit + gap, delay_op_ns=delay_op, redirect_ns=redirect)
    cfg = amp.AmplifierConfig(deplen=deplen, accesslen=accesslen, iterations=iterations)
    loop = {}
    for signal in (False, True):
        lines = allocate_lines(LayoutConfig(count=1))
        ctx = GadgetContext(state=CacheState(lines), latency=lat, deplen=deplen)
        if signal:
            ctx.state.touch(lines[0])
        run = amp.self_reinforcing(lines[0], cfg, ctx)
        loop[signal] = (run.elapsed_ns, run.corrupted)
    if loop[False] == loop[True]:
        with pytest.raises(GadgetError):
            amp.per_iteration_terms(cfg, lat)
        return
    for signal in (False, True):
        assert amp.simulate_elapsed(signal, cfg, NoiseModel(), lat,
                                    np.random.default_rng(0)) == loop[signal]


@pytest.mark.parametrize("cores", [1, 2, 3, 7])
def test_map_trials_keeps_order(monkeypatch, cores):
    monkeypatch.setattr(amp, "CORES", cores)
    assert amp.map_trials(str, []) == []
    for n in range(21):
        assert amp.map_trials(lambda x: x * x, range(n)) == [x * x for x in range(n)]


@pytest.mark.parametrize("cores", [1, 2, 3, 7])
def test_map_trials_raises_the_lowest_failure(monkeypatch, cores):
    monkeypatch.setattr(amp, "CORES", cores)

    def fn(x):
        if x in (5, 6):
            raise ValueError(x)
        return x

    with pytest.raises(ValueError) as exc:
        amp.map_trials(fn, range(12))
    assert exc.value.args == (5,)  # item 5 runs on a worker thread for cores 2, 3 and 7


def test_map_trials_under_fast_thread_switching(monkeypatch):
    """More threads than cores, switching every microsecond: no result is
    lost or misplaced, and no thread outlives the call."""
    monkeypatch.setattr(amp, "CORES", 8)
    children = np.random.SeedSequence(1).spawn(400)

    def fn(child):
        return float(np.random.default_rng(child).random(50).sum())

    want = [fn(child) for child in children]
    before = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = amp.map_trials(fn, children)
    finally:
        sys.setswitchinterval(interval)
    assert got == want
    assert threading.active_count() == before


THREADED_COMMANDS = [
    ["amp-sweep", "--iterations", "0", "1", "3000", "--seed", "3"],
    ["amp-consistency", "--iterations", "0", "1000", "--granularities", "1e3", "1e5",
     "--seed", "3"],
]


def test_cli_output_independent_of_core_count(monkeypatch, capsys, tmp_path):
    for key in list(os.environ):
        if key.startswith("CACHESIG_"):
            monkeypatch.delenv(key)
    monkeypatch.setenv("CACHESIG_NOISE_CORRUPTION_PROB_PER_ITERATION", "1e-3")
    monkeypatch.setenv("CACHESIG_TIMER_JITTER_NS", "5e4")
    for args in THREADED_COMMANDS:
        for trials in ("1", "2", "9"):
            outputs = set()
            for cores in (1, 2, 3, 7):
                monkeypatch.setattr(amp, "CORES", cores)
                detail = tmp_path / f"detail_{cores}.csv"
                extra = ["--detail-out", str(detail)] if args[0] == "amp-sweep" else []
                assert cli.main(args + ["--trials", trials] + extra) == 0
                out = capsys.readouterr().out
                outputs.add((out, detail.read_text() if extra else ""))
            assert len(outputs) == 1, (args, trials)


def test_recover_signal_indeterminate_when_unamplified():
    ctx, lines = make_ctx(1)
    timer = TimerModel(granularity_ns=100e6)
    got = amp.recover_signal(lines[0], amp.AmplifierConfig(iterations=1000),
                             timer, ctx)
    assert got is amp.RecoveredSignal.INDETERMINATE
