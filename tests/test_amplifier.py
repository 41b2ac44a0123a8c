import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cachesig import amplifier as amp
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


def test_recover_signal_indeterminate_when_unamplified():
    ctx, lines = make_ctx(1)
    timer = TimerModel(granularity_ns=100e6)
    got = amp.recover_signal(lines[0], amp.AmplifierConfig(iterations=1000),
                             timer, ctx)
    assert got is amp.RecoveredSignal.INDETERMINATE
