import numpy as np
import pytest

from cachesig.algorithms import (
    AlgorithmError,
    binary_search,
    count_lines,
    counter_bit_width,
    make_counter_state,
    make_search_state,
)
from cachesig.gadgets import GadgetContext
from cachesig.timing import LatencyModel, NoiseModel, TimerModel

LAT = LatencyModel()


def make_ctx(state, seed=0, noise=None):
    return GadgetContext(state=state, latency=LAT, noise=noise or NoiseModel(),
                         rng=np.random.default_rng(seed))


def test_search_state_validation():
    with pytest.raises(AlgorithmError):
        make_search_state(3, 0)  # not a power of two
    with pytest.raises(AlgorithmError):
        make_search_state(2, 0)  # below the minimum size


def test_search_allocates_three_n_plus_one():
    state, st = make_search_state(8, 5)
    assert len(state.lines()) == 3 * 8 + 1
    assert len(st.signal) == 8 and len(st.work) == 16
    assert state.phi(st.signal[5])
    assert sum(state.phi(l) for l in st.signal) == 1


@pytest.mark.parametrize("n", [4, 8, 16])
def test_binary_search_exhaustive_small(n):
    rounds = n.bit_length() - 1
    for target in range(n):
        state, st = make_search_state(n, target)
        timer = TimerModel()
        assert binary_search(st, timer, make_ctx(state)) == target
        assert timer.measurements_taken == rounds
        assert timer.reads_taken == 2 * rounds


def test_binary_search_precondition_check():
    state, st = make_search_state(4, 1)
    state.touch(st.signal[2])  # a second present line breaks the invariant
    with pytest.raises(AlgorithmError, match="exactly one"):
        binary_search(st, TimerModel(), make_ctx(state), check_preconditions=True)


def test_binary_search_indeterminate_defaults_without_retry():
    # a 1 us timer cannot split hit from miss: every measure is
    # indeterminate, and the search walks to the top end on one measure
    # per round
    state, st = make_search_state(4, 0)
    timer = TimerModel(granularity_ns=1000.0)
    result = binary_search(st, timer, make_ctx(state))
    assert result == 3  # all "not present in first half" decisions
    assert timer.measurements_taken == 2


def test_counter_state_validation():
    state, st = make_counter_state(5, [0, 2])
    assert len(st.inputs) == 5
    assert len(st.counter_bits) == 3
    assert sum(state.phi(l) for l in st.inputs) == 2
    ctx = make_ctx(state)
    state.touch(st.counter_bits[0])
    with pytest.raises(AlgorithmError, match="start absent"):
        count_lines(st, TimerModel(), ctx)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 10])
def test_counter_exhaustive_small(n):
    width = counter_bit_width(n)
    for mask in range(2 ** n):
        present = [i for i in range(n) if mask >> i & 1]
        state, st = make_counter_state(n, present)
        timer = TimerModel()
        got = count_lines(st, timer, make_ctx(state))
        assert got == len(present)
        assert timer.measurements_taken == width


def test_counter_bit_width():
    assert [counter_bit_width(n) for n in (1, 2, 3, 4, 7, 8, 255, 256)] == \
        [1, 2, 2, 3, 3, 4, 8, 9]


def test_counter_inputs_destroyed():
    state, st = make_counter_state(4, [1])
    count_lines(st, TimerModel(), make_ctx(state))
    assert all(state.phi(l) for l in st.inputs)


def test_search_deterministic_under_fixed_seed():
    results = set()
    for _ in range(3):
        state, st = make_search_state(32, 17)
        results.add(binary_search(st, TimerModel(), make_ctx(state, seed=5)))
    assert results == {17}


def test_counter_rejects_latency_jitter():
    state, st = make_counter_state(4, [1])
    ctx = GadgetContext(state=state, latency=LatencyModel(jitter_sigma_ns=10.0),
                        rng=np.random.default_rng(0))
    with pytest.raises(AlgorithmError, match="jitter"):
        count_lines(st, TimerModel(), ctx)
    with pytest.raises(AlgorithmError, match="jitter"):
        count_lines(4, [TimerModel()], ctx, [np.random.default_rng(0)])


def test_counter_cell_matches_single_trials():
    """A cell of T trials equals T prepared single trials drawn the same way
    (exact match: same mask, flip and timer draws per trial)."""
    noise = NoiseModel(gadget_flip_prob=0.02)
    cell_ctx = GadgetContext(state=None, latency=LAT, noise=noise)
    for n in (1, 5, 16):
        seeds = range(12)
        timers = [TimerModel(jitter_ns=30.0) for _ in seeds]
        cell = count_lines(n, timers, cell_ctx, [np.random.default_rng(s) for s in seeds])
        single = []
        for s in seeds:
            rng = np.random.default_rng(s)
            mask = rng.integers(0, 2, n)
            present = [i for i in range(n) if mask[i]]
            state, st = make_counter_state(n, present)
            timer = TimerModel(jitter_ns=30.0)
            ctx = GadgetContext(state=state, latency=LAT, noise=noise, rng=rng)
            single.append((len(present), count_lines(st, timer, ctx)))
            assert timer.reads_taken == timers[s].reads_taken
        assert cell == single
