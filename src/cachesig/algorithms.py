"""Signal-recovery applications: FLUSH+RELOAD binary search and the
cacheline counter, with strict timed-measurement accounting."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cache import CacheState, LayoutConfig, LineId, allocate_lines
from .gadgets import GadgetContext, nand, replicate
from .netlist import build_counter_netlist, compile_program, run_program
from .timing import TimerModel, measure_line


class AlgorithmError(Exception):
    pass


@dataclass
class SearchState:
    signal: list[LineId]      # S, size N; exactly one present at start
    work: list[LineId]        # W, size 2N
    result: LineId            # R
    lo: int = 0
    hi: int = 0

    def __post_init__(self):
        n = len(self.signal)
        if n < 4 or n & (n - 1):
            raise AlgorithmError("signal array size must be a power of two >= 4")
        if len(self.work) != 2 * n:
            raise AlgorithmError("work array must be twice the signal array")
        self.hi = n - 1


def make_search_state(n: int, present_index: int, stride: int = 4160,
                      capacity: int | None = None) -> tuple[CacheState, SearchState]:
    lines = allocate_lines(LayoutConfig(stride=stride, count=3 * n + 1))
    state = CacheState(lines, capacity=capacity)
    st = SearchState(signal=lines[:n], work=lines[n:3 * n], result=lines[3 * n])
    if present_index is not None:
        state.touch(st.signal[present_index])
    return state, st


def binary_search(st: SearchState, timer: TimerModel, ctx: GadgetContext,
                  check_preconditions: bool = False) -> int:
    """Locate the single present signal line with log2(N) timed measures.

    Per round: flush W and R; replicate each surviving S line into its W
    pair (even entry feeds the test, odd entry preserves the signal); NAND
    the even entries of the candidate half into R; restore S from the odd
    entries; one timed measure of R picks the half.
    """
    if check_preconditions:
        present = [l for l in st.signal if ctx.state.phi(l)]
        if len(present) != 1:
            raise AlgorithmError(f"expected exactly one present line, found {len(present)}")
    lo, hi = st.lo, st.hi
    while lo < hi:
        for line in st.work:
            ctx.state.flush(line)
        ctx.state.flush(st.result)
        for i in range(lo, hi + 1):
            replicate(st.signal[i], [st.work[2 * i], st.work[2 * i + 1]], ctx)
        mid = (lo + hi + 1) // 2
        test = [st.work[2 * i] for i in range(lo, mid)]
        if len(test) == 1:
            replicate(test[0], [st.result], ctx)
        else:
            nand(test, st.result, ctx)
        for i in range(lo, hi + 1):
            ctx.state.flush(st.signal[i])
            replicate(st.work[2 * i + 1], [st.signal[i]], ctx)
        res = measure_line(timer, ctx.latency, ctx.state, st.result, ctx.rng)
        # a timer that cannot split hit from miss never will: take the
        # not-present branch
        if res.estimate and not res.indeterminate:
            hi = mid - 1
        else:
            lo = mid
    st.lo = st.hi = lo
    return lo


@dataclass
class CounterState:
    inputs: list[LineId]
    counter_bits: list[LineId]


def make_counter_state(n: int, present_indexes, stride: int = 4160) -> tuple[CacheState, CounterState]:
    bits = n.bit_length()  # == ceil(log2(n + 1)) for n >= 1
    lines = allocate_lines(LayoutConfig(stride=stride, count=n + bits))
    state = CacheState(lines)
    st = CounterState(inputs=lines[:n], counter_bits=lines[n:])
    for i in present_indexes:
        state.touch(st.inputs[i])
    return state, st


@lru_cache(maxsize=32)
def _counter_program(n: int):
    return compile_program(build_counter_netlist(n))


def count_lines(st, timer, ctx: GadgetContext, rngs=None):
    """Popcount of the input lines read with ceil(log2(n+1)) timed measures.

    A call counts one cell of trials in a single pass of the bit-sliced
    executor (it matches the gadget-level path, which the netlist tests
    pin); each trial's counter-bit lines are then read through its timer.

    - count_lines(st, timer, ctx): one trial, a cell of one, on a prepared
      CounterState in ctx.state; flips come from ctx.rng; returns the count.
    - count_lines(n, timers, ctx, rngs): a cell of len(rngs) trials on n
      input lines.  Trial t draws its input mask rngs[t].integers(0, 2, n)
      and then its flips from rngs[t]; its counter state is built only after
      the run and read through timers[t].  ctx supplies the latency and
      noise models.  Returns (popcount, count) per trial.

    The executor does not model latency jitter, so jitter is rejected.
    """
    if ctx.latency.jitter_sigma_ns > 0:
        raise AlgorithmError("the counter executor does not model latency jitter")
    single = isinstance(st, CounterState)
    if single:
        n, timers, rngs = len(st.inputs), [timer], [ctx.rng]
        if any(ctx.state.phi(line) for line in st.counter_bits):
            raise AlgorithmError("counter bit lines must start absent")
        if len(st.counter_bits) != counter_bit_width(n):
            raise AlgorithmError(
                f"need {counter_bit_width(n)} counter bit lines for {n} inputs")
    else:
        n, timers, rngs = st, timer, list(rngs)
        if len(timers) != len(rngs):
            raise AlgorithmError("need one timer per trial")
    if n < 1:
        raise AlgorithmError("need at least one input line")
    prog = _counter_program(n)
    if single:
        masks = [[ctx.state.phi(line) for line in st.inputs]]
    else:
        masks = [rng.integers(0, 2, n) for rng in rngs]
    # one int per input line whose bit t is trial t's presence bit
    columns = np.packbits(np.asarray(masks, dtype=np.uint8), axis=0, bitorder="little")
    lanes = [int.from_bytes(columns[:, i].tobytes(), "little") for i in range(n)]
    out = run_program(prog, lanes, flip_prob=ctx.noise.gadget_flip_prob, rng=rngs,
                      width=len(rngs))
    results = []
    for t, (mask, timer_t, rng) in enumerate(zip(masks, timers, rngs)):
        present = np.flatnonzero(mask).tolist()
        state, st_t = (ctx.state, st) if single else make_counter_state(n, present)
        for line in st_t.inputs:  # every gadget read is destructive
            state.touch(line)
        for line, lane in zip(st_t.counter_bits, out):
            if lane >> t & 1:
                state.touch(line)
        value = 0
        for k, line in enumerate(st_t.counter_bits):
            if measure_line(timer_t, ctx.latency, state, line, rng).estimate:
                value |= 1 << k
        results.append((len(present), value))
    return results[0][1] if single else results


def counter_bit_width(n: int) -> int:
    return n.bit_length()
