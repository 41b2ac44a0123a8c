import pytest

from cachesig.cache import (
    CACHELINE_BYTES,
    CacheModelError,
    CacheState,
    LayoutConfig,
    LineId,
    MIN_STRIDE,
    UnknownLineError,
    allocate_lines,
)


def test_line_id_alignment():
    LineId(0, 0)
    LineId(3, 4160 * 3)
    with pytest.raises(CacheModelError):
        LineId(0, 100)  # not 64-byte aligned
    with pytest.raises(CacheModelError):
        LineId(-1, 0)


def test_l1_index_derivation():
    assert LineId(0, 0).l1_index == 0
    assert LineId(0, 64).l1_index == 1
    assert LineId(0, 64 * 64).l1_index == 0  # wraps at 64 sets


def test_layout_minimum_stride():
    assert MIN_STRIDE == 4096 + CACHELINE_BYTES
    with pytest.raises(CacheModelError):
        LayoutConfig(stride=4096)
    with pytest.raises(CacheModelError):
        LayoutConfig(count=0)


def test_allocate_lines_addresses():
    lines = allocate_lines(LayoutConfig(stride=4160, count=4, base=128))
    assert [l.virtual_address for l in lines] == [128, 4288, 8448, 12608]
    assert [l.index for l in lines] == [0, 1, 2, 3]
    # consecutive lines never share an L1 set
    idx = [l.l1_index for l in lines]
    assert len(set(idx)) == len(idx)


def test_presence_transitions():
    lines = allocate_lines(LayoutConfig(count=2))
    state = CacheState(lines)
    a, b = lines
    assert not state.phi(a) and not state.phi(b)
    state.touch(a)
    assert state.phi(a) and not state.phi(b)
    state.touch(a)  # idempotent
    assert state.phi(a)
    state.flush(a)
    assert not state.phi(a)
    state.flush(a)  # flushing an absent line is a no-op
    assert not state.phi(a)


def test_generation_counter():
    lines = allocate_lines(LayoutConfig(count=1))
    state = CacheState(lines)
    g0 = state.generation
    state.phi(lines[0])
    assert state.generation == g0  # queries do not mutate
    state.touch(lines[0])
    state.flush(lines[0])
    assert state.generation == g0 + 2


def test_unknown_line_rejected():
    state = CacheState(allocate_lines(LayoutConfig(count=1)))
    rogue = LineId(99, 99 * 4160)
    with pytest.raises(UnknownLineError):
        state.phi(rogue)
    with pytest.raises(UnknownLineError):
        state.touch(rogue)


def test_capacity_evicts_least_recent():
    lines = allocate_lines(LayoutConfig(count=3))
    state = CacheState(lines, capacity=2)
    a, b, c = lines
    state.touch(a).touch(b)
    state.touch(a)  # refresh a; b is now least recent
    state.touch(c)
    assert state.phi(a) and state.phi(c)
    assert not state.phi(b)
