import itertools

import numpy as np
import pytest

from cachesig.cache import CacheState, LayoutConfig, allocate_lines
from cachesig.engine import GadgetError
from cachesig.gadgets import (
    GadgetContext,
    HALF_ADDER_SCRATCH,
    MAX_NAND_FAN_IN,
    MAX_REPLICATE_FAN_OUT,
    half_adder,
    nand,
    nor,
    replicate,
    xor_gate,
)
from cachesig.timing import LatencyModel, NoiseModel


def make_ctx(count, seed=0):
    lines = allocate_lines(LayoutConfig(count=count))
    ctx = GadgetContext(state=CacheState(lines), latency=LatencyModel(),
                        noise=NoiseModel(), rng=np.random.default_rng(seed))
    return ctx, lines


def set_bits(ctx, lines, bits):
    for line, bit in zip(lines, bits):
        if bit:
            ctx.state.touch(line)


def test_invert_truth_table():
    # the inverter is the one-output replicator
    for val in (False, True):
        ctx, (a, b) = make_ctx(2)
        set_bits(ctx, [a], [val])
        replicate(a, [b], ctx)
        assert ctx.state.phi(b) == (not val)
        assert ctx.state.phi(a)  # input consumed


def test_invert_rejects_dirty_output():
    ctx, (a, b) = make_ctx(2)
    ctx.state.touch(b)
    with pytest.raises(GadgetError):
        replicate(a, [b], ctx)


def test_replicate_produces_inverted_copies():
    for val in (False, True):
        ctx, lines = make_ctx(6)
        set_bits(ctx, lines[:1], [val])
        replicate(lines[0], lines[1:], ctx)
        for out in lines[1:]:
            assert ctx.state.phi(out) == (not val)


def test_replicate_fan_out_cap():
    ctx, lines = make_ctx(MAX_REPLICATE_FAN_OUT + 2)
    with pytest.raises(GadgetError):
        replicate(lines[0], lines[1:], ctx)
    replicate(lines[0], lines[1:-1], ctx)  # exactly at the cap


def test_nand_truth_tables():
    for fan_in in (2, 3, 4, 8):
        for bits in itertools.product((False, True), repeat=fan_in):
            ctx, lines = make_ctx(fan_in + 1)
            set_bits(ctx, lines[:fan_in], bits)
            nand(lines[:fan_in], lines[fan_in], ctx)
            assert ctx.state.phi(lines[fan_in]) == (not all(bits))


def test_nand_fan_in_limits():
    ctx, lines = make_ctx(2)
    with pytest.raises(GadgetError):
        nand(lines[:1], lines[1], ctx)
    big, _ = make_ctx(MAX_NAND_FAN_IN + 2)
    lines = sorted(big.state.lines())
    with pytest.raises(GadgetError):
        nand(lines[:-1], lines[-1], big)


def test_nor_truth_table():
    for bits in itertools.product((False, True), repeat=2):
        ctx, (a, b, out) = make_ctx(3)
        set_bits(ctx, [a, b], bits)
        nor(a, b, out, ctx)
        assert ctx.state.phi(out) == (not any(bits))


def test_xor_gate_truth_table():
    for bits in itertools.product((False, True), repeat=2):
        ctx, (a, b, out) = make_ctx(3)
        set_bits(ctx, [a, b], bits)
        xor_gate(a, b, out, ctx)
        assert ctx.state.phi(out) == (bits[0] != bits[1])


def test_half_adder_truth_table():
    for bits in itertools.product((False, True), repeat=2):
        ctx, lines = make_ctx(4 + HALF_ADDER_SCRATCH)
        a, b, s, c = lines[:4]
        set_bits(ctx, [a, b], bits)
        half_adder(a, b, s, c, lines[4:], ctx)
        assert ctx.state.phi(s) == (bits[0] != bits[1])
        assert ctx.state.phi(c) == (bits[0] and bits[1])


def test_half_adder_scratch_requirement():
    ctx, lines = make_ctx(4 + HALF_ADDER_SCRATCH - 1)
    with pytest.raises(GadgetError):
        half_adder(lines[0], lines[1], lines[2], lines[3], lines[4:], ctx)


def test_gadgets_destroy_inputs():
    ctx, lines = make_ctx(3)
    nand(lines[:2], lines[2], ctx)
    assert ctx.state.phi(lines[0]) and ctx.state.phi(lines[1])


def test_distinctness_enforced():
    ctx, (a, b, out) = make_ctx(3)
    with pytest.raises(GadgetError):
        replicate(a, [a], ctx)
    with pytest.raises(GadgetError):
        replicate(a, [b, b], ctx)
    with pytest.raises(GadgetError):
        nand([a, b], a, ctx)
    with pytest.raises(GadgetError):
        nor(a, b, b, ctx)


def test_flip_noise_changes_outputs():
    flips = 0
    for seed in range(200):
        ctx, (a, b) = make_ctx(2, seed=seed)
        ctx.noise = NoiseModel(gadget_flip_prob=0.2)
        replicate(a, [b], ctx)
        flips += not ctx.state.phi(b)  # correct answer is True (input absent)
    assert 10 < flips < 90  # ~20% flip rate


def test_nand_noise_beats_xor_noise_under_jitter():
    """With latency jitter the XOR composite's {0,0} aliasing makes it
    less reliable than NAND, matching the observed gadget ranking."""
    lat = LatencyModel(jitter_sigma_ns=8.0)
    xor_err = nand_err = 0
    trials = 400
    for seed in range(trials):
        rng = np.random.default_rng(seed)
        for bits in itertools.product((False, True), repeat=2):
            ctx, (a, b, out) = make_ctx(3)
            ctx.latency, ctx.rng = lat, rng
            set_bits(ctx, [a, b], bits)
            xor_gate(a, b, out, ctx)
            xor_err += ctx.state.phi(out) != (bits[0] != bits[1])
            ctx2, (a2, b2, o2) = make_ctx(3)
            ctx2.latency, ctx2.rng = lat, rng
            set_bits(ctx2, [a2, b2], bits)
            nand([a2, b2], o2, ctx2)
            nand_err += ctx2.state.phi(o2) != (not all(bits))
    assert nand_err < xor_err
