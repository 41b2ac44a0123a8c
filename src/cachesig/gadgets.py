"""Named logic gadgets over cacheline state, lowered onto the
forced-speculation primitive.  All gadgets destroy their inputs."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .cache import CacheState, LineId
from .engine import (
    Combine,
    GadgetError,
    GadgetSpec,
    GuardGroup,
    run_primitive,
    xor_primitive,
)
from .timing import LatencyModel, NoiseModel

DEFAULT_DEPLEN = 5
MAX_NAND_FAN_IN = 128
MAX_REPLICATE_FAN_OUT = 23


class GateKind(enum.Enum):
    NOT = "NOT"
    REPLICATE = "REPLICATE"
    NAND = "NAND"
    NOR = "NOR"
    XOR = "XOR"
    HALF_ADDER = "HALF_ADDER"


@dataclass
class GadgetContext:
    state: CacheState
    latency: LatencyModel = field(default_factory=LatencyModel)
    noise: NoiseModel = field(default_factory=NoiseModel)
    rng: np.random.Generator = field(default_factory=lambda: np.random.default_rng(0))
    deplen: int = DEFAULT_DEPLEN


def _require_absent(ctx: GadgetContext, lines) -> None:
    for line in lines:
        if ctx.state.phi(line):
            raise GadgetError(f"output line {line.index} must start absent")


def _run(ctx: GadgetContext, guards, outputs) -> CacheState:
    spec = GadgetSpec(guards=tuple(guards), deplen=ctx.deplen, outputs=tuple(outputs))
    state, _ = run_primitive(spec, ctx.state, ctx.latency, ctx.noise, ctx.rng)
    return state


def replicate(a: LineId, outs, ctx: GadgetContext) -> CacheState:
    """Set each output line to NOT a; with one output this is the inverter."""
    outs = list(outs)
    if not outs:
        raise GadgetError("replicate needs at least one output")
    if len(outs) > MAX_REPLICATE_FAN_OUT:
        raise GadgetError(f"replicate fan-out capped at {MAX_REPLICATE_FAN_OUT}")
    if len(set(outs)) != len(outs) or a in outs:
        raise GadgetError("replicate lines must be pairwise distinct")
    _require_absent(ctx, outs)
    return _run(ctx, [GuardGroup((a,))], outs)


def nand(inputs, out: LineId, ctx: GadgetContext) -> CacheState:
    inputs = list(inputs)
    if not 2 <= len(inputs) <= MAX_NAND_FAN_IN:
        raise GadgetError(f"nand fan-in must be in [2, {MAX_NAND_FAN_IN}]")
    if len(set(inputs)) != len(inputs) or out in inputs:
        raise GadgetError("nand lines must be pairwise distinct")
    _require_absent(ctx, [out])
    return _run(ctx, [GuardGroup(tuple(inputs), Combine.MAX_CHAIN)], [out])


def nor(a: LineId, b: LineId, out: LineId, ctx: GadgetContext) -> CacheState:
    if len({a, b, out}) != 3:
        raise GadgetError("nor lines must be pairwise distinct")
    _require_absent(ctx, [out])
    # Two forced-speculation instances, one per input; the earlier
    # resolver kills speculation, so the output survives only when both
    # inputs miss.
    return _run(ctx, [GuardGroup((a,)), GuardGroup((b,))], [out])


def xor_gate(a: LineId, b: LineId, out: LineId, ctx: GadgetContext) -> CacheState:
    return xor_primitive(a, b, out, ctx.state, ctx.latency, ctx.noise, ctx.rng, ctx.deplen)


HALF_ADDER_SCRATCH = 15


def half_adder(a, b, sum_line, carry_line, scratch, ctx: GadgetContext) -> CacheState:
    """sum = a XOR b, carry = a AND b, built from replicate/nand only.

    The replicator produces inverted copies, so true copies of each input
    are recovered through inverters before the NAND stages; 15 scratch
    lines are consumed.
    """
    scratch = list(scratch)
    if len(scratch) < HALF_ADDER_SCRATCH:
        raise GadgetError(f"half adder needs {HALF_ADDER_SCRATCH} scratch lines")
    names = scratch[:HALF_ADDER_SCRATCH]
    if len({a, b, sum_line, carry_line, *names}) != 4 + HALF_ADDER_SCRATCH:
        raise GadgetError("half adder lines must be pairwise distinct")
    _require_absent(ctx, [sum_line, carry_line, *names])
    a1, a2, b1, b2, ta1, ta2, tb1, tb2, n1, m1, m2, u1, u2, x1, x2 = names

    replicate(a, [a1, a2], ctx)          # a1, a2 = NOT a
    replicate(b, [b1, b2], ctx)
    replicate(a1, [ta1], ctx)            # true copies of a and b
    replicate(a2, [ta2], ctx)
    replicate(b1, [tb1], ctx)
    replicate(b2, [tb2], ctx)
    nand([ta1, tb1], n1, ctx)            # n1 = NAND(a, b)
    replicate(n1, [m1, m2, carry_line], ctx)  # carry = NOT n1 = a AND b
    replicate(m1, [u1], ctx)             # u* = NAND(a, b) again
    replicate(m2, [u2], ctx)
    nand([ta2, u1], x1, ctx)
    nand([tb2, u2], x2, ctx)
    nand([x1, x2], sum_line, ctx)        # sum = a XOR b
    return ctx.state
