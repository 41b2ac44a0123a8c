"""Forced-speculation primitive.

One invocation models a mispredicted ret: guard loads gate how long the
bogus speculation window lives; output lines are fetched only if every
guard resolves slower than the delay-loop window.  Guard loads always
execute architecturally, so every gadget destroys its inputs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .cache import CacheState, LineId
from .timing import LatencyModel, NoiseModel

MAX_DEPLEN = 64
MAX_OUTPUTS = 23


class GadgetError(Exception):
    pass


class Combine(enum.Enum):
    # MAX_CHAIN: independently issued loads joined at one consumer.
    # SUM_CHAIN: serially dependent loads.
    MAX_CHAIN = "max"
    SUM_CHAIN = "sum"


@dataclass(frozen=True)
class GuardGroup:
    inputs: tuple[LineId, ...]
    combine: Combine = Combine.MAX_CHAIN

    def __post_init__(self):
        if not self.inputs:
            raise GadgetError("guard group needs at least one input")

    def resolution_ns(self, state: CacheState, latency: LatencyModel, rng) -> float:
        lats = [latency.access(state.phi(line), rng) for line in self.inputs]
        joined = max(lats) if self.combine is Combine.MAX_CHAIN else sum(lats)
        return latency.redirect_ns + joined


@dataclass(frozen=True)
class GadgetSpec:
    guards: tuple[GuardGroup, ...]
    deplen: int
    outputs: tuple[LineId, ...]

    def __post_init__(self):
        if not self.guards:
            raise GadgetError("at least one guard group required")
        if not 0 <= self.deplen <= MAX_DEPLEN:
            raise GadgetError(f"deplen must be in [0, {MAX_DEPLEN}]")
        if len(self.outputs) > MAX_OUTPUTS:
            raise GadgetError(f"at most {MAX_OUTPUTS} outputs per invocation")
        guard_lines = self.guard_inputs()
        if guard_lines & set(self.outputs):
            raise GadgetError("outputs may not alias guard inputs")

    def guard_inputs(self) -> set[LineId]:
        return {line for g in self.guards for line in g.inputs}


@dataclass
class SpeculationOutcome:
    fetched: tuple[LineId, ...]
    window_ns: float
    resolution_ns: list[float] = field(default_factory=list)


def run_primitive(
    spec: GadgetSpec,
    state: CacheState,
    latency: LatencyModel,
    noise: NoiseModel,
    rng,
) -> tuple[CacheState, SpeculationOutcome]:
    window = spec.deplen * latency.delay_op_ns
    resolutions = [g.resolution_ns(state, latency, rng) for g in spec.guards]
    fetched_decision = min(resolutions) > window
    if noise.gadget_flip_prob > 0 and rng.random() < noise.gadget_flip_prob:
        fetched_decision = not fetched_decision

    # Architectural side effects: guard loads execute regardless.
    for line in sorted(spec.guard_inputs()):
        state.touch(line)
    fetched: tuple[LineId, ...] = ()
    if fetched_decision:
        for line in spec.outputs:
            state.touch(line)
        fetched = tuple(spec.outputs)
    return state, SpeculationOutcome(fetched=fetched, window_ns=window, resolution_ns=resolutions)


def xor_primitive(
    a: LineId,
    b: LineId,
    out: LineId,
    state: CacheState,
    latency: LatencyModel,
    noise: NoiseModel,
    rng,
    deplen: int = 5,
) -> CacheState:
    """Three-misprediction XOR composite.

    Fetches the output iff exactly one input resolves within the window.
    When both inputs are slow, a large gap between the two miss latencies
    aliases the invocation to a one-hot case and wrongly fetches the
    output; this is the gadget's dominant failure mode and why it is less
    reliable than NAND under jitter.
    """
    if out in (a, b) or a == b:
        raise GadgetError("xor lines must be pairwise distinct")
    if state.phi(out):
        raise GadgetError("xor output line must start absent")
    window = deplen * latency.delay_op_ns
    lat_a = latency.access(state.phi(a), rng)
    lat_b = latency.access(state.phi(b), rng)
    fast_a = latency.redirect_ns + lat_a <= window
    fast_b = latency.redirect_ns + lat_b <= window
    fetch = fast_a != fast_b
    if not fast_a and not fast_b and abs(lat_a - lat_b) > window:
        fetch = True
    if noise.gadget_flip_prob > 0 and rng.random() < noise.gadget_flip_prob:
        fetch = not fetch
    state.touch(a)
    state.touch(b)
    if fetch:
        state.touch(out)
    return state
