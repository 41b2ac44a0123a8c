"""Latency and coarse-timer models.

Latencies are continuous nanoseconds.  The hit/miss split drives
speculation outcomes; the timer model quantizes measured durations and
keeps an exact count of timer reads (2 per interval measurement).
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class TimingError(Exception):
    pass


@dataclass
class LatencyModel:
    hit_ns: float = 4.0
    miss_ns: float = 80.0
    delay_op_ns: float = 5.0
    redirect_ns: float = 2.0
    jitter_sigma_ns: float = 0.0

    def __post_init__(self):
        if self.hit_ns <= 0 or self.miss_ns <= 0:
            raise TimingError("latencies must be positive")
        if self.miss_ns <= self.hit_ns:
            raise TimingError("miss_ns must exceed hit_ns (no signal otherwise)")
        if self.delay_op_ns <= 0 or self.redirect_ns < 0:
            raise TimingError("bad delay/redirect cost")
        if self.jitter_sigma_ns < 0:
            raise TimingError("jitter sigma must be non-negative")

    @property
    def signal_ns(self) -> float:
        """Raw single-line signal strength (76 ns at defaults)."""
        return self.miss_ns - self.hit_ns

    @property
    def threshold_ns(self) -> float:
        """Hit/miss decision threshold, taken at the midpoint."""
        return (self.hit_ns + self.miss_ns) / 2.0

    def access(self, is_hit: bool, rng) -> float:
        base = self.hit_ns if is_hit else self.miss_ns
        if self.jitter_sigma_ns > 0:
            base += rng.normal(0.0, self.jitter_sigma_ns)
        return max(base, 0.0)


@dataclass
class TimerModel:
    granularity_ns: float = 1.0
    jitter_ns: float = 0.0
    reads_taken: int = 0

    def __post_init__(self):
        if self.granularity_ns <= 0:
            raise TimingError("granularity must be positive")
        if self.jitter_ns < 0:
            raise TimingError("timer jitter must be non-negative")

    @property
    def measurements_taken(self) -> int:
        return self.reads_taken // 2

    def quantize(self, duration_ns: float) -> float:
        return math.floor(duration_ns / self.granularity_ns) * self.granularity_ns

    def measure(self, true_duration_ns: float, rng) -> float:
        if true_duration_ns < 0:
            raise TimingError("duration must be non-negative")
        self.reads_taken += 2
        value = self.quantize(true_duration_ns)
        if self.jitter_ns > 0:
            value += rng.uniform(0.0, self.jitter_ns)
        return value


@dataclass
class NoiseModel:
    gadget_flip_prob: float = 0.0
    corruption_prob_per_iteration: float = 0.0

    def __post_init__(self):
        for p in (self.gadget_flip_prob, self.corruption_prob_per_iteration):
            if not 0.0 <= p <= 1.0:
                raise TimingError("probabilities must lie in [0, 1]")


@dataclass
class MeasureResult:
    estimate: bool
    measured_ns: float
    indeterminate: bool


def measure_line(timer: TimerModel, latency: LatencyModel, state, line, rng) -> MeasureResult:
    """Timed architectural access to a line.

    Destructive like any load: the line is present afterward.  The
    estimate compares the quantized measurement against the quantized
    hit/miss midpoint; when hit and miss quantize to the same timer tick
    the result carries an indeterminate flag (and defaults to TRUE).
    """
    is_hit = state.phi(line)
    raw = latency.access(is_hit, rng)
    state.touch(line)
    measured = timer.measure(raw, rng)
    threshold_q = timer.quantize(latency.threshold_ns)
    indeterminate = timer.quantize(latency.hit_ns) == timer.quantize(latency.miss_ns)
    estimate = measured <= threshold_q
    return MeasureResult(estimate=estimate, measured_ns=measured, indeterminate=indeterminate)
