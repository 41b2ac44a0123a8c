"""Simulated cache-presence state and address layout rules.

A cacheline is identified by its virtual address; presence is a single
bit per line (hit vs miss is all the gadget logic ever observes).
"""

from __future__ import annotations

from dataclasses import dataclass

CACHELINE_BYTES = 64
MIN_STRIDE = 4096 + 64  # prefetcher avoidance + L1-index decorrelation


class CacheModelError(Exception):
    pass


class UnknownLineError(CacheModelError):
    """Raised when an operation names a line never registered with the state."""


@dataclass(frozen=True, order=True)
class LineId:
    index: int
    virtual_address: int

    def __post_init__(self):
        if self.index < 0:
            raise CacheModelError(f"negative line index {self.index}")
        if self.virtual_address < 0 or self.virtual_address % CACHELINE_BYTES:
            raise CacheModelError(
                f"address {self.virtual_address:#x} is not 64-byte aligned"
            )

    @property
    def l1_index(self) -> int:
        return (self.virtual_address >> 6) & 0x3F


@dataclass(frozen=True)
class LayoutConfig:
    stride: int = 4160
    count: int = 1
    base: int = 0

    def __post_init__(self):
        if self.count < 1:
            raise CacheModelError("count must be >= 1")
        if self.stride < MIN_STRIDE:
            raise CacheModelError(
                f"stride {self.stride} below minimum {MIN_STRIDE}"
            )
        if self.base < 0 or self.base % CACHELINE_BYTES:
            raise CacheModelError("base must be a non-negative multiple of 64")


def allocate_lines(cfg: LayoutConfig, start_index: int = 0) -> list[LineId]:
    """Lay out cfg.count lines at base + i*stride, stride >= 4160."""
    return [
        LineId(start_index + i, cfg.base + i * cfg.stride)
        for i in range(cfg.count)
    ]


class CacheState:
    """Presence bits over a registered set of lines.

    Mutations bump a generation counter.  An optional capacity evicts the
    least-recently-touched line when exceeded (off by default; the modeled
    working sets sit far below L3 capacity).
    """

    def __init__(self, lines=(), capacity: int | None = None):
        self._registered: set[LineId] = set()
        self._present: dict[LineId, None] = {}  # insertion order = recency
        self._generation = 0
        self.capacity = capacity
        if lines:
            self.register(lines)

    def register(self, lines) -> None:
        for line in lines:
            self._registered.add(line)

    @property
    def generation(self) -> int:
        return self._generation

    def lines(self) -> frozenset[LineId]:
        return frozenset(self._registered)

    def _check(self, line: LineId) -> None:
        if line not in self._registered:
            raise UnknownLineError(f"line {line!r} not registered")

    def phi(self, line: LineId) -> bool:
        """Presence predicate; pure query, does not bump the generation."""
        self._check(line)
        return line in self._present

    def touch(self, line: LineId) -> "CacheState":
        self._check(line)
        if line in self._present:
            del self._present[line]
        self._present[line] = None
        self._generation += 1
        if self.capacity is not None and len(self._present) > self.capacity:
            evict = next(iter(self._present))
            del self._present[evict]
        return self

    def flush(self, line: LineId) -> "CacheState":
        self._check(line)
        self._present.pop(line, None)
        self._generation += 1
        return self
