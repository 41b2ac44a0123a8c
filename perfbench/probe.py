"""Host-speed probe.

The benchmark shares its machine with other tenants, and the speed the
host gives one process drifts by up to 1.7x over spells of seconds to
minutes.  Raw rates measured at different times then differ by more than
any change worth detecting.  The probe is a fixed piece of work owned by
the benchmark, run right after each timed pass or set-up run: how much
slower than nominal it ran is the host's slowdown at that moment, and the
benchmark divides it out.  The program under test never runs inside the
probe, so a faster program still shows as a higher normalised rate.

Interpreter-bound, hashing-bound and numpy-bound code slow down by
different amounts, so there are two probes for passes: "python" averages
the slowdowns of an interpreter loop, a loop over hashed frozen-dataclass
keys and a numpy stream; "numpy" is the stream alone.  A workload uses
the probe that matches where its host time goes.  Set-up runs are fresh
processes, which neither tracks well; their probe is a fresh process that
only starts the interpreter and imports numpy.
"""

from __future__ import annotations

import subprocess
import sys
from dataclasses import dataclass
from time import perf_counter

import numpy as np

# Probe times on a 2-vCPU shared x86-64 host, Python 3.11, numpy 2.4; they
# only fix the scale of the normalised figures.
INTERPRETER_NOMINAL_S = 0.010
HASHING_NOMINAL_S = 0.013
NUMPY_NOMINAL_S = 0.0025
PROCESS_NOMINAL_S = 0.17

KINDS = ("python", "numpy")


class _Node:
    __slots__ = ("key", "bit")

    def __init__(self, key, bit):
        self.key = key
        self.bit = bit


def _interpreter_loop() -> int:
    # object churn, attribute access and dict traffic, as in the cache model
    table = {}
    total = 0
    for i in range(20_000):
        table[i & 255] = _Node(i, i & 7)
        node = table.get((i * 7) & 255)
        if node is not None:
            total += node.bit
    return total


@dataclass(frozen=True, order=True)
class _Key:
    index: int
    address: int


_KEYS = [_Key(i, i * 4160) for i in range(256)]


def _hashed_keys() -> int:
    # set membership and insertion-ordered dict updates keyed by frozen
    # dataclasses, as the presence bits of the cache model are
    registered = set(_KEYS)
    present: dict = {}
    total = 0
    for _ in range(40):
        for key in _KEYS:
            if key in registered:
                present.pop(key, None)
                present[key] = None
        for key in _KEYS[::2]:
            present.pop(key, None)
        total += len(frozenset(present))
    return total


def _numpy_stream() -> int:
    # uniform draws and a running parity, as in the amplifier kernels
    u = np.random.default_rng(0).random(200_000)
    return int(np.sum(np.cumsum(u < 0.5) & 1))


def _timed(fn) -> float:
    t0 = perf_counter()
    fn()
    return perf_counter() - t0


def slowdown(kind: str) -> float:
    """Host slowdown against nominal speed, measured now for `kind` code."""
    stream = _timed(_numpy_stream) / NUMPY_NOMINAL_S
    if kind == "numpy":
        return stream
    return (_timed(_interpreter_loop) / INTERPRETER_NOMINAL_S
            + _timed(_hashed_keys) / HASHING_NOMINAL_S + stream) / 3.0


def process_slowdown() -> float:
    """Host slowdown for starting a process, measured now."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, timeout=60,
                   stdout=subprocess.DEVNULL)
    return (perf_counter() - t0) / PROCESS_NOMINAL_S
