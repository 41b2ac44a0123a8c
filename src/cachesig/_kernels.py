"""Amplifier ensemble kernels with a numba fast path and a pure
numpy/python fallback.

Backend selection: environment variable CACHESIG_BACKEND, one of
  auto   - use numba when importable (default)
  numba  - require numba, fail loudly if missing
  python - force the fallback implementations

Both backends consume pre-drawn uniforms, so results are bit-identical
across backends for a given RNG stream.
"""

from __future__ import annotations

import os

import numpy as np

_CHOICE = os.environ.get("CACHESIG_BACKEND", "auto").strip().lower()
if _CHOICE not in ("auto", "numba", "python"):
    raise ValueError(f"CACHESIG_BACKEND must be auto|numba|python, got {_CHOICE!r}")

_numba = None
if _CHOICE in ("auto", "numba"):
    try:
        import numba as _numba
    except ImportError:
        if _CHOICE == "numba":
            raise

USING_NUMBA = _numba is not None


def backend_name() -> str:
    return "numba" if USING_NUMBA else "python"


# ---------------------------------------------------------------------------
# Self-reinforcing amplifier loop.
# Per iteration the live signal may flip (corruption), then the dependent
# access phase contributes (accesslen-1) hits or misses depending on the
# current signal value.


def _pair_strength_py(u, p, per_iter_delta):
    flips = u < p
    parity = np.cumsum(flips) & 1
    signed = np.sum(1 - 2 * parity)
    return per_iter_delta * float(signed), bool(flips.any())


def _elapsed_py(u, p, signal_present, present_term, absent_term):
    flips = u < p
    live = (np.cumsum(flips) & 1) ^ (1 if signal_present else 0)
    n_present = int(np.sum(live))
    elapsed = present_term * n_present + absent_term * (len(u) - n_present)
    return elapsed, bool(flips.any())


if USING_NUMBA:

    @_numba.njit(cache=True)
    def _pair_strength_nb(u, p, per_iter_delta):  # pragma: no cover - jitted
        sign = 1.0
        total = 0.0
        corrupted = False
        for i in range(u.shape[0]):
            if u[i] < p:
                sign = -sign
                corrupted = True
            total += sign
        return per_iter_delta * total, corrupted

    @_numba.njit(cache=True)
    def _elapsed_nb(u, p, signal_present, present_term, absent_term):  # pragma: no cover
        live = signal_present
        elapsed = 0.0
        corrupted = False
        for i in range(u.shape[0]):
            if u[i] < p:
                live = not live
                corrupted = True
            elapsed += present_term if live else absent_term
        return elapsed, corrupted


def pair_strength(u: np.ndarray, p: float, per_iter_delta: float):
    """Strength of one paired (present vs absent) run given per-iteration
    corruption uniforms; returns (strength_ns, corrupted)."""
    if USING_NUMBA:
        s, c = _pair_strength_nb(np.ascontiguousarray(u), p, per_iter_delta)
        return float(s), bool(c)
    return _pair_strength_py(u, p, per_iter_delta)


def elapsed_run(u: np.ndarray, p: float, signal_present: bool,
                present_term: float, absent_term: float):
    """Elapsed dependent-access time of one amplifier run."""
    if USING_NUMBA:
        e, c = _elapsed_nb(np.ascontiguousarray(u), p, signal_present,
                           present_term, absent_term)
        return float(e), bool(c)
    return _elapsed_py(u, p, signal_present, present_term, absent_term)
