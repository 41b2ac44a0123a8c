"""Deterministic simulator for cacheline-presence signal logic:
speculation-driven logic gadgets, netlist compilation onto the gadget
menu, timing amplification, and signal-recovery algorithms."""

__version__ = "0.1.0"

from .cache import CacheState, LayoutConfig, LineId, allocate_lines
from .engine import Combine, GadgetError, GadgetSpec, GuardGroup, run_primitive
from .gadgets import GadgetContext, GateKind, half_adder, nand, nor, replicate, xor_gate
from .netlist import Gate, Netlist, evaluate, execute, lower, parse, serialize
from .timing import LatencyModel, MeasureResult, NoiseModel, TimerModel, measure_line

__all__ = [
    "__version__",
    "CacheState", "LayoutConfig", "LineId", "allocate_lines",
    "Combine", "GadgetError", "GadgetSpec", "GuardGroup", "run_primitive",
    "GadgetContext", "GateKind", "half_adder", "nand", "nor",
    "replicate", "xor_gate",
    "Gate", "Netlist", "evaluate", "execute", "lower", "parse", "serialize",
    "LatencyModel", "MeasureResult", "NoiseModel", "TimerModel", "measure_line",
]
