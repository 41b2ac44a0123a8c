"""Per-layer tracing from outside the program.

`Tracer.install` replaces each target function of `cachesig` with a
wrapper, in every loaded `cachesig` module that holds it (so names bound
by `from .x import f` are traced too) or on its class for methods.  A
target that no longer exists is reported absent instead of failing.

Calls are aggregated per function (count, total and self time) rather than
recorded one span per call: the cache and latency functions run millions
of times per pass.  Self time is a call's duration minus the time of the
traced calls nested in it, so the self times of all targets add up to the
traced wall time.
"""

from __future__ import annotations

import importlib
import sys
import time
from dataclasses import dataclass


@dataclass
class Stat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    units: int = 0      # work items counted by a hook: tape ops, iterations, timer reads
    events: int = 0     # outcomes counted by a hook: fetched windows, corrupted runs
    hook_broken: bool = False


@dataclass(frozen=True)
class Target:
    key: str            # "<layer>.<name>"
    module: str
    attr: str           # "func" or "Class.method"
    pre: object = None  # pre(args) -> value handed to post
    post: object = None  # post(stat, args, result, pre_value)


def _count_fetched(stat, args, result, _):
    stat.events += bool(result[1].fetched)


def _timer_reads_before(args):
    return args[0].reads_taken


def _count_timer_reads(stat, args, result, before):
    stat.units += args[0].reads_taken - before


def _count_tape_ops(stat, args, result, _):
    stat.units += args[0].n_ops


def _count_pair(stat, args, result, _):
    stat.units += args[0].iterations
    stat.events += bool(result.corrupted)


def _count_elapsed(stat, args, result, _):
    stat.units += args[1].iterations
    stat.events += bool(result[1])


TARGETS = (
    Target("cache.phi", "cachesig.cache", "CacheState.phi"),
    Target("cache.touch", "cachesig.cache", "CacheState.touch"),
    Target("cache.flush", "cachesig.cache", "CacheState.flush"),
    Target("cache.register", "cachesig.cache", "CacheState.register"),
    Target("cache.lines", "cachesig.cache", "CacheState.lines"),
    Target("cache.allocate_lines", "cachesig.cache", "allocate_lines"),
    Target("engine.run_primitive", "cachesig.engine", "run_primitive", post=_count_fetched),
    Target("engine.xor_primitive", "cachesig.engine", "xor_primitive"),
    Target("gadgets.invert", "cachesig.gadgets", "invert"),
    Target("gadgets.replicate", "cachesig.gadgets", "replicate"),
    Target("gadgets.nand", "cachesig.gadgets", "nand"),
    Target("gadgets.nor", "cachesig.gadgets", "nor"),
    Target("gadgets.xor_gate", "cachesig.gadgets", "xor_gate"),
    Target("gadgets.half_adder", "cachesig.gadgets", "half_adder"),
    Target("timing.access", "cachesig.timing", "LatencyModel.access"),
    Target("timing.measure", "cachesig.timing", "TimerModel.measure",
           pre=_timer_reads_before, post=_count_timer_reads),
    Target("timing.measure_line", "cachesig.timing", "measure_line"),
    Target("netlist.build_counter_netlist", "cachesig.netlist", "build_counter_netlist"),
    Target("netlist.compile", "cachesig.netlist", "compile_program"),
    Target("netlist.run_program", "cachesig.netlist", "run_program", post=_count_tape_ops),
    Target("kernels.run_tape", "cachesig._kernels", "run_tape"),
    Target("kernels.pair_strength", "cachesig._kernels", "pair_strength"),
    Target("kernels.elapsed_run", "cachesig._kernels", "elapsed_run"),
    Target("amplifier.paired_strength", "cachesig.amplifier", "paired_strength",
           post=_count_pair),
    Target("amplifier.simulate_elapsed", "cachesig.amplifier", "simulate_elapsed",
           post=_count_elapsed),
    Target("amplifier.recover_signal", "cachesig.amplifier", "recover_signal"),
    Target("amplifier.strength_ensemble", "cachesig.amplifier", "strength_ensemble"),
    Target("algorithms.binary_search", "cachesig.algorithms", "binary_search"),
    Target("algorithms.count_lines", "cachesig.algorithms", "count_lines"),
    Target("algorithms.make_search_state", "cachesig.algorithms", "make_search_state"),
    Target("algorithms.make_counter_state", "cachesig.algorithms", "make_counter_state"),
    Target("experiments.run_truth_tables", "cachesig.experiments", "run_truth_tables"),
    Target("experiments.run_amplifier_sweep", "cachesig.experiments", "run_amplifier_sweep"),
    Target("experiments.run_amplifier_consistency", "cachesig.experiments",
           "run_amplifier_consistency"),
    Target("experiments.run_binary_search", "cachesig.experiments", "run_binary_search"),
    Target("experiments.run_counter", "cachesig.experiments", "run_counter"),
    Target("experiments.spawn_rngs", "cachesig.experiments", "spawn_rngs"),
    Target("cli.main", "cachesig.cli", "main"),
    Target("cli.write_output", "cachesig.cli", "write_output"),
    Target("config.load", "cachesig.config", "load"),
)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict[str, Stat] = {}
        self.absent: list[str] = []
        self._stack = [0.0]   # time of traced children, one slot per open call
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, target: Target, fn):
        stat = self.stats.setdefault(target.key, Stat())
        clock, stack, pre, post = self.clock, self._stack, target.pre, target.post

        def traced(*args, **kwargs):
            before = None
            if pre is not None and not stat.hook_broken:
                try:
                    before = pre(args)
                except (AttributeError, IndexError, TypeError):
                    stat.hook_broken = True
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                children = stack.pop()
                stack[-1] += dt
                stat.calls += 1
                stat.total_s += dt
                stat.self_s += dt - children
            if post is not None and not stat.hook_broken:
                try:
                    post(stat, args, result, before)
                except (AttributeError, IndexError, TypeError):
                    stat.hook_broken = True
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", target.key)
        return traced

    def install(self, targets=TARGETS) -> "Tracer":
        # Load every module first, so that each one's by-name imports are patched.
        for target in targets:
            try:
                importlib.import_module(target.module)
            except ImportError:
                pass
        for target in targets:
            try:
                module = importlib.import_module(target.module)
                owner_name, _, name = target.attr.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                original = getattr(owner, name)
            except (ImportError, AttributeError):
                self.absent.append(target.key)
                self.stats.setdefault(target.key, Stat())
                continue
            wrapper = self.wrap(target, original)
            if owner_name:
                self._patch(owner, name, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "cachesig" or mod_name.startswith("cachesig.")):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapper)
        return self

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- reporting ---------------------------------------------------------

    def layer(self, name: str) -> list[Stat]:
        return [s for k, s in self.stats.items() if k.split(".", 1)[0] == name]

    def self_s(self, layer: str) -> float:
        return sum(s.self_s for s in self.layer(layer))

    def stat(self, key: str) -> Stat:
        return self.stats.get(key, Stat())

    def missing(self, expected) -> list[str]:
        """Expected functions that exist but recorded no call."""
        return [k for k in expected if k not in self.absent and self.stat(k).calls == 0]


def _per(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tr: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, name -> (value, unit)."""
    st = tr.stat
    m: dict[str, tuple[float, str]] = {}
    for op in ("phi", "touch", "flush", "register"):
        m[f"cache.{op}.calls"] = (st(f"cache.{op}").calls, "count")
    m["cache.self_s"] = (tr.self_s("cache"), "s")
    m["cache.ns_per_op"] = (
        1e9 * _per(tr.self_s("cache"), sum(s.calls for s in tr.layer("cache"))), "ns")

    prim = st("engine.run_primitive")
    n_prim = prim.calls + st("engine.xor_primitive").calls
    m["engine.run_primitive.calls"] = (prim.calls, "count")
    m["engine.xor_primitive.calls"] = (st("engine.xor_primitive").calls, "count")
    m["engine.fetched_frac"] = (_per(prim.events, prim.calls), "fraction")
    m["engine.self_s"] = (tr.self_s("engine"), "s")
    m["engine.ns_per_primitive"] = (1e9 * _per(tr.self_s("engine"), n_prim), "ns")

    for g in ("invert", "replicate", "nand", "nor", "xor_gate", "half_adder"):
        m[f"gadgets.{g}.calls"] = (st(f"gadgets.{g}").calls, "count")
    m["gadgets.self_s"] = (tr.self_s("gadgets"), "s")

    m["timing.access.calls"] = (st("timing.access").calls, "count")
    m["timing.timer_reads"] = (st("timing.measure").units, "count")
    m["timing.measure_line.calls"] = (st("timing.measure_line").calls, "count")
    m["timing.self_s"] = (tr.self_s("timing"), "s")

    run = st("netlist.run_program")
    m["netlist.build_s"] = (st("netlist.build_counter_netlist").total_s, "s")
    m["netlist.compile_s"] = (st("netlist.compile").total_s, "s")
    m["netlist.compile.calls"] = (st("netlist.compile").calls, "count")
    m["netlist.run_program.calls"] = (run.calls, "count")
    m["netlist.run_program.self_s"] = (run.self_s, "s")
    m["netlist.ns_per_tape_op"] = (1e9 * _per(run.total_s, run.units), "ns")

    m["kernels.run_tape.calls"] = (st("kernels.run_tape").calls, "count")
    m["kernels.run_tape.self_s"] = (st("kernels.run_tape").self_s, "s")
    for k in ("pair_strength", "elapsed_run"):
        m[f"kernels.{k}.calls"] = (st(f"kernels.{k}").calls, "count")
        m[f"kernels.{k}.self_s"] = (st(f"kernels.{k}").self_s, "s")

    pair, elapsed = st("amplifier.paired_strength"), st("amplifier.simulate_elapsed")
    for f in ("paired_strength", "simulate_elapsed", "recover_signal"):
        m[f"amplifier.{f}.calls"] = (st(f"amplifier.{f}").calls, "count")
    m["amplifier.self_s"] = (tr.self_s("amplifier"), "s")
    m["amplifier.ns_per_iteration"] = (
        1e9 * _per(pair.total_s + elapsed.total_s, pair.units + elapsed.units), "ns")
    m["amplifier.corrupted_frac"] = (
        _per(pair.events + elapsed.events, pair.calls + elapsed.calls), "fraction")

    m["algorithms.binary_search.calls"] = (st("algorithms.binary_search").calls, "count")
    m["algorithms.count_lines.calls"] = (st("algorithms.count_lines").calls, "count")
    m["algorithms.make_state_s"] = (st("algorithms.make_search_state").total_s
                                    + st("algorithms.make_counter_state").total_s, "s")
    m["algorithms.self_s"] = (tr.self_s("algorithms"), "s")

    m["experiments.self_s"] = (tr.self_s("experiments"), "s")
    m["experiments.spawn_rngs_s"] = (st("experiments.spawn_rngs").total_s, "s")
    m["cli.write_s"] = (st("cli.write_output").total_s, "s")
    m["config.load_s"] = (st("config.load").total_s, "s")
    return m
