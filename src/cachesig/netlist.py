"""Boolean netlists over cacheline signals.

A netlist is a topologically ordered gate list.  Because every gadget
destroys its inputs, lowered netlists obey a single-use discipline: a
signal is consumed by at most one gate, and fan-out must be spelled out
with REPLICATE gates.  The lowering pass rewrites {AND, OR, XOR, NOT,
NAND, NOR} netlists onto the {NAND, NOT, REPLICATE} gadget menu.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cache import CacheState, LineId
from .gadgets import GadgetContext, nand as nand_gadget, replicate

SOURCE_KINDS = {"AND", "OR", "XOR", "NOT", "NAND", "NOR", "REPLICATE"}
TARGET_KINDS = {"NAND", "NOT", "REPLICATE"}
REPLICATE_CAP = 23


class NetlistError(Exception):
    pass


@dataclass(frozen=True)
class Gate:
    kind: str
    ins: tuple[str, ...]
    outs: tuple[str, ...]

    def __post_init__(self):
        if self.kind not in SOURCE_KINDS:
            raise NetlistError(f"unsupported gate kind {self.kind!r}")
        if not self.ins or not self.outs:
            raise NetlistError("gate needs inputs and outputs")
        if self.kind == "REPLICATE":
            if len(self.ins) != 1:
                raise NetlistError("REPLICATE takes one input")
        elif len(self.outs) != 1:
            raise NetlistError(f"{self.kind} produces one output")
        if self.kind == "NOT" and len(self.ins) != 1:
            raise NetlistError("NOT takes one input")
        if self.kind == "XOR" and len(self.ins) != 2:
            raise NetlistError("XOR takes two inputs")
        if self.kind in ("AND", "OR", "NAND", "NOR") and len(self.ins) < 2:
            raise NetlistError(f"{self.kind} takes at least two inputs")


@dataclass
class Netlist:
    inputs: list[str]
    gates: list[Gate]
    outputs: list[str]


def validate(net: Netlist) -> None:
    if len(set(net.inputs)) != len(net.inputs):
        raise NetlistError("duplicate input names")
    defined = set(net.inputs)
    for gate in net.gates:
        for name in gate.ins:
            if name not in defined:
                raise NetlistError(
                    f"signal {name!r} used before definition (cyclic or undefined)"
                )
        for name in gate.outs:
            if name in defined:
                raise NetlistError(f"signal {name!r} defined twice")
            defined.add(name)
    for name in net.outputs:
        if name not in defined:
            raise NetlistError(f"output {name!r} undefined")


def lint_single_use(net: Netlist) -> list[str]:
    """Signals consumed more than once (fan-out not made explicit)."""
    uses: dict[str, int] = {}
    for gate in net.gates:
        for name in gate.ins:
            uses[name] = uses.get(name, 0) + 1
    return sorted(name for name, n in uses.items() if n > 1)


def is_lowered(net: Netlist) -> bool:
    """Gates on the target menu, and every signal used at most once, where
    a netlist output counts as a use (as in `lower`)."""
    consumed = {name for gate in net.gates for name in gate.ins}
    return (all(g.kind in TARGET_KINDS for g in net.gates) and not lint_single_use(net)
            and consumed.isdisjoint(net.outputs))


def evaluate(net: Netlist, assignment: dict[str, bool]) -> dict[str, bool]:
    """Direct boolean oracle, independent of any cacheline machinery."""
    validate(net)
    values = {name: bool(assignment[name]) for name in net.inputs}
    for gate in net.gates:
        ins = [values[n] for n in gate.ins]
        if gate.kind == "NOT":
            out = not ins[0]
        elif gate.kind == "AND":
            out = all(ins)
        elif gate.kind == "OR":
            out = any(ins)
        elif gate.kind == "NAND":
            out = not all(ins)
        elif gate.kind == "NOR":
            out = not any(ins)
        elif gate.kind == "XOR":
            out = ins[0] != ins[1]
        elif gate.kind == "REPLICATE":
            for name in gate.outs:
                values[name] = ins[0]
            continue
        values[gate.outs[0]] = out
    return {name: values[name] for name in net.outputs}


class _Names:
    def __init__(self, taken):
        self._taken = set(taken)
        self._n = 0

    def fresh(self, hint="t") -> str:
        while True:
            name = f"_{hint}{self._n}"
            self._n += 1
            if name not in self._taken:
                self._taken.add(name)
                return name


def _all_names(net: Netlist):
    names = set(net.inputs)
    for gate in net.gates:
        names.update(gate.ins)
        names.update(gate.outs)
    names.update(net.outputs)
    return names


def _replicate_tree(src: str, count: int, names: _Names, gates: list[Gate]) -> list[str]:
    """Fan a signal out into `count` copies, capping gate fan-out at 23."""
    if count == 1:
        return [src]
    if count <= REPLICATE_CAP:
        outs = [names.fresh("c") for _ in range(count)]
        gates.append(Gate("REPLICATE", (src,), tuple(outs)))
        return outs
    first = [names.fresh("c") for _ in range(REPLICATE_CAP)]
    gates.append(Gate("REPLICATE", (src,), tuple(first)))
    copies: list[str] = first[:-1]
    remaining = count - len(copies)
    copies.extend(_replicate_tree(first[-1], remaining, names, gates))
    return copies


def lower(net: Netlist) -> Netlist:
    """Equivalent netlist over {NAND, NOT, REPLICATE} with explicit fan-out.

    XOR is rewritten into the 4-NAND form rather than kept native; output
    signals that are bare inputs pass through a double inversion since
    destructive reads forbid wire renaming.
    """
    validate(net)
    names = _Names(_all_names(net))

    # Outputs that are raw input signals become double inversions.
    gates = list(net.gates)
    outputs = list(net.outputs)
    produced = {o for g in net.gates for o in g.outs}
    for i, out in enumerate(outputs):
        if out not in produced:
            mid = names.fresh("i")
            new = names.fresh("i")
            gates.append(Gate("NOT", (out,), (mid,)))
            gates.append(Gate("NOT", (mid,), (new,)))
            outputs[i] = new
            produced.add(new)

    # Explicit fan-out: one REPLICATE per multiply-used signal.
    uses: dict[str, int] = {}
    for gate in gates:
        for name in gate.ins:
            uses[name] = uses.get(name, 0) + 1
    for name in outputs:
        uses[name] = uses.get(name, 0) + 1

    copies: dict[str, list[str]] = {}

    def take(name: str) -> str:
        if name in copies:
            return copies[name].pop(0)
        return name

    fanned: list[Gate] = []
    for name in net.inputs:
        if uses.get(name, 0) > 1:
            copies[name] = _replicate_tree(name, uses[name], names, fanned)
    for gate in gates:
        fanned.append(Gate(gate.kind, tuple(take(n) for n in gate.ins), gate.outs))
        for out in gate.outs:
            if uses.get(out, 0) > 1:
                copies[out] = _replicate_tree(out, uses[out], names, fanned)
    outputs = [take(n) for n in outputs]

    # Kind lowering onto {NAND, NOT, REPLICATE}.
    lowered: list[Gate] = []
    for gate in fanned:
        kind, ins, out = gate.kind, gate.ins, gate.outs[0]
        if kind in TARGET_KINDS:
            lowered.append(gate)
        elif kind in ("AND", "OR", "NOR"):
            if kind != "AND":  # OR = NAND of the inverted inputs, NOR = their AND
                inverted = tuple(names.fresh() for _ in ins)
                lowered.extend(Gate("NOT", (name,), (t,)) for name, t in zip(ins, inverted))
                ins = inverted
            if kind == "OR":
                lowered.append(Gate("NAND", ins, (out,)))
            else:
                t = names.fresh()
                lowered.append(Gate("NAND", ins, (t,)))
                lowered.append(Gate("NOT", (t,), (out,)))
        elif kind == "XOR":
            a, b = ins
            a1, a2 = names.fresh("x"), names.fresh("x")
            b1, b2 = names.fresh("x"), names.fresh("x")
            n1, n1a, n1b = names.fresh("x"), names.fresh("x"), names.fresh("x")
            x1, x2 = names.fresh("x"), names.fresh("x")
            lowered.append(Gate("REPLICATE", (a,), (a1, a2)))
            lowered.append(Gate("REPLICATE", (b,), (b1, b2)))
            lowered.append(Gate("NAND", (a1, b1), (n1,)))
            lowered.append(Gate("REPLICATE", (n1,), (n1a, n1b)))
            lowered.append(Gate("NAND", (a2, n1a), (x1,)))
            lowered.append(Gate("NAND", (b2, n1b), (x2,)))
            lowered.append(Gate("NAND", (x1, x2), (out,)))
        else:  # pragma: no cover - Gate validation forbids this
            raise NetlistError(f"cannot lower gate kind {kind!r}")

    result = Netlist(inputs=list(net.inputs), gates=lowered, outputs=outputs)
    validate(result)
    bad = lint_single_use(result)
    if bad:  # pragma: no cover - lowering bug guard
        raise NetlistError(f"lowering left multiply-consumed signals: {bad}")
    return result


# ---------------------------------------------------------------------------
# Half adder and counter construction.


def half_adder_gates(a, b, sum_name, carry_name, names: _Names) -> list[Gate]:
    """Canonical NAND/NOT/REPLICATE half adder (inputs consumed once)."""
    a1, a2 = names.fresh("h"), names.fresh("h")
    b1, b2 = names.fresh("h"), names.fresh("h")
    n1 = names.fresh("h")
    n1a, n1b, n1c = names.fresh("h"), names.fresh("h"), names.fresh("h")
    s1, s2 = names.fresh("h"), names.fresh("h")
    return [
        Gate("REPLICATE", (a,), (a1, a2)),
        Gate("REPLICATE", (b,), (b1, b2)),
        Gate("NAND", (a1, b1), (n1,)),
        Gate("REPLICATE", (n1,), (n1a, n1b, n1c)),
        Gate("NAND", (a2, n1a), (s1,)),
        Gate("NAND", (b2, n1b), (s2,)),
        Gate("NAND", (s1, s2), (sum_name,)),
        Gate("NOT", (n1c,), (carry_name,)),
    ]


def build_counter_netlist(n_inputs: int) -> Netlist:
    """Popcount netlist: ripple-add each input bit into a running counter
    via half-adder chains; ceil(log2(n+1)) output bits, LSB first."""
    if n_inputs < 1:
        raise NetlistError("need at least one input")
    inputs = [f"x{i}" for i in range(n_inputs)]
    names = _Names(inputs)
    gates: list[Gate] = []
    bits: list[str] = []
    for k, x in enumerate(inputs, start=1):
        carry = x
        for j in range(len(bits)):
            s = names.fresh("b")
            c = names.fresh("b")
            gates.extend(half_adder_gates(bits[j], carry, s, c, names))
            bits[j] = s
            carry = c
        if k.bit_length() > len(bits):
            bits.append(carry)
        # otherwise the ripple carry out is provably 0 and is dropped
    net = Netlist(inputs=inputs, gates=gates, outputs=list(bits))
    return lower(net)


# ---------------------------------------------------------------------------
# Text format: header lines declare inputs/outputs, then one gate per line
# in the form  OUT = KIND(IN1, IN2, ...); REPLICATE may list several
# comma-separated outputs on the left.


def serialize(net: Netlist) -> str:
    lines = ["inputs " + " ".join(net.inputs), "outputs " + " ".join(net.outputs)]
    for gate in net.gates:
        lhs = ", ".join(gate.outs)
        rhs = f"{gate.kind}({', '.join(gate.ins)})"
        lines.append(f"{lhs} = {rhs}")
    return "\n".join(lines) + "\n"


def parse(text: str) -> Netlist:
    inputs: list[str] = []
    outputs: list[str] = []
    gates: list[Gate] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head = line.split(None, 1)
        if head[0].lower() == "inputs":
            inputs.extend(head[1].replace(",", " ").split() if len(head) > 1 else [])
            continue
        if head[0].lower() == "outputs":
            outputs.extend(head[1].replace(",", " ").split() if len(head) > 1 else [])
            continue
        if "=" not in line:
            raise NetlistError(f"cannot parse line: {raw!r}")
        lhs, rhs = (part.strip() for part in line.split("=", 1))
        if "(" not in rhs or not rhs.endswith(")"):
            raise NetlistError(f"cannot parse gate: {raw!r}")
        kind, arglist = rhs[:-1].split("(", 1)
        ins = tuple(a.strip() for a in arglist.split(",") if a.strip())
        outs = tuple(o.strip() for o in lhs.split(","))
        gates.append(Gate(kind.strip().upper(), ins, outs))
    net = Netlist(inputs=inputs, gates=gates, outputs=outputs)
    validate(net)
    return net


# ---------------------------------------------------------------------------
# Execution: a compiled op list run over bit-sliced lanes, and a reference
# path that drives the actual gadget objects over a CacheState with line
# pooling.


@dataclass
class LineProgram:
    n_slots: int
    ops: list[tuple[tuple[int, ...], tuple[int, ...]]]
    input_slots: list[int]
    output_slots: list[int]

    @property
    def n_ops(self) -> int:
        return len(self.ops)


def compile_program(net: Netlist) -> LineProgram:
    """Flatten a lowered netlist into a list of (input slots, output slots) ops.

    One op per gadget invocation: NAND and NOT map 1:1; a k-output
    REPLICATE becomes one inverting-replicate op into temporaries plus k
    inverter ops (the cacheline replicator produces inverted copies).
    """
    if not is_lowered(net):
        raise NetlistError("netlist must be lowered before compilation")
    slot: dict[str, int] = {}
    counter = 0

    def slot_of(name: str) -> int:
        nonlocal counter
        if name not in slot:
            slot[name] = counter
            counter += 1
        return slot[name]

    def temp_slot() -> int:
        nonlocal counter
        counter += 1
        return counter - 1

    for name in net.inputs:
        slot_of(name)
    ops: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    for gate in net.gates:
        if gate.kind in ("NAND", "NOT"):
            ops.append((tuple(slot_of(n) for n in gate.ins), (slot_of(gate.outs[0]),)))
        else:  # REPLICATE
            temps = tuple(temp_slot() for _ in gate.outs)
            ops.append(((slot_of(gate.ins[0]),), temps))
            for tmp, out in zip(temps, gate.outs):
                ops.append(((tmp,), (slot_of(out),)))

    return LineProgram(
        n_slots=counter,
        ops=ops,
        input_slots=[slot[n] for n in net.inputs],
        output_slots=[slot[n] for n in net.outputs],
    )


def run_program(prog: LineProgram, lanes, flip_prob: float = 0.0, rng=None,
                width: int = 1) -> list[int]:
    """Execute a compiled program over bit-sliced lanes (Biham, FSE 1997).

    Each slot holds a Python int with one presence bit per trial, so one
    pass over the ops runs `width` trials: per op, fetch = NOT(AND of the
    inputs) XOR flips; inputs are then touched, outputs set to fetch.
    `lanes` gives one int per input (bit t is trial t's bit; bools serve at
    width 1).  With flip_prob > 0, `rng` holds one generator per trial (a
    bare generator at width 1) and trial t flips every op k with
    rng[t].random(n_ops)[k] < flip_prob.  Returns the output lanes in
    netlist order.
    """
    if len(lanes) != len(prog.input_slots):
        raise NetlistError("assignment length mismatch")
    full = (1 << width) - 1
    flips = [0] * prog.n_ops
    if flip_prob > 0:
        if rng is None:
            raise NetlistError("flip_prob > 0 requires an rng")
        rngs = [rng] if isinstance(rng, np.random.Generator) else list(rng)
        if len(rngs) != width:
            raise NetlistError(f"need one rng per trial, got {len(rngs)} for width {width}")
        for t, gen in enumerate(rngs):
            bit = 1 << t
            for op in np.flatnonzero(gen.random(prog.n_ops) < flip_prob).tolist():
                flips[op] |= bit
    present = [0] * prog.n_slots
    for s, lane in zip(prog.input_slots, lanes):
        present[s] = int(lane) & full
    for (ins, outs), flip in zip(prog.ops, flips):
        allp = full
        for s in ins:
            allp &= present[s]
            present[s] = full
        fetch = full ^ allp ^ flip
        for s in outs:
            present[s] = fetch
    return [present[s] for s in prog.output_slots]


class LinePool:
    """Scratch-line allocator for the gadget-backed executor.  Consumed
    lines are flushed and immediately returned for reuse."""

    def __init__(self, state: CacheState, base: int = 0, stride: int = 4160,
                 max_lines: int | None = None):
        self.state = state
        self.stride = stride
        self.next_addr = base
        self.next_index = 0
        self.free: list[LineId] = []
        self.max_lines = max_lines
        self.allocated = 0

    def acquire(self) -> LineId:
        if self.free:
            line = self.free.pop()
            self.state.flush(line)
            return line
        if self.max_lines is not None and self.allocated >= self.max_lines:
            raise NetlistError("line budget exhausted")
        line = LineId(self.next_index, self.next_addr)
        self.next_index += 1
        self.next_addr += self.stride
        self.allocated += 1
        self.state.register([line])
        self.state.flush(line)
        return line

    def release(self, line: LineId) -> None:
        self.state.flush(line)
        self.free.append(line)


def execute_gadgets(net: Netlist, bits, ctx: GadgetContext,
                    max_lines: int | None = None) -> list[bool]:
    """Reference executor: runs the lowered netlist as real gadget calls."""
    if not is_lowered(net):
        raise NetlistError("netlist must be lowered before execution")
    pool = LinePool(ctx.state, max_lines=max_lines)
    lines: dict[str, LineId] = {}
    for name, bit in zip(net.inputs, bits):
        line = pool.acquire()
        if bit:
            ctx.state.touch(line)
        lines[name] = line

    def consume(name: str) -> LineId:
        return lines.pop(name)

    for gate in net.gates:
        if gate.kind == "NAND":
            ins = [consume(n) for n in gate.ins]
            out = pool.acquire()
            nand_gadget(ins, out, ctx)
            for line in ins:
                pool.release(line)
            lines[gate.outs[0]] = out
        elif gate.kind == "NOT":
            src = consume(gate.ins[0])
            out = pool.acquire()
            replicate(src, [out], ctx)
            pool.release(src)
            lines[gate.outs[0]] = out
        else:  # REPLICATE: inverting replicate + one inverter per copy
            src = consume(gate.ins[0])
            temps = [pool.acquire() for _ in gate.outs]
            replicate(src, temps, ctx)
            pool.release(src)
            for tmp, name in zip(temps, gate.outs):
                out = pool.acquire()
                replicate(tmp, [out], ctx)
                pool.release(tmp)
                lines[name] = out
    return [ctx.state.phi(lines[name]) for name in net.outputs]


def execute(net: Netlist, assignment, ctx: GadgetContext | None = None,
            backend: str = "lanes", max_lines: int | None = None) -> list[bool]:
    """Run a netlist on simulated cacheline state.

    `assignment` is a bit sequence in input order.  backend "lanes" runs
    the compiled program at width 1 (zero-noise unless ctx supplies a
    flip probability; it does not model latency jitter, so a ctx with
    jitter is rejected); "gadgets" drives the full gadget machinery.
    """
    low = net if is_lowered(net) else lower(net)
    bits = [bool(b) for b in assignment]
    if len(bits) != len(low.inputs):
        raise NetlistError("assignment length mismatch")
    if backend == "gadgets":
        if ctx is None:
            ctx = GadgetContext(state=CacheState())
        return execute_gadgets(low, bits, ctx, max_lines=max_lines)
    if backend != "lanes":
        raise NetlistError(f"unknown backend {backend!r}")
    if ctx is not None and ctx.latency.jitter_sigma_ns > 0:
        raise NetlistError("the lanes executor does not model latency jitter; "
                           "use backend 'gadgets'")
    prog = compile_program(low)
    if max_lines is not None and prog.n_slots > max_lines:
        raise NetlistError("line budget exhausted")
    flip_prob = ctx.noise.gadget_flip_prob if ctx is not None else 0.0
    rng = ctx.rng if ctx is not None else None
    return [bool(b) for b in run_program(prog, bits, flip_prob=flip_prob, rng=rng)]
