import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cachesig.cache import CacheState
from cachesig.gadgets import GadgetContext
from cachesig.netlist import (
    SOURCE_KINDS,
    Gate,
    Netlist,
    NetlistError,
    build_counter_netlist,
    compile_program,
    evaluate,
    execute,
    execute_gadgets,
    half_adder_gates,
    is_lowered,
    lint_single_use,
    lower,
    parse,
    run_program,
    serialize,
    validate,
    _Names,
)
from cachesig.timing import LatencyModel


def xor_netlist():
    return Netlist(
        inputs=["a", "b"],
        gates=[Gate("XOR", ("a", "b"), ("y",))],
        outputs=["y"],
    )


def mixed_netlist():
    # y = (a AND b) OR NOT c ; z = a NOR c   (a and c fan out)
    return Netlist(
        inputs=["a", "b", "c"],
        gates=[
            Gate("AND", ("a", "b"), ("t0",)),
            Gate("NOT", ("c",), ("t1",)),
            Gate("OR", ("t0", "t1"), ("y",)),
            Gate("NOR", ("a", "c"), ("z",)),
        ],
        outputs=["y", "z"],
    )


def consumed_output_netlist():
    # on the target menu and single-use, but the output t is also consumed
    return parse("inputs a b\noutputs t y\nt = NAND(a, b)\ny = NOT(t)\n")


def test_gate_validation():
    with pytest.raises(NetlistError):
        Gate("MAJ", ("a", "b"), ("y",))
    with pytest.raises(NetlistError):
        Gate("NOT", ("a", "b"), ("y",))
    with pytest.raises(NetlistError):
        Gate("NAND", ("a",), ("y",))
    with pytest.raises(NetlistError):
        Gate("AND", ("a", "b"), ("y", "z"))


def test_validate_rejects_undefined_and_redefined():
    with pytest.raises(NetlistError, match="used before definition"):
        validate(Netlist(["a"], [Gate("NOT", ("ghost",), ("y",))], ["y"]))
    with pytest.raises(NetlistError, match="defined twice"):
        validate(Netlist(["a", "b"], [
            Gate("NOT", ("a",), ("y",)),
            Gate("NOT", ("b",), ("y",)),
        ], ["y"]))
    with pytest.raises(NetlistError, match="cyclic or undefined"):
        # self-referential gate ordering
        validate(Netlist(["a"], [
            Gate("NAND", ("a", "u"), ("v",)),
            Gate("NOT", ("v",), ("u",)),
        ], ["u"]))


def test_lint_single_use():
    net = mixed_netlist()
    assert lint_single_use(net) == ["a", "c"]
    assert not is_lowered(net)


def test_evaluate_oracle():
    net = mixed_netlist()
    for a, b, c in itertools.product((False, True), repeat=3):
        out = evaluate(net, {"a": a, "b": b, "c": c})
        assert out["y"] == ((a and b) or not c)
        assert out["z"] == (not (a or c))


def test_lower_preserves_semantics_and_discipline():
    net = mixed_netlist()
    low = lower(net)
    assert is_lowered(low)
    assert all(g.kind in ("NAND", "NOT", "REPLICATE") for g in low.gates)
    for bits in itertools.product((False, True), repeat=3):
        env = dict(zip(net.inputs, bits))
        want = evaluate(net, env)
        got = evaluate(low, env)
        assert list(got.values()) == list(want.values())


def test_lower_passthrough_output_double_inverts():
    net = Netlist(["a"], [], ["a"])
    low = lower(net)
    assert is_lowered(low)
    assert len(low.gates) == 2  # NOT; NOT
    for val in (False, True):
        assert list(evaluate(low, {"a": val}).values()) == [val]


def test_lower_xor_uses_four_nands():
    low = lower(xor_netlist())
    kinds = [g.kind for g in low.gates]
    assert kinds.count("NAND") == 4
    assert kinds.count("REPLICATE") == 3


def test_replicate_tree_caps_fan_out():
    # an input consumed 60 times must fan out through chained replicates
    gates = [Gate("NOT", ("a",), (f"y{i}",)) for i in range(60)]
    net = Netlist(["a"], gates, [f"y{i}" for i in range(60)])
    low = lower(net)
    assert is_lowered(low)
    for g in low.gates:
        if g.kind == "REPLICATE":
            assert len(g.outs) <= 23


def test_half_adder_gates_oracle():
    names = _Names({"a", "b", "s", "c"})
    net = Netlist(["a", "b"], half_adder_gates("a", "b", "s", "c", names), ["s", "c"])
    assert is_lowered(net)
    for a, b in itertools.product((False, True), repeat=2):
        out = evaluate(net, {"a": a, "b": b})
        assert out["s"] == (a != b)
        assert out["c"] == (a and b)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13])
def test_counter_netlist_popcount(n):
    net = build_counter_netlist(n)
    assert is_lowered(net)
    assert len(net.outputs) == n.bit_length()
    for mask in range(2 ** n if n <= 5 else 64):
        bits = {f"x{i}": bool(mask >> i & 1) for i in range(n)}
        out = evaluate(net, bits)
        value = sum(1 << k for k, name in enumerate(net.outputs) if out[name])
        assert value == sum(bits.values())


def test_serialize_parse_roundtrip():
    net = lower(mixed_netlist())
    text = serialize(net)
    back = parse(text)
    assert back.inputs == net.inputs
    assert back.outputs == net.outputs
    assert back.gates == net.gates
    assert serialize(back) == text


def test_parse_rejects_garbage():
    with pytest.raises(NetlistError):
        parse("inputs a\noutputs y\ny : NOT a\n")
    with pytest.raises(NetlistError):
        parse("inputs a\noutputs y\ny = NOT a\n")  # missing parens


def test_compile_rejects_unlowered():
    with pytest.raises(NetlistError):
        compile_program(mixed_netlist())


def test_tape_matches_oracle():
    net = mixed_netlist()
    low = lower(net)
    prog = compile_program(low)
    for bits in itertools.product((False, True), repeat=3):
        want = list(evaluate(net, dict(zip(net.inputs, bits))).values())
        assert run_program(prog, list(bits)) == want


def test_tape_matches_gadget_executor():
    assert not is_lowered(consumed_output_netlist())
    for net in (lower(mixed_netlist()), consumed_output_netlist()):
        for bits in itertools.product((False, True), repeat=len(net.inputs)):
            want = list(evaluate(net, dict(zip(net.inputs, bits))).values())
            assert execute(net, bits, backend="lanes") == want
            assert execute(net, bits, backend="gadgets") == want


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 9), st.integers(0, 2**9 - 1))
def test_counter_tape_equals_gadget_path(n, mask):
    net = build_counter_netlist(n)
    bits = [bool(mask >> i & 1) for i in range(n)]
    assert execute(net, bits, backend="lanes") == execute(net, bits, backend="gadgets")


def test_execute_auto_lowers():
    out = execute(xor_netlist(), [True, False])
    assert out == [True]


def test_execute_line_budget():
    low = lower(xor_netlist())
    with pytest.raises(NetlistError, match="budget"):
        execute(low, [True, True], backend="gadgets", max_lines=3)
    with pytest.raises(NetlistError, match="budget"):
        execute(low, [True, True], backend="lanes", max_lines=3)


def test_tape_flip_noise_requires_rng():
    prog = compile_program(lower(xor_netlist()))
    with pytest.raises(NetlistError):
        run_program(prog, [True, False], flip_prob=0.5)
    out = run_program(prog, [True, False], flip_prob=1.0,
                      rng=np.random.default_rng(0))
    assert out in ([True], [False])  # every op inverted; still well-defined


def test_tape_rejects_latency_jitter():
    ctx = GadgetContext(state=CacheState(), latency=LatencyModel(jitter_sigma_ns=10.0))
    with pytest.raises(NetlistError, match="jitter"):
        execute(xor_netlist(), [True, False], ctx=ctx, backend="lanes")
    assert execute(xor_netlist(), [True, False], ctx=ctx, backend="gadgets") in ([True], [False])


@st.composite
def source_netlists(draw):
    """Random valid netlists over the whole source gate menu."""
    inputs = [f"i{k}" for k in range(draw(st.integers(1, 4)))]
    signals = list(inputs)
    gates = []
    for g in range(draw(st.integers(0, 7))):
        kind = draw(st.sampled_from(sorted(SOURCE_KINDS)))
        if kind in ("NOT", "REPLICATE"):
            arity = 1
        elif kind == "XOR":
            arity = 2
        else:
            arity = draw(st.integers(2, 3))
        ins = tuple(draw(st.sampled_from(signals)) for _ in range(arity))
        n_out = draw(st.integers(1, 3)) if kind == "REPLICATE" else 1
        outs = tuple(f"g{g}_{k}" for k in range(n_out))
        gates.append(Gate(kind, ins, outs))
        signals.extend(outs)
    outputs = draw(st.lists(st.sampled_from(signals), min_size=1, max_size=3, unique=True))
    return Netlist(inputs=inputs, gates=gates, outputs=outputs)


def pack_lanes(rows):
    """Bit-slice per-trial bit rows into one int per input."""
    return [sum(int(row[i]) << t for t, row in enumerate(rows)) for i in range(len(rows[0]))]


@settings(max_examples=80, deadline=None)
@given(source_netlists())
@example(consumed_output_netlist())
def test_executors_agree_at_zero_noise(net):
    """Exact match: bit-sliced executor == evaluate == gadget executor, for
    every assignment one at a time and for all of them as one batch, and
    `execute` on the unlowered netlist."""
    low = lower(net)
    prog = compile_program(low)
    cases = list(itertools.product((False, True), repeat=len(net.inputs)))
    batch = run_program(prog, pack_lanes(cases), width=len(cases))
    for t, bits in enumerate(cases):
        want = list(evaluate(net, dict(zip(net.inputs, bits))).values())
        assert run_program(prog, list(bits)) == want
        assert execute(net, list(bits)) == want
        assert [bool(lane >> t & 1) for lane in batch] == want
        ctx = GadgetContext(state=CacheState(), rng=np.random.default_rng(0))
        assert execute_gadgets(low, list(bits), ctx) == want


@settings(max_examples=60, deadline=None)
@given(source_netlists(), st.integers(1, 9), st.integers(0, 2**16),
       st.sampled_from([0.05, 0.3, 1.0]))
def test_batch_equals_single_runs_under_flips(net, width, seed, flip_prob):
    """Exact match: with the same per-trial flip draws, lane t of a width-T
    batch equals a width-1 run of trial t."""
    prog = compile_program(lower(net))
    rows = [np.random.default_rng([seed, t]).integers(0, 2, len(net.inputs))
            for t in range(width)]
    rngs = [np.random.default_rng([seed, t, 1]) for t in range(width)]
    batch = run_program(prog, pack_lanes(rows), flip_prob=flip_prob, rng=rngs, width=width)
    for t, row in enumerate(rows):
        single = run_program(prog, list(row), flip_prob=flip_prob,
                             rng=np.random.default_rng([seed, t, 1]))
        assert [lane >> t & 1 for lane in batch] == single
