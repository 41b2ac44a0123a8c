import pathlib

import pytest

from cachesig.asm import (
    EmitError,
    EmitKind,
    EmitRequest,
    check_structure,
    emit,
)

GOLDEN = pathlib.Path(__file__).parent / "golden"

CANONICAL = {
    "forced_spec.s": EmitRequest(EmitKind.FORCED_SPEC),
    "inverter_deplen5.s": EmitRequest(EmitKind.INVERTER, deplen=5),
    "replicator_fanout3.s": EmitRequest(EmitKind.REPLICATOR, deplen=5, accesslen=3),
    "nand2.s": EmitRequest(EmitKind.NAND, deplen=5, fan_in=2),
    "nor.s": EmitRequest(EmitKind.NOR, deplen=5, fan_in=2),
    "amplifier_5_23_4160.s": EmitRequest(EmitKind.AMPLIFIER, deplen=5,
                                         accesslen=23, stride=4160),
}


@pytest.mark.parametrize("name", sorted(CANONICAL))
def test_golden_files_byte_identical(name):
    assert emit(CANONICAL[name]) == (GOLDEN / name).read_text()


@pytest.mark.parametrize("name", sorted(CANONICAL))
def test_structure_checks_pass(name):
    report = check_structure(emit(CANONICAL[name]))
    assert report.ok
    assert report.lfence_count == 1
    req = CANONICAL[name]
    if req.kind is not EmitKind.FORCED_SPEC:
        assert report.delay_count == req.deplen
        assert report.output_loads == req.accesslen
    if req.kind is EmitKind.AMPLIFIER:
        assert report.stride_immediates == [req.stride]


def test_request_validation():
    with pytest.raises(EmitError):
        EmitRequest(EmitKind.NAND, fan_in=3)
    with pytest.raises(EmitError):
        EmitRequest(EmitKind.REPLICATOR, accesslen=4)
    with pytest.raises(EmitError):
        EmitRequest(EmitKind.INVERTER, stride=4096)
    with pytest.raises(EmitError):
        EmitRequest(EmitKind.INVERTER, deplen=-1)
    with pytest.raises(EmitError):
        EmitRequest(EmitKind.INVERTER, label_base=0)


def test_nor_has_two_redirect_blocks():
    report = check_structure(emit(CANONICAL["nor.s"]))
    assert len(report.call_targets) == 2
    assert report.redirect_ok


def test_deplen_parameter_controls_delay_loop():
    for deplen in (1, 8, 64):
        text = emit(EmitRequest(EmitKind.INVERTER, deplen=deplen))
        assert check_structure(text).delay_count == deplen


def test_replicator_output_loads_match_fan_out():
    for fan_out in (1, 2, 3):
        text = emit(EmitRequest(EmitKind.REPLICATOR, accesslen=fan_out))
        assert check_structure(text).output_loads == fan_out


def test_structure_checker_flags_missing_redirect():
    text = emit(CANONICAL["inverter_deplen5.s"])
    broken = text.replace("    ret", "    nop")
    assert not check_structure(broken).redirect_ok


def test_structure_checker_flags_extra_lfence():
    text = emit(CANONICAL["inverter_deplen5.s"])
    doubled = text.replace("    lfence", "    lfence\n    lfence")
    assert not check_structure(doubled).ok
