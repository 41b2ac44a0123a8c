"""GNU-assembler (AT&T syntax) emission of the gadget code sequences.

Register conventions: first guard input in RSI, second in RDX, output in
RDI, replicator outputs in R8/R9/R10, scratch in RAX/RBX/RCX.  The text
is deterministic; committed golden files pin it byte for byte.  Emitted
code is not executed by this package.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass


class EmitError(Exception):
    pass


class EmitKind(enum.Enum):
    FORCED_SPEC = "forced-spec"
    INVERTER = "inverter"
    REPLICATOR = "replicator"
    NAND = "nand"
    NOR = "nor"
    AMPLIFIER = "amplifier"


REPLICATOR_REGS = ("%r8", "%r9", "%r10")


@dataclass(frozen=True)
class EmitRequest:
    kind: EmitKind
    deplen: int = 5
    accesslen: int = 1
    fan_in: int = 1
    stride: int = 4160
    label_base: int = 1

    def __post_init__(self):
        if self.deplen < 0 or self.accesslen < 1 or self.fan_in < 1:
            raise EmitError("bad emit parameters")
        if self.stride < 4160:
            raise EmitError("stride must be at least 4160")
        if self.label_base < 1:
            raise EmitError("label_base must be positive")
        if self.kind is EmitKind.NAND and self.fan_in != 2:
            raise EmitError("NAND emission supports fan-in 2 only")
        if self.kind is EmitKind.REPLICATOR and not 1 <= self.accesslen <= len(REPLICATOR_REGS):
            raise EmitError(f"replicator emission supports fan-out 1..{len(REPLICATOR_REGS)}")


def _delay_block(deplen: int) -> list[str]:
    # dependent load-then-mask pair; keeps the speculative window busy
    return [
        "    xor %rax, %rax",
        f"    .rept {deplen}",
        "    add (%rsp), %rax",
        "    and $0, %rax",
        "    .endr",
    ]


def _redirect_block(label: str, land: str, guard_regs) -> list[str]:
    lines = [f"{label}:", f"    movq ${land}, (%rsp)"]
    first, *rest = guard_regs
    lines.append(f"    mov ({first}), %rax")
    for reg in rest:
        lines.append(f"    add ({reg}), %rax")
    lines.append("    add %rax, (%rsp)")
    lines.append("    ret")
    return lines


def emit(req: EmitRequest) -> str:
    base = req.label_base
    sym = f"{req.kind.value.replace('-', '_')}_{base}"
    spec = f".L{base}_spec"
    red = f".L{base}_red"
    land = f".L{base}_land"
    lines = [
        f"# {req.kind.value}: deplen={req.deplen} accesslen={req.accesslen}"
        f" fan_in={req.fan_in} stride={req.stride}",
        f"    .globl {sym}",
        f"{sym}:",
    ]

    if req.kind is EmitKind.FORCED_SPEC:
        lines += [
            f"    call {red}",
            f"{spec}:",
            "    # speculative instructions go here",
            "    lfence",
            f"{red}:",
            f"    movq ${land}, (%rsp)",
            "    ret",
            f"{land}:",
            "    nop",
        ]
    elif req.kind is EmitKind.NOR:
        red_b = f".L{base}_red_b"
        lines += [f"    call {red}", f".L{base}_mid:", f"    call {red_b}", f"{spec}:"]
        lines += _delay_block(req.deplen)
        lines += ["    mov (%rdi), %rbx", "    lfence"]
        lines += _redirect_block(red, land, ["%rsi"])
        lines += _redirect_block(red_b, land, ["%rdx"])
        lines += [f"{land}:", "    nop"]
    else:
        lines += [f"    call {red}", f"{spec}:"]
        lines += _delay_block(req.deplen)
        if req.kind is EmitKind.INVERTER:
            lines += ["    mov (%rdi), %rbx"]
            guards = ["%rsi"]
        elif req.kind is EmitKind.REPLICATOR:
            lines += [f"    mov ({reg}), %rbx" for reg in REPLICATOR_REGS[:req.accesslen]]
            guards = ["%rsi"]
        elif req.kind is EmitKind.NAND:
            lines += ["    mov (%rdi), %rbx"]
            guards = ["%rsi", "%rdx"]
        elif req.kind is EmitKind.AMPLIFIER:
            lines += [
                f"    .rept {req.accesslen}",
                "    mov (%rdi), %rbx",
                f"    add ${req.stride}, %rdi",
                "    .endr",
            ]
            guards = ["%rsi"]
        else:  # pragma: no cover
            raise EmitError(f"unsupported kind {req.kind!r}")
        lines += ["    lfence"]
        lines += _redirect_block(red, land, guards)
        lines += [f"{land}:", "    nop"]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Structural checker: a small grammar over the emitted text.


@dataclass
class StructureReport:
    lfence_count: int
    call_targets: list[str]
    redirect_ok: bool
    delay_count: int | None
    output_loads: int
    stride_immediates: list[int]

    @property
    def ok(self) -> bool:
        return self.lfence_count == 1 and self.redirect_ok


_CALL_RE = re.compile(r"^\s*call\s+(\S+)")
_LABEL_RE = re.compile(r"^(\S+):")
_REPT_RE = re.compile(r"^\s*\.rept\s+(\d+)")
_STRIDE_RE = re.compile(r"add\s+\$(\d+),\s*%rdi")


def check_structure(text: str) -> StructureReport:
    lines = text.splitlines()
    lfence = sum(1 for l in lines if l.strip() == "lfence")
    calls = [m.group(1) for l in lines if (m := _CALL_RE.match(l))]
    labels: dict[str, int] = {}
    for i, l in enumerate(lines):
        m = _LABEL_RE.match(l.strip())
        if m:
            labels[m.group(1)] = i

    redirect_ok = bool(calls)
    for target in calls:
        if target not in labels:
            redirect_ok = False
            continue
        # the redirect block must store a new return address and end in ret
        block = []
        for l in lines[labels[target] + 1:]:
            if _LABEL_RE.match(l.strip()):
                break
            block.append(l.strip())
        if not any(b.startswith("movq $") and b.endswith("(%rsp)") for b in block):
            redirect_ok = False
        if not block or block[-1] != "ret":
            redirect_ok = False

    # first .rept is the delay loop; a second .rept (amplifier) holds the
    # output accesses
    repts = [(int(m.group(1)), i) for i, l in enumerate(lines) if (m := _REPT_RE.match(l))]
    delay_count = None
    output_loads = 0
    if repts:
        delay_count = repts[0][0]
    if len(repts) > 1:
        output_loads = repts[1][0]
    else:
        # count explicit speculative-body loads (before the first lfence)
        for l in lines:
            if l.strip() == "lfence":
                break
            if re.match(r"^\s*mov\s+\(%r(di|8|9|10)\),", l):
                output_loads += 1
    strides = [int(m.group(1)) for l in lines for m in _STRIDE_RE.finditer(l)]
    return StructureReport(
        lfence_count=lfence,
        call_targets=calls,
        redirect_ok=redirect_ok,
        delay_count=delay_count,
        output_loads=output_loads,
        stride_immediates=strides,
    )
