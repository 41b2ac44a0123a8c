"""Command-line harness: run the experiments and emit deterministic
CSV or JSON; also expose the netlist compiler/executor and the
assembler-text emitter."""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from . import __version__, algorithms, asm, cache, config, engine, experiments, netlist, timing

# The package's own errors: reported as usage errors, not tracebacks.
PACKAGE_ERRORS = (config.ConfigError, netlist.NetlistError, algorithms.AlgorithmError,
                  engine.GadgetError, timing.TimingError, cache.CacheModelError, asm.EmitError)


def rows_to_csv(rows) -> str:
    if not rows:
        return ""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def rows_to_json(rows, cfg: config.ExperimentConfig, command: str) -> str:
    doc = {
        "tool": "cachesig",
        "version": __version__,
        "command": command,
        "config": {"seed": cfg.seed, "trials": cfg.trials,
                   **{section: {key: getattr(getattr(cfg, section), key) for key in keys}
                      for section, keys in config.SCHEMA.items() if section != "run"}},
        "rows": rows,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def write_text(text: str, out_path: str | None) -> None:
    if out_path and out_path != "-":
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def write_output(rows, cfg, command: str, out_path: str | None, fmt: str) -> None:
    write_text(rows_to_csv(rows) if fmt == "csv" else rows_to_json(rows, cfg, command),
               out_path)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cachesig",
        description="Deterministic simulator for cacheline-signal logic gadgets.",
    )
    parser.add_argument("--version", action="version", version=f"cachesig {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="INI config file")
    common.add_argument("--seed", type=int, help="root RNG seed")
    common.add_argument("--trials", type=int, help="trials per experiment cell")
    common.add_argument("--out", "-o", help="output path ('-' for stdout)")
    common.add_argument("--format", choices=config.OUT_FORMATS, help="output format")

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("truth-tables", parents=[common],
                   help="gate truth-table accuracy sweep")
    p = sub.add_parser("amp-sweep", parents=[common],
                       help="amplifier strength ensembles per iteration count")
    p.add_argument("--iterations", type=int, nargs="+", help="iteration counts")
    p.add_argument("--detail-out", help="per-trial detail rows output path")
    p = sub.add_parser("amp-consistency", parents=[common],
                       help="coarse-timer signal recovery grid")
    p.add_argument("--iterations", type=int, nargs="+")
    p.add_argument("--granularities", type=float, nargs="+", metavar="NS")
    p = sub.add_parser("binsearch", parents=[common],
                       help="binary-search accuracy over array sizes")
    p.add_argument("--sizes", type=int, nargs="+")
    p = sub.add_parser("counter", parents=[common],
                       help="cacheline-counter accuracy over input sizes")
    p.add_argument("--sizes", type=int, nargs="+")

    p = sub.add_parser("compile", parents=[common],
                       help="lower a netlist file onto {NAND, NOT, REPLICATE}")
    p.add_argument("netlist", help="netlist text file")
    p = sub.add_parser("exec", parents=[common],
                       help="execute a netlist on an input assignment")
    p.add_argument("netlist", help="netlist text file")
    p.add_argument("bits", help="input bits in declaration order, e.g. 1011")
    p.add_argument("--backend", choices=("lanes", "gadgets"), default="lanes",
                   help="bit-sliced lane executor, or the gadget-level reference")
    p = sub.add_parser("emit-asm", parents=[common],
                       help="emit gadget assembler text")
    p.add_argument("kind", choices=[k.value for k in asm.EmitKind])
    p.add_argument("--deplen", type=int, default=5)
    p.add_argument("--accesslen", type=int, default=1)
    p.add_argument("--fan-in", type=int, help="guard inputs (default: 2 for nand and nor, else 1)")
    p.add_argument("--stride", type=int, default=4160)
    p.add_argument("--label-base", type=int, default=1)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(parser, args)
    except PACKAGE_ERRORS as exc:
        parser.error(str(exc))


def _run(parser: argparse.ArgumentParser, args) -> int:
    cfg = config.load(args.config, flags={flag: getattr(args, flag[2:], None)
                                          for flag in config.FLAGS})
    fmt = cfg.out_format

    if args.command == "truth-tables":
        rows = experiments.run_truth_tables(cfg)
    elif args.command == "amp-sweep":
        detail, rows = experiments.run_amplifier_sweep(cfg)
        if args.detail_out:
            write_output(detail, cfg, "amp-sweep-detail", args.detail_out, fmt)
    elif args.command == "amp-consistency":
        rows = experiments.run_amplifier_consistency(cfg)
    elif args.command == "binsearch":
        rows = experiments.run_binary_search(cfg)
    elif args.command == "counter":
        rows = experiments.run_counter(cfg)
    elif args.command == "compile":
        with open(args.netlist, "r", encoding="utf-8") as fh:
            net = netlist.parse(fh.read())
        write_text(netlist.serialize(netlist.lower(net)), args.out)
        return 0
    elif args.command == "exec":
        if set(args.bits) - {"0", "1"}:
            parser.error(f"bits must be a string of 0s and 1s, got {args.bits!r}")
        with open(args.netlist, "r", encoding="utf-8") as fh:
            net = netlist.parse(fh.read())
        bits = [c == "1" for c in args.bits]
        out = netlist.execute(net, bits, backend=args.backend)
        sys.stdout.write("".join("1" if b else "0" for b in out) + "\n")
        return 0
    elif args.command == "emit-asm":
        fan_in = {"nand": 2, "nor": 2}.get(args.kind, 1) if args.fan_in is None else args.fan_in
        req = asm.EmitRequest(kind=asm.EmitKind(args.kind), deplen=args.deplen,
                              accesslen=args.accesslen, fan_in=fan_in,
                              stride=args.stride, label_base=args.label_base)
        write_text(asm.emit(req), args.out)
        return 0
    else:  # pragma: no cover - argparse enforces the choices
        raise SystemExit(2)

    write_output(rows, cfg, args.command, args.out, fmt)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
