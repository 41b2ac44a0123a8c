"""Regenerates perfbench/baseline.json from the program in src/.

    python3 perfbench/record_baseline.py

Records, per workload, the sha256 of the reference pass (which pins the
RNG stream) and, for each noisy cell the benchmark checks, its correct
count over many trials at a seed no benchmark pass uses.  Re-record only
when a change to the RNG stream or the model is declared.
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stdout

import run
from workloads import WORKLOADS, Tally, parse_rows

HELD_OUT_SEED = 999_999_999   # not a multiple of 1000, so never a pass seed

# workload -> (baseline key, CLI arguments, trials)
NOISY_CELLS = {
    "counter": (
        ("counter|64", ("counter", "--sizes", "64"), 8000),
        ("counter|256", ("counter", "--sizes", "256"), 2000),
    ),
    "amplifier": (
        ("amp-consistency|100000|100000000.0",
         ("amp-consistency", "--iterations", "100000", "--granularities", "1e8"), 20000),
    ),
}


def main() -> int:
    out = {"reference_sha256": {}, "noisy": {}}
    for wl in WORKLOADS.values():
        run.prepare(wl)
        from cachesig import cli

        out["reference_sha256"][wl.name] = run.reference_pass(wl, Tally({}))
        for key, argv, trials in NOISY_CELLS.get(wl.name, ()):
            buf = io.StringIO()
            with redirect_stdout(buf):
                cli.main(list(argv) + ["--seed", str(HELD_OUT_SEED), "--trials", str(trials)])
            (row,) = parse_rows(buf.getvalue())
            out["noisy"][key] = [int(row["correct"]), int(row["trials"])]
            print(key, out["noisy"][key], file=sys.stderr)
    with open(run.BASELINE, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
