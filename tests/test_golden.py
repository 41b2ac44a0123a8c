"""Golden CLI outputs.  They pin the RNG stream: a change to the order or
number of draws shows up here as a byte diff that must be declared."""

import os
from pathlib import Path

import pytest

from cachesig import cli

GOLDEN = Path(__file__).parent / "golden"
COUNTER_ARGS = ["counter", "--sizes", "4", "16", "64", "256", "--trials", "30", "--seed", "5"]
AMP_SWEEP_ARGS = ["amp-sweep", "--iterations", "500", "100000", "--trials", "30", "--seed", "13"]
AMP_CONSISTENCY_ARGS = ["amp-consistency", "--iterations", "1000", "100000",
                        "--granularities", "1e6", "1e8", "--trials", "40", "--seed", "13"]
# Many flips per trial, a zero-length run and both sides of a 2**16 draw-chunk boundary.
AMP_SWEEP_DENSE_ARGS = ["amp-sweep", "--iterations", "0", "1", "65536", "65537", "200000",
                        "--trials", "30", "--seed", "13"]
ARGS = {  # golden file -> the command that prints it
    "counter_quiet.csv": COUNTER_ARGS,
    "counter_noisy.csv": COUNTER_ARGS,
    "amp_sweep_quiet.csv": AMP_SWEEP_ARGS,
    "amp_sweep_noisy.csv": AMP_SWEEP_ARGS,
    "amp_sweep_dense.csv": AMP_SWEEP_DENSE_ARGS,
    "amp_consistency_quiet.csv": AMP_CONSISTENCY_ARGS,
    "amp_consistency_noisy.csv": AMP_CONSISTENCY_ARGS,
    "amp_consistency_jitter.csv": AMP_CONSISTENCY_ARGS,
}
CORRUPTION = {"CACHESIG_NOISE_CORRUPTION_PROB_PER_ITERATION": "1e-5"}


@pytest.mark.parametrize("name, env", [
    ("counter_quiet.csv", {}),
    ("counter_noisy.csv", {"CACHESIG_NOISE_GADGET_FLIP_PROB": "1e-3"}),
    ("amp_sweep_quiet.csv", {}),
    ("amp_sweep_noisy.csv", CORRUPTION),
    ("amp_consistency_noisy.csv", CORRUPTION),
    ("amp_sweep_dense.csv", {"CACHESIG_NOISE_CORRUPTION_PROB_PER_ITERATION": "1e-3"}),
    ("amp_consistency_quiet.csv", {}),
    # Timer jitter draws from each trial's generator between its flip draws.
    ("amp_consistency_jitter.csv", {**CORRUPTION, "CACHESIG_TIMER_JITTER_NS": "5e5"}),
])
def test_counter_matches_golden(name, env, monkeypatch, capsys, tmp_path):
    for key in list(os.environ):
        if key.startswith("CACHESIG_"):
            monkeypatch.delenv(key)
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    args = ARGS[name]
    detail = tmp_path / "detail.csv"
    if args[0] == "amp-sweep":
        args = args + ["--detail-out", str(detail)]
    assert cli.main(args) == 0
    assert capsys.readouterr().out == (GOLDEN / name).read_text()
    detail_golden = GOLDEN / name.replace(".csv", "_detail.csv")
    if detail_golden.exists():
        assert detail.read_text() == detail_golden.read_text()
