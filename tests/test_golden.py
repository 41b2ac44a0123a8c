"""Golden CLI outputs.  They pin the RNG stream: a change to the order or
number of draws shows up here as a byte diff that must be declared."""

import os
from pathlib import Path

import pytest

from cachesig import cli

GOLDEN = Path(__file__).parent / "golden"
COUNTER_ARGS = ["counter", "--sizes", "4", "16", "64", "256", "--trials", "30", "--seed", "5"]


@pytest.mark.parametrize("name, env", [
    ("counter_quiet.csv", {}),
    ("counter_noisy.csv", {"CACHESIG_NOISE_GADGET_FLIP_PROB": "1e-3"}),
])
def test_counter_matches_golden(name, env, monkeypatch, capsys):
    for key in list(os.environ):
        if key.startswith("CACHESIG_") and key != "CACHESIG_BACKEND":
            monkeypatch.delenv(key)
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    assert cli.main(COUNTER_ARGS) == 0
    assert capsys.readouterr().out == (GOLDEN / name).read_text()
