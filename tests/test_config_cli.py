import json

import pytest

from cachesig import cli, config


def test_ini_roundtrip():
    cfg = config.ExperimentConfig(seed=7, trials=42)
    cfg.latency = type(cfg.latency)(hit_ns=3.0, miss_ns=90.0)
    text = config.to_ini(cfg)
    back = config.from_ini(text)
    assert back.seed == 7 and back.trials == 42
    assert back.latency.hit_ns == 3.0 and back.latency.miss_ns == 90.0
    assert back.sizes == cfg.sizes
    assert config.to_ini(back) == text


def test_from_ini_partial_sections():
    cfg = config.from_ini("[run]\nseed = 3\n\n[noise]\ngadget_flip_prob = 0.01\n")
    assert cfg.seed == 3
    assert cfg.noise.gadget_flip_prob == 0.01
    assert cfg.latency.hit_ns == 4.0  # untouched defaults


def test_env_overrides():
    cfg = config.ExperimentConfig()
    env = {
        "CACHESIG_RUN_SEED": "99",
        "CACHESIG_LATENCY_MISS_NS": "120.0",
        "CACHESIG_RUN_SIZES": "4,8",
    }
    config.apply_env(cfg, env)
    assert cfg.seed == 99
    assert cfg.latency.miss_ns == 120.0
    assert cfg.sizes == (4, 8)


def test_load_file_then_env(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text("[run]\nseed = 5\ntrials = 10\n")
    cfg = config.load(str(path), environ={"CACHESIG_RUN_SEED": "6"})
    assert cfg.seed == 6  # env beats file
    assert cfg.trials == 10


def run_cli(args, capsys):
    rc = cli.main(args)
    out = capsys.readouterr().out
    assert rc == 0
    return out


def test_cli_emit_asm(capsys):
    out = run_cli(["emit-asm", "inverter", "--deplen", "7"], capsys)
    assert ".rept 7" in out
    assert "lfence" in out


def test_cli_compile_and_exec(tmp_path, capsys):
    net = tmp_path / "xor.net"
    net.write_text("inputs a b\noutputs y\ny = XOR(a, b)\n")
    lowered = run_cli(["compile", str(net)], capsys)
    assert "NAND" in lowered and "XOR" not in lowered
    for bits, want in (("00", "0"), ("01", "1"), ("10", "1"), ("11", "0")):
        assert run_cli(["exec", str(net), bits], capsys).strip() == want
    for backend in ("lanes", "gadgets"):
        assert run_cli(["exec", str(net), "10", "--backend", backend],
                       capsys).strip() == "1"


def test_cli_binsearch_csv_deterministic(capsys):
    args = ["binsearch", "--sizes", "4", "8", "--trials", "20", "--seed", "1"]
    first = run_cli(args, capsys)
    second = run_cli(args, capsys)
    assert first == second
    header, *rows = first.strip().splitlines()
    assert header.startswith("size,trials,correct,accuracy")
    assert len(rows) == 2
    assert all(line.split(",")[2] == "20" for line in rows)  # all correct


def test_cli_counter_json(capsys):
    out = run_cli(["counter", "--sizes", "4", "--trials", "5", "--seed", "2",
                   "--format", "json"], capsys)
    doc = json.loads(out)
    assert doc["tool"] == "cachesig"
    assert doc["command"] == "counter"
    assert doc["config"]["seed"] == 2
    assert "backend" not in doc
    assert doc["rows"][0]["accuracy"] == 1.0


def test_cli_truth_tables_writes_file(tmp_path, capsys):
    out_path = tmp_path / "tt.csv"
    cli.main(["truth-tables", "--trials", "8", "--out", str(out_path)])
    capsys.readouterr()
    text = out_path.read_text()
    assert text.splitlines()[0].startswith("gate,fan_in,runs,correct,accuracy")
    # zero noise: every row fully correct
    for line in text.strip().splitlines()[1:]:
        parts = line.split(",")
        assert parts[2] == parts[3]


def test_cli_amp_sweep_with_detail(tmp_path, capsys):
    detail_path = tmp_path / "detail.csv"
    out = run_cli(["amp-sweep", "--iterations", "10", "--trials", "4",
                   "--seed", "3", "--detail-out", str(detail_path)], capsys)
    assert out.splitlines()[0].startswith("iterations,trials,q1_ns,median_ns,q3_ns")
    detail = detail_path.read_text().strip().splitlines()
    assert detail[0] == "seed,trial,iterations,strength_ns,corrupted"
    assert len(detail) == 5


def test_cli_amp_consistency(capsys):
    out = run_cli(["amp-consistency", "--iterations", "1000", "--granularities",
                   "1", "--trials", "10", "--seed", "0"], capsys)
    lines = out.strip().splitlines()
    assert lines[0].startswith("iterations,granularity_ns,trials,correct")
    row = lines[1].split(",")
    assert row[3] == "10"  # 1 ns granularity resolves everything


def test_cli_json_determinism(capsys):
    args = ["amp-sweep", "--iterations", "100", "--trials", "10", "--seed", "4",
            "--format", "json"]
    assert run_cli(args, capsys) == run_cli(args, capsys)


@pytest.mark.parametrize("bits", ["1x", "2", "1 0", "10\n"])
def test_cli_exec_rejects_bad_bits(tmp_path, capsys, bits):
    net = tmp_path / "xor.net"
    net.write_text("inputs a b\noutputs y\ny = XOR(a, b)\n")
    with pytest.raises(SystemExit) as exc:
        cli.main(["exec", str(net), bits])
    assert exc.value.code != 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "0s and 1s" in captured.err


def test_cli_binsearch_indeterminate_timer(monkeypatch, capsys):
    # a 1 us timer cannot split hit from miss: one measure per round, no retry
    monkeypatch.setenv("CACHESIG_TIMER_GRANULARITY_NS", "1000")
    out = run_cli(["binsearch", "--sizes", "4", "16", "--trials", "3"], capsys)
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert [(row[0], row[4]) for row in rows] == [("4", "2"), ("16", "4")]


def cli_error(args, capsys):
    """Runs the CLI on a failing command; returns its stderr."""
    with pytest.raises(SystemExit) as exc:
        cli.main(args)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    return captured.err


def test_cli_rejects_unknown_out_format(monkeypatch, capsys):
    monkeypatch.setenv("CACHESIG_RUN_OUT_FORMAT", "xml")
    err = cli_error(["counter", "--sizes", "4", "--trials", "2"], capsys)
    assert "error: out_format must be one of csv, json, got 'xml'" in err


def test_cli_exec_wrong_bit_count(tmp_path, capsys):
    net = tmp_path / "xor.net"
    net.write_text("inputs a b\noutputs y\ny = XOR(a, b)\n")
    assert "error: assignment length mismatch" in cli_error(["exec", str(net), "1"], capsys)


def test_cli_counter_rejects_latency_jitter(monkeypatch, capsys):
    monkeypatch.setenv("CACHESIG_LATENCY_JITTER_SIGMA_NS", "10")
    err = cli_error(["counter", "--sizes", "4", "--trials", "2"], capsys)
    assert "error: the counter executor does not model latency jitter" in err
