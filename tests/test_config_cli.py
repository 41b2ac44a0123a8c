import configparser
import dataclasses
import json
import os
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cachesig import cli, config
from cachesig.timing import LatencyModel, NoiseModel, TimerModel

README = Path(__file__).resolve().parent.parent / "README.md"
GOLDEN = Path(__file__).parent / "golden"
SCHEMA_KEYS = [(section, key) for section, keys in config.SCHEMA.items() for key in keys]


def env_name(section, key):
    return f"CACHESIG_{section.upper()}_{key.upper()}"


def setting_of(cfg, section, key):
    return getattr(cfg if section == "run" else getattr(cfg, section), key)


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    """Strict loading rejects unknown CACHESIG_* variables: start from none."""
    for key in list(os.environ):
        if key.startswith("CACHESIG_"):
            monkeypatch.delenv(key)


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


def test_load_flags_beat_env(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text("[run]\nseed = 5\ntrials = 10\nsizes = 4,8\n")
    cfg = config.load(str(path), environ={"CACHESIG_RUN_SEED": "6"},
                      flags={"--seed": 7, "--trials": None, "--sizes": [16]})
    assert (cfg.seed, cfg.trials, cfg.sizes) == (7, 10, (16,))


@pytest.mark.parametrize("section, key", SCHEMA_KEYS)
def test_every_key_settable_from_env_and_ini(section, key):
    default = setting_of(config.ExperimentConfig(), section, key)
    if isinstance(default, tuple):
        value = default[:1]
    elif isinstance(default, str):
        value = "json"
    else:
        value = default + 1
    text = config._format_value(value)
    from_env = config.apply_env(config.ExperimentConfig(), {env_name(section, key): text})
    from_ini = config.from_ini(f"[{section}]\n{key} = {text}\n")
    assert setting_of(from_env, section, key) == value
    assert setting_of(from_ini, section, key) == value


POSITIVE = st.floats(min_value=1e-6, max_value=1e9)
NON_NEGATIVE = st.floats(min_value=0.0, max_value=1e9)


@st.composite
def valid_configs(draw):
    hit = draw(POSITIVE)
    cfg = config.ExperimentConfig(
        seed=draw(st.integers(0, 2**64)), trials=draw(st.integers(1, 10**6)),
        out_format=draw(st.sampled_from(config.OUT_FORMATS)),
        latency=LatencyModel(hit, draw(st.floats(min_value=hit, max_value=2e9, exclude_min=True)),
                             draw(POSITIVE), draw(NON_NEGATIVE), draw(NON_NEGATIVE)),
        timer=TimerModel(draw(POSITIVE), draw(NON_NEGATIVE)),
        noise=NoiseModel(draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0))),
        sizes=tuple(draw(st.lists(st.integers(1, 4096), min_size=1, max_size=4))),
        iteration_counts=tuple(draw(st.lists(st.integers(0, 10**7), max_size=4))),
        granularities_ns=tuple(draw(st.lists(POSITIVE, max_size=4))))
    cfg.amplifier = dataclasses.replace(cfg.amplifier, deplen=draw(st.integers(1, 64)),
                                        accesslen=draw(st.integers(1, 64)))
    return cfg


@settings(max_examples=200, deadline=None)
@given(valid_configs())
def test_ini_roundtrip_property(cfg):
    assert config.from_ini(config.to_ini(cfg)) == cfg


def test_readme_documents_exactly_the_settable_keys():
    text = README.read_text(encoding="utf-8")
    named = set(re.findall(r"CACHESIG_[A-Z0-9_]+", text))
    defaults = configparser.ConfigParser()
    defaults.read_string(config.to_ini(config.ExperimentConfig()))
    default_text = {env_name(s, k): defaults[s][k] for s, k in SCHEMA_KEYS}
    for name in named:  # raises ConfigError on a variable the table does not have
        config.apply_env(config.ExperimentConfig(), {name: default_text.get(name, "0")})
    assert {env_name(s, k) for s, k in SCHEMA_KEYS} <= named


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


@pytest.mark.parametrize("args, env, ini, named", [
    pytest.param(["counter", "--sizes", "16", "--trials", "20"],
                 {"CACHESIG_NOISE_GADGET_FLIP_PROBABILITY": "0.3"}, None,
                 ["CACHESIG_NOISE_GADGET_FLIP_PROBABILITY",
                  "did you mean CACHESIG_NOISE_GADGET_FLIP_PROB?"], id="env-typo"),
    pytest.param(["counter"], {}, "[nosie]\ngadget_flip_prob = 0.3\n",
                 ["[nosie] gadget_flip_prob", "did you mean [noise] gadget_flip_prob?"],
                 id="ini-section-typo"),
    pytest.param(["counter"], {}, "[noise]\ngadget_flip_prb = 0.3\n",
                 ["[noise] gadget_flip_prb", "did you mean [noise] gadget_flip_prob?"],
                 id="ini-option-typo"),
    pytest.param(["counter", "--trials", "0"], {}, None, ["--trials"], id="trials-0"),
    pytest.param(["counter", "--trials", "-3"], {}, None, ["--trials"], id="trials-negative"),
    pytest.param(["counter"], {}, "[run]\ntrials = 0\n", ["[run] trials"], id="ini-trials-0"),
    pytest.param(["counter"], {"CACHESIG_RUN_TRIALS": "1e3"}, None, ["CACHESIG_RUN_TRIALS"],
                 id="trials-unparsable"),
    pytest.param(["counter", "--seed", "-1"], {}, None, ["--seed"], id="seed-negative"),
    pytest.param(["binsearch", "--sizes", "0"], {}, None, ["--sizes"], id="sizes-0"),
    pytest.param(["counter"], {"CACHESIG_NOISE_SEED": "3"}, None,
                 ["CACHESIG_NOISE_SEED", "did you mean"], id="removed-noise-seed"),
    pytest.param(["amp-sweep"], {"CACHESIG_AMPLIFIER_ITERATIONS": "10"}, None,
                 ["CACHESIG_AMPLIFIER_ITERATIONS", "did you mean"],
                 id="removed-amplifier-iterations"),
    pytest.param(["counter", "--config", "{missing}"], {}, None, ["{missing}"],
                 id="missing-file"),
    pytest.param(["counter"], {}, "seed = 3\n", ["{ini}", "no section headers"],
                 id="no-section-header"),
    pytest.param(["counter", "--sizes", "4"], {}, "[nosie]\n[run]\ntrials = 2\n",
                 ["unknown section [nosie]", "did you mean [noise]?"], id="ini-empty-section-typo"),
    pytest.param(["counter"], {"CACHESIG_LATENCY_HIT_NS": "100"}, None,
                 ["miss_ns must exceed hit_ns", "(CACHESIG_LATENCY_HIT_NS)"], id="env-model-check"),
    pytest.param(["counter"], {}, "[latency]\nhit_ns = 100\n",
                 ["miss_ns must exceed hit_ns", "([latency] hit_ns)"], id="ini-model-check"),
    pytest.param(["counter"], {"CACHESIG_LATENCY_MISS_NS": "40"}, "[latency]\nhit_ns = 50\n",
                 ["miss_ns must exceed hit_ns", "(CACHESIG_LATENCY_MISS_NS)"],
                 id="env-breaks-ini-model"),
    pytest.param(["amp-sweep"], {"CACHESIG_AMPLIFIER_ACCESSLEN": "0",
                                 "CACHESIG_NOISE_GADGET_FLIP_PROB": "0.1"}, None,
                 ["bad amplifier parameters (CACHESIG_AMPLIFIER_ACCESSLEN)"],
                 id="env-amplifier-check"),
])
def test_cli_rejects_bad_settings(args, env, ini, named, tmp_path, monkeypatch, capsys):
    paths = {"missing": str(tmp_path / "missing.ini"), "ini": str(tmp_path / "exp.ini")}
    if ini is not None:
        Path(paths["ini"]).write_text(ini)
        args = args + ["--config", "{ini}"]
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    err = cli_error([arg.format(**paths) for arg in args], capsys)
    line = err.strip().splitlines()[-1]
    assert line.startswith("cachesig: error: ")
    for part in named:
        assert part.format(**paths) in line


def test_cli_json_echo_keys_follow_schema(capsys):
    doc = json.loads(run_cli(["counter", "--sizes", "4", "--trials", "2", "--format", "json"],
                             capsys))
    echo = doc["config"]
    assert {k for k, v in echo.items() if not isinstance(v, dict)} == {"seed", "trials"}
    assert {k: set(v) for k, v in echo.items() if isinstance(v, dict)} == {
        section: set(keys) for section, keys in config.SCHEMA.items() if section != "run"}


def test_cli_emit_asm_nand_defaults_to_fan_in_2(capsys):
    assert run_cli(["emit-asm", "nand"], capsys) == (GOLDEN / "nand2.s").read_text()


def test_cli_emit_asm_nor_defaults_to_fan_in_2(capsys):
    assert run_cli(["emit-asm", "nor"], capsys) == (GOLDEN / "nor.s").read_text()


def test_cli_exec_wrong_bit_count(tmp_path, capsys):
    net = tmp_path / "xor.net"
    net.write_text("inputs a b\noutputs y\ny = XOR(a, b)\n")
    assert "error: assignment length mismatch" in cli_error(["exec", str(net), "1"], capsys)


def test_cli_counter_rejects_latency_jitter(monkeypatch, capsys):
    monkeypatch.setenv("CACHESIG_LATENCY_JITTER_SIGMA_NS", "10")
    err = cli_error(["counter", "--sizes", "4", "--trials", "2"], capsys)
    assert "error: the counter executor does not model latency jitter" in err


@pytest.mark.parametrize("command", ["amp-sweep", "amp-consistency"])
@pytest.mark.parametrize("env, message", [
    ({"CACHESIG_LATENCY_JITTER_SIGMA_NS": "10"},
     "error: the amplifier closed form does not model latency jitter"),
    # a 20 ns miss resolves inside the 25 ns window: no stage inverts a present line
    ({"CACHESIG_LATENCY_MISS_NS": "20"},
     "error: amplifier window deplen*delay_op_ns = 25 ns must satisfy"),
])
def test_cli_amplifier_rejects_latencies_it_does_not_model(monkeypatch, capsys, command,
                                                           env, message):
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    err = cli_error([command, "--iterations", "100", "--trials", "4"], capsys)
    assert message in err
