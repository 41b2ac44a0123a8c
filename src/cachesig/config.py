"""Experiment configuration: INI file with one section per model, plus
environment-variable and CLI overrides (env beats file, flags beat env)."""

from __future__ import annotations

import configparser
import io
import os
from dataclasses import dataclass, field, fields

from .amplifier import AmplifierConfig
from .timing import LatencyModel, NoiseModel

ENV_PREFIX = "CACHESIG"
OUT_FORMATS = ("csv", "json")


class ConfigError(Exception):
    pass


@dataclass
class TimerConfig:
    granularity_ns: float = 1.0
    jitter_ns: float = 0.0


@dataclass
class ExperimentConfig:
    seed: int = 0
    trials: int = 1000
    out_format: str = "csv"
    latency: LatencyModel = field(default_factory=LatencyModel)
    timer: TimerConfig = field(default_factory=TimerConfig)
    noise: NoiseModel = field(default_factory=NoiseModel)
    amplifier: AmplifierConfig = field(default_factory=lambda: AmplifierConfig(iterations=100_000))
    sizes: tuple[int, ...] = (4, 8, 16, 32, 64, 128, 256)
    iteration_counts: tuple[int, ...] = (1_000, 10_000, 100_000)
    granularities_ns: tuple[float, ...] = (10e6, 100e6, 500e6)


_SECTIONS = {
    "latency": ("latency", LatencyModel),
    "timer": ("timer", TimerConfig),
    "noise": ("noise", NoiseModel),
    "amplifier": ("amplifier", AmplifierConfig),
}

_RUN_FIELDS = ("seed", "trials", "out_format", "sizes", "iteration_counts", "granularities_ns")


def _format_value(value) -> str:
    if isinstance(value, tuple):
        return ",".join(_format_value(v) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


def to_ini(cfg: ExperimentConfig) -> str:
    parser = configparser.ConfigParser()
    parser["run"] = {name: _format_value(getattr(cfg, name)) for name in _RUN_FIELDS}
    for section, (attr, _) in _SECTIONS.items():
        obj = getattr(cfg, attr)
        parser[section] = {f.name: _format_value(getattr(obj, f.name)) for f in fields(obj)}
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


def _coerce(text: str, template):
    if isinstance(template, int):
        return int(text)
    if isinstance(template, float):
        return float(text)
    if isinstance(template, tuple):
        elem = template[0] if template else 0
        return tuple(_coerce(part, elem) for part in text.split(",") if part.strip())
    return text.strip()


def from_ini(text: str) -> ExperimentConfig:
    parser = configparser.ConfigParser()
    parser.read_string(text)
    cfg = ExperimentConfig()
    if parser.has_section("run"):
        for name in _RUN_FIELDS:
            if parser.has_option("run", name):
                setattr(cfg, name, _coerce(parser.get("run", name), getattr(cfg, name)))
    for section, (attr, _) in _SECTIONS.items():
        if not parser.has_section(section):
            continue
        obj = getattr(cfg, attr)
        values = {f.name: getattr(obj, f.name) for f in fields(obj)}
        for name in values:
            if parser.has_option(section, name):
                values[name] = _coerce(parser.get(section, name), values[name])
        setattr(cfg, attr, type(obj)(**values))
    return cfg


def apply_env(cfg: ExperimentConfig, environ=None) -> ExperimentConfig:
    """Override config fields from CACHESIG_<SECTION>_<FIELD> variables."""
    environ = os.environ if environ is None else environ
    for name in _RUN_FIELDS:
        key = f"{ENV_PREFIX}_RUN_{name.upper()}"
        if key in environ:
            setattr(cfg, name, _coerce(environ[key], getattr(cfg, name)))
    for section, (attr, _) in _SECTIONS.items():
        obj = getattr(cfg, attr)
        values = {f.name: getattr(obj, f.name) for f in fields(obj)}
        dirty = False
        for fname in values:
            key = f"{ENV_PREFIX}_{section.upper()}_{fname.upper()}"
            if key in environ:
                values[fname] = _coerce(environ[key], values[fname])
                dirty = True
        if dirty:
            setattr(cfg, attr, type(obj)(**values))
    return cfg


def load(path: str | None = None, environ=None) -> ExperimentConfig:
    if path:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = from_ini(fh.read())
    else:
        cfg = ExperimentConfig()
    cfg = apply_env(cfg, environ)
    if cfg.out_format not in OUT_FORMATS:
        raise ConfigError(f"out_format must be one of {', '.join(OUT_FORMATS)}, "
                          f"got {cfg.out_format!r}")
    return cfg
