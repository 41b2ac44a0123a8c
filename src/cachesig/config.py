"""Experiment configuration.  One table, `SCHEMA`, declares every setting.  An
INI file (one section per model), CACHESIG_<SECTION>_<KEY> environment variables
and CLI flags apply in that order; an unknown key or a bad value is an error."""

from __future__ import annotations

import configparser
import dataclasses
import difflib
import io
import os
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from .amplifier import AmplifierConfig
from .engine import GadgetError
from .timing import LatencyModel, NoiseModel, TimerModel, TimingError

OUT_FORMATS = ("csv", "json")


class ConfigError(Exception):
    pass


@dataclass
class ExperimentConfig:
    seed: int = 0
    trials: int = 1000
    out_format: str = "csv"
    latency: LatencyModel = field(default_factory=LatencyModel)
    timer: TimerModel = field(default_factory=TimerModel)
    noise: NoiseModel = field(default_factory=NoiseModel)
    amplifier: AmplifierConfig = field(default_factory=AmplifierConfig)
    sizes: tuple[int, ...] = (4, 8, 16, 32, 64, 128, 256)
    iteration_counts: tuple[int, ...] = (1_000, 10_000, 100_000)
    granularities_ns: tuple[float, ...] = (10e6, 100e6, 500e6)


class Setting(NamedTuple):
    kind: type = float            # int, float or str
    many: bool = False            # a comma-separated list of kind, held as a tuple
    flag: str | None = None       # the CLI flag that overrides it
    ok: Callable = lambda value: True  # a check no model makes
    rule: str = ""                # what ok demands


# section -> key -> Setting.  [run] keys are ExperimentConfig fields; each other
# section is the ExperimentConfig field of its name, a model that checks itself.
SCHEMA = {
    "run": {
        "seed": Setting(int, flag="--seed", ok=lambda v: v >= 0, rule="must be at least 0"),
        "trials": Setting(int, flag="--trials", ok=lambda v: v >= 1, rule="must be at least 1"),
        "out_format": Setting(str, flag="--format", ok=lambda v: v in OUT_FORMATS,
                              rule=f"must be one of {', '.join(OUT_FORMATS)}"),
        "sizes": Setting(int, True, "--sizes", lambda v: v != () and min(v) >= 1,
                         "must be a non-empty list of numbers of at least 1"),
        "iteration_counts": Setting(int, True, "--iterations"),
        "granularities_ns": Setting(float, True, "--granularities"),
    },
    "latency": dict.fromkeys(("hit_ns", "miss_ns", "delay_op_ns", "redirect_ns",
                              "jitter_sigma_ns"), Setting()),
    "timer": dict.fromkeys(("granularity_ns", "jitter_ns"), Setting()),
    "noise": dict.fromkeys(("gadget_flip_prob", "corruption_prob_per_iteration"), Setting()),
    "amplifier": dict.fromkeys(("deplen", "accesslen"), Setting(int)),
}
# Each layer's names for the table's keys, spelled as the user writes them.
_INI_KEYS = {f"[{s}] {k}": (s, k) for s in SCHEMA for k in SCHEMA[s]}
_ENV_KEYS = {f"CACHESIG_{s.upper()}_{k.upper()}": (s, k) for s in SCHEMA for k in SCHEMA[s]}
FLAGS = {spec.flag: ("run", k) for k, spec in SCHEMA["run"].items() if spec.flag}


def _parse(spec: Setting, key: str, text: str, where: str):
    try:
        if spec.many:
            value = tuple(spec.kind(part) for part in text.split(",") if part.strip())
        else:
            value = spec.kind(text.strip())
    except ValueError:
        raise ConfigError(f"{key} must be {spec.kind.__name__}, got {text!r} ({where})") from None
    if not spec.ok(value):
        raise ConfigError(f"{key} {spec.rule}, got {text!r} ({where})")
    return value


def _layer(cfg: ExperimentConfig, names: dict, given: dict) -> ExperimentConfig:
    """Sets, in place, each setting in given (name -> text); names maps the
    layer's names to table keys.  Each model is rebuilt once, to check itself."""
    updates: dict[str, dict] = {}
    for where, text in given.items():
        if where not in names:
            nearest = difflib.get_close_matches(where, list(names), n=1, cutoff=0)[0]
            raise ConfigError(f"unknown setting {where}; did you mean {nearest}?")
        section, key = names[where]
        updates.setdefault(section, {})[key] = _parse(SCHEMA[section][key], key, text, where)
    for section, values in updates.items():
        if section == "run":
            vars(cfg).update(values)
            continue
        try:  # the model checks itself; name the settings this layer gave it
            setattr(cfg, section, dataclasses.replace(getattr(cfg, section), **values))
        except (TimingError, GadgetError) as exc:
            named = ", ".join(w for w in given if names[w][0] == section)
            raise ConfigError(f"{exc} ({named})") from None
    return cfg


def _format_value(value) -> str:
    if isinstance(value, (tuple, list)):
        return ",".join(_format_value(v) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


def to_ini(cfg: ExperimentConfig) -> str:
    parser = configparser.ConfigParser()
    for section, keys in SCHEMA.items():
        obj = cfg if section == "run" else getattr(cfg, section)
        parser[section] = {key: _format_value(getattr(obj, key)) for key in keys}
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


def from_ini(text: str) -> ExperimentConfig:
    parser = configparser.ConfigParser()
    parser.read_string(text)
    for section in parser.sections():
        if section not in SCHEMA and not parser[section]:  # with keys, _layer names them
            nearest = difflib.get_close_matches(section, list(SCHEMA), n=1, cutoff=0)[0]
            raise ConfigError(f"unknown section [{section}]; did you mean [{nearest}]?")
    return _layer(ExperimentConfig(), _INI_KEYS,
                  {f"[{s}] {k}": v for s in parser.sections() for k, v in parser[s].items()})


def apply_env(cfg: ExperimentConfig, environ=None) -> ExperimentConfig:
    """Override config fields, in place, from CACHESIG_<SECTION>_<KEY> variables."""
    environ = os.environ if environ is None else environ
    return _layer(cfg, _ENV_KEYS, {name: text for name, text in sorted(environ.items())
                                   if name.startswith("CACHESIG_")})


def load(path: str | None = None, environ=None, flags=None) -> ExperimentConfig:
    """The file at path, then the environment, then flags ("--trials" -> value or None)."""
    cfg = ExperimentConfig()
    if path:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                cfg = from_ini(fh.read())
        except (OSError, UnicodeDecodeError, configparser.Error) as exc:
            raise ConfigError(f"cannot read config file {path}: "
                              f"{' '.join(str(exc).split())}") from None
    apply_env(cfg, environ)
    return _layer(cfg, FLAGS, {flag: _format_value(value)
                               for flag, value in (flags or {}).items() if value is not None})
