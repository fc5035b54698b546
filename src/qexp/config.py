"""Flat key=value configuration with env-var and CLI overrides.

Precedence, lowest to highest: built-in defaults, config file, QEXP_<KEY>
environment variables, command-line flags.
"""

import math
import os
from dataclasses import dataclass, fields

from qexp.collection import text_lines


class ConfigError(ValueError):
    pass


def _at_least(lo):
    return (lambda v: v >= lo), f">= {lo}"


_EVEN = (lambda v: v >= 2 and v % 2 == 0), "even and >= 2"

# (test, requirement) of every setting that is not a path
RANGES = {
    "mu": ((lambda v: v > 0), "> 0"),
    "depth": _at_least(1),
    "m": _at_least(1),
    "alpha": _at_least(0),
    "beta": ((lambda v: 0 <= v <= 1), "in [0, 1]"),
    "pool_size": _at_least(1),
    "eps": _at_least(0),
    "lr": ((lambda v: v > 0), "> 0"),
    "batch": _at_least(1),
    "epochs": _at_least(1),
    "seed": ((lambda v: 0 <= v < 2**64), "in [0, 2**64)"),
    "pair_budget": _EVEN,
    "refset_size": _EVEN,
    "hidden": _at_least(1),
    "rep": _at_least(1),
    "pooling": ((lambda v: v in ("last", "mean")), "'last' or 'mean'"),
    "folds": _at_least(2),
    "workers": _at_least(0),
}


def check(name: str, value, key: str | None = None, error=ConfigError):
    """Raise ``error`` naming ``name`` unless value meets the rule of setting
    ``key`` (default ``name``). A non-finite float always fails."""
    test, requirement = RANGES[key or name]
    if (isinstance(value, float) and not math.isfinite(value)) or not test(value):
        raise error(f"{name} must be {requirement}, got {value!r}")


def usable_cpus() -> int:
    """The CPUs this process may use; the machine's where the OS cannot say (macOS)."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def resolve_workers(workers: int) -> int:
    """A checked workers setting as a process count: 0 means one per usable CPU."""
    check("workers", workers)
    return workers or usable_cpus()


@dataclass
class Config:
    # paths
    corpus: str = ""
    topics: str = ""
    qrels: str = ""
    embeddings: str = ""
    index: str = "index.qxix"
    model: str = "model.qxdm"
    dataset: str = "dataset.tsv"
    output_dir: str = "."
    stopwords: str = ""          # empty = bundled list
    # retrieval
    mu: float = 1000.0
    depth: int = 1000
    # expansion
    m: int = 10
    alpha: float = 1.0
    beta: float = 0.5
    pool_size: int = 1000
    # labeling
    eps: float = 0.0005
    # training
    lr: float = 0.001
    batch: int = 32
    epochs: int = 20
    seed: int = 0
    pair_budget: int = 50000
    refset_size: int = 100
    hidden: int = 200
    rep: int = 400
    pooling: str = "last"
    # evaluation
    folds: int = 5
    # labeling and cross-validation processes; 0 = one per usable CPU
    workers: int = 0

    def __post_init__(self):
        for key in RANGES:
            check(key, getattr(self, key))


_FIELDS = {f.name: (f.type if isinstance(f.type, str) else f.type.__name__)
           for f in fields(Config)}


def _coerce(key: str, raw: str):
    kind = _FIELDS[key]
    raw = raw.strip()
    try:
        if kind == "int":
            return int(raw)
        if kind != "float":
            return raw
        value = float(raw)
    except ValueError:
        raise ConfigError(f"config key {key!r}: cannot parse {raw!r} as {kind}") from None
    if not math.isfinite(value):
        raise ConfigError(f"config key {key!r}: {raw!r} is not a finite number")
    return value


def parse_config_file(path: str) -> dict:
    """Read `key = value` lines; `#` starts a comment; faults name path:line."""
    values: dict = {}
    for lineno, line in text_lines(path, ConfigError):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value, got {line!r}")
        key, _, raw = line.partition("=")
        key = key.strip()
        if key not in _FIELDS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            values[key] = _coerce(key, raw)
            if key in RANGES:
                check(key, values[key])
        except ConfigError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from None
    return values


def env_overrides(environ=None) -> dict:
    environ = os.environ if environ is None else environ
    values = {}
    for key in _FIELDS:
        raw = environ.get("QEXP_" + key.upper())
        if raw is not None:
            values[key] = _coerce(key, raw)
    return values


def load_config(path: str | None = None, overrides: dict | None = None,
                environ=None) -> Config:
    """Merge defaults, an optional file, the environment, and explicit overrides."""
    merged: dict = {}
    if path is not None:
        merged.update(parse_config_file(path))
    merged.update(env_overrides(environ))
    for key, val in (overrides or {}).items():
        if key not in _FIELDS:
            raise ConfigError(f"unknown config key {key!r}")
        merged[key] = _coerce(key, str(val))
    return Config(**merged)
