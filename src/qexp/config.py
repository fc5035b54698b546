"""Flat key=value configuration with env-var and CLI overrides.

Precedence, lowest to highest: built-in defaults, config file, QEXP_<KEY>
environment variables, command-line flags.
"""

import os
from dataclasses import dataclass, fields

from qexp.collection import text_lines


class ConfigError(ValueError):
    pass


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
    # 0 = use every available core
    workers: int = 0

    def resolved_workers(self) -> int:
        return self.workers if self.workers > 0 else (os.cpu_count() or 1)


_FIELDS = {f.name: (f.type if isinstance(f.type, str) else f.type.__name__)
           for f in fields(Config)}


def _coerce(key: str, raw: str):
    kind = _FIELDS[key]
    raw = raw.strip()
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        return raw
    except ValueError:
        raise ConfigError(f"config key {key!r}: cannot parse {raw!r} as {kind}") from None


def parse_config_file(path: str) -> dict:
    """Read `key = value` lines; `#` starts a comment; unknown keys rejected."""
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
        values[key] = _coerce(key, raw)
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
        merged[key] = val if not isinstance(val, str) else _coerce(key, val)
    return Config(**merged)
