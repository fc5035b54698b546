"""Configuration defaults, file parsing, and override precedence."""

import re
from dataclasses import fields
from pathlib import Path

import pytest

from qexp.config import (Config, ConfigError, _coerce, env_overrides, load_config,
                         parse_config_file)

README = Path(__file__).resolve().parent.parent / "README.md"


def test_defaults():
    cfg = Config()
    assert cfg.mu == 1000.0
    assert cfg.depth == 1000
    assert cfg.m == 10
    assert cfg.alpha == 1.0
    assert cfg.beta == 0.5
    assert cfg.pool_size == 1000
    assert cfg.eps == 0.0005
    assert cfg.lr == 0.001
    assert cfg.batch == 32
    assert cfg.epochs == 20
    assert cfg.seed == 0
    assert cfg.pair_budget == 50000
    assert cfg.refset_size == 100
    assert cfg.hidden == 200
    assert cfg.rep == 400
    assert cfg.pooling == "last"
    assert cfg.folds == 5
    assert cfg.index == "index.qxix"
    assert cfg.model == "model.qxdm"
    assert cfg.dataset == "dataset.tsv"
    assert cfg.output_dir == "."
    assert cfg.workers == 0
    assert cfg.resolved_workers() >= 1
    assert Config(workers=3).resolved_workers() == 3


def test_readme_table_matches_config_defaults():
    text = README.read_text()
    table = text[text.index("| key | default | meaning |"):].split("\n\n", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| (.+?) \|", table, re.MULTILINE)
    assert [key for key, _ in rows] == [f.name for f in fields(Config)]
    assert len(rows) == 27
    for key, shown in rows:
        if shown in ("—", "bundled list"):
            raw = ""
        else:
            raw = re.fullmatch(r"`([^`]*)`", shown).group(1)
        assert _coerce(key, raw) == getattr(Config, key), key


def test_parse_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# full experiment\n"
        "mu = 2000   # heavier smoothing\n"
        "m=5\n"
        "beta = 0.25\n"
        "corpus = /data/trec # trailing comment\n"
        "\n")
    values = parse_config_file(str(path))
    assert values == {"mu": 2000.0, "m": 5, "beta": 0.25, "corpus": "/data/trec"}


def test_parse_errors_name_the_line(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("mu = 1000\nwhat is this\n")
    with pytest.raises(ConfigError, match=r"bad\.cfg:2: expected key = value"):
        parse_config_file(str(path))
    for key in ("turbo", "symmetric_compare"):
        path.write_text(f"mu = 1000\n{key} = on\n")
        with pytest.raises(ConfigError, match=rf"bad\.cfg:2: unknown config key '{key}'"):
            parse_config_file(str(path))
    path.write_text("epochs = soon\n")
    with pytest.raises(ConfigError, match="cannot parse 'soon' as int"):
        parse_config_file(str(path))


def test_env_overrides_only_known_prefix():
    env = {"QEXP_MU": "500", "QEXP_POOLING": "mean", "UNRELATED": "x",
           "QEXP_BATCH": "8"}
    assert env_overrides(env) == {"mu": 500.0, "pooling": "mean", "batch": 8}


def test_precedence_defaults_file_env_overrides(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("mu = 100\nm = 3\nbeta = 0.75\n")
    env = {"QEXP_MU": "200", "QEXP_M": "4"}
    cfg = load_config(str(path), overrides={"mu": "300"}, environ=env)
    assert cfg.mu == 300.0     # explicit override beats env beats file
    assert cfg.m == 4          # env beats file
    assert cfg.beta == 0.75    # file beats default
    assert cfg.depth == 1000   # untouched default


def test_override_validation():
    with pytest.raises(ConfigError, match="unknown config key 'turbo'"):
        load_config(overrides={"turbo": "1"})
    with pytest.raises(ConfigError, match="cannot parse"):
        load_config(overrides={"epochs": "many"})
    # non-string override values pass through untouched
    assert load_config(overrides={"epochs": 7}).epochs == 7
