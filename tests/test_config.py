"""Configuration defaults, file parsing, and override precedence."""

import math
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qexp.classifier.inference import ReferenceSet, build_reference_set
from qexp.classifier.network import SiameseModel
from qexp.classifier.pairs import generate_pairs
from qexp.classifier.training import TrainConfig
from qexp.collection import ParseError
from qexp.config import (RANGES, Config, ConfigError, _coerce, check, env_overrides,
                         load_config, parse_config_file)
from qexp.embeddings import top_k_neighbors
from qexp.expansion import ExpansionConfig
from qexp.experiment import partition_folds
from qexp.labeling import (Label, LabeledDataset, LabeledExample, build_dataset,
                           scored_candidate_pool)
from qexp.retrieval import QueryModel, retrieve

from mutation import mutate

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


@pytest.mark.parametrize("text, message", [
    ("mu = 1000\nfolds = 1\n", "2: folds must be >= 2, got 1"),
    ("# seeds\n\nseed = -3\n", "3: seed must be in [0, 2**64), got -3"),
    ("pooling = max\n", "1: pooling must be 'last' or 'mean', got 'max'"),
    ("m = 2\ndepth = deep\n", "2: config key 'depth': cannot parse 'deep' as int"),
])
def test_value_faults_name_the_file_and_line(tmp_path, text, message):
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    for read in (parse_config_file, lambda p: load_config(p, environ={})):
        with pytest.raises(ConfigError, match=re.escape(f"{path}:{message}")):
            read(str(path))


_FUZZ_CFG = ("# a run\ncorpus = /data/trec   # the documents\nmu = 2000\nm = 5\n"
             "beta = 0.25\npooling = mean\nseed = 7\nfolds = 3\n").encode()
_FUZZ_TOKENS = [b"", b"=", b"#", b" ", b"\n", b"mu", b"turbo", b"nan", b"-1", b"1e999",
                b"0", b"0.5", b"2", b"last", b"max", b"18446744073709551616", b"1_0"]


@settings(max_examples=300)
@given(st.data())
def test_config_mutation_loads_or_raises_config_error(tmp_path_factory, data):
    raw = mutate(_FUZZ_CFG, data, _FUZZ_TOKENS, sep=b"=")
    path = tmp_path_factory.getbasetemp() / "mutated.cfg"
    path.write_bytes(raw)
    try:
        values = parse_config_file(str(path))
    except ConfigError as exc:
        assert str(path) in str(exc)
        with pytest.raises(ConfigError, match=re.escape(str(exc))):
            load_config(str(path), environ={})
        return
    cfg = load_config(str(path), environ={})
    assert {key: getattr(cfg, key) for key in values} == values


@pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
def test_non_finite_floats_are_rejected_naming_the_key(raw, tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(f"mu = {raw}\n")
    with pytest.raises(ConfigError, match=f"config key 'mu': '{raw}' is not a finite"):
        parse_config_file(str(path))
    with pytest.raises(ConfigError, match=f"config key 'eps': '{raw}' is not a finite"):
        env_overrides({"QEXP_EPS": raw})
    with pytest.raises(ConfigError, match=f"config key 'alpha': '{raw}' is not a finite"):
        load_config(overrides={"alpha": raw})


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
    # non-string override values are parsed from their str()
    assert load_config(overrides={"epochs": 7}).epochs == 7


PATH_KEYS = {"corpus", "topics", "qrels", "embeddings", "index", "model", "dataset",
             "output_dir", "stopwords"}


def test_every_setting_but_the_paths_has_a_range():
    assert len(PATH_KEYS) == 9
    assert set(RANGES) | PATH_KEYS == {f.name for f in fields(Config)}
    assert not set(RANGES) & PATH_KEYS


def test_check_names_the_caller_and_states_the_rule():
    with pytest.raises(ConfigError, match=re.escape("k must be >= 2, got 1")):
        check("k", 1, "folds")
    with pytest.raises(ConfigError, match=re.escape("mu must be > 0, got inf")):
        check("mu", math.inf)
    with pytest.raises(ParseError, match=re.escape("f:1: eps must be >= 0, got -1")):
        check("f:1: eps", -1, "eps", ParseError)
    check("pooling", "mean")


@pytest.mark.parametrize("value", [float("nan"), 2.5, -1])
def test_non_string_overrides_meet_the_same_rules(value):
    with pytest.raises(ConfigError, match="beta"):
        load_config(overrides={"beta": value})


# Values on both sides of each rule's boundary, non-finite floats included.
BOUNDARY = {
    "mu": [-1.0, 0.0, 1e-300, 1000.0, math.inf, math.nan],
    "depth": [-1, 0, 1],
    "m": [0, 1],
    "alpha": [-1e-9, 0.0, 2.0, math.inf],
    "beta": [-0.1, 0.0, 1.0, 1.1, math.nan],
    "pool_size": [0, 1, 3],
    "eps": [-1.0, 0.0, 0.5, math.inf, math.nan],
    "lr": [-1.0, 0.0, 1e-9, math.nan],
    "batch": [0, 1],
    "epochs": [0, 1],
    "seed": [-1, 0, 2**64 - 1, 2**64],
    "pair_budget": [-2, 0, 1, 2, 3, 4],
    "refset_size": [-2, 0, 1, 2, 3, 4],
    "hidden": [0, 1],
    "rep": [0, 1],
    "pooling": ["last", "mean", "max", ""],
    "folds": [1, 2],
    "workers": [-1, 0, 1],
}


def _rejected(call) -> bool:
    try:
        call()
    except ConfigError:
        return True
    return False


def test_every_check_rejects_exactly_what_config_rejects(mini_index, mini_topics,
                                                         mini_qrels, tiny_table):
    rng = np.random.default_rng(0)
    query = QueryModel("701", {"solar": 1.0, "energy": 1.0})
    examples = [LabeledExample("701", ["solar"], term, label, delta)
                for term, label, delta in [("panel", Label.GOOD, 0.1),
                                           ("cheap", Label.GOOD, 0.1),
                                           ("coal", Label.BAD, -0.1),
                                           ("wind", Label.BAD, -0.1)]]
    dataset = LabeledDataset(examples)

    def refset(n):
        return ReferenceSet([(["solar"], f"t{i}", Label.GOOD if i < n // 2 else Label.BAD)
                             for i in range(n)])

    sites = {
        "mu": [lambda v: retrieve(query, mini_index, mu=v)],
        "depth": [lambda v: retrieve(query, mini_index, depth=v)],
        "m": [lambda v: ExpansionConfig(m=v)],
        "alpha": [lambda v: ExpansionConfig(alpha=v)],
        "beta": [lambda v: ExpansionConfig(beta=v)],
        "pool_size": [lambda v: ExpansionConfig(pool_size=v),
                      lambda v: scored_candidate_pool(mini_topics[0], tiny_table,
                                                      mini_index, v),
                      lambda v: top_k_neighbors(tiny_table.vector("solar"), v,
                                                tiny_table)],
        "eps": [lambda v: build_dataset(mini_topics, mini_index, mini_qrels, tiny_table,
                                        pool_size=2, eps=v)],
        "lr": [lambda v: TrainConfig(learning_rate=v)],
        "batch": [lambda v: TrainConfig(batch_size=v)],
        "epochs": [lambda v: TrainConfig(epochs=v)],
        "seed": [lambda v: TrainConfig(seed=v)],
        "pair_budget": [lambda v: TrainConfig(pair_budget=v),
                        lambda v: generate_pairs(examples, True, rng, budget=v)],
        "refset_size": [lambda v: build_reference_set(dataset, tiny_table, v, rng),
                        refset],
        "hidden": [lambda v: SiameseModel(2, v, 1, rng)],
        "rep": [lambda v: SiameseModel(2, 1, v, rng)],
        "pooling": [lambda v: SiameseModel(2, 1, 1, rng, v)],
        "folds": [lambda v: partition_folds(["a", "b", "c"], v, rng)],
    }
    # workers is only read through Config.resolved_workers
    assert set(sites) == set(RANGES) - {"workers"}
    assert set(BOUNDARY) == set(RANGES)
    for key, values in BOUNDARY.items():
        verdicts = [_rejected(lambda: Config(**{key: v})) for v in values]
        assert set(verdicts) == {True, False}, key
        for value, expected in zip(values, verdicts):
            for call in sites.get(key, []):
                assert _rejected(lambda: call(value)) == expected, (key, value)
