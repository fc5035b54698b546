"""End-to-end command-line pipeline on the bundled miniature collection."""

from pathlib import Path

import pytest

from qexp.cli import main
from qexp.config import RANGES, ConfigError, load_config
from qexp.labeling import Label, LabeledDataset, LabeledExample

FIXTURES = Path(__file__).parent / "fixtures"
CORPUS = str(FIXTURES / "mini_corpus.sgml")
TOPICS = str(FIXTURES / "mini_topics.txt")
QRELS = str(FIXTURES / "mini_qrels.txt")
VECTORS = str(FIXTURES / "tiny_vectors.txt")


def _run(*argv):
    return main(list(argv))


def _run_query_ids(path):
    """Query ids of a run file, in order of first appearance."""
    return list(dict.fromkeys(line.split()[0] for line in path.read_text().splitlines()))


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """Workspace with index, labeled dataset, and static-method runs."""
    ws = tmp_path_factory.mktemp("cli_ws")
    out = ("--output-dir", str(ws))
    assert _run("index", "--set", f"corpus={CORPUS}", *out) == 0
    assert _run("label", "--workers", "1", "--set", f"topics={TOPICS}",
                "--set", f"qrels={QRELS}", "--embeddings", VECTORS, *out) == 0
    for method in ("qlm", "awe", "eqe1"):
        assert _run("expand", "--method", method, "--set", f"topics={TOPICS}",
                    "--embeddings", VECTORS, *out) == 0
    return ws


@pytest.fixture(scope="module")
def learn_ws(tmp_path_factory):
    """Workspace whose dataset has both good and bad labels, plus a model."""
    lw = tmp_path_factory.mktemp("cli_learn")
    out = ("--output-dir", str(lw))
    assert _run("index", "--set", f"corpus={CORPUS}", *out) == 0
    exs = []
    for qid, qterms, good, bad in [
        ("701", ["solar", "energy", "cost"], ["panel", "cheap"], ["coal", "wind"]),
        ("702", ["wind", "power"], ["turbine", "cheap"], ["coal", "solar"]),
    ]:
        for t in good:
            exs.append(LabeledExample(qid, qterms, t, Label.GOOD, 0.1))
        for t in bad:
            exs.append(LabeledExample(qid, qterms, t, Label.BAD, -0.1))
    LabeledDataset(exs).save_tsv(lw / "dataset.tsv")
    assert _run("train", "--embeddings", VECTORS, "--set", "hidden=4",
                "--set", "rep=4", "--set", "epochs=2", "--set", "pair_budget=16",
                "--set", "batch=8", *out) == 0
    return lw


def test_index_reports_and_rebuilds_identically(ws, tmp_path, capsys):
    rebuilt = tmp_path / "rebuild"
    assert _run("index", "--set", f"corpus={CORPUS}",
                "--output-dir", str(rebuilt)) == 0
    assert "indexed 8 documents, 40 terms, 50 tokens" in capsys.readouterr().out
    assert (rebuilt / "index.qxix").read_bytes() == (ws / "index.qxix").read_bytes()


def test_label_writes_dataset(ws):
    lines = (ws / "dataset.tsv").read_text().splitlines()
    assert lines[0].startswith("# {")
    assert len(lines) == 1 + 12
    ds = LabeledDataset.load_tsv(ws / "dataset.tsv")
    assert len(ds) == 12
    assert {ex.query_id for ex in ds.examples} == {"701", "702"}


def test_label_with_nothing_to_label_writes_an_empty_dataset(ws, tmp_path, capsys):
    topics = tmp_path / "topics.txt"
    topics.write_text("<top>\n<num> Number: 701\n<title> zebra quokka\n</top>\n")
    assert _run("label", "--workers", "1", "--set", f"index={ws / 'index.qxix'}",
                "--set", f"topics={topics}", "--set", f"qrels={QRELS}",
                "--embeddings", VECTORS, "--output-dir", str(tmp_path)) == 0
    out = capsys.readouterr().out
    assert "examples: 0 over 0 queries" in out and "oracle MAP: 0.0000" in out
    assert len(LabeledDataset.load_tsv(tmp_path / "dataset.tsv")) == 0


def test_train_on_an_empty_dataset_exits_1_naming_it(ws, tmp_path, capsys):
    topics = tmp_path / "topics.txt"
    topics.write_text("<top>\n<num> Number: 701\n<title> zebra quokka\n</top>\n")
    assert _run("label", "--workers", "1", "--set", f"index={ws / 'index.qxix'}",
                "--set", f"topics={topics}", "--set", f"qrels={QRELS}",
                "--embeddings", VECTORS, "--output-dir", str(tmp_path)) == 0
    capsys.readouterr()
    assert _run("train", "--embeddings", VECTORS, "--output-dir", str(tmp_path)) == 1
    err = capsys.readouterr().err
    assert f"{tmp_path / 'dataset.tsv'}: no labeled examples" in err
    assert "at least 2 encodable labeled examples" in err
    assert not (tmp_path / "model.qxdm").exists()


def test_expand_writes_parseable_runs(ws):
    for method in ("qlm", "awe", "eqe1"):
        assert _run_query_ids(ws / f"run_{method}.txt") == ["701", "702"]
    first = (ws / "run_qlm.txt").read_text().splitlines()[0].split()
    assert first[1] == "Q0" and first[3] == "1" and first[5] == "qlm"


def test_beta_one_collapses_every_method_to_qlm(ws, tmp_path):
    out = tmp_path / "beta1"
    for method in ("awe", "eqe1"):
        assert _run("expand", "--method", method, "--set", f"topics={TOPICS}",
                    "--embeddings", VECTORS, "--set", "beta=1", "--tag", "qlm",
                    "--set", f"index={ws / 'index.qxix'}",
                    "--output-dir", str(out)) == 0
        assert (out / f"run_{method}.txt").read_bytes() == \
            (ws / "run_qlm.txt").read_bytes()


def test_train_saves_model_and_history(learn_ws, capsys):
    assert (learn_ws / "model.qxdm").exists()
    lines = (learn_ws / "loss.csv").read_text().splitlines()
    assert lines[0] == "epoch,batch,loss"
    assert len(lines) > 1


def test_expand_dec_and_alpha_zero_matches_awe(learn_ws):
    out = ("--output-dir", str(learn_ws))
    common = ("--set", f"topics={TOPICS}", "--embeddings", VECTORS,
              "--set", "refset_size=4")
    assert _run("expand", "--method", "dec", *common, *out) == 0
    assert _run_query_ids(learn_ws / "run_dec.txt") == ["701", "702"]
    # with the classifier's influence switched off the run collapses to
    # the plain centroid expansion, byte for byte
    assert _run("expand", "--method", "dec", *common, "--set", "alpha=0",
                "--tag", "same", *out) == 0
    assert _run("expand", "--method", "awe", *common, "--tag", "same", *out) == 0
    assert (learn_ws / "run_dec.txt").read_bytes() == \
        (learn_ws / "run_awe.txt").read_bytes()


def test_eval_writes_reports(ws, capsys):
    out = ("--output-dir", str(ws))
    assert _run("eval", "--methods", "qlm, awe", "--set", f"topics={TOPICS}",
                "--set", f"qrels={QRELS}", "--embeddings", VECTORS,
                "--set", "folds=2", *out) == 0
    assert capsys.readouterr().out.startswith("method")
    report = (ws / "report.txt").read_text()
    assert report.splitlines()[0].split() == ["method", "MAP", "sig", "P@10", "RI"]
    assert len((ws / "report.tsv").read_text().splitlines()) == 3
    csv_lines = (ws / "per_query_ap.csv").read_text().splitlines()
    assert csv_lines[0] == "query_id,qlm,awe"
    assert len(csv_lines) == 3


@pytest.mark.parametrize("methods, bad", [
    ("qlm,bm25", "unknown method 'bm25'"), ("qlm,qlm", "method 'qlm' named twice"),
    ("qlm,", "unknown method ''")])
def test_eval_bad_methods_exit_2_before_reading_inputs(methods, bad, tmp_path, capsys):
    out = tmp_path / "out"
    # the inputs do not exist, so exit 2 shows that none was read
    with pytest.raises(SystemExit) as exc:
        _run("eval", "--methods", methods, "--set", f"topics={tmp_path / 'missing'}",
             "--output-dir", str(out))
    assert exc.value.code == 2
    assert bad in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("tag", ["my tag", "tab\tbed", " lead", "trail\n"])
def test_expand_tag_with_whitespace_exits_2_before_reading_inputs(tag, tmp_path, capsys):
    # a tag is the sixth column of a run line; whitespace in it adds columns
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        _run("expand", "--method", "qlm", "--tag", tag,
             "--set", f"topics={tmp_path / 'missing'}", "--output-dir", str(out))
    assert exc.value.code == 2
    assert f"run tag {tag!r} holds whitespace" in capsys.readouterr().err
    assert not out.exists()


def test_index_docno_with_whitespace_exits_2_naming_it(tmp_path, capsys):
    corpus = tmp_path / "corpus.sgml"
    corpus.write_text(Path(CORPUS).read_text().replace("D03", "AP 88"))
    assert _run("index", "--set", f"corpus={corpus}", "--output-dir", str(tmp_path)) == 2
    assert f"{corpus}: DOCNO 'AP 88' is empty or holds whitespace" in capsys.readouterr().err
    assert not (tmp_path / "index.qxix").exists()


def test_gradcheck_passes(capsys):
    assert _run("gradcheck") == 0
    out = capsys.readouterr().out
    assert "OK" in out and "max relative error" in out
    for name in ("fwd.W", "bwd.U", "repr.W", "cmp.b"):
        assert name in out


def test_config_file_drives_commands(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"corpus = {CORPUS}\noutput_dir = {tmp_path}\n")
    assert _run("index", "--config", str(cfg)) == 0
    assert (tmp_path / "index.qxix").exists()


def test_error_exit_codes(tmp_path, capsys):
    out = ("--output-dir", str(tmp_path))
    # config mistakes: exit 2 with a pointed message
    for key in ("turbo", "symmetric_compare"):
        assert _run("index", "--set", f"corpus={CORPUS}", "--set", f"{key}=1", *out) == 2
        assert f"unknown config key {key!r}" in capsys.readouterr().err
    assert _run("index", "--set", "corpus", *out) == 2
    assert "KEY=VALUE" in capsys.readouterr().err
    assert _run("index", *out) == 2
    assert "'corpus' is required" in capsys.readouterr().err
    # missing input files: exit 1
    assert _run("label", "--set", f"topics={TOPICS}", "--set", f"qrels={QRELS}",
                "--embeddings", VECTORS, *out) == 1
    assert "index.qxix" in capsys.readouterr().err
    # malformed input files: exit 2, naming the file
    (tmp_path / "index.qxix").write_bytes(b"QXIX")
    assert _run("label", "--set", f"topics={TOPICS}", "--set", f"qrels={QRELS}",
                "--embeddings", VECTORS, *out) == 2
    assert "index.qxix: truncated" in capsys.readouterr().err
    (tmp_path / "dataset.tsv").write_text("# [1, 2]\n")
    assert _run("train", "--embeddings", VECTORS, *out) == 2
    assert "dataset.tsv:1: metadata header is not a JSON object" in capsys.readouterr().err
    # argparse rejects unknown methods on its own
    with pytest.raises(SystemExit):
        _run("expand", "--method", "bm25", *out)


@pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("source", ["file", "env", "set", "flag"])
def test_non_finite_float_setting_exits_2(source, raw, ws, tmp_path, monkeypatch, capsys):
    argv = ["expand", "--method", "awe", "--set", f"index={ws / 'index.qxix'}",
            "--set", f"topics={TOPICS}", "--embeddings", VECTORS,
            "--output-dir", str(tmp_path)]
    if source == "file":
        (tmp_path / "run.cfg").write_text(f"mu = {raw}\n")
        argv += ["--config", str(tmp_path / "run.cfg")]
    elif source == "env":
        monkeypatch.setenv("QEXP_MU", raw)
    elif source == "set":
        argv += ["--set", f"mu={raw}"]
    else:
        argv += [f"--mu={raw}"]
    assert _run(*argv) == 2
    assert f"config key 'mu': '{raw}' is not a finite number" in capsys.readouterr().err
    assert not (tmp_path / "run_awe.txt").exists()


# One value outside each setting's range; the CLI sources pass it as str(value).
OUT_OF_RANGE = {"mu": -5.0, "depth": 0, "m": 0, "alpha": -1.0, "beta": 1.5,
                "pool_size": 0, "eps": -1.0, "lr": 0.0, "batch": 0, "epochs": 0,
                "seed": 2**64, "pair_budget": 7, "refset_size": 0, "hidden": 0,
                "rep": 0, "pooling": "max", "folds": 1, "workers": -1}
FLAGS = ("mu", "seed", "workers")


@pytest.mark.parametrize("key, source", [
    (key, source) for key in RANGES for source in ("file", "env", "set", "flag", "api")
    if source != "flag" or key in FLAGS])
def test_out_of_range_setting_exits_2_before_reading_inputs(key, source, tmp_path,
                                                            monkeypatch, capsys):
    value = OUT_OF_RANGE[key]
    if source == "api":
        with pytest.raises(ConfigError, match=f"{key} must be"):
            load_config(overrides={key: value})
        return
    out = tmp_path / "out"
    # a missing corpus would exit 1, so exit 2 shows that no input was read
    argv = ["index", "--set", f"corpus={tmp_path / 'missing.sgml'}", "--output-dir", str(out)]
    if source == "file":
        (tmp_path / "run.cfg").write_text(f"{key} = {value}\n")
        argv += ["--config", str(tmp_path / "run.cfg")]
    elif source == "env":
        monkeypatch.setenv(f"QEXP_{key.upper()}", str(value))
    elif source == "set":
        argv += ["--set", f"{key}={value}"]
    else:
        argv += [f"--{key}={value}"]
    assert _run(*argv) == 2
    assert f"{key} must be {RANGES[key][1]}, got " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("stage, setting", [
    ("label", "eps=-1"), ("label", "pool_size=0"), ("label", "depth=0"),
    ("label", "mu=-5"), ("train", "hidden=0"), ("train", "rep=0"),
    ("train", f"seed={2**64}"), ("train", "pair_budget=7")])
def test_stage_with_bad_setting_exits_2_and_writes_nothing(stage, setting, ws, learn_ws,
                                                           tmp_path, capsys):
    inputs = {"label": ("--set", f"index={ws / 'index.qxix'}", "--set", f"topics={TOPICS}",
                        "--set", f"qrels={QRELS}"),
              "train": ("--set", f"dataset={learn_ws / 'dataset.tsv'}")}[stage]
    assert _run(stage, *inputs, "--embeddings", VECTORS, "--set", setting,
                "--output-dir", str(tmp_path)) == 2
    assert f"{setting.split('=')[0]} must be" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("reader", ["dataset", "qrels", "embeddings", "config",
                                    "stopwords", "topics", "corpus"])
def test_non_utf8_input_exits_2_naming_file_and_line(reader, ws, tmp_path, capsys):
    name, first = {"dataset": ("dataset.tsv", b'# {"queries": {}}\n'),
                   "qrels": ("qrels.txt", b"701 0 D01 1\n"),
                   "embeddings": ("vectors.txt", b"solar 1 0\n"),
                   "config": ("run.cfg", b"seed = 1\n"),
                   "stopwords": ("stop.txt", b"the\n"),
                   "topics": ("topics.txt", b"<top>\n"),
                   "corpus": ("corpus.sgml", b"<DOC>\n")}[reader]
    bad = tmp_path / name
    bad.write_bytes(first + b"\xff\xfe 0 1\n")
    out = ("--output-dir", str(tmp_path))
    retrieval = ("--set", f"index={ws / 'index.qxix'}", "--set", f"topics={TOPICS}")
    argv = {"dataset": ("train", "--embeddings", VECTORS, *out),
            "qrels": ("label", *retrieval, "--set", f"qrels={bad}",
                      "--embeddings", VECTORS, *out),
            "embeddings": ("label", *retrieval, "--set", f"qrels={QRELS}",
                           "--embeddings", str(bad), *out),
            "config": ("gradcheck", "--config", str(bad)),
            "stopwords": ("index", "--set", f"corpus={CORPUS}",
                          "--set", f"stopwords={bad}", *out),
            "topics": ("expand", "--method", "qlm", "--set", f"index={ws / 'index.qxix'}",
                       "--set", f"topics={bad}", "--embeddings", VECTORS, *out),
            "corpus": ("index", "--set", f"corpus={bad}", *out)}[reader]
    assert _run(*argv) == 2
    assert f"{name}:2: line is not valid UTF-8" in capsys.readouterr().err
