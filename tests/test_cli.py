"""End-to-end command-line pipeline on the bundled miniature collection."""

from pathlib import Path

import pytest

from qexp.cli import main
from qexp.labeling import Label, LabeledDataset, LabeledExample
from qexp.retrieval import read_run

FIXTURES = Path(__file__).parent / "fixtures"
CORPUS = str(FIXTURES / "mini_corpus.sgml")
TOPICS = str(FIXTURES / "mini_topics.txt")
QRELS = str(FIXTURES / "mini_qrels.txt")
VECTORS = str(FIXTURES / "tiny_vectors.txt")


def _run(*argv):
    return main(list(argv))


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


def test_expand_writes_parseable_runs(ws):
    for method in ("qlm", "awe", "eqe1"):
        runs = read_run(ws / f"run_{method}.txt")
        assert [r.query_id for r in runs] == ["701", "702"]
        assert all(r.entries for r in runs)
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
    runs = read_run(learn_ws / "run_dec.txt")
    assert [r.query_id for r in runs] == ["701", "702"]
    # with the classifier's influence switched off the run collapses to
    # the plain centroid expansion, byte for byte
    assert _run("expand", "--method", "dec", *common, "--set", "alpha=0",
                "--tag", "same", *out) == 0
    assert _run("expand", "--method", "awe", *common, "--tag", "same", *out) == 0
    assert (learn_ws / "run_dec.txt").read_bytes() == \
        (learn_ws / "run_awe.txt").read_bytes()


def test_eval_writes_reports(ws, capsys):
    out = ("--output-dir", str(ws))
    assert _run("eval", "--methods", "qlm,awe", "--set", f"topics={TOPICS}",
                "--set", f"qrels={QRELS}", "--embeddings", VECTORS,
                "--set", "folds=2", *out) == 0
    assert capsys.readouterr().out.startswith("method")
    report = (ws / "report.txt").read_text()
    assert report.splitlines()[0].split() == ["method", "MAP", "sig", "P@10", "RI"]
    assert len((ws / "report.tsv").read_text().splitlines()) == 3
    csv_lines = (ws / "per_query_ap.csv").read_text().splitlines()
    assert csv_lines[0] == "query_id,qlm,awe"
    assert len(csv_lines) == 3


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


@pytest.mark.parametrize("reader", ["dataset", "qrels", "embeddings", "config",
                                    "stopwords"])
def test_non_utf8_input_exits_2_naming_file_and_line(reader, ws, tmp_path, capsys):
    name, first = {"dataset": ("dataset.tsv", b'# {"queries": {}}\n'),
                   "qrels": ("qrels.txt", b"701 0 D01 1\n"),
                   "embeddings": ("vectors.txt", b"solar 1 0\n"),
                   "config": ("run.cfg", b"seed = 1\n"),
                   "stopwords": ("stop.txt", b"the\n")}[reader]
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
                          "--set", f"stopwords={bad}", *out)}[reader]
    assert _run(*argv) == 2
    assert f"{name}:2: line is not valid UTF-8" in capsys.readouterr().err
