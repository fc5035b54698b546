"""Every output file goes through collection.write_file: UTF-8, one-step replace."""

import ast
import os
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qexp
from qexp.classifier.checkpoint import save_model, write_loss_csv
from qexp.classifier.network import SiameseModel
from qexp.cli import main
from qexp.collection import write_file
from qexp.labeling import Label, LabeledDataset, LabeledExample
from qexp.retrieval import QueryModel, retrieve, write_run

FIXTURES = Path(__file__).parent / "fixtures"
TOPICS = str(FIXTURES / "mini_topics.txt")
QRELS = str(FIXTURES / "mini_qrels.txt")
VECTORS = str(FIXTURES / "tiny_vectors.txt")
SRC = Path(qexp.__file__).parent

# The five writers called directly, each writing one small file to `path`.
API_WRITES = {
    "index.qxix": lambda path, idx: idx.save(path),
    "model.qxdm": lambda path, idx: save_model(
        SiameseModel(3, 2, 2, np.random.default_rng(0)), path, 0),
    "loss.csv": lambda path, idx: write_loss_csv([(0, 0, 0.5)], path),
    "dataset.tsv": lambda path, idx: LabeledDataset(
        [LabeledExample("701", ["solar"], "panel", Label.GOOD, 0.1)]).save_tsv(path),
    "run.txt": lambda path, idx: write_run(
        [retrieve(QueryModel.from_terms("701", ["solar"]), idx)], path),
}
# The three files `qexp eval` writes.
EVAL_REPORTS = ("report.txt", "report.tsv", "per_query_ap.csv")


def _tmp_files(directory):
    return [p.name for p in directory.iterdir() if p.name.endswith(".tmp")]


@pytest.fixture(scope="module")
def eval_index(tmp_path_factory):
    out = tmp_path_factory.mktemp("write_eval")
    assert main(["index", "--set", f"corpus={FIXTURES / 'mini_corpus.sgml'}",
                 "--output-dir", str(out)]) == 0
    return out / "index.qxix"


@pytest.mark.parametrize("data, expected", [
    ("Ö\n", "Ö\n".encode()), (b"\x00\xff", b"\x00\xff"),
    (bytearray(b"ab"), b"ab"), (memoryview(b"cd"), b"cd"), ("", b"")])
def test_write_file_writes_utf8_text_or_bytes_and_replaces(tmp_path, data, expected):
    target = tmp_path / "out"
    target.write_bytes(b"earlier bytes, longer than any new content\n")
    write_file(target, data)
    assert target.read_bytes() == expected
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]


def test_write_file_error_while_writing_keeps_target_and_removes_temp(tmp_path):
    target = tmp_path / "out"
    target.write_bytes(b"earlier")
    with pytest.raises(TypeError):
        write_file(target, 12)
    assert target.read_bytes() == b"earlier"
    assert _tmp_files(tmp_path) == []


@pytest.mark.parametrize("name", [*API_WRITES, *EVAL_REPORTS])
def test_failed_write_keeps_the_earlier_file(name, tmp_path, monkeypatch, capsys,
                                             mini_index, eval_index):
    target = tmp_path / name
    target.write_bytes(b"earlier bytes\n")
    real_replace = os.replace

    def replace(src, dst):
        if Path(dst).name == name:
            raise OSError("injected replace failure")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    if name in API_WRITES:
        with pytest.raises(OSError, match="injected"):
            API_WRITES[name](target, mini_index)
    else:
        assert main(["eval", "--methods", "qlm", "--set", "folds=2",
                     "--set", f"index={eval_index}", "--set", f"topics={TOPICS}",
                     "--set", f"qrels={QRELS}", "--embeddings", VECTORS,
                     "--output-dir", str(tmp_path)]) == 1
        assert "error: injected replace failure" in capsys.readouterr().err
    assert target.read_bytes() == b"earlier bytes\n"
    assert _tmp_files(tmp_path) == []


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_new_file_mode_follows_the_umask(tmp_path, umask, mode):
    fresh, replaced = tmp_path / "fresh", tmp_path / "replaced"
    replaced.write_bytes(b"earlier")
    replaced.chmod(0o400)
    old = os.umask(umask)
    try:
        write_file(fresh, "x")
        write_file(replaced, b"y")
    finally:
        os.umask(old)
    # a replaced file is a new file: it takes the umask's mode, not the old one
    assert stat.S_IMODE(fresh.stat().st_mode) == mode
    assert stat.S_IMODE(replaced.stat().st_mode) == mode


def test_write_through_symlink_updates_its_target(tmp_path, mini_index):
    """Passes with a plain open() writer too; it pins that the link survives."""
    real = tmp_path / "runs" / "run.txt"
    real.parent.mkdir()
    real.write_text("earlier\n")
    link = tmp_path / "run.txt"
    link.symlink_to(real)
    API_WRITES["run.txt"](link, mini_index)
    assert link.is_symlink()
    assert real.read_text().startswith("701 Q0 ")
    assert _tmp_files(tmp_path) == [] and _tmp_files(real.parent) == []


def test_outputs_are_utf8_in_a_non_utf8_locale(tmp_path):
    corpus = tmp_path / "corpus.sgml"
    corpus.write_bytes(
        (FIXTURES / "mini_corpus.sgml").read_bytes().replace(b"D01", "DÖC1".encode()))
    topics = tmp_path / "topics.txt"
    topics.write_bytes(Path(TOPICS).read_bytes().replace(b"701", "7Ö1".encode()))
    qrels = tmp_path / "qrels.txt"
    qrels.write_bytes(Path(QRELS).read_bytes().replace(b"701", "7Ö1".encode())
                      .replace(b"D01", "DÖC1".encode()))
    pythonpath = [str(SRC.parent), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, PYTHONUTF8="0", LC_ALL="C", PYTHONCOERCECLOCALE="0",
               PYTHONPATH=os.pathsep.join(pythonpath))

    def qexp_cli(*argv):
        return subprocess.run([sys.executable, *argv], env=env, cwd=tmp_path,
                              capture_output=True, text=True, errors="replace")

    probe = qexp_cli("-c", "import locale; print(locale.getpreferredencoding(False))")
    assert probe.stdout.strip().lower() in ("ansi_x3.4-1968", "ascii", "us-ascii")
    common = ("--set", f"topics={topics}", "--set", f"qrels={qrels}",
              "--embeddings", VECTORS, "--output-dir", str(tmp_path))
    for argv in (("index", "--set", f"corpus={corpus}"),
                 ("expand", "--method", "qlm"), ("label", "--workers", "1")):
        done = qexp_cli("-m", "qexp.cli", *argv, *common)
        assert done.returncode == 0, done.stderr
    run = (tmp_path / "run_qlm.txt").read_bytes().decode("utf-8")
    assert run.startswith("7Ö1 Q0 ") and " DÖC1 " in run
    dataset = (tmp_path / "dataset.tsv").read_bytes().decode("utf-8")
    assert "\n7Ö1\t" in dataset
    assert "DÖC1".encode() in (tmp_path / "index.qxix").read_bytes()
    assert _tmp_files(tmp_path) == []


def _write_sites(tree):
    """(function, line) of every call that may write a file, by name and mode."""
    sites = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Call):
            callee = node.func
            name = getattr(callee, "id", getattr(callee, "attr", None))
            if name in ("write_text", "write_bytes"):
                sites.append((func, node.lineno))
            elif name == "open":
                # open(path, mode) and io/os-style x.open(path, mode); Path.open(mode)
                pos = 0 if isinstance(callee, ast.Attribute) and len(node.args) == 1 else 1
                modes = [*node.args[pos:pos + 1],
                         *(kw.value for kw in node.keywords if kw.arg == "mode")]
                for mode in modes:
                    # a mode that is not a literal cannot be shown to be read-only
                    if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                            and not set(mode.value) & set("wax+")):
                        sites.append((func, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return sites


def test_every_write_goes_through_write_file():
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        for func, line in _write_sites(ast.parse(path.read_text(encoding="utf-8"))):
            found.setdefault(f"{path.relative_to(SRC)}:{func}", []).append(line)
    assert list(found) == ["collection.py:write_file"], found
    assert len(found["collection.py:write_file"]) == 1
