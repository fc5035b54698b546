"""Byte-identity pin: the command-line outputs of two fixed flows on the
bundled fixtures must keep the sha256 they had when recorded.

A refactor that moves one byte of an index, dataset, checkpoint, run file or
report fails here. A change that alters outputs on purpose records the new
digests in the same change and says why. The digests hold for a given
NumPy/BLAS build: float kernels that round differently change them.
"""

import hashlib
from pathlib import Path

from qexp.cli import main
from qexp.labeling import Label, LabeledDataset, LabeledExample

FIXTURES = Path(__file__).parent / "fixtures"
CORPUS = str(FIXTURES / "mini_corpus.sgml")
TOPICS = str(FIXTURES / "mini_topics.txt")
QRELS = str(FIXTURES / "mini_qrels.txt")
VECTORS = str(FIXTURES / "tiny_vectors.txt")
RETRIEVAL = ("--set", f"topics={TOPICS}", "--embeddings", VECTORS)
EVAL = (*RETRIEVAL, "--set", f"qrels={QRELS}", "--set", "folds=2")
TRAIN = ("--set", "hidden=4", "--set", "rep=4", "--set", "epochs=2",
         "--set", "pair_budget=16", "--set", "batch=8")

QUICK_START = {
    "index.qxix":
        "a56c874c43dc8926a941261f7eb0cc580fbfe4ea39a449a2e27c335177d85e93",
    "dataset.tsv":
        "59d964e08396990f920c647f367395dbb45c704a1681367364868890f1f8a81f",
    "run_qlm.txt":
        "db13cbf2a374c1a6adf7d26eb6641b1f65af0f57235e2414f450d92105a68530",
    "run_awe.txt":
        "bcb248876d3096e599d1c99bb8418bb4f9f6632a4cdd93ab7640035ca8db5b68",
    "run_eqe1.txt":
        "3c36a26eec155aeb0fa86ad37ecca9fea5104ccdcb5a2d199ad9fd40e742700f",
    "report.txt":
        "abf100d7cfc3d8969f6e79ddc8264f4a2924fc3273c8d1ce36adb8d8fd95a0e0",
    "report.tsv":
        "3dd1fb57c202c9b1598d4b1a61d2f6aa9d35d196f99b75a7da370f6e21b1d4d4",
    "per_query_ap.csv":
        "c73c3f604826b6dbe426bdf855eae4e09bcdc2bde6fc2b73b4525fb926266bdc",
}
LEARN = {
    "model.qxdm":
        "298b566797c8d7bd5d50b3aa3ea0b17378bcc3f95e6c7485d6f9ba73de572265",
    "loss.csv":
        "f73f2cc0e154e3a7bb03e0f31a7c93958a3b2fba46b10b2b763ba3b5207f860d",
    "run_dec.txt":
        "171ee9348d59dd3c686ed90900f4400581a774014f4e8452b188b9a8b1e8a738",
    "report.txt":
        "f167f2d7725f1fcc0160839ba1295f7fb4b18333b21149534a880d8318d56c83",
    "report.tsv":
        "0592c5fcd72bdc13ab4d910c7bccbf0c99f8b6d934be4a3071387882703ed5d3",
    "per_query_ap.csv":
        "3d51eb6ae32e3c5fbab66fd4e4f211f194a115cb0a6a74e2c753701e801a7913",
}


def _run(*argv):
    assert main(list(argv)) == 0, argv


def _digests(out: Path, names) -> dict[str, str]:
    return {n: hashlib.sha256((out / n).read_bytes()).hexdigest() for n in names}


def quick_start(out: Path) -> dict[str, str]:
    """The README quick start, plus the eqe1 run."""
    o = ("--output-dir", str(out))
    _run("index", "--set", f"corpus={CORPUS}", *o)
    _run("label", "--workers", "1", "--set", f"topics={TOPICS}",
         "--set", f"qrels={QRELS}", "--embeddings", VECTORS, *o)
    for method in ("qlm", "awe", "eqe1"):
        _run("expand", "--method", method, *RETRIEVAL, *o)
    _run("eval", "--methods", "qlm,awe", *EVAL, *o)
    return _digests(out, QUICK_START)


def learn(out: Path) -> dict[str, str]:
    """Train on a hand-labeled dataset, then run and cross-validate dec."""
    o = ("--output-dir", str(out))
    _run("index", "--set", f"corpus={CORPUS}", *o)
    exs = []
    for qid, qterms, good, bad in [
        ("701", ["solar", "energy", "cost"], ["panel", "cheap"], ["coal", "wind"]),
        ("702", ["wind", "power"], ["turbine", "cheap"], ["coal", "solar"]),
    ]:
        exs += [LabeledExample(qid, qterms, t, Label.GOOD, 0.1) for t in good]
        exs += [LabeledExample(qid, qterms, t, Label.BAD, -0.1) for t in bad]
    LabeledDataset(exs).save_tsv(out / "dataset.tsv")
    _run("train", "--embeddings", VECTORS, *TRAIN, *o)
    _run("expand", "--method", "dec", *RETRIEVAL, "--set", "refset_size=4", *o)
    _run("eval", "--methods", "qlm,awe,eqe1,dec", *EVAL, *TRAIN,
         "--set", "refset_size=4", *o)
    return _digests(out, LEARN)


def test_quick_start_outputs_are_byte_identical(tmp_path):
    assert quick_start(tmp_path) == QUICK_START


def test_classifier_flow_outputs_are_byte_identical(tmp_path):
    assert learn(tmp_path) == LEARN
