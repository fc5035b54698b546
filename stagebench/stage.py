"""The measured process: load one stage's inputs, run the stage, report.

    python3 stagebench/stage.py WORKLOAD WORKDIR T0 [--trace]

T0 is the parent's time.monotonic() just before this process was started;
set-up time runs from there until the stage's inputs are loaded. Timings,
peak RSS and (with --trace) the span summary go to WORKDIR/result.json.
"""

import os
import sys

# One BLAS thread, set before NumPy loads: the host has two shared cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402


def load_index_inputs(work, p):
    from qexp import collection
    return {"stop": collection.load_stopwords()}


def run_index(inp, work, p):
    from qexp import collection
    docs = collection.ingest_trec_docs(work / "corpus.sgml", inp["stop"])
    idx = collection.build_index(docs)
    idx.save(work / "index.qxix")


def load_label_inputs(work, p):
    from qexp import collection, embeddings
    stop = collection.load_stopwords()
    idx = collection.InvertedIndex.load(work / "index.qxix")
    topics = collection.load_topics(work / "topics.txt", stop)
    qrels = collection.load_qrels(work / "qrels.txt")
    keep = set(idx.vocabulary())
    for t in topics:
        keep.update(t.title_terms)
    table = embeddings.load_embeddings(work / "vectors.txt", restrict_to=keep)
    return {"stop": stop, "idx": idx, "topics": topics, "qrels": qrels,
            "table": table}


def run_label(inp, work, p):
    from qexp import labeling
    dataset = labeling.build_dataset(
        inp["topics"], inp["idx"], inp["qrels"], inp["table"],
        pool_size=p["pool_size"], eps=p["eps"], mu=p["mu"], depth=p["depth"],
        stopwords=inp["stop"], workers=1)
    dataset.save_tsv(work / "dataset_out.tsv")


def load_train_inputs(work, p):
    from qexp import embeddings, labeling
    dataset = labeling.LabeledDataset.load_tsv(work / "dataset.tsv")
    keep = {t for ex in dataset.examples for t in ex.query_terms}
    keep.update(ex.candidate_term for ex in dataset.examples)
    table = embeddings.load_embeddings(work / "vectors.txt", restrict_to=keep)
    return {"dataset": dataset, "table": table}


def run_train(inp, work, p):
    from qexp.classifier import checkpoint, training
    cfg = training.TrainConfig(learning_rate=p["lr"], batch_size=p["batch"],
                               epochs=p["epochs"], seed=p["seed"],
                               pair_budget=p["pair_budget"])
    model, history = training.train(inp["dataset"], inp["table"], cfg,
                                    hidden=p["hidden"], rep=p["rep"])
    checkpoint.save_model(model, work / "model.qxdm", p["seed"])
    checkpoint.write_loss_csv(history, work / "loss.csv")
    return model


def load_eval_inputs(work, p):
    from qexp import labeling
    inp = load_label_inputs(work, p)
    inp["dataset"] = labeling.LabeledDataset.load_tsv(work / "dataset.tsv")
    return inp


def run_eval(inp, work, p):
    from qexp import experiment
    from qexp.classifier.training import TrainConfig
    from qexp.expansion import ExpansionConfig
    tcfg = TrainConfig(learning_rate=p["lr"], batch_size=p["batch"],
                       epochs=p["epochs"], seed=p["seed"],
                       pair_budget=p["pair_budget"])
    result = experiment.cross_validate(
        inp["topics"], inp["idx"], inp["qrels"], inp["table"], inp["dataset"],
        methods=p["methods"], folds=p["folds"], seed=p["seed"],
        expansion_cfg=ExpansionConfig(p["m"], p["alpha"], p["beta"], p["pool_size"]),
        train_cfg=tcfg, refset_size=p["refset_size"], hidden=p["hidden"],
        rep=p["rep"], stopwords=inp["stop"], mu=p["mu"], depth=p["depth"])
    (work / "report.txt").write_text(experiment.format_report(result))
    (work / "report.tsv").write_text(experiment.report_tsv(result))
    (work / "per_query_ap.csv").write_text(experiment.per_query_csv(result))


STAGES = {
    "index": (load_index_inputs, run_index),
    "label": (load_label_inputs, run_label),
    "train": (load_train_inputs, run_train),
    "eval": (load_eval_inputs, run_eval),
}


def main(argv):
    workload, work, t0 = argv[0], Path(argv[1]), float(argv[2])
    traced = "--trace" in argv[3:]
    params = json.loads((work / "params.json").read_text())[workload]
    load, run = STAGES[workload]

    import qexp.cli  # noqa: F401  (importing the package is set-up time)
    tracer = None
    if traced:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    inputs = load(work, params)
    t_loaded = time.monotonic()
    out = run(inputs, work, params)
    t_done = time.monotonic()

    result = {
        "setup_s": t_loaded - t0,
        "wall_s": t_done - t_loaded,
        # ru_maxrss is in KiB on Linux; the metric is in MB (1e6 bytes).
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
    if workload == "train":
        # The in-memory parameters, for the checkpoint round-trip check.
        import numpy as np
        np.savez(work / "params_in_memory.npz", **out.params)
    (work / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
