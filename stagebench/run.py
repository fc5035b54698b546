"""Stage benchmark for qexp: index, label, train and eval.

    python3 stagebench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 stagebench/run.py --smoke
    python3 stagebench/run.py --workload NAME [--seed N] --inputs-only

Run from the repository root. Each run generates its inputs from the seed,
then starts the measured stage (stagebench/stage.py) in a fresh process,
round after round, until --seconds have passed, and reports the median round.
The outputs of every round must be identical, and those of the last round
are checked against reference computations. The last line of standard
output is one JSON object: correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced and
traced rounds and reports the per-layer metrics plus the tracing overhead.
--smoke runs every workload at tiny sizes, traced and untraced, in seconds.
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import gen  # noqa: E402
import reference as ref  # noqa: E402
from spans import SITES, layer_of  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".stagebench"
WORKLOADS = ("index", "label", "train", "eval")
DEFAULT_SEED = 1
MIN_ROUNDS = 3
# A run ends within 180 s: rounds stop early enough to leave time for checks.
ROUNDS_DEADLINE_S = 140

# Input sizes per workload; label and eval share one collection.
SIZES = {
    "index": gen.Sizes(docs=5000, doc_len=150, vocab=20000, topics=4,
                       frequent_topics=2),
    "label": gen.Sizes(docs=1200),
    "train": gen.Sizes(extra_vectors=3000),
    "eval": gen.Sizes(docs=1200),
}
SMOKE_SIZES = {
    "index": gen.Sizes(docs=150, doc_len=40, vocab=800, topics=3,
                       frequent_topics=1, neutral_docs=5, dim=16),
    "label": gen.Sizes(docs=150, doc_len=40, vocab=800, topics=4,
                       frequent_topics=2, neutral_docs=5, dim=16),
    "train": gen.Sizes(dim=16, train_queries=12, heldout_queries=4),
    "eval": gen.Sizes(docs=150, doc_len=40, vocab=800, topics=4,
                      frequent_topics=2, neutral_docs=5, dim=16),
}

# Stage settings; everything not named here is the program's default.
PARAMS = {
    "index": {"mu": 1000.0, "depth": 1000},
    "label": {"pool_size": 20, "eps": gen.EPS, "mu": 1000.0, "depth": 1000},
    "train": {"lr": 0.001, "batch": 32, "epochs": 2, "seed": 0,
              "pair_budget": 1024, "hidden": 200, "rep": 400},
    "eval": {"methods": ["qlm", "awe", "eqe1", "dec"], "folds": 2, "seed": 0,
             "m": 10, "alpha": 1.0, "beta": 0.5, "pool_size": 1000,
             "lr": 0.001, "batch": 32, "epochs": 1, "pair_budget": 256,
             "refset_size": 40, "hidden": 200, "rep": 400,
             "mu": 1000.0, "depth": 1000},
}
SMOKE_PARAMS = {
    "train": {"epochs": 4, "pair_budget": 256, "hidden": 16, "rep": 16,
              "lr": 0.01},
    "eval": {"refset_size": 8, "hidden": 8, "rep": 8, "pair_budget": 64},
}

# Metric names and units come from BENCHMARK.json, the one list of them.
# A per-layer "<span>_s" or "<span>_calls" reads the span of that name and
# "<layer>.self_s" the layer's self time; the rest are computed in
# layer_metrics.
_BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = [(m["name"], m["unit"]) for m in _BENCH["end_to_end"]]
PER_LAYER = [(m["name"], m["unit"]) for m in _BENCH["per_layer"]]


# --- inputs ----------------------------------------------------------------


def make_inputs(workload, seed, sizes, work):
    """Write the workload's input files into work; return the generator's truth."""
    if workload == "train":
        rows, heldout, vectors = gen.make_train_world(seed, sizes)
        gen.write_dataset(work / "dataset.tsv", rows)
        gen.write_vectors(work / "vectors.txt", vectors)
        return {"heldout": heldout, "vectors": gen.read_vectors(work / "vectors.txt")}
    col = gen.make_collection(seed, sizes)
    gen.write_corpus(work / "corpus.sgml", col.docs)
    gen.write_topics(work / "topics.txt", col.topics)
    gen.write_qrels(work / "qrels.txt", col.judged)
    if workload != "index":
        gen.write_vectors(work / "vectors.txt", col.vectors)
    if workload == "eval":
        gen.write_dataset(work / "dataset.tsv", gen.planted_dataset(col))
    return {"col": col, "corpus": ref.Corpus(col.docs)}


def heldout_pairs(sizes):
    """(ordered pairs of held-out examples, different-class ones fed good-first)."""
    good = gen.PER_CLASS * sizes.heldout_queries
    n = 2 * good
    return n * (n - 1), good * good


def items_of(workload, truth, params):
    """The workload's unit of work, counted from the inputs alone."""
    if workload == "index":
        return len(truth["col"].docs)
    if workload == "label":
        return len(truth["col"].topics) * params["pool_size"]
    if workload == "train":
        return params["pair_budget"] * params["epochs"]
    return len(truth["col"].topics) * len(params["methods"])


# --- the measured process ----------------------------------------------------


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_stage(workload, work, deadline, traced=False):
    """One round in a fresh process; returns its result dict or raises."""
    (work / "result.json").unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "stage.py"), workload, str(work)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd + [repr(t0)] + (["--trace"] if traced else []),
                          env=child_env(), capture_output=True, text=True,
                          timeout=max(1.0, deadline - t0))
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} stage exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    return json.loads((work / "result.json").read_text())


def output_files(workload):
    return {"index": ["index.qxix"], "label": ["dataset_out.tsv"],
            "train": ["model.qxdm", "loss.csv"],
            "eval": ["report.txt", "report.tsv", "per_query_ap.csv"]}[workload]


def digest(work, workload):
    h = hashlib.sha256()
    for name in output_files(workload):
        h.update((work / name).read_bytes())
    return h.hexdigest()


def measure(workload, work, seconds, trace, deadline):
    """Whole rounds for about `seconds`: a round starts only if, at the pace of
    the last one, it ends in time. At least MIN_ROUNDS rounds, unless the
    deadline comes first; with trace, untraced and traced rounds alternate,
    at least two of each."""
    rounds, errors, digests = [], [], set()
    start = time.monotonic()
    while True:
        traced = trace and len(rounds) % 2 == 1
        t_round = time.monotonic()
        try:
            res = run_stage(workload, work, deadline, traced)
            res["traced"] = traced
            rounds.append(res)
            digests.add(digest(work, workload))
        except (RuntimeError, subprocess.TimeoutExpired, OSError,
                ValueError) as exc:
            errors.append(str(exc))
            rounds.append(None)
        now = time.monotonic()
        enough = len(rounds) >= (4 if trace else MIN_ROUNDS)
        if enough and now - start + (now - t_round) > seconds \
                or now + (now - t_round) > deadline:
            return rounds, errors, digests


# --- checks ------------------------------------------------------------------


def import_package():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import qexp.cli  # noqa: F401


def check_index(work, truth, params):
    from qexp.collection import InvertedIndex
    from qexp.retrieval import QueryModel, retrieve
    col, corpus = truth["col"], truth["corpus"]
    fails = []
    idx = InvertedIndex.load(work / "index.qxix")
    if idx.num_docs != len(col.docs):
        fails.append(f"doc count {idx.num_docs} != {len(col.docs)}")
    if idx.total_tokens != corpus.total:
        fails.append(f"token total {idx.total_tokens} != {corpus.total}")
    if len(idx.vocabulary()) != len(corpus.cf):
        fails.append(f"vocabulary {len(idx.vocabulary())} != {len(corpus.cf)}")
    bad = [t for t in corpus.cf if idx.collection_prob(t) != corpus.cf[t] / corpus.total]
    if bad:
        fails.append(f"{len(bad)} collection probabilities differ, e.g. {bad[0]}")
    bad = [d for d in col.docs if idx.doc_length(d) != corpus.length[d]]
    if bad:
        fails.append(f"{len(bad)} document lengths differ, e.g. {bad[0]}")
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        idx.save(Path(tmp) / "again.qxix")
        if (Path(tmp) / "again.qxix").read_bytes() != (work / "index.qxix").read_bytes():
            fails.append("re-saving the loaded index changed its bytes")
    for qid, title in col.topics:
        weights = {t: 1.0 for t in title}
        weights[col.planted[qid]["good"][0]] = 0.5
        got = retrieve(QueryModel(qid, weights), idx, params["mu"], params["depth"])
        want = corpus.rank(weights, params["mu"], params["depth"])
        if got.entries != want:
            fails.append(f"query {qid}: ranking differs from brute force")
    return fails


def read_dataset(path):
    with open(path) as f:
        meta = json.loads(f.readline()[1:])
        rows = [line.rstrip("\n").split("\t") for line in f if line.strip()]
    return meta, [(q, t, lab, float(d)) for q, t, lab, d in rows]


def check_label(work, truth, params):
    col, corpus = truth["col"], truth["corpus"]
    mu, depth, eps = params["mu"], params["depth"], params["eps"]
    fails = []
    meta, rows = read_dataset(work / "dataset_out.tsv")
    if meta.get("eps") != eps:
        fails.append(f"dataset eps {meta.get('eps')} != {eps}")
    if len(rows) != items_of("label", truth, params):
        fails.append(f"{len(rows)} labeled candidates, expected "
                     f"{items_of('label', truth, params)}")
    wrong = [r for r in rows if r[2] != ref.label_of(r[3], eps)]
    if wrong:
        fails.append(f"{len(wrong)} labels disagree with their ap_delta, e.g. {wrong[0]}")
    labels = {r[2] for r in rows}
    if not {"good", "bad"} <= labels:
        fails.append(f"labels seen: {sorted(labels)}; need good and bad")
    by_topic = {}
    for r in rows:
        by_topic.setdefault(r[0], []).append(r)
    sampled_frequent = False
    for qid, title in col.topics:
        cands = by_topic.get(qid, [])
        if not cands:
            fails.append(f"topic {qid}: no labeled candidates")
            continue
        rel = col.relevant[qid]
        base_w = {}
        for t in title:
            base_w[t] = base_w.get(t, 0.0) + 1.0
        base = ref.average_precision([d for d, _ in corpus.rank(base_w, mu, depth)],
                                     rel, depth)
        for _, term, label, delta in dict.fromkeys(
                (cands[0], cands[len(cands) // 2], cands[-1])):
            w = dict(base_w)
            w[term] = w.get(term, 0.0) + 1.0
            ap = ref.average_precision([d for d, _ in corpus.rank(w, mu, depth)],
                                       rel, depth)
            if abs((ap - base) - delta) > 1e-12 or ref.label_of(ap - base, eps) != label:
                fails.append(f"topic {qid} term {term}: ap_delta {delta!r} label "
                             f"{label}, brute force {ap - base!r}")
            sampled_frequent |= qid in col.frequent
    if col.frequent and not sampled_frequent:
        fails.append("no frequent-term topic was sampled")
    return fails


def check_train(work, truth, params):
    from qexp.classifier.checkpoint import load_model
    from qexp.classifier.network import PARAM_ORDER, SAME_CLASS
    fails = []
    with open(work / "loss.csv") as f:
        next(f)
        losses = [float(line.split(",")[2]) for line in f if line.strip()]
    batches = params["epochs"] * math.ceil(params["pair_budget"] / params["batch"])
    if len(losses) != batches:
        fails.append(f"{len(losses)} batch losses, expected {batches}")
    if not all(math.isfinite(x) for x in losses):
        fails.append("non-finite batch loss")
    tail = losses[-max(1, len(losses) // 10):]
    tail_mean = sum(tail) / len(tail)
    if not (tail_mean < losses[0] and tail_mean < math.log(2.0)):
        fails.append(f"loss did not fall: first {losses[0]:.4f}, "
                     f"last tenth {tail_mean:.4f}, ln 2 {math.log(2.0):.4f}")

    model, seed = load_model(work / "model.qxdm")
    saved = np.load(work / "params_in_memory.npz")
    if seed != params["seed"]:
        fails.append(f"checkpoint seed {seed} != {params['seed']}")
    for name in PARAM_ORDER:
        if not np.array_equal(model.params[name], saved[name]):
            fails.append(f"checkpoint tensor {name} differs from the trained one")

    # Held-out pairs: every ordered pair of distinct held-out examples. The
    # compare head sees rep_left - rep_right and training feeds
    # different-class pairs bad-first only, so a different-class pair fed
    # good-first, as p_good feeds a good candidate against a bad reference,
    # is judged "same". Those misjudged pairs are counted as failed
    # operations; accuracy over all the other pairs must reach 0.9.
    vec = truth["vectors"]
    held = truth["heldout"]
    reps = np.stack([model.encode(np.array([vec[t] for t in title] + [vec[term]]))
                     for _, title, term, _, _ in held])
    labels = np.array([label for *_, label, _ in held])
    li, ri = np.nonzero(~np.eye(len(held), dtype=bool))
    same = model.compare_probs(reps[li], reps[ri])[:, SAME_CLASS] >= 0.5
    truly = labels[li] == labels[ri]
    good_first = ~truly & (labels[li] == "good")
    right = same == truly
    truth["heldout_failed"] = int(np.sum(~right & good_first))
    acc = float(np.mean(right[~good_first]))
    truth["note"] = (f"held-out pair accuracy {float(np.mean(right)):.3f} over all "
                     f"ordered pairs, {acc:.3f} without good-first different-class "
                     f"pairs ({truth['heldout_failed']} of {int(good_first.sum())} "
                     f"of those misjudged)")
    if acc < 0.9:
        fails.append(f"held-out pair accuracy {acc:.3f} < 0.9 on the pairs not "
                     f"fed good-first across classes")
    return fails


def check_eval(work, truth, params):
    col, corpus = truth["col"], truth["corpus"]
    mu, depth = params["mu"], params["depth"]
    methods = params["methods"]
    fails = []

    lines = (work / "per_query_ap.csv").read_text().splitlines()
    if lines[0].split(",") != ["query_id"] + methods:
        fails.append(f"per_query_ap.csv header {lines[0]!r}")
        return fails
    per_query = {}
    for line in lines[1:]:
        qid, *vals = line.split(",")
        per_query[qid] = dict(zip(methods, map(float, vals)))
    if sorted(per_query) != sorted(q for q, _ in col.topics):
        fails.append(f"per-query rows for {sorted(per_query)}")
    qlm_p10 = []
    for qid, title in col.topics:
        if qid not in per_query:
            continue
        w = {}
        for t in title:
            w[t] = w.get(t, 0.0) + 1.0
        w = {t: 1.0 * (c / len(title)) for t, c in w.items()}
        ranked = [d for d, _ in corpus.rank(w, mu, depth)]
        qlm_p10.append(ref.precision_at_10(ranked, col.relevant[qid]))
        want = ref.average_precision(ranked, col.relevant[qid], depth)
        if abs(per_query[qid]["qlm"] - want) > 1e-12:
            fails.append(f"topic {qid}: qlm AP {per_query[qid]['qlm']!r} != "
                         f"brute force {want!r}")
    for qid, aps in per_query.items():
        if not all(0.0 <= v <= 1.0 for v in aps.values()):
            fails.append(f"topic {qid}: AP outside [0, 1]: {aps}")

    rows = (work / "report.tsv").read_text().splitlines()
    if rows[0].split("\t") != ["method", "map", "p10", "ri", "sig"]:
        fails.append(f"report.tsv header {rows[0]!r}")
        return fails
    table = {}
    for row in rows[1:]:
        method, map_s, p10_s, ri_s, sig = row.split("\t")
        table[method] = (float(map_s), float(p10_s), float(ri_s) if ri_s else None, sig)
    if list(table) != methods:
        fails.append(f"report.tsv methods {list(table)}")
        return fails
    for method, (map_v, p10, ri, sig) in table.items():
        mean_ap = sum(per_query[q][method] for q in per_query) / len(per_query)
        if abs(map_v - mean_ap) > 1e-12:
            fails.append(f"{method}: MAP {map_v!r} != mean per-query AP {mean_ap!r}")
        if not 0.0 <= p10 <= 1.0:
            fails.append(f"{method}: P@10 {p10} outside [0, 1]")
        if ri is not None and not -1.0 <= ri <= 1.0:
            fails.append(f"{method}: RI {ri} outside [-1, 1]")
        if (ri is None) != (method == "qlm"):
            fails.append(f"{method}: RI column {ri!r}")
    if abs(table["qlm"][1] - sum(qlm_p10) / len(qlm_p10)) > 1e-12:
        fails.append(f"qlm P@10 {table['qlm'][1]!r} != brute force "
                     f"{sum(qlm_p10) / len(qlm_p10)!r}")
    truth["note"] = "MAP " + " ".join(f"{m}={v[0]:.4f}" for m, v in table.items())
    if not table["awe"][0] > table["qlm"][0]:
        fails.append(f"awe MAP {table['awe'][0]:.4f} not above qlm "
                     f"{table['qlm'][0]:.4f}; the planted synonyms guarantee it")

    text = (work / "report.txt").read_text().splitlines()
    body = [ln.split() for ln in text[2:2 + len(methods)]]
    if text[0].split() != ["method", "MAP", "sig", "P@10", "RI"] or \
            [r[0] for r in body] != methods or any(len(r) != 5 for r in body):
        fails.append("report.txt does not parse as the method table")
    else:
        for r in body:
            if abs(float(r[1]) - table[r[0]][0]) > 5e-5:
                fails.append(f"report.txt MAP {r[1]} for {r[0]} disagrees with report.tsv")
    return fails


CHECKS = {"index": check_index, "label": check_label, "train": check_train,
          "eval": check_eval}


# --- per-layer report --------------------------------------------------------


# Computed per-layer metrics that read the hooks of one span.
DERIVED_FROM = {
    "collection.index_resident_mb": "collection.load",
    "retrieval.docs_scored": "retrieval.retrieve",
    "retrieval.query_terms": "retrieval.retrieve",
    "classifier.training.pairs": "classifier.pairs.generate",
    "classifier.training.batches": "classifier.training.adam",
}


def layer_metrics(workload, work, truth, traced_rounds, untraced_rounds):
    """Per-layer values from the traced rounds: medians of times, counts as is."""
    summaries = [r["trace"] for r in traced_rounds]
    last = summaries[-1]
    absent = set(last["absent"])
    corpus = truth.get("corpus")

    def span_value(span, field):
        vals = [s["spans"].get(span, {}).get(field, 0) for s in summaries]
        return statistics.median(vals) if field != "calls" else vals[-1]

    special = {
        "collection.postings": corpus.postings if corpus else 0,
        "collection.index_file_mb": ((work / "index.qxix").stat().st_size / 1e6
                                     if corpus else 0.0),
        "collection.index_resident_mb": statistics.median(
            s["index_resident_mb"] for s in summaries),
        "retrieval.docs_scored": sum(
            len(corpus.matching_docs({t: 1.0 for t in terms}))
            for terms in last["retrieve_terms"]) if corpus else 0,
        "retrieval.query_terms": sum(len(t) for t in last["retrieve_terms"]),
        "classifier.training.pairs": last["pairs"],
        "classifier.training.batches": span_value("classifier.training.adam", "calls"),
    }
    if workload == "label":
        _, rows = read_dataset(work / "dataset_out.tsv")
        special["labeling.queries"] = len({r[0] for r in rows})
        special["labeling.candidates"] = len(rows)
    else:
        special["labeling.queries"] = special["labeling.candidates"] = 0
    untraced = statistics.median(r["wall_s"] for r in untraced_rounds)
    traced = statistics.median(r["wall_s"] for r in traced_rounds)
    special.update({
        "trace.untraced_wall_s": untraced,
        "trace.traced_wall_s": traced,
        "trace.overhead_s": traced - untraced,
        "trace.overhead_pct": 100.0 * (traced - untraced) / untraced,
    })

    layers = {layer_of(name) for name in SITES}
    metrics = {}
    for name, unit in PER_LAYER:
        stem, _, kind = name.rpartition("_")
        if name in special:
            value = None if DERIVED_FROM.get(name) in absent else special[name]
        elif name.endswith(".self_s") and name[:-len(".self_s")] in layers:
            value = statistics.median(
                s["layer_self_s"].get(name[:-len(".self_s")], 0.0) for s in summaries)
        elif kind == "s" and stem in SITES:
            value = None if stem in absent else span_value(stem, "total_s")
        elif kind == "calls" and stem in SITES:
            value = None if stem in absent else span_value(stem, "calls")
        else:
            raise KeyError(f"per-layer metric {name} has no source")
        metrics[name] = {"value": value, "unit": unit}
        if value is None:
            metrics[name]["absent"] = True
    return metrics


# --- one run -----------------------------------------------------------------


def params_for(smoke):
    return {w: dict(p, **(SMOKE_PARAMS.get(w, {}) if smoke else {}))
            for w, p in PARAMS.items()}


def run_workload(workload, seed, seconds, trace, smoke=False):
    sizes = (SMOKE_SIZES if smoke else SIZES)[workload]
    params = params_for(smoke)
    work = WORK / (f"{workload}-smoke" if smoke else workload)
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    (work / "params.json").write_text(json.dumps(params))

    t_gen = time.monotonic()
    deadline = t_gen + ROUNDS_DEADLINE_S
    truth = make_inputs(workload, seed, sizes, work)
    print(f"# {workload}: inputs from seed {seed} in {time.monotonic() - t_gen:.1f} s")
    items = items_of(workload, truth, params[workload])
    try:
        if workload in ("label", "eval"):
            run_stage("index", work, deadline)  # made by the code under test
        else:
            subprocess.run([sys.executable, "-c", "import qexp.cli"], env=child_env(),
                           check=True, timeout=deadline - time.monotonic())
    except (RuntimeError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"# preparation failed: {exc}")
        return {"correct": False, "attempted": items, "failed": items, "metrics": {}}

    rounds, errors, digests = measure(workload, work, seconds, trace, deadline)
    ok_rounds = [r for r in rounds if r is not None]
    for err in errors:
        print(f"# round failed: {err}")

    fails = []
    if not ok_rounds:
        fails.append("no round completed")
    else:
        if len(digests) != 1:
            fails.append(f"rounds wrote {len(digests)} different outputs")
        try:
            import_package()
            fails += CHECKS[workload](work, truth, params[workload])
        except Exception:  # a check that cannot run has failed; say why
            fails.append("check raised:\n" + traceback.format_exc())
    for f in fails:
        print(f"# CHECK FAILED ({workload}): {f}")
    # A round attempts its items and, on train, the held-out pair judgments.
    # Every round writes the same model (checked above), so the judgments on
    # the last round's model stand for each round's.
    judged = heldout_pairs(sizes)[0] if workload == "train" else 0
    attempted = (items + judged) * len(rounds)
    failed = ((items + judged) * (len(rounds) - len(ok_rounds))
              + truth.get("heldout_failed", 0) * len(ok_rounds))

    untraced = [r for r in ok_rounds if not r["traced"]]
    traced = [r for r in ok_rounds if r["traced"]]
    for kind, rs in (("untraced", untraced), ("traced", traced)):
        if rs:
            print(f"# {kind} rounds: setup_s "
                  + " ".join(f"{r['setup_s']:.3f}" for r in rs)
                  + " | wall_s " + " ".join(f"{r['wall_s']:.3f}" for r in rs))
    metrics = {}
    if trace and traced and untraced:
        summary = traced[-1]["trace"]
        if summary["absent"] or summary["missing_sites"]:
            print(f"# absent spans: {summary['absent']}; lookup sites gone: "
                  f"{summary['missing_sites']}")
        metrics = layer_metrics(workload, work, truth, traced, untraced)
    elif not trace and untraced:
        wall = statistics.median(r["wall_s"] for r in untraced)
        values = {
            "setup_s": statistics.median(r["setup_s"] for r in untraced),
            "wall_s": wall,
            "items_per_s": items / wall,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
    print(f"# {workload}: {len(ok_rounds)} rounds of {items} items "
          f"({len(traced)} traced), checks {'passed' if not fails else 'FAILED'}"
          + (f"; {truth['note']}" if "note" in truth else ""))
    return {"correct": not fails and bool(metrics), "attempted": attempted,
            "failed": failed, "metrics": metrics}


def expected_failed(workload, attempted, sizes, params):
    """Failed operations a run must report: on train, the held-out
    different-class pairs fed good-first, in every round; none elsewhere."""
    if workload != "train":
        return 0
    judged, good_first = heldout_pairs(sizes)
    per_round = params["train"]["pair_budget"] * params["train"]["epochs"] + judged
    return good_first * (attempted // per_round)


def smoke():
    """Every workload at tiny sizes, untraced then traced; exit 0 if all pass."""
    ok = True
    for workload in WORKLOADS:
        for trace in (False, True):
            result = run_workload(workload, DEFAULT_SEED, 0.0, trace, smoke=True)
            print(json.dumps(result))
            ok &= result["correct"] and result["failed"] == expected_failed(
                workload, result["attempted"], SMOKE_SIZES[workload], params_for(True))
    return 0 if ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--inputs-only", action="store_true",
                    help="write the workload's inputs and stop")
    args = ap.parse_args(argv)
    if not (SRC / "qexp" / "__init__.py").is_file():
        print(f"error: package sources not found at {SRC / 'qexp'}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        ap.error("--workload is required unless --smoke is given")
    if args.inputs_only:
        work = WORK / args.workload
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        make_inputs(args.workload, args.seed, SIZES[args.workload], work)
        print(work)
        return 0
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
