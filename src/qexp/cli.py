"""Command-line entry points: index, label, train, expand, eval, gradcheck."""

import argparse
import logging
import sys
from pathlib import Path

import numpy as np

from qexp import collection, config, embeddings, experiment, labeling
from qexp.classifier.checkpoint import load_model, save_model, write_loss_csv
from qexp.classifier.inference import build_reference_set, encode_reference_set
from qexp.classifier.network import SiameseModel, gradient_check
from qexp.classifier.training import TrainConfig, train
from qexp.expansion import ExpansionConfig, build_query_model
from qexp.retrieval import retrieve, write_run

log = logging.getLogger(__name__)

GRADCHECK_TOL = 1e-4


def _add_common(sub):
    sub.add_argument("--config", help="path to a key = value config file")
    sub.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                     help="override any config key (repeatable)")
    for flag in ("--mu", "--seed", "--workers", "--embeddings", "--output-dir"):
        sub.add_argument(flag)  # a string, parsed and checked by load_config


def _method_list(text: str) -> list[str]:
    """argparse type of --methods: comma-separated known names, each once."""
    methods = [m.strip() for m in text.split(",")]
    for i, m in enumerate(methods):
        if m not in experiment.METHODS:
            raise argparse.ArgumentTypeError(
                f"unknown method {m!r} in {text!r}; valid: {','.join(experiment.METHODS)}")
        if m in methods[:i]:
            raise argparse.ArgumentTypeError(f"method {m!r} named twice in {text!r}")
    return methods


def _run_tag(text: str) -> str:
    """argparse type of --tag: one column of a run file, so no whitespace."""
    if any(c.isspace() for c in text):
        raise argparse.ArgumentTypeError(f"run tag {text!r} holds whitespace")
    return text


def _cfg_from_args(args) -> config.Config:
    overrides = {}
    for item in args.set:
        if "=" not in item:
            raise config.ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, _, val = item.partition("=")
        overrides[key.strip()] = val
    for key in ("mu", "seed", "workers", "embeddings", "output_dir"):
        val = getattr(args, key, None)
        if val is not None:
            overrides[key] = val
    return config.load_config(args.config, overrides)


def _require(cfg: config.Config, *keys):
    for key in keys:
        if not getattr(cfg, key):
            raise config.ConfigError(f"config key {key!r} is required but unset")


def _out(cfg: config.Config, name: str) -> Path:
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out / name


def _stopwords(cfg: config.Config):
    return collection.load_stopwords(cfg.stopwords or None)


def _load_retrieval_inputs(cfg: config.Config):
    """Stopwords, index, topics, and the embeddings of index and title terms."""
    stop = _stopwords(cfg)
    idx = collection.InvertedIndex.load(_out(cfg, cfg.index))
    topics = collection.load_topics(cfg.topics, stop)
    keep = set(idx.vocabulary())
    for t in topics:
        keep.update(t.title_terms)
    table = embeddings.load_embeddings(cfg.embeddings, restrict_to=keep)
    return stop, idx, topics, table


def _train_config(cfg: config.Config) -> TrainConfig:
    return TrainConfig(learning_rate=cfg.lr, batch_size=cfg.batch, epochs=cfg.epochs,
                       seed=cfg.seed, pair_budget=cfg.pair_budget)


def _expansion_config(cfg: config.Config) -> ExpansionConfig:
    return ExpansionConfig(cfg.m, cfg.alpha, cfg.beta, cfg.pool_size)


def cmd_index(args) -> int:
    cfg = _cfg_from_args(args)
    _require(cfg, "corpus", "index")
    stop = _stopwords(cfg)
    corpus = Path(cfg.corpus)
    paths = sorted(p for p in corpus.iterdir() if p.is_file()) \
        if corpus.is_dir() else [corpus]
    docs = []
    for p in paths:
        docs.extend(collection.ingest_trec_docs(p, stop))
    idx = collection.build_index(docs)
    idx.save(_out(cfg, cfg.index))
    print(f"indexed {idx.num_docs} documents, {len(idx.vocabulary())} terms, "
          f"{idx.total_tokens} tokens -> {_out(cfg, cfg.index)}")
    return 0


def cmd_label(args) -> int:
    cfg = _cfg_from_args(args)
    _require(cfg, "index", "topics", "qrels", "embeddings")
    stop, idx, topics, table = _load_retrieval_inputs(cfg)
    qrels = collection.load_qrels(cfg.qrels)
    dataset = labeling.build_dataset(
        topics, idx, qrels, table, pool_size=cfg.pool_size, eps=cfg.eps,
        mu=cfg.mu, depth=cfg.depth, stopwords=stop,
        workers=cfg.resolved_workers())
    dataset.save_tsv(_out(cfg, cfg.dataset))
    stats = labeling.dataset_statistics(dataset, topics, idx, qrels, cfg.mu, cfg.depth)
    print(labeling.format_statistics(stats), end="")
    print(f"wrote {_out(cfg, cfg.dataset)}")
    return 0


def cmd_train(args) -> int:
    cfg = _cfg_from_args(args)
    _require(cfg, "dataset", "embeddings", "model")
    dataset = labeling.LabeledDataset.load_tsv(_out(cfg, cfg.dataset))
    if not dataset.examples:
        raise ValueError(f"{_out(cfg, cfg.dataset)}: no labeled examples; training "
                         "needs at least 2 encodable labeled examples")
    keep = {t for ex in dataset.examples for t in ex.query_terms}
    keep.update(ex.candidate_term for ex in dataset.examples)
    table = embeddings.load_embeddings(cfg.embeddings, restrict_to=keep)
    model, history = train(dataset, table, _train_config(cfg), hidden=cfg.hidden,
                           rep=cfg.rep, pooling=cfg.pooling)
    save_model(model, _out(cfg, cfg.model), cfg.seed)
    write_loss_csv(history, _out(cfg, "loss.csv"))
    print(f"trained {cfg.epochs} epochs, final loss {history[-1][2]:.4f}, "
          f"saved {_out(cfg, cfg.model)}")
    return 0


def cmd_expand(args) -> int:
    cfg = _cfg_from_args(args)
    _require(cfg, "index", "topics", "embeddings")
    stop, idx, topics, table = _load_retrieval_inputs(cfg)
    ecfg = _expansion_config(cfg)

    model = refset = ref_reps = None
    if args.method == "dec":
        _require(cfg, "model", "dataset")
        model, _ = load_model(_out(cfg, cfg.model))
        dataset = labeling.LabeledDataset.load_tsv(_out(cfg, cfg.dataset))
        refset = build_reference_set(dataset, table, cfg.refset_size,
                                     np.random.default_rng(cfg.seed))
        ref_reps = encode_reference_set(model, refset, table)

    models = []
    for topic in topics:
        pool = [] if args.method == "qlm" else labeling.scored_candidate_pool(
            topic, table, idx, ecfg.pool_size, stop)
        models.append(build_query_model(args.method, topic, pool, table, ecfg, model,
                                        refset, ref_reps))
    ranked = [retrieve(qm, idx, cfg.mu, cfg.depth) for qm in models]
    tag = args.tag or args.method
    run_path = _out(cfg, f"run_{args.method}.txt")
    write_run(ranked, run_path, tag)
    print(f"wrote {run_path} ({len(ranked)} queries, tag {tag})")
    return 0


def cmd_eval(args) -> int:
    cfg = _cfg_from_args(args)
    _require(cfg, "index", "topics", "qrels", "embeddings")
    stop, idx, topics, table = _load_retrieval_inputs(cfg)
    qrels = collection.load_qrels(cfg.qrels)
    methods = args.methods or list(experiment.METHODS)
    dataset = None
    if "dec" in methods:
        _require(cfg, "dataset")
        dataset = labeling.LabeledDataset.load_tsv(_out(cfg, cfg.dataset))
    result = experiment.cross_validate(
        topics, idx, qrels, table, dataset, methods=methods, folds=cfg.folds,
        seed=cfg.seed, expansion_cfg=_expansion_config(cfg),
        train_cfg=_train_config(cfg), refset_size=cfg.refset_size, hidden=cfg.hidden,
        rep=cfg.rep, pooling=cfg.pooling, stopwords=stop, mu=cfg.mu,
        depth=cfg.depth)
    report = experiment.format_report(result)
    collection.write_file(_out(cfg, "report.txt"), report)
    collection.write_file(_out(cfg, "report.tsv"), experiment.report_tsv(result))
    collection.write_file(_out(cfg, "per_query_ap.csv"), experiment.per_query_csv(result))
    print(report, end="")
    print(f"wrote {_out(cfg, 'report.txt')}")
    return 0


def cmd_gradcheck(args) -> int:
    cfg = _cfg_from_args(args)
    rng = np.random.default_rng(cfg.seed)
    d, h, r, t = 4, 3, 4, 3
    model = SiameseModel(d, h, r, rng, pooling=cfg.pooling)
    left = rng.standard_normal((t, d))
    right = rng.standard_normal((t + 1, d))
    errors = gradient_check(model, left, right, same_class=True)
    worst = max(errors.values())
    for name in sorted(errors):
        print(f"{name:<8} {errors[name]:.3e}")
    ok = worst < GRADCHECK_TOL
    print(f"max relative error {worst:.3e} "
          f"({'OK' if ok else 'FAIL'}, tolerance {GRADCHECK_TOL:.0e})")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qexp",
        description="query expansion with a learned term-quality classifier")
    parser.add_argument("-v", "--verbose", action="store_true")
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("index", help="build the inverted index from TREC SGML")
    _add_common(sp)
    sp.set_defaults(func=cmd_index)

    sp = subs.add_parser("label", help="label expansion candidates by AP change")
    _add_common(sp)
    sp.set_defaults(func=cmd_label)

    sp = subs.add_parser("train", help="train the term-quality classifier")
    _add_common(sp)
    sp.set_defaults(func=cmd_train)

    sp = subs.add_parser("expand", help="write a retrieval run for one method")
    _add_common(sp)
    sp.add_argument("--method", choices=experiment.METHODS, required=True)
    sp.add_argument("--tag", type=_run_tag, help="run tag (default: the method name)")
    sp.set_defaults(func=cmd_expand)

    sp = subs.add_parser("eval", help="cross-validated method comparison")
    _add_common(sp)
    sp.add_argument("--methods", type=_method_list, help="comma-separated subset of "
                    + ",".join(experiment.METHODS))
    sp.set_defaults(func=cmd_eval)

    sp = subs.add_parser("gradcheck", help="finite-difference gradient check")
    _add_common(sp)
    sp.set_defaults(func=cmd_gradcheck)

    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except (config.ConfigError, collection.ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, KeyError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
