"""Span tracing from outside the program.

The traced stage replaces each public function of the package, at every
module attribute it is looked up through, with a wrapper that records a span
(name, start, end, parent span). Nothing inside the package changes. A
function that no longer exists at any of its lookup sites is reported as
absent, never as zero.
"""

import functools
import importlib
import os
import time

# Span name -> the "module:attribute" sites the function is looked up through.
SITES = {
    "collection.ingest": ["qexp.collection:ingest_trec_docs"],
    "collection.build": ["qexp.collection:build_index"],
    "collection.save": ["qexp.collection:InvertedIndex.save"],
    "collection.load": ["qexp.collection:InvertedIndex.load"],
    "embeddings.load": ["qexp.embeddings:load_embeddings"],
    "embeddings.neighbors": ["qexp.embeddings:top_k_neighbors",
                             "qexp.labeling:top_k_neighbors"],
    "labeling.pool": ["qexp.labeling:scored_candidate_pool",
                      "qexp.expansion:scored_candidate_pool"],
    "labeling.label_term": ["qexp.labeling:label_term"],
    "labeling.baseline_ap": ["qexp.labeling:baseline_ap"],
    "retrieval.retrieve": ["qexp.retrieval:retrieve", "qexp.labeling:retrieve",
                           "qexp.experiment:retrieve"],
    "evaluation.ap": ["qexp.evaluation:average_precision",
                      "qexp.labeling:average_precision"],
    "evaluation.evaluate": ["qexp.evaluation:evaluate_rankings",
                            "qexp.experiment:evaluate_rankings",
                            "qexp.evaluation:Comparison.__post_init__"],
    "expansion.awe": ["qexp.expansion:awe_expand", "qexp.experiment:awe_expand"],
    "expansion.eqe1": ["qexp.expansion:eqe1_expand", "qexp.experiment:eqe1_expand"],
    "expansion.dec": ["qexp.expansion:dec_expand", "qexp.experiment:dec_expand"],
    "classifier.inference.p_good": ["qexp.classifier.inference:p_good",
                                    "qexp.expansion:p_good"],
    "classifier.inference.refset_encode": [
        "qexp.classifier.inference:encode_reference_set",
        "qexp.expansion:encode_reference_set",
        "qexp.experiment:encode_reference_set"],
    "classifier.network.encode": ["qexp.classifier.network:SiameseModel.encode"],
    "classifier.network.loss_and_grads": [
        "qexp.classifier.network:SiameseModel.pair_loss_and_grads"],
    "classifier.training.adam": ["qexp.classifier.training:Adam.step"],
    "classifier.training.encodable": ["qexp.classifier.training:encodable_examples"],
    "classifier.training.train": ["qexp.classifier.training:train",
                                  "qexp.experiment:train"],
    "classifier.pairs.generate": ["qexp.classifier.pairs:generate_pairs",
                                  "qexp.classifier.training:generate_pairs"],
    "classifier.checkpoint.save": ["qexp.classifier.checkpoint:save_model"],
}


def layer_of(span_name: str) -> str:
    return span_name.rsplit(".", 1)[0]


def _rss_bytes() -> int:
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


class Tracer:
    """In-memory span record: [name, start, end, parent index] per call."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.absent = []          # span names with no lookup site left
        self.missing_sites = []   # sites that no longer resolve
        self.retrieve_terms = []  # positive-weight terms of every retrieval
        self.pairs = 0            # training pairs generated
        self.resident = 0         # bytes of RSS growth across index loads

    def install(self):
        """Resolve every site first, then patch, so no wrapper wraps a wrapper."""
        found = []
        for name, sites in SITES.items():
            hits = 0
            for site in sites:
                resolved = _resolve(site)
                if resolved is None:
                    self.missing_sites.append(site)
                    continue
                found.append((name, resolved))
                hits += 1
            if hits == 0:
                self.absent.append(name)
        for name, (owner, attr, raw) in found:
            setattr(owner, attr, self._wrap(name, raw))

    def _wrap(self, name, raw):
        if isinstance(raw, classmethod):
            return classmethod(self._wrap(name, raw.__func__))
        before, after = _HOOKS.get(name, (None, None))
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(raw)
        def wrapper(*args, **kwargs):
            state = before(self, args, kwargs) if before else None
            rec = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = raw(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after:
                after(self, state, result)
            return result
        return wrapper

    def summary(self) -> dict:
        """Calls, total and self seconds per span name; self seconds per layer."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        per_span = {}
        per_layer = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            s = per_span.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            s["calls"] += 1
            s["total_s"] += end - start
            s["self_s"] += end - start - child[i]
            layer = layer_of(name)
            per_layer[layer] = per_layer.get(layer, 0.0) + end - start - child[i]
        return {
            "spans": per_span,
            "layer_self_s": per_layer,
            "absent": self.absent,
            "missing_sites": self.missing_sites,
            "retrieve_terms": self.retrieve_terms,
            "pairs": self.pairs,
            "index_resident_mb": self.resident / 1e6,
        }


def _resolve(site):
    """(owner, attribute, raw value) for "module:Attr[.attr]", or None."""
    mod_name, _, path = site.partition(":")
    try:
        owner = importlib.import_module(mod_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        raw = owner.__dict__.get(attr)
    else:
        raw = getattr(owner, attr, None)
    if raw is None:
        return None
    return owner, attr, raw


# Hooks: (before, after). before(tracer, args, kwargs) returns a state that
# after(tracer, state, result) receives.

def _retrieve_before(tracer, args, kwargs):
    q = args[0] if args else kwargs["q"]
    tracer.retrieve_terms.append(sorted(t for t, w in q.weights.items() if w > 0))


def _pairs_after(tracer, state, result):
    tracer.pairs += len(result)


def _rss_before(tracer, args, kwargs):
    return _rss_bytes()


def _rss_after(tracer, state, result):
    tracer.resident += _rss_bytes() - state


_HOOKS = {
    "retrieval.retrieve": (_retrieve_before, None),
    "classifier.pairs.generate": (None, _pairs_after),
    "collection.load": (_rss_before, _rss_after),
}
