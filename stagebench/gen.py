"""Seeded input generator for the stage benchmark.

Writes plain text inputs (TREC SGML, topics, qrels, headerless text vectors,
labeled-example TSVs) and returns the generator's own view of them, so the
checks can compare the program's outputs with counts and rankings computed
from the raw token lists. Nothing here imports the package under test.

Tokens are lowercase letters followed by digits, so none of them is a
stopword and the tokenizer passes every one through unchanged.
"""

import json
from dataclasses import dataclass

import numpy as np

SYNONYMS = 6
DECOYS = 6
NEUTRALS = 8
EPS = 0.0005
ZIPF = 1.0          # Zipf exponent of the background vocabulary
PER_CLASS = 5       # good and bad examples per planted training query
WORDS_PER_LINE = 20


@dataclass(frozen=True)
class Sizes:
    docs: int = 2000            # background documents
    doc_len: int = 100          # tokens per document, planted documents too
    vocab: int = 10000          # Zipfian background vocabulary
    topics: int = 12
    frequent_topics: int = 4    # topics whose title holds a Zipf-head term
    neutral_docs: int = 40      # background documents holding each neutral term
    dim: int = 300              # embedding dimension
    extra_vectors: int = 0      # vectors for terms absent from every document
    # train workload
    train_queries: int = 40
    heldout_queries: int = 8


@dataclass
class Collection:
    docs: dict                       # doc_id -> token list, in file order
    topics: list                     # (query_id, [title terms])
    relevant: dict                   # query_id -> set of relevant doc ids
    judged: list                     # (query_id, doc_id, grade) qrels rows
    vectors: dict                    # term -> np.ndarray
    planted: dict                    # query_id -> role -> terms
    frequent: set                    # query ids with a head term


def _unit(rng, dim, away_from=None):
    """A random unit vector; with away_from, orthogonal to its (orthonormal) rows."""
    v = rng.standard_normal(dim)
    if away_from is not None:
        v -= away_from.T @ (away_from @ v)
    return v / np.linalg.norm(v)


def _zipf(vocab):
    w = np.arange(1, vocab + 1, dtype=np.float64) ** -ZIPF
    return w / w.sum()


def make_collection(seed: int, sizes: Sizes) -> Collection:
    """Zipfian background plus, per topic, 12 planted documents.

    Per topic: 6 relevant documents hold the rare title term once and three
    of the six synonyms; 3 hard distractors hold it twice; 3 soft
    distractors hold it once and three of the six decoys. Each of the eight
    neutral terms sits in a fixed number of background documents. In
    embedding space synonyms lie nearer the title centroid than decoys, and
    decoys nearer than neutrals, so a pool of 20 holds exactly the planted
    terms. A frequent topic's second title term is a Zipf-head term; the
    other topics' second term is a mid-frequency one.
    """
    ss = np.random.SeedSequence(seed)
    rng_docs, rng_plant, rng_vec = (np.random.default_rng(s) for s in ss.spawn(3))
    V, L, dim = sizes.vocab, sizes.doc_len, sizes.dim
    names = np.array([f"w{i}" for i in range(V)])
    probs = _zipf(V)

    docs: dict[str, list[str]] = {}
    n_planted = 12 * sizes.topics
    total = sizes.docs + n_planted
    background = rng_docs.choice(V, size=(total, L), p=probs)
    order = rng_docs.permutation(total)  # planted docs spread through the file
    doc_ids = [f"d{i:06d}" for i in range(total)]
    bg_slots = [doc_ids[i] for i in order[:sizes.docs]]
    plant_slots = [doc_ids[i] for i in order[sizes.docs:]]
    for i, doc_id in enumerate(doc_ids):
        docs[doc_id] = list(names[background[i]])

    topics, judged, planted = [], [], {}
    relevant: dict[str, set] = {}
    frequent = set()
    vectors = {str(names[i]): rng_vec.standard_normal(dim) / np.sqrt(dim)
               for i in range(V)}
    # Orthonormal class directions. Title vectors are drawn orthogonal to
    # them, so the title centroid favours no class and every topic's pool
    # orders synonyms, decoys, neutrals by their distance from the topic axis.
    roles = np.linalg.qr(rng_vec.standard_normal((dim, 3)))[0].T
    good_dir, bad_dir, neutral_dir = roles

    def noise():
        return 0.05 * rng_vec.standard_normal(dim) / np.sqrt(dim)

    def plant(doc_id, terms):
        toks = docs[doc_id]
        picks = rng_plant.choice(L, size=len(terms), replace=False)
        for pos, term in zip(picks, terms):
            toks[pos] = term

    slot = iter(plant_slots)
    for q in range(sizes.topics):
        qid = f"{401 + q}"
        rare = f"q{q}t"
        if q < sizes.frequent_topics:
            second = str(names[q])                # Zipf ranks 1, 2, ...
            frequent.add(qid)
        else:
            second = str(names[200 + 37 * q])     # mid-frequency background term
        syn = [f"q{q}s{j}" for j in range(SYNONYMS)]
        dec = [f"q{q}d{j}" for j in range(DECOYS)]
        neu = [f"q{q}n{j}" for j in range(NEUTRALS)]
        topics.append((qid, [second, rare]))
        planted[qid] = {"good": syn, "bad": dec, "neutral": neu}

        axis = _unit(rng_vec, dim, roles)
        vectors[rare] = axis.copy()
        vectors[second] = _unit(rng_vec, dim, roles)
        for t in syn:
            vectors[t] = axis + 0.6 * good_dir + noise()
        for t in dec:
            vectors[t] = axis + 0.8 * bad_dir + noise()
        for t in neu:
            vectors[t] = axis + 1.6 * neutral_dir + noise()

        relevant[qid] = set()
        for j in range(6):
            d = next(slot)
            plant(d, [rare] + [syn[(j + k) % 6] for k in range(3)])
            relevant[qid].add(d)
            judged.append((qid, d, 1))
        for j in range(3):
            d = next(slot)
            plant(d, [rare, rare])
            judged.append((qid, d, 0))
            d = next(slot)
            plant(d, [rare] + [dec[(2 * j + k) % 6] for k in range(3)])
            judged.append((qid, d, 0))
        for t in neu:
            for i in rng_plant.choice(sizes.docs, size=sizes.neutral_docs,
                                      replace=False):
                plant(bg_slots[i], [t])

    for i in range(sizes.extra_vectors):
        vectors[f"x{i}"] = rng_vec.standard_normal(dim) / np.sqrt(dim)
    return Collection(docs, topics, relevant, judged, vectors, planted, frequent)


def planted_dataset(col: Collection):
    """Labeled examples the collection is built to yield: synonyms good,
    decoys bad, neutrals neutral. Rows are (query_id, terms, term, label, delta)."""
    rows = []
    for qid, title in col.topics:
        p = col.planted[qid]
        rows += [(qid, title, t, "good", 0.05) for t in p["good"]]
        rows += [(qid, title, t, "bad", -0.05) for t in p["bad"]]
        rows += [(qid, title, t, "neutral", 0.0) for t in p["neutral"]]
    return rows


def make_train_world(seed: int, sizes: Sizes):
    """Planted labeled queries for the classifier, with separable classes.

    Query terms are random unit vectors; good candidates lie along one shared
    direction and bad candidates along another, so same/different-class pairs
    are separable from the candidate alone. Returns (train rows, held-out
    rows, vectors); held-out queries never appear in the training rows.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(4)[3])
    dim = sizes.dim
    good_dir, bad_dir = _unit(rng, dim), _unit(rng, dim)
    vectors = {}
    rows = []
    for q in range(sizes.train_queries + sizes.heldout_queries):
        qid = f"t{q:03d}"
        title = [f"p{q}a", f"p{q}b"]
        for t in title:
            vectors[t] = _unit(rng, dim)
        for label, direction, delta in (("good", good_dir, 0.01),
                                        ("bad", bad_dir, -0.01)):
            for j in range(PER_CLASS):
                term = f"p{q}{label[0]}{j}"
                vectors[term] = 0.3 * _unit(rng, dim) + 3.0 * direction \
                    + 0.1 * rng.standard_normal(dim) / np.sqrt(dim)
                rows.append((qid, title, term, label, delta))
    for i in range(sizes.extra_vectors):
        vectors[f"x{i}"] = rng.standard_normal(dim) / np.sqrt(dim)
    cut = 2 * PER_CLASS * sizes.train_queries
    return rows[:cut], rows[cut:], vectors


# --- writers -------------------------------------------------------------


def write_corpus(path, docs: dict):
    with open(path, "w") as f:
        for doc_id, toks in docs.items():
            f.write(f"<DOC>\n<DOCNO> {doc_id} </DOCNO>\n<TEXT>\n")
            for i in range(0, len(toks), WORDS_PER_LINE):
                f.write(" ".join(toks[i:i + WORDS_PER_LINE]) + "\n")
            f.write("</TEXT>\n</DOC>\n")


def write_topics(path, topics):
    with open(path, "w") as f:
        for qid, title in topics:
            f.write(f"<top>\n<num> Number: {qid}\n<title> {' '.join(title)}\n"
                    f"<desc> Description:\nplanted topic\n</top>\n\n")


def write_qrels(path, judged):
    with open(path, "w") as f:
        for qid, doc_id, grade in judged:
            f.write(f"{qid} 0 {doc_id} {grade}\n")


def write_vectors(path, vectors: dict):
    """Headerless text vectors, six decimals per component."""
    dim = len(next(iter(vectors.values())))
    fmt = "%s " + " ".join(["%.6f"] * dim) + "\n"
    with open(path, "w") as f:
        f.writelines(fmt % (term, *vec.tolist()) for term, vec in vectors.items())


def read_vectors(path) -> dict:
    """The vectors as written, parsed back with float()."""
    with open(path) as f:
        return {term: np.array([float(x) for x in rest])
                for term, *rest in (line.split() for line in f)}


def write_dataset(path, rows):
    """The dataset file: a JSON metadata header, then qid/term/label/delta rows."""
    queries = {}
    for qid, title, *_ in rows:
        queries[qid] = title
    meta = {"eps": EPS, "queries": dict(sorted(queries.items()))}
    with open(path, "w") as f:
        f.write("# " + json.dumps(meta, sort_keys=True) + "\n")
        for qid, _, term, label, delta in rows:
            f.write(f"{qid}\t{term}\t{label}\t{delta!r}\n")
