"""Pre-trained word vectors: loading, cosine similarity, centroid, neighbors."""

import logging
import math

import numpy as np

from qexp.collection import ParseError, text_lines

log = logging.getLogger(__name__)


class EmbeddingTable:
    """Immutable term -> dense vector table with a stable vocabulary order."""

    def __init__(self, terms: list[str], matrix: np.ndarray):
        if len(terms) != matrix.shape[0]:
            raise ValueError("term list and matrix row count disagree")
        if len(set(terms)) != len(terms):
            raise ValueError("duplicate terms in embedding table")
        if matrix.size == 0 or not np.any(matrix):
            raise ValueError("embedding table needs at least one non-zero vector")
        self.terms = list(terms)
        self.matrix = np.ascontiguousarray(matrix, dtype=np.float64)
        finite = np.isfinite(self.matrix).all(axis=1)
        if not finite.all():
            bad = self.terms[int(np.argmin(finite))]
            raise ValueError(f"non-finite vector component for term {bad!r}")
        self.dim = self.matrix.shape[1]
        self._row = {t: i for i, t in enumerate(self.terms)}
        norms = np.linalg.norm(self.matrix, axis=1)
        safe = np.where(norms == 0.0, 1.0, norms)
        self._unit = self.matrix / safe[:, None]
        self._zero_rows = norms == 0.0

    def __contains__(self, term: str) -> bool:
        return term in self._row

    def __len__(self):
        return len(self.terms)

    def has_direction(self, term: str) -> bool:
        """True for a term in the table whose vector is not all zeros."""
        row = self._row.get(term)
        return row is not None and not self._zero_rows[row]

    def vector(self, term: str) -> np.ndarray:
        try:
            return self.matrix[self._row[term]]
        except KeyError:
            raise KeyError(f"term {term!r} not in embedding vocabulary") from None


def load_embeddings(path, restrict_to=None) -> EmbeddingTable:
    """Load text-format vectors: one line per term, term then d decimals.

    A first line of exactly two integers N D is a word2vec header: the file
    must then hold N rows of D components. Without it the dimension is
    inferred from the first line and every later line must match it. With
    restrict_to, only listed terms are kept (memory control). Every malformed
    input raises ParseError.
    """
    keep = None if restrict_to is None else set(restrict_to)
    terms = []
    seen = set()
    rows = []
    dim = None
    header = None  # (line number, declared row count)
    count = 0
    for lineno, line in text_lines(path):
        parts = line.rstrip("\n").split()
        if not parts:
            continue
        if dim is None and len(parts) == 2 and all(p.isdecimal() for p in parts):
            header = (lineno, int(parts[0]))
            dim = int(parts[1])
            continue
        term, values = parts[0], parts[1:]
        if dim is None:
            dim = len(values)
            if dim == 0:
                raise ParseError(f"{path}:{lineno}: no vector components")
        elif len(values) != dim:
            source = "header" if header else "first line"
            raise ParseError(
                f"{path}:{lineno}: dimension {len(values)} != {dim} from {source}")
        count += 1
        if keep is not None and term not in keep:
            continue
        if term in seen:
            raise ParseError(f"{path}:{lineno}: duplicate term {term!r}")
        seen.add(term)
        try:
            rows.append(np.array([float(v) for v in values], dtype=np.float64))
        except ValueError:
            raise ParseError(f"{path}:{lineno}: non-numeric vector component") from None
        terms.append(term)
    if count == 0:
        raise ParseError(f"{path}: empty embedding file")
    if header and count != header[1]:
        raise ParseError(
            f"{path}:{header[0]}: header declares {header[1]} rows, file holds {count}")
    if not terms:
        raise ParseError(f"{path}: no terms survived the vocabulary restriction")
    try:
        return EmbeddingTable(terms, np.vstack(rows))
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity, clipped to [-1, 1]; zero vectors are an error."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"vector lengths differ: {a.shape} vs {b.shape}")
    na = math.sqrt(float(np.dot(a, a)))
    nb = math.sqrt(float(np.dot(b, b)))
    if na == 0.0 or nb == 0.0:
        raise ValueError("cosine of a zero vector is undefined")
    return min(1.0, max(-1.0, float(np.dot(a, b)) / (na * nb)))


def centroid(terms, table: EmbeddingTable) -> np.ndarray:
    """Elementwise mean of the in-vocabulary term vectors.

    Out-of-vocabulary terms are skipped with a warning; no in-vocabulary
    term at all is an error.
    """
    rows = []
    for t in terms:
        if t in table:
            rows.append(table.vector(t))
        else:
            log.warning("centroid: term %r not in embedding vocabulary, skipped", t)
    if not rows:
        raise ValueError(f"no term of {list(terms)!r} is in the embedding vocabulary")
    return np.mean(np.array(rows, dtype=np.float64), axis=0)


def top_k_neighbors(v: np.ndarray, k: int, table: EmbeddingTable,
                    exclude=frozenset()) -> list[tuple[str, float]]:
    """The k terms with highest cosine to v, descending; ties break by term.

    Exhaustive scan over the table vocabulary. Returns fewer than k entries
    when the vocabulary is small; never returns excluded terms.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    v = np.asarray(v, dtype=np.float64)
    nv = math.sqrt(float(np.dot(v, v)))
    if nv == 0.0:
        raise ValueError("cannot search neighbors of a zero vector")
    sims = table._unit @ (v / nv)
    np.clip(sims, -1.0, 1.0, out=sims)
    scored = [
        (term, float(sims[i]))
        for i, term in enumerate(table.terms)
        if term not in exclude and not table._zero_rows[i]
    ]
    scored.sort(key=lambda e: (-e[1], e[0]))
    return scored[:k]
