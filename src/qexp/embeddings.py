"""Pre-trained word vectors: loading, centroid, cosine neighbors."""

import logging
import math

import numpy as np

from qexp.collection import ParseError, text_lines
from qexp.config import check

log = logging.getLogger(__name__)

# top_k_neighbors sorts the rows at or above the (_HEAD_FACTOR * k)-th highest cosine
# first, and the rest once, only if its within filter rejects too many of those
_HEAD_FACTOR = 2
_NORMAL_NORM = math.sqrt(np.finfo(np.float64).smallest_normal)  # its square is normal


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
        # each term's position in Python string order, the neighbour tie rule
        self._term_rank = np.array(self.terms, dtype=object).argsort(kind="stable").argsort()
        with np.errstate(over="ignore"):
            norms = np.linalg.norm(self.matrix, axis=1)
        self._unit = self.matrix / np.where(norms == 0.0, 1.0, norms)[:, None]
        self._zero_rows = ~self.matrix.any(axis=1)
        # a sum of squares that overflowed or is subnormal: scale the row by its max-abs
        redo = ~self._zero_rows & (np.isinf(norms) | (norms < _NORMAL_NORM))
        scaled = self.matrix[redo] / np.abs(self.matrix[redo]).max(axis=1, keepdims=True)
        self._unit[redo] = scaled / np.linalg.norm(scaled, axis=1, keepdims=True)

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
    restrict_to, only listed terms are kept (memory control). Components are
    ASCII decimal floats, all parsed by one np.loadtxt. Every malformed input
    raises ParseError naming the first bad line.
    """
    keep = None if restrict_to is None else set(restrict_to)
    terms = []
    dim = header = last = None  # header: (line number, declared row count)

    def check_dimension(lineno, rest):
        n = len(rest.split())
        if n != dim:
            source = "header" if header else "first line"
            raise ParseError(
                f"{path}:{lineno}: dimension {n} != {dim} from {source}") from None

    def kept_rows():
        # each line is split once into term and rest; a kept rest goes to
        # loadtxt unsplit, which checks its column count against the first row
        nonlocal dim, header, last
        seen = set()
        count = 0
        for lineno, line in text_lines(path):
            head = line.split(None, 1)
            if not head:
                continue
            if dim is None:
                parts = line.split()
                if len(parts) == 2 and all(p.isdecimal() for p in parts):
                    header, dim = (lineno, int(parts[0])), int(parts[1])
                else:
                    dim = len(parts) - 1
                if dim == 0:
                    raise ParseError(f"{path}:{lineno}: no vector components")
                if header:
                    continue
            term, rest = head[0], head[1] if len(head) == 2 else ""
            kept = keep is None or term in keep
            # loadtxt never sees a dropped line, skips an empty rest, takes its
            # column count from the first row, and a repeat stops before it
            if not (kept and rest and terms) or term in seen:
                check_dimension(lineno, rest)
            count += 1
            if not kept:
                continue
            if term in seen:
                raise ParseError(f"{path}:{lineno}: duplicate term {term!r}")
            seen.add(term)
            terms.append(term)
            last = lineno, rest
            yield rest
        # raised before loadtxt sees the end, so it never warns of no data
        if count == 0:
            raise ParseError(f"{path}: empty embedding file")
        if header and count != header[1]:
            raise ParseError(
                f"{path}:{header[0]}: header declares {header[1]} rows, file holds {count}")
        if not terms:
            raise ParseError(f"{path}: no terms survived the vocabulary restriction")

    try:
        # comments=None: a "#" is part of a component, and so non-numeric
        matrix = np.loadtxt(kept_rows(), dtype=np.float64, ndmin=2, comments=None)
    except ParseError:
        raise
    except ValueError:
        # loadtxt parses each row before it pulls the next: the bad one is the last out
        check_dimension(*last)
        raise ParseError(f"{path}:{last[0]}: non-numeric vector component") from None
    try:
        return EmbeddingTable(terms, matrix)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None


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
                    exclude=frozenset(), within=None) -> list[tuple[str, float]]:
    """The k terms with highest cosine to v, descending.

    Equal cosines (0.0 and -0.0 included) break by term in Python string
    order. Excluded terms and terms with a zero vector are never returned;
    with within (any container), neither is a term not in it. Returns fewer
    than k entries when fewer terms qualify. One matrix-vector product, then
    one sort of the head: the rows whose cosine reaches the _HEAD_FACTOR*k-th
    highest, ties included, a prefix of the full order. Python walks it until
    k entries are out. Only when within rejects so many that the head runs
    out are the remaining rows, all below the head, sorted once and walked.
    """
    check("k", k, "pool_size")
    v = np.asarray(v, dtype=np.float64)
    if not v.any():
        raise ValueError("cannot search neighbors of a zero vector")
    with np.errstate(over="ignore"):
        nv = math.sqrt(float(np.dot(v, v)))
    if math.isinf(nv) or nv < _NORMAL_NORM:  # the table's rule for its rows
        v = v / np.abs(v).max()
        nv = math.sqrt(float(np.dot(v, v)))
    sims = table._unit @ (v / nv)
    np.clip(sims, -1.0, 1.0, out=sims)
    keep = ~table._zero_rows
    for term in exclude:
        row = table._row.get(term)
        if row is not None:
            keep[row] = False
    rows = np.flatnonzero(keep)
    in_head = np.ones(len(rows), dtype=bool)
    if _HEAD_FACTOR * k < len(rows):
        row_sims = sims[rows]
        in_head = row_sims >= np.partition(row_sims, -_HEAD_FACTOR * k)[-_HEAD_FACTOR * k]
    out = []
    for remainder in (False, True):  # the remainder is gathered only if the head runs out
        part = rows[~in_head if remainder else in_head]
        for i in part[np.lexsort((table._term_rank[part], -sims[part]))].tolist():
            term = table.terms[i]
            if within is None or term in within:
                out.append((term, float(sims[i])))
                if len(out) == k:
                    return out
    return out
