"""Pre-trained word vectors: loading, centroid, cosine neighbors."""

import contextlib
import hashlib
import logging
import math
import os
import struct
import time
import zlib
from pathlib import Path

import numpy as np

from qexp.collection import ParseError, _pack_strings, _unpack_strings, text_lines, write_file
from qexp.config import check

log = logging.getLogger(__name__)

# the .qxvec cache (README "File formats"): magic and version, source and restriction
# sha256, crc32 of every later byte; then n, d and term table bytes. Bump the version
# whenever _parse_text's tables or errors change, so that no older parse's cache is read
_CACHE_HEAD, _CACHE_SIZES = struct.Struct("<5s64sI"), struct.Struct("<3Q")
_CACHE_TAG = b"QXVC\x02"
_CACHE_ENTRIES = 2  # per vectors file; a write deletes the least recently used beyond

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
        self._unit = _unit_rows(self.matrix)
        self._zero_rows = ~self.matrix.any(axis=1)

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


def _unit_rows(a: np.ndarray) -> np.ndarray:
    """Each row of the (n, d) array a over its norm; a zero row stays zero. A row
    whose sum of squares overflowed or is subnormal is first divided by its max-abs."""
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(a, axis=1)
    unit = a / np.where(norms == 0.0, 1.0, norms)[:, None]
    redo = a.any(axis=1) & (np.isinf(norms) | (norms < _NORMAL_NORM))
    scaled = a[redo] / np.abs(a[redo]).max(axis=1, keepdims=True)
    unit[redo] = scaled / np.linalg.norm(scaled, axis=1, keepdims=True)
    return unit


def load_embeddings(path, restrict_to=None) -> EmbeddingTable:
    """Load text-format vectors: one line per term, term then d decimals.

    A first line of exactly two integers N D is a word2vec header: the file
    must then hold N rows of D components. Without it the dimension is
    inferred from the first line and every later line must match it. With
    restrict_to, only listed terms are kept (memory control). Components are
    ASCII decimal floats, all parsed by one np.loadtxt. Every malformed input
    raises ParseError naming the first bad line. A regular file's table is
    cached beside it for the next load (README "File formats").
    """
    start = time.perf_counter()
    keep = None if restrict_to is None else set(restrict_to)
    before, cache, table = os.stat(path), None, None
    if os.path.isfile(path):  # a pipe cannot be read twice
        source = hashlib.sha256()
        with open(path, "rb") as f:  # in chunks: Python 3.10 has no hashlib.file_digest
            while chunk := f.read(1 << 20):
                source.update(chunk)
        restriction = hashlib.sha256(repr(None if keep is None else sorted(keep)).encode())
        key = source.digest() + restriction.digest()
        cache = Path(path).with_name(f".{Path(path).name}.{restriction.hexdigest()[:16]}.qxvec")
        table = _read_cache(cache, key)
    hit, why = table is not None, None
    if not hit:
        table, read = _parse_text(path, keep)
        after = os.stat(path)
        if cache is None:
            why = "the source is not a regular file"
        elif (after.st_size, after.st_mtime_ns) != (before.st_size, before.st_mtime_ns):
            why = "the source changed during the parse"
        else:
            why = _write_cache(cache, key, table)
    kept = len(table) if hit else f"{len(table)} of {read}"
    log.info("embeddings %s: %s rows kept, cache %s, %.2f s%s", path, kept,
             "hit" if hit else "miss", time.perf_counter() - start,
             f"; no cache written: {why}" if why else "")
    return table


def _read_cache(cache, key):
    """The table cached under key, or None: a bad cache is a miss, never an error."""
    try:
        with open(cache, "rb") as f:
            tag, stored, crc = _CACHE_HEAD.unpack(f.read(_CACHE_HEAD.size))
            n, d, size = _CACHE_SIZES.unpack(sizes := f.read(_CACHE_SIZES.size))
            if (tag, stored) != (_CACHE_TAG, key) or os.fstat(f.fileno()).st_size != (
                    _CACHE_HEAD.size + _CACHE_SIZES.size + size + 8 * n * d):
                return None
            strings, matrix = f.read(size), np.empty((n, d), "<f8")  # rows read in place
            if f.readinto(matrix) != matrix.nbytes or crc != zlib.crc32(
                    matrix, zlib.crc32(strings, zlib.crc32(sizes))):
                return None
        table = EmbeddingTable(_unpack_strings(strings, str(cache), "term")[0], matrix)
    except (OSError, ValueError, struct.error, IndexError):
        return None
    with contextlib.suppress(OSError):  # the clock's ns, finer than a write's stamp
        os.utime(cache, ns=(time.time_ns(),) * 2)
    return table


def _write_cache(cache, key, table):
    """Cache the table under key, keep _CACHE_ENTRIES; None, or why it was not written."""
    rows = table.matrix.astype("<f8", copy=False)
    try:
        strings = _pack_strings(table.terms, [0] * len(table))
        sizes = _CACHE_SIZES.pack(*rows.shape, len(strings))
        crc = zlib.crc32(rows, zlib.crc32(strings, zlib.crc32(sizes)))
        write_file(cache, [_CACHE_HEAD.pack(_CACHE_TAG, key, crc), sizes, strings, rows])
    except struct.error:
        return "a term is too long for the cache's term table"
    except OSError as exc:
        return str(exc)
    with contextlib.suppress(OSError):  # another process may delete one first
        os.utime(cache, ns=(time.time_ns(),) * 2)  # modification times order the entries
        entries = sorted((p.stat().st_mtime_ns, p) for p in cache.parent.glob(".*.qxvec")
                         if p.name[:-22] == cache.name[:-22])  # the same source's
        for _, old in entries[:-_CACHE_ENTRIES]:
            old.unlink()


def _parse_text(path, keep):
    """The text parse of load_embeddings: the table and the number of rows read."""
    terms = []
    dim = header = last = None  # header: (line number, declared row count)
    count = 0

    def check_dimension(lineno, rest):
        n = len(rest.split())
        if n != dim:
            source = "header" if header else "first line"
            raise ParseError(
                f"{path}:{lineno}: dimension {n} != {dim} from {source}") from None

    def kept_rows():
        # each line is split once into term and rest; a kept rest goes to
        # loadtxt unsplit, which checks its column count against the first row
        nonlocal dim, header, last, count
        seen = set()
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
        return EmbeddingTable(terms, matrix), count
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
    sims = table._unit @ _unit_rows(v[None])[0]
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
