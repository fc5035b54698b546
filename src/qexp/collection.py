"""Corpus ingestion: TREC documents, topics, qrels, and the inverted index.

The index file layout (magic ``QXIX``, version 1, little-endian throughout):

    bytes 0-3   magic "QXIX"
    byte  4     format version (0x01)
    3 sections, each prefixed by a u64 byte length:
      vocabulary  u32 term count, then per term (sorted):
                  u16 utf8 length, utf8 term, u64 collection frequency
      postings    per term in vocabulary order: u32 posting count,
                  then (u32 doc index, u32 term frequency) pairs
      doc table   u32 doc count, then per doc (ingest order):
                  u16 utf8 length, utf8 doc id, u64 token count

Doc indexes in the postings section refer to positions in the doc table and
ascend strictly within each posting list. Terms and doc ids are unique.
"""

import logging
import os
import re
import struct
from collections import Counter
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

log = logging.getLogger(__name__)

_TOKEN_RE = re.compile(r"[a-z0-9]+")
_TAG_RE = re.compile(r"<[^>]*>")

INDEX_MAGIC = b"QXIX"
INDEX_VERSION = 1


class ParseError(ValueError):
    """Raised for malformed corpus, topic, qrels, or index files."""


def text_lines(path, error=ParseError):
    """Yield (line number, line) of a UTF-8 text file, as text-mode iteration
    splits it; a line that is not UTF-8 raises ``error`` naming path:line."""
    with open(path, encoding="utf-8", errors="surrogateescape") as f:
        for lineno, line in enumerate(f, start=1):
            if not line.isascii():
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError:
                    raise error(f"{path}:{lineno}: line is not valid UTF-8") from None
            yield lineno, line


def write_file(path, data):
    """Write str (as UTF-8) or bytes-like data to path, replacing it in one step.

    The data goes to ``.<name>.<pid>.tmp`` beside the target, which
    ``os.replace`` then moves over it; on any error the temporary file is
    removed, so the target keeps its earlier bytes. A symlink is written
    through to its target."""
    path = Path(path).resolve()
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(data.encode("utf-8") if isinstance(data, str) else data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


@dataclass
class Document:
    doc_id: str
    terms: list[str]

    @property
    def length(self) -> int:
        return len(self.terms)


@dataclass
class Topic:
    query_id: str
    title_terms: list[str]


class Qrels:
    """Relevance judgments: a (query_id, doc_id) pair is relevant when any of
    its rows has a grade above 0."""

    def __init__(self):
        self._relevant: dict[str, set[str]] = {}

    def add(self, query_id: str, doc_id: str, grade: int):
        if grade < 0:
            raise ValueError(f"negative relevance grade for ({query_id}, {doc_id})")
        if grade > 0:
            self._relevant.setdefault(query_id, set()).add(doc_id)

    def is_relevant(self, query_id: str, doc_id: str) -> bool:
        return doc_id in self._relevant.get(query_id, ())

    def num_relevant(self, query_id: str) -> int:
        return len(self._relevant.get(query_id, ()))


class InvertedIndex:
    """The index file's layout as arrays: term i (of the sorted ``terms``) has
    ``doc_index[offsets[i]:offsets[i+1]]`` (ascending positions in ``doc_ids`` and
    ``doc_len``, ingest order) and the matching ``tf`` slice.

    Immutable once built; safe to share across concurrent readers.
    """

    def __init__(self, terms: list[str], offsets: np.ndarray, doc_index: np.ndarray,
                 tf: np.ndarray, doc_ids: list[str], doc_len: np.ndarray):
        self.terms = terms
        self.offsets = offsets
        self.doc_index = doc_index
        self.tf = tf
        self.doc_ids = doc_ids
        self.doc_len = doc_len
        self._row = {term: i for i, term in enumerate(terms)}
        cum = np.concatenate((np.zeros(1, np.uint64), np.cumsum(tf, dtype=np.uint64)))
        self.collection_freq = cum[offsets[1:]] - cum[offsets[:-1]]
        self.total_tokens = int(doc_len.sum())
        # each document's position in ascending doc_id order, the ranking tie-break
        self.doc_rank = np.array(doc_ids, dtype=object).argsort(kind="stable").argsort()

    @property
    def num_docs(self) -> int:
        return len(self.doc_ids)

    def vocabulary(self) -> list[str]:
        return self.terms

    def postings(self, term: str) -> tuple[np.ndarray, np.ndarray]:
        """The indexed term's doc indexes (ascending) and term frequencies."""
        row = self._row[term]
        lo, hi = self.offsets[row], self.offsets[row + 1]
        return self.doc_index[lo:hi], self.tf[lo:hi]

    def doc_length(self, doc_id: str) -> int:
        try:
            return int(self.doc_len[self.doc_ids.index(doc_id)])
        except ValueError:
            raise KeyError(f"unknown doc_id {doc_id!r}") from None

    def collection_prob(self, term: str) -> float:
        """Maximum-likelihood probability of the term in the whole collection."""
        if term not in self._row or self.total_tokens == 0:
            return 0.0
        return int(self.collection_freq[self._row[term]]) / self.total_tokens

    def __contains__(self, term: str) -> bool:
        return term in self._row

    def save(self, path):
        pairs = np.stack((self.doc_index, self.tf), axis=1).astype("<u4", copy=False)
        postings = np.insert(pairs.ravel(), 2 * self.offsets[:-1], np.diff(self.offsets))
        sections = (_pack_strings(self.terms, self.collection_freq.tolist()),
                    postings.tobytes(), _pack_strings(self.doc_ids, self.doc_len.tolist()))
        write_file(path, INDEX_MAGIC + bytes([INDEX_VERSION]) + b"".join(
            struct.pack("<Q", len(section)) + section for section in sections))

    @classmethod
    def load(cls, path) -> "InvertedIndex":
        """Read an index file; any malformed or inconsistent file raises ParseError."""
        try:
            return _parse_index(Path(path).read_bytes(), str(path))
        except (struct.error, UnicodeDecodeError) as exc:
            # a section shorter than its counts, or a name that is not UTF-8
            raise ParseError(f"{path}: malformed index section ({exc})") from None


def load_stopwords(path=None) -> frozenset:
    """Load the stopword list; the shipped INQUERY list is the default."""
    if path is None:
        text = resources.files("qexp.data").joinpath("inquery_stopwords.txt").read_text()
    else:
        text = "".join(line for _, line in text_lines(path))
    return frozenset(w for w in text.split() if w)


def tokenize(text: str, stopwords) -> list[str]:
    """Lowercase, split on non-alphanumeric runs, drop stopwords.

    No stemming is applied; pure-number tokens are kept.
    """
    return [t for t in _TOKEN_RE.findall(text.lower()) if t not in stopwords]


def ingest_trec_docs(path, stopwords) -> list[Document]:
    """Parse a TREC SGML file into tokenized Documents.

    One Document per <DOC> block; all <TEXT> sections are concatenated,
    remaining markup is stripped before tokenization.
    """
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError:
        list(text_lines(path))  # raises ParseError naming the first bad line
        raise
    docs = []
    seen = set()
    pos = 0
    while True:
        start = raw.find("<DOC>", pos)
        if start == -1:
            break
        end = raw.find("</DOC>", start)
        if end == -1:
            raise ParseError(f"{path}: unclosed <DOC> at byte offset {start}")
        block = raw[start + len("<DOC>"):end]
        if "<DOC>" in block:
            raise ParseError(f"{path}: nested <DOC> inside block at byte offset {start}")
        m = re.search(r"<DOCNO>\s*(.*?)\s*</DOCNO>", block, re.DOTALL)
        if m is None:
            raise ParseError(f"{path}: missing <DOCNO> in <DOC> at byte offset {start}")
        doc_id = m.group(1).strip()
        if not doc_id or any(c.isspace() for c in doc_id):
            # a run file line is six whitespace-separated columns, the doc id one of them
            raise ParseError(f"{path}: DOCNO {doc_id!r} is empty or holds whitespace, "
                             f"in <DOC> at byte offset {start}")
        if doc_id in seen:
            raise ParseError(f"{path}: duplicate DOCNO {doc_id!r} at byte offset {start}")
        seen.add(doc_id)
        texts = re.findall(r"<TEXT>(.*?)</TEXT>", block, re.DOTALL)
        body = _TAG_RE.sub(" ", " ".join(texts))
        docs.append(Document(doc_id, tokenize(body, stopwords)))
        pos = end + len("</DOC>")
    return docs


def build_index(docs: list[Document]) -> InvertedIndex:
    """Build the inverted index; postings are stored in sorted term order."""
    doc_ids = [doc.doc_id for doc in docs]
    if len(set(doc_ids)) < len(doc_ids):
        raise ValueError(f"duplicate doc_id {Counter(doc_ids).most_common(1)[0][0]!r}")
    accum: dict[str, list[int]] = {}
    for i, doc in enumerate(docs):
        for term, tf in Counter(doc.terms).items():
            accum.setdefault(term, []).extend((i, tf))
    terms = sorted(accum)
    offsets = np.concatenate(([0], np.cumsum([len(accum[t]) // 2 for t in terms],
                                             dtype=np.int64)))
    pairs = np.array([x for t in terms for x in accum[t]], np.uint32).reshape(-1, 2)
    return InvertedIndex(terms, offsets, pairs[:, 0], pairs[:, 1], doc_ids,
                         np.array([doc.length for doc in docs], np.uint64))


def load_topics(path, stopwords) -> list[Topic]:
    """Parse TREC <top>/<num>/<title> topics; titles are tokenized.

    Topics whose titles are empty after stopping are skipped with a warning.
    A line that is not UTF-8 raises ParseError naming path:line.
    """
    raw = "".join(line for _, line in text_lines(path))
    topics = []
    seen = set()
    for m in re.finditer(r"<top>(.*?)</top>", raw, re.DOTALL):
        block = m.group(1)
        num_m = re.search(r"<num>\s*(?:Number:)?\s*(\S+)", block)
        title_m = re.search(r"<title>\s*(?:Topic:)?\s*([^<]*)", block)
        if num_m is None or title_m is None:
            raise ParseError(f"{path}: topic block missing <num> or <title>")
        query_id = num_m.group(1).strip()
        if query_id in seen:
            raise ParseError(f"{path}: duplicate topic number {query_id!r}")
        seen.add(query_id)
        terms = tokenize(title_m.group(1), stopwords)
        if not terms:
            log.warning("topic %s: title empty after stopping, skipped", query_id)
            continue
        topics.append(Topic(query_id, terms))
    return topics


def load_qrels(path) -> Qrels:
    """Parse whitespace-delimited 4-column qrels: qid 0 docno grade."""
    qrels = Qrels()
    for lineno, line in text_lines(path):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 4:
            raise ParseError(f"{path}:{lineno}: expected 4 columns, got {len(parts)}")
        qid, _, docno, grade_s = parts
        try:
            grade = int(grade_s)
        except ValueError:
            raise ParseError(f"{path}:{lineno}: non-integer grade {grade_s!r}") from None
        if grade < 0:
            raise ParseError(f"{path}:{lineno}: negative grade {grade}")
        qrels.add(qid, docno, grade)
    return qrels


# --- binary index format ------------------------------------------------


def _pack_strings(names, values) -> bytes:
    """A string table: u32 count, then per entry u16 utf8 length, utf8, u64 value."""
    out = bytearray(struct.pack("<I", len(names)))
    for name, value in zip(names, values):
        enc = name.encode("utf-8")
        out += struct.pack("<H", len(enc)) + enc + struct.pack("<Q", value)
    return bytes(out)


def _unpack_strings(raw: bytes, name: str, what: str) -> tuple[list[str], list[int]]:
    (count,) = struct.unpack_from("<I", raw, 0)
    names, values, off = [], [], 4
    for _ in range(count):
        (size,) = struct.unpack_from("<H", raw, off)
        names.append(raw[off + 2:off + 2 + size].decode("utf-8"))
        (value,) = struct.unpack_from("<Q", raw, off + 2 + size)
        values.append(value)
        off += 10 + size
    if off != len(raw):
        raise ParseError(f"{name}: {len(raw) - off} bytes left over in the {what} section")
    if len(set(names)) < len(names):
        repeat = Counter(names).most_common(1)[0][0]
        raise ParseError(f"{name}: repeated {what} entry {repeat!r}")
    return names, values


def _parse_index(data: bytes, name: str) -> InvertedIndex:
    if data[:4] != INDEX_MAGIC:
        raise ParseError(f"{name}: not an index file (bad magic)")
    if len(data) < 5:
        raise ParseError(f"{name}: truncated index file")
    if data[4] != INDEX_VERSION:
        raise ParseError(f"{name}: unsupported index version {data[4]}")
    off = 5
    sections = []
    for _ in range(3):
        if off + 8 > len(data):
            raise ParseError(f"{name}: truncated index file")
        (length,) = struct.unpack_from("<Q", data, off)
        off += 8
        if off + length > len(data):
            raise ParseError(f"{name}: truncated index section")
        sections.append(data[off:off + length])
        off += length
    if off != len(data):
        raise ParseError(f"{name}: {len(data) - off} bytes after the last section")
    terms, freqs = _unpack_strings(sections[0], name, "vocabulary")
    doc_ids, doc_len = _unpack_strings(sections[2], name, "doc table")

    # each posting list is a u32 count followed by that many (doc index, tf) pairs
    postings_raw, counts, word = sections[1], [], 0
    for _ in terms:
        (count,) = struct.unpack_from("<I", postings_raw, 4 * word)
        counts.append(count)
        word += 1 + 2 * count
    if 4 * word != len(postings_raw):
        raise ParseError(f"{name}: postings section holds {len(postings_raw)} bytes, "
                         f"its counts imply {4 * word}")
    offsets = np.concatenate(([0], np.cumsum(counts, dtype=np.int64)))
    count_at = np.arange(len(terms)) + 2 * offsets[:-1]
    pairs = np.delete(np.frombuffer(postings_raw, "<u4"), count_at).reshape(-1, 2)
    doc_index = pairs[:, 0]
    if (doc_index >= len(doc_ids)).any():
        raise ParseError(f"{name}: a doc index points past the doc table of {len(doc_ids)}")
    step = np.diff(doc_index.astype(np.int64), prepend=-1)
    step[offsets[:-1][np.diff(offsets) > 0]] = 1  # a list's first posting
    if (step <= 0).any():
        term = terms[np.searchsorted(offsets, np.argmax(step <= 0), "right") - 1]
        raise ParseError(f"{name}: doc indexes of term {term!r} are not strictly ascending")

    idx = InvertedIndex(terms, offsets, doc_index, pairs[:, 1], doc_ids,
                        np.array(doc_len, np.uint64))
    wrong = np.flatnonzero(idx.collection_freq != np.array(freqs, np.uint64))
    if len(wrong):
        raise ParseError(f"{name}: posting frequencies disagree with stored "
                         f"collection frequency for term {terms[wrong[0]]!r}")
    return idx
