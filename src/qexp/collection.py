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
from collections import Counter, defaultdict
from dataclasses import dataclass
from importlib import resources
from itertools import chain, count, filterfalse
from pathlib import Path

import numpy as np

log = logging.getLogger(__name__)

# every byte but [a-z0-9] becomes a space, so split() yields the [a-z0-9]+ runs
_TOKEN_TABLE = re.sub(rb"[^a-z0-9]", b" ", bytes(range(256)))
_TAG_RE = re.compile(r"<[^>]*>")
_DOCNO_RE = re.compile(r"<DOCNO>\s*(.*?)\s*</DOCNO>", re.DOTALL)
_TEXT_RE = re.compile(r"<TEXT>(.*?)</TEXT>", re.DOTALL)

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
    """Write str (as UTF-8), bytes-like data, or a list of such parts in order,
    to path, replacing it in one step.

    The data goes to ``.<name>.<pid>.tmp`` beside the target, which
    ``os.replace`` then moves over it; on any error the temporary file is
    removed, so the target keeps its earlier bytes. A symlink is written
    through to its target."""
    path = Path(path).resolve()
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            for part in data if isinstance(data, list) else [data]:
                f.write(part.encode("utf-8") if isinstance(part, str) else part)
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
    its rows has a grade above 0; any other grade, negative too, is not."""

    def __init__(self):
        self._relevant: dict[str, set[str]] = {}

    def add(self, query_id: str, doc_id: str, grade: int):
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
        self._row = dict(zip(terms, range(len(terms))))
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
        write_file(path, [INDEX_MAGIC + bytes([INDEX_VERSION]), *chain.from_iterable(
            (struct.pack("<Q", len(section)), section) for section in sections)])

    @classmethod
    def load(cls, path) -> "InvertedIndex":
        """Read an index file; any malformed or inconsistent file raises ParseError."""
        try:
            return _parse_index(Path(path).read_bytes(), str(path))
        except (struct.error, IndexError, UnicodeDecodeError) as exc:
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
    """Lowercase, keep the runs of ASCII [a-z0-9], drop stopwords.

    Any other character after lowercasing separates tokens ("café" gives
    "caf"). No stemming is applied; pure-number tokens are kept.
    """
    words = text.lower().encode("ascii", "replace").translate(_TOKEN_TABLE)
    return list(filterfalse(stopwords.__contains__, words.decode("ascii").split()))


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

    def error(message):
        # the <DOC> at start is the k-th of the decoded text, so the k-th of the
        # file's bytes: neither decoding nor newline translation alters a tag
        data, at = Path(path).read_bytes(), -1
        for _ in range(raw.count("<DOC>", 0, start) + 1):
            at = data.find(b"<DOC>", at + 1)
        return ParseError(f"{path}: {message} at byte offset {at}")

    while True:
        start = raw.find("<DOC>", pos)
        if start == -1:
            break
        end = raw.find("</DOC>", start)
        if end == -1:
            raise error("unclosed <DOC>")
        block = raw[start + len("<DOC>"):end]
        if "<DOC>" in block:
            raise error("nested <DOC> inside block")
        m = _DOCNO_RE.search(block)
        if m is None:
            raise error("missing <DOCNO> in <DOC>")
        doc_id = m.group(1).strip()
        if doc_id.split() != [doc_id]:
            # a run file line is six whitespace-separated columns, the doc id one of them
            raise error(f"DOCNO {doc_id!r} is empty or holds whitespace, in <DOC>")
        if doc_id in seen:
            raise error(f"duplicate DOCNO {doc_id!r}")
        seen.add(doc_id)
        texts = _TEXT_RE.findall(block)
        body = _TAG_RE.sub(" ", " ".join(texts))
        docs.append(Document(doc_id, tokenize(body, stopwords)))
        pos = end + len("</DOC>")
    return docs


def build_index(docs: list[Document]) -> InvertedIndex:
    """Build the inverted index; postings are stored in sorted term order. One stable
    sort of the tokens' vocabulary ranks makes each (term, doc) run a posting of its tf."""
    doc_ids = [doc.doc_id for doc in docs]
    if len(set(doc_ids)) < len(doc_ids):
        raise ValueError(f"duplicate doc_id {Counter(doc_ids).most_common(1)[0][0]!r}")
    lengths = np.fromiter(map(len, (doc.terms for doc in docs)), np.int64, len(docs))
    first = defaultdict(count().__next__)  # a term's id is its order of first use
    ids = np.fromiter(map(first.__getitem__, chain.from_iterable(doc.terms for doc in docs)),
                      np.uint32, int(lengths.sum()))
    terms = sorted(first)
    # a term's sorted rank, in the narrowest type: NumPy radix-sorts 8- and 16-bit keys
    rank = np.argsort(np.fromiter(map(first.__getitem__, terms), np.int64, len(terms)))
    ids = rank.astype(np.min_scalar_type(len(terms)))[ids]
    order = np.argsort(ids, kind="stable")
    ids, doc_of = ids[order], np.repeat(np.arange(len(docs), dtype=np.uint32), lengths)[order]
    del order  # 8 bytes a token, freed before the postings are built
    head = np.ones(len(ids), bool)
    head[1:] = (ids[1:] != ids[:-1]) | (doc_of[1:] != doc_of[:-1])
    starts = np.flatnonzero(head)
    offsets = np.concatenate(([0], np.cumsum(
        np.bincount(ids[starts], minlength=len(terms)), dtype=np.int64)))
    tf = np.diff(starts, append=len(ids)).astype(np.uint32)
    return InvertedIndex(terms, offsets, doc_of[starts], tf, doc_ids,
                         lengths.astype(np.uint64))


def load_topics(path, stopwords) -> list[Topic]:
    """Parse TREC <top>/<num>/<title> topics; titles are tokenized.

    Topics whose titles are empty after stopping are skipped with a warning.
    A line that is not UTF-8, and a topic block with no number or title or a
    repeated number, raise ParseError naming path:line.
    """
    raw = "".join(line for _, line in text_lines(path))
    topics = []
    seen = set()
    for m in re.finditer(r"<top>(.*?)</top>", raw, re.DOTALL):
        line = raw.count("\n", 0, m.start()) + 1
        block = m.group(1)
        num_m = re.search(r"<num>\s*(?:Number:)?\s*([^\s<]*)", block)
        title_m = re.search(r"<title>\s*(?:Topic:)?\s*([^<]*)", block)
        if num_m is None or title_m is None:
            raise ParseError(f"{path}:{line}: topic block missing <num> or <title>")
        query_id = num_m.group(1)
        if not query_id:
            raise ParseError(f"{path}:{line}: empty topic number after <num>")
        if query_id in seen:
            raise ParseError(f"{path}:{line}: duplicate topic number {query_id!r}")
        seen.add(query_id)
        terms = tokenize(title_m.group(1), stopwords)
        if not terms:
            log.warning("topic %s: title empty after stopping, skipped", query_id)
            continue
        topics.append(Topic(query_id, terms))
    return topics


def load_qrels(path) -> Qrels:
    """Parse whitespace-delimited 4-column qrels: qid 0 docno grade. Any
    integer grade loads; grades of 0 and below (TREC Web's -2) are non-relevant."""
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


def _unpack_strings(raw: bytes, name: str, what: str) -> tuple[list[str], np.ndarray]:
    (count,) = struct.unpack_from("<I", raw, 0)
    names, value_at, off = [], [], 4
    for _ in range(count):
        size = raw[off] | raw[off + 1] << 8
        names.append(raw[off + 2:off + 2 + size].decode("utf-8"))
        off += 10 + size
        value_at.append(off - 8)
    # one gather of every u64 value; an IndexError when the last entry is cut short
    at = np.array(value_at, np.int64)[:, None] + np.arange(8)
    values = np.frombuffer(raw, np.uint8)[at].view("<u8").ravel()
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
    words = np.frombuffer(postings_raw, "<u4", len(postings_raw) // 4)
    for _ in terms:
        counts.append(words.item(word))
        word += 1 + 2 * counts[-1]
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

    idx = InvertedIndex(terms, offsets, doc_index, pairs[:, 1], doc_ids, doc_len)
    wrong = np.flatnonzero(idx.collection_freq != freqs)
    if len(wrong):
        raise ParseError(f"{name}: posting frequencies disagree with stored "
                         f"collection frequency for term {terms[wrong[0]]!r}")
    return idx
