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

Doc indexes in the postings section refer to positions in the doc table.
"""

import logging
import re
import struct
from collections import Counter
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

log = logging.getLogger(__name__)

_TOKEN_RE = re.compile(r"[a-z0-9]+")
_TAG_RE = re.compile(r"<[^>]*>")

INDEX_MAGIC = b"QXIX"
INDEX_VERSION = 1


class ParseError(ValueError):
    """Raised for malformed corpus, topic, qrels, or index files."""


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

    def relevant_docs(self, query_id: str) -> set[str]:
        return self._relevant.get(query_id, set())

    def num_relevant(self, query_id: str) -> int:
        return len(self._relevant.get(query_id, ()))


class InvertedIndex:
    """Postings, document lengths, and collection statistics.

    Immutable once built; safe to share across concurrent readers.
    """

    def __init__(
        self,
        postings: dict[str, list[tuple[str, int]]],
        doc_lengths: dict[str, int],
        doc_order: list[str],
    ):
        self.postings = postings
        self.doc_lengths = doc_lengths
        self.doc_order = doc_order
        self.collection_freq = {
            term: sum(tf for _, tf in plist) for term, plist in postings.items()
        }
        self.total_tokens = sum(doc_lengths.values())

    @property
    def num_docs(self) -> int:
        return len(self.doc_lengths)

    def vocabulary(self):
        return self.postings.keys()

    def doc_length(self, doc_id: str) -> int:
        try:
            return self.doc_lengths[doc_id]
        except KeyError:
            raise KeyError(f"unknown doc_id {doc_id!r}") from None

    def term_freq(self, term: str, doc_id: str) -> int:
        for d, tf in self.postings.get(term, ()):
            if d == doc_id:
                return tf
        return 0

    def collection_prob(self, term: str) -> float:
        """Maximum-likelihood probability of the term in the whole collection."""
        if self.total_tokens == 0:
            return 0.0
        return self.collection_freq.get(term, 0) / self.total_tokens

    def __contains__(self, term: str) -> bool:
        return term in self.postings

    def save(self, path):
        data = _serialize_index(self)
        Path(path).write_bytes(data)

    @classmethod
    def load(cls, path) -> "InvertedIndex":
        return _deserialize_index(Path(path).read_bytes(), str(path))


def load_stopwords(path=None) -> frozenset:
    """Load the stopword list; the shipped INQUERY list is the default."""
    if path is None:
        text = resources.files("qexp.data").joinpath("inquery_stopwords.txt").read_text()
    else:
        text = Path(path).read_text()
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
    raw = Path(path).read_text(errors="replace")
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
        if doc_id in seen:
            raise ParseError(f"{path}: duplicate DOCNO {doc_id!r} at byte offset {start}")
        seen.add(doc_id)
        texts = re.findall(r"<TEXT>(.*?)</TEXT>", block, re.DOTALL)
        body = _TAG_RE.sub(" ", " ".join(texts))
        docs.append(Document(doc_id, tokenize(body, stopwords)))
        pos = end + len("</DOC>")
    return docs


def build_index(docs) -> InvertedIndex:
    """Build the inverted index; postings are stored in sorted term order."""
    accum: dict[str, list[tuple[str, int]]] = {}
    doc_lengths: dict[str, int] = {}
    doc_order: list[str] = []
    for doc in docs:
        if doc.doc_id in doc_lengths:
            raise ValueError(f"duplicate doc_id {doc.doc_id!r}")
        doc_lengths[doc.doc_id] = doc.length
        doc_order.append(doc.doc_id)
        for term, tf in Counter(doc.terms).items():
            accum.setdefault(term, []).append((doc.doc_id, tf))
    postings = {term: accum[term] for term in sorted(accum)}
    return InvertedIndex(postings, doc_lengths, doc_order)


def load_topics(path, stopwords) -> list[Topic]:
    """Parse TREC <top>/<num>/<title> topics; titles are tokenized.

    Topics whose titles are empty after stopping are skipped with a warning.
    """
    raw = Path(path).read_text(errors="replace")
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
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
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


def _serialize_index(idx: InvertedIndex) -> bytes:
    doc_pos = {doc_id: i for i, doc_id in enumerate(idx.doc_order)}
    terms = sorted(idx.postings)

    vocab = bytearray(struct.pack("<I", len(terms)))
    for term in terms:
        enc = term.encode("utf-8")
        vocab += struct.pack("<H", len(enc)) + enc
        vocab += struct.pack("<Q", idx.collection_freq[term])

    postings = bytearray()
    for term in terms:
        plist = idx.postings[term]
        postings += struct.pack("<I", len(plist))
        for doc_id, tf in plist:
            postings += struct.pack("<II", doc_pos[doc_id], tf)

    table = bytearray(struct.pack("<I", len(idx.doc_order)))
    for doc_id in idx.doc_order:
        enc = doc_id.encode("utf-8")
        table += struct.pack("<H", len(enc)) + enc
        table += struct.pack("<Q", idx.doc_lengths[doc_id])

    out = bytearray(INDEX_MAGIC)
    out.append(INDEX_VERSION)
    for section in (vocab, postings, table):
        out += struct.pack("<Q", len(section))
        out += section
    return bytes(out)


def _deserialize_index(data: bytes, name: str) -> InvertedIndex:
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
    try:
        return _parse_sections(name, *sections)
    except (struct.error, IndexError, UnicodeDecodeError) as exc:
        # A section shorter than its counts, or a doc index past the doc table.
        raise ParseError(f"{name}: malformed index section ({exc})") from None


def _parse_sections(name: str, vocab_raw: bytes, postings_raw: bytes,
                    table_raw: bytes) -> InvertedIndex:
    terms = []
    freqs = []
    off = 4
    (n_terms,) = struct.unpack_from("<I", vocab_raw, 0)
    for _ in range(n_terms):
        (tlen,) = struct.unpack_from("<H", vocab_raw, off)
        off += 2
        terms.append(vocab_raw[off:off + tlen].decode("utf-8"))
        off += tlen
        (cf,) = struct.unpack_from("<Q", vocab_raw, off)
        off += 8
        freqs.append(cf)

    doc_order = []
    doc_lengths = {}
    off = 4
    (n_docs,) = struct.unpack_from("<I", table_raw, 0)
    for _ in range(n_docs):
        (dlen,) = struct.unpack_from("<H", table_raw, off)
        off += 2
        doc_id = table_raw[off:off + dlen].decode("utf-8")
        off += dlen
        (length,) = struct.unpack_from("<Q", table_raw, off)
        off += 8
        doc_order.append(doc_id)
        doc_lengths[doc_id] = length

    postings = {}
    off = 0
    for term, cf in zip(terms, freqs):
        (n_post,) = struct.unpack_from("<I", postings_raw, off)
        off += 4
        plist = []
        for _ in range(n_post):
            doc_i, tf = struct.unpack_from("<II", postings_raw, off)
            off += 8
            plist.append((doc_order[doc_i], tf))
        if sum(tf for _, tf in plist) != cf:
            raise ParseError(f"{name}: posting frequencies disagree with stored "
                             f"collection frequency for term {term!r}")
        postings[term] = plist

    return InvertedIndex(postings, doc_lengths, doc_order)
