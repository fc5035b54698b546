"""The per-component text-vector reader, kept as the bit-exact reference.

`qexp.embeddings.load_embeddings` splits each line once into term and rest
and hands every kept rest to one `np.loadtxt`. Everything here is the
straightforward version it must match, table and error message alike: each
line split in full, its dimension checked, and each kept component parsed by
its own `float()` call. `float()` also takes `1_0` and non-ASCII digits,
which the loadtxt reader rejects as non-numeric.
"""

import numpy as np

from qexp.collection import ParseError, text_lines
from qexp.embeddings import EmbeddingTable


def load_embeddings(path, restrict_to=None) -> EmbeddingTable:
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
