"""The one-loadtxt vector reader equals its per-component float() reference
(tests/reference_embeddings.py) bit for bit: the same table, or the same
error message naming the same line."""

import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_embeddings
from qexp.collection import ParseError
from qexp.embeddings import load_embeddings

TERMS = "abcé日"
# separators that str.split and loadtxt both split on; the last is U+2003
SEPARATORS = [" ", "  ", "\t", " \t ", "\x0b", "\x0c", "\x1c", "\x85", "\xa0", " "]
SUBNORMALS = st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308)
FORMATS = [repr, "%.17g".__mod__, "%.6f".__mod__, "%.25e".__mod__]
# tokens that float() and loadtxt both reject
NON_NUMERIC = ["x", "1e", "1.2.3", "#5", "--1", "0x10", "1,5", "1d5"]
# edge spellings; the table rejects the non-finite ones
SPECIAL = ["-0.0", "0", "nan", "-inf", "inf", "Infinity", "+1.", ".5"]


@st.composite
def components(draw):
    kind = draw(st.sampled_from(["float"] * 40 + ["subnormal"] * 4 + ["special"] * 2
                                + ["bad"]))
    if kind == "special":
        return draw(st.sampled_from(SPECIAL))
    if kind == "bad":
        return draw(st.sampled_from(NON_NUMERIC))
    x = draw(SUBNORMALS if kind == "subnormal"
             else st.floats(allow_nan=False, allow_infinity=False))
    return draw(st.sampled_from(FORMATS))(x)


@st.composite
def vector_files(draw):
    """Text of a vectors file and a restriction, mostly well formed: rows of
    one dimension under an optional word2vec header (its count sometimes
    off), with blank lines, lines of another dimension, term-only lines and
    repeated terms."""
    dim = draw(st.integers(1, 4))
    sep = st.sampled_from(SEPARATORS)
    lines, terms = [], []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["row"] * 60 + ["blank"] * 6
                                    + ["short", "long", "bare", "repeat"]))
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", " ", "\t\x0c"])))
            continue
        n = {"short": dim - 1, "long": dim + 1, "bare": 0}.get(kind, dim)
        fresh = draw(st.text(TERMS, min_size=1, max_size=2)) + str(len(terms))
        terms.append(draw(st.sampled_from(terms)) if kind == "repeat" and terms else fresh)
        cells = [terms[-1]] + [draw(components()) for _ in range(n)]
        line = "".join(c + draw(sep) for c in cells[:-1]) + cells[-1]
        lines.append(draw(st.sampled_from(["", " ", "\xa0"])) + line
                     + draw(st.sampled_from(["", " ", "\t"])))
    if draw(st.booleans()):
        lines.insert(0, f"{len(terms) + draw(st.sampled_from([0] * 6 + [1, -1]))} {dim}")
    text = "\n".join(lines) + draw(st.sampled_from(["", "\n"]))
    restrict = draw(st.none() | st.sets(st.sampled_from(terms + ["zz"])))
    return text, restrict


def outcome(reader, path, restrict):
    try:
        table = reader(path, restrict_to=restrict)
    except ParseError as exc:
        return str(exc)
    return table.terms, table.matrix.shape, table.matrix.tobytes()


@settings(max_examples=600)
@given(vector_files())
def test_reader_matches_float_reference(tmp_path_factory, case):
    text, restrict = case
    path = tmp_path_factory.getbasetemp() / "vectors.txt"
    path.write_bytes(text.encode("utf-8"))
    assert outcome(load_embeddings, path, restrict) == outcome(
        reference_embeddings.load_embeddings, path, restrict)


@pytest.mark.parametrize("x", [5e-324, -2.2250738585072014e-308, 0.1, 1 / 3, -1e308,
                               sys.float_info.max, sys.float_info.min, -0.0])
def test_every_format_of_a_value_reads_to_its_bits(tmp_path, x):
    p = tmp_path / "v.txt"
    p.write_text("".join(f"t{i} 1 {f(x)}\n" for i, f in enumerate(FORMATS)))
    got = outcome(load_embeddings, p, None)
    assert got == outcome(reference_embeddings.load_embeddings, p, None)
    column = np.frombuffer(got[2]).reshape(got[1])[:, 1]
    assert column.tolist() == [float(f(x)) for f in FORMATS]
    assert np.signbit(column).tolist() == [np.signbit(float(f(x))) for f in FORMATS]
