"""Embedding loading, cosine, centroid, and neighbor search."""

import math
import re

import numpy as np
import pytest

from qexp.collection import ParseError
from qexp.embeddings import EmbeddingTable, centroid, load_embeddings, top_k_neighbors
import reference_embeddings
import reference_pool
from reference_pool import cosine


def cos_ref(a, b):
    num = math.fsum(x * y for x, y in zip(a, b))
    na = math.sqrt(math.fsum(x * x for x in a))
    nb = math.sqrt(math.fsum(x * x for x in b))
    return num / (na * nb)


def test_load_fixture(tiny_table):
    assert len(tiny_table) == 8
    assert tiny_table.dim == 3
    assert np.array_equal(tiny_table.vector("solar"), [1.0, 0.0, 0.0])
    assert "coal" in tiny_table and "zz" not in tiny_table
    with pytest.raises(KeyError, match="zz"):
        tiny_table.vector("zz")


def test_load_restrict(tmp_path):
    p = tmp_path / "v.txt"
    p.write_text("a 1 0\nb 0 1\nc 1 1\n")
    table = load_embeddings(p, restrict_to={"a", "c", "nothere"})
    assert table.terms == ["a", "c"]
    with pytest.raises(ParseError, match="survived"):
        load_embeddings(p, restrict_to={"nothere"})


def test_load_errors(tmp_path):
    p = tmp_path / "v.txt"
    p.write_text("a 1 0\nb 0 1 7\n")
    with pytest.raises(ParseError, match=r"v\.txt:2: dimension 3 != 2"):
        load_embeddings(p)
    p.write_text("a 1 0\na 0 1\n")
    with pytest.raises(ParseError, match=r"v\.txt:2: duplicate term 'a'"):
        load_embeddings(p)
    p.write_text("")
    with pytest.raises(ParseError, match="empty embedding file"):
        load_embeddings(p)
    p.write_text("lonely\n")
    with pytest.raises(ParseError, match="no vector components"):
        load_embeddings(p)
    p.write_text("a 1 notanumber\n")
    with pytest.raises(ParseError, match=r"v\.txt:1: non-numeric"):
        load_embeddings(p)
    p.write_text("a 0 0\n")
    with pytest.raises(ParseError, match="non-zero vector"):
        load_embeddings(p)
    for bad in ("nan", "inf", "-inf"):
        p.write_text(f"a 1 0\nb 0.5 {bad}\nc nan 1\n")
        with pytest.raises(ParseError, match=r"v\.txt: non-finite .* term 'b'"):
            load_embeddings(p)


def test_load_word2vec_header(tmp_path):
    p = tmp_path / "v.txt"
    p.write_text("2 3\na 1 2 3\nb 4 5 6\n")
    table = load_embeddings(p)
    assert table.terms == ["a", "b"]
    assert table.dim == 3
    assert np.array_equal(table.vector("b"), [4.0, 5.0, 6.0])
    assert load_embeddings(p, restrict_to={"b"}).terms == ["b"]

    p.write_text("2 3\na 1 2 3\nb 4 5\n")
    with pytest.raises(ParseError, match=r"v\.txt:3: dimension 2 != 3 from header"):
        load_embeddings(p)
    p.write_text("3 3\na 1 2 3\nb 4 5 6\n")
    with pytest.raises(ParseError, match=r"v\.txt:1: header declares 3 rows, file holds 2"):
        load_embeddings(p)
    p.write_text("1 3\na 1 2 3\nb 4 5 6\n")
    with pytest.raises(ParseError, match=r"v\.txt:1: header declares 1 rows, file holds 2"):
        load_embeddings(p)


@pytest.mark.parametrize("text, restrict, message", [
    # a dropped line of the wrong dimension before a kept non-numeric line
    ("a 1 0\nz 1 2 3\nb 1 x\n", {"a", "b"}, "2: dimension 3 != 2 from first line"),
    # and the reverse
    ("a 1 0\nb 1 x\nz 1 2 3\n", {"a", "b"}, "2: non-numeric vector component"),
    # the first kept row disagrees with the header, after a dropped row
    ("2 3\nz 1 2 3\na 1 2\n", {"a"}, "3: dimension 2 != 3 from header"),
    ("2 3\na 1 2\nb 1 2 3\n", None, "2: dimension 2 != 3 from header"),
    # a bad row after the first kept one
    ("a 1 0\nb 0 1\nc 1 0 5\n", None, "3: dimension 3 != 2 from first line"),
    ("a 1 0\nb 0 1\nc 1\nd x\n", None, "3: dimension 1 != 2 from first line"),
    ("a 1 0\nb 0 1\nc\n", None, "3: dimension 0 != 2 from first line"),
    ("a 1 0\nb 0 1\nc 1 x\nd 1\n", None, "3: non-numeric vector component"),
    ("a 1 0\nb 0 1\nc 1 x 2\n", None, "3: dimension 3 != 2 from first line"),
    # a repeated term of the wrong dimension is named for its dimension
    ("a 1 0\nb 0 1\na 1\n", None, "3: dimension 1 != 2 from first line"),
    ("a 1 0\nb 0 1\nb 1 2\n", None, "3: duplicate term 'b'"),
])
def test_first_bad_line_in_file_order_is_named(tmp_path, text, restrict, message):
    p = tmp_path / "v.txt"
    p.write_text(text)
    for reader in (load_embeddings, reference_embeddings.load_embeddings):
        with pytest.raises(ParseError) as info:
            reader(p, restrict_to=restrict)
        assert str(info.value) == f"{p}:{message}"


@pytest.mark.parametrize("component", ["1_0", "١", "１"])
def test_components_are_ascii_decimal_floats(tmp_path, component):
    p = tmp_path / "v.txt"
    p.write_text(f"a 1 0\nb {component} 1\n", encoding="utf-8")
    # float() takes these; the reader does not
    assert reference_embeddings.load_embeddings(p).vector("b")[0] in (1.0, 10.0)
    with pytest.raises(ParseError, match=rf"^{re.escape(str(p))}:2: non-numeric vector component$"):
        load_embeddings(p)


def test_header_of_dimension_zero_is_named(tmp_path):
    p = tmp_path / "v.txt"
    p.write_text("2 0\na\nb\n")
    with pytest.raises(ParseError, match=r"v\.txt:1: no vector components"):
        load_embeddings(p)


def test_table_validation():
    with pytest.raises(ValueError, match="duplicate"):
        EmbeddingTable(["a", "a"], np.eye(2))
    with pytest.raises(ValueError, match="disagree"):
        EmbeddingTable(["a"], np.eye(2))
    with pytest.raises(ValueError, match="non-zero"):
        EmbeddingTable(["a", "b"], np.zeros((2, 3)))
    with pytest.raises(ValueError, match="non-finite vector component for term 'c'"):
        EmbeddingTable(["a", "b", "c"], np.array([[1.0, 0.0], [0.0, 0.0], [np.inf, 1.0]]))


def test_cosine_hand_values(tiny_table):
    v = tiny_table.vector
    assert cosine(v("solar"), v("coal")) == -1.0
    assert cosine(v("solar"), v("cost")) == 0.0
    assert cosine(v("solar"), v("energy")) == pytest.approx(0.8, abs=1e-12)
    assert cosine(v("energy"), v("cheap")) == pytest.approx(0.96, abs=1e-12)
    assert cosine(v("wind"), v("wind")) == 1.0


def test_cosine_matches_reference():
    rng = np.random.default_rng(3)
    for _ in range(200):
        a = rng.standard_normal(6)
        b = rng.standard_normal(6)
        c = cosine(a, b)
        assert c == pytest.approx(cos_ref(a, b), abs=1e-12)
        assert -1.0 <= c <= 1.0
    # parallel vectors stay clipped despite rounding
    a = rng.uniform(0.1, 1.0, size=8)
    assert cosine(a, 3.0 * a) <= 1.0


def test_cosine_errors():
    with pytest.raises(ValueError, match="zero vector"):
        cosine(np.zeros(3), np.ones(3))
    with pytest.raises(ValueError, match="lengths differ"):
        cosine(np.ones(3), np.ones(4))


def test_centroid(tiny_table, caplog):
    c = centroid(["solar", "energy"], tiny_table)
    assert c == pytest.approx([0.9, 0.3, 0.0])
    with caplog.at_level("WARNING"):
        c2 = centroid(["solar", "energy", "notfound"], tiny_table)
    assert np.array_equal(c, c2)
    assert "notfound" in caplog.text
    with pytest.raises(ValueError, match="vocabulary"):
        centroid(["nope", "nada"], tiny_table)


def test_top_k_matches_pairwise(tiny_table):
    got = top_k_neighbors(tiny_table.vector("solar"), 5, tiny_table)
    brute = sorted(
        ((t, cosine(tiny_table.vector("solar"), tiny_table.vector(t)))
         for t in tiny_table.terms),
        key=lambda e: (-e[1], e[0]))[:5]
    assert [t for t, _ in got] == [t for t, _ in brute]
    for (_, s1), (_, s2) in zip(got, brute):
        assert s1 == pytest.approx(s2, abs=1e-12)


def test_top_k_random_tables():
    rng = np.random.default_rng(11)
    for _ in range(30):
        n = int(rng.integers(3, 25))
        table = EmbeddingTable([f"w{i:02d}" for i in range(n)],
                               rng.standard_normal((n, 5)))
        v = rng.standard_normal(5)
        k = int(rng.integers(1, n + 2))
        got = top_k_neighbors(v, k, table)
        brute = sorted(((t, cosine(v, table.vector(t))) for t in table.terms),
                       key=lambda e: (-e[1], e[0]))[:k]
        assert [t for t, _ in got] == [t for t, _ in brute]
        for (_, s1), (_, s2) in zip(got, brute):
            assert s1 == pytest.approx(s2, abs=1e-12)


def test_top_k_ties_break_by_term():
    table = EmbeddingTable(["bb", "aa", "cc"],
                           np.array([[2.0, 0.0], [1.0, 0.0], [4.0, 0.0]]))
    got = top_k_neighbors(np.array([1.0, 0.0]), 3, table)
    assert [t for t, _ in got] == ["aa", "bb", "cc"]
    assert all(s == 1.0 for _, s in got)


def test_top_k_excludes(tiny_table):
    got = top_k_neighbors(tiny_table.vector("solar"), 8, tiny_table,
                          exclude={"solar", "panel"})
    names = [t for t, _ in got]
    assert "solar" not in names and "panel" not in names


def test_top_k_skips_zero_rows():
    table = EmbeddingTable(["a", "z", "b"],
                           np.array([[1.0, 0.0], [0.0, 0.0], [0.5, 0.5]]))
    got = top_k_neighbors(np.array([1.0, 1.0]), 3, table)
    assert [t for t, _ in got] == ["b", "a"]


@pytest.mark.parametrize("size", [1e200, 1.7e308, 1e-160, 1e-200, 5e-324])
def test_rows_whose_squares_leave_the_float_range_keep_their_direction(size):
    # the sum of squares overflows past ~1.3e154 and loses bits below ~1.5e-154
    table = EmbeddingTable(["a", "b", "c"], np.array([[size, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    assert table.has_direction("a") and table.has_direction("b")
    assert top_k_neighbors(table.vector("b"), 2, table, exclude={"b"}) == [
        ("a", 1.0), ("c", 0.0)]
    assert table._unit[0].tolist() == [1.0, 0.0]
    # and as the query: scaled by its max-abs component, as the table scales it
    assert top_k_neighbors(table.vector("a"), 2, table, exclude={"a"}) == [
        ("b", 1.0), ("c", 0.0)]


def test_rows_in_the_float_range_keep_their_bits():
    rng = np.random.default_rng(5)
    matrix = rng.standard_normal((50, 7)) * 10.0 ** rng.integers(-150, 150, (50, 1))
    matrix[3] = [1e200, -1e200, 0, 0, 0, 0, 0]
    table = EmbeddingTable([f"t{i}" for i in range(50)], matrix)
    norms = np.linalg.norm(np.delete(matrix, 3, axis=0), axis=1)
    assert np.delete(table._unit, 3, axis=0).tobytes() == (
        np.delete(matrix, 3, axis=0) / norms[:, None]).tobytes()
    assert table._unit[3].tolist() == [1 / math.sqrt(2), -1 / math.sqrt(2), 0, 0, 0, 0, 0]


def test_within_rejecting_all_but_the_last_row_sorts_twice(monkeypatch):
    # the head, then the remainder once, however little of it within keeps
    rng = np.random.default_rng(2)
    table = EmbeddingTable([f"w{i:04d}" for i in range(4096)],
                           rng.standard_normal((4096, 8)))
    v = rng.standard_normal(8)
    full = reference_pool.top_k_neighbors(v, len(table), table)
    sorts = []
    lexsort = np.lexsort
    monkeypatch.setattr(np, "lexsort", lambda keys: sorts.append(1) or lexsort(keys))
    for k in (1, 3):
        sorts.clear()
        got = top_k_neighbors(v, k, table, within={full[-1][0]})
        assert len(sorts) <= 2
        assert repr(got) == repr(full[-1:])


def test_top_k_validation(tiny_table):
    with pytest.raises(ValueError, match="k must be"):
        top_k_neighbors(np.ones(3), 0, tiny_table)
    with pytest.raises(ValueError, match="zero vector"):
        top_k_neighbors(np.zeros(3), 2, tiny_table)
