"""The array-sorted candidate pool and the stacked multiplicative selection
equal their references (tests/reference_pool.py) bit for bit."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_pool
from qexp.collection import Topic
from qexp.embeddings import EmbeddingTable, top_k_neighbors
from qexp.expansion import _multiplicative_selection
from qexp.labeling import scored_candidate_pool
from synthworld import mismatch_world

# ASCII and non-ASCII letters, so Python string order differs from byte order
# of any one encoding and from the order terms are drawn in
TERMS = st.text(alphabet="abAZéßÅ日0", min_size=1, max_size=3)
SCALES = (0.5, 2.0, 3.0, -1.0)


@st.composite
def tables(draw):
    """Small tables rich in exact ties: integer rows (orthogonal and zero rows
    among them), duplicated and scaled rows, and rows of arbitrary floats."""
    n = draw(st.integers(1, 12))
    dim = draw(st.integers(1, 8))
    terms = draw(st.lists(TERMS, min_size=n, max_size=n, unique=True))
    ints = st.lists(st.integers(-2, 2), min_size=dim, max_size=dim)
    # six decimals keep squared norms clear of underflow
    floats = st.lists(st.floats(-1.0, 1.0).map(lambda x: round(x, 6)),
                      min_size=dim, max_size=dim)
    rows = []
    for _ in range(n):
        kind = draw(st.sampled_from(["int", "float", "copy", "scaled", "zero"]
                                    if rows else ["int", "float"]))
        if kind == "int":
            rows.append(np.array(draw(ints), dtype=np.float64))
        elif kind == "float":
            rows.append(np.array(draw(floats), dtype=np.float64))
        elif kind == "zero":
            rows.append(np.zeros(dim))
        else:
            base = rows[draw(st.integers(0, len(rows) - 1))]
            rows.append(base * (draw(st.sampled_from(SCALES)) if kind == "scaled" else 1.0))
    matrix = np.vstack(rows)
    if not np.any(matrix):
        matrix[0] = 1.0
    return EmbeddingTable(terms, matrix)


@st.composite
def queries(draw, table):
    kind = draw(st.sampled_from(["row", "int"]))
    if kind == "row":
        v = table.matrix[draw(st.integers(0, len(table) - 1))].copy()
    else:
        v = np.array(draw(st.lists(st.integers(-2, 2), min_size=table.dim,
                                   max_size=table.dim)), dtype=np.float64)
    if not np.any(v):
        v[0] = 1.0
    return v


@settings(max_examples=200)
@given(st.data())
def test_top_k_neighbors_equals_the_sort_based_reference(data):
    table = data.draw(tables())
    v = data.draw(queries(table))
    k = data.draw(st.integers(1, len(table) + 1))
    exclude = set(data.draw(st.lists(st.sampled_from(table.terms), max_size=3)))
    exclude |= set(data.draw(st.lists(TERMS, max_size=2)))  # may be absent from the table
    within = data.draw(st.none() | st.sets(st.sampled_from(table.terms) | TERMS))

    full = reference_pool.top_k_neighbors(v, len(table), table, exclude)
    assert repr(top_k_neighbors(v, k, table, exclude)) == repr(full[:k])
    want = [e for e in full if within is None or e[0] in within][:k]
    assert repr(top_k_neighbors(v, k, table, exclude, within=within)) == repr(want)


@settings(max_examples=150)
@given(st.data())
def test_multiplicative_selection_equals_the_cosine_reference(data):
    table = data.draw(tables())
    title = data.draw(st.lists(st.sampled_from(table.terms) | TERMS,
                               min_size=1, max_size=3))
    topic = Topic("q", title)
    v = data.draw(queries(table))
    pool = reference_pool.top_k_neighbors(v, len(table), table, set(title))
    m = data.draw(st.integers(1, len(pool) + 1))
    assert repr(_multiplicative_selection(topic, pool, table, m)) == \
        repr(reference_pool.multiplicative_selection(topic, pool, table, m))


def test_multiplicative_selection_equals_the_cosine_reference_at_d300():
    # per-row dot products, not one matrix-vector product: BLAS may sum a
    # long row in another order
    rng = np.random.default_rng(5)
    table = EmbeddingTable([f"t{i:03d}" for i in range(200)],
                           rng.standard_normal((200, 300)))
    for title in (["t000"], ["t001", "t002", "t003"], ["t004", "t004", "t005"]):
        topic = Topic("q", title)
        pool = reference_pool.top_k_neighbors(table.vector(title[0]), 150, table,
                                              set(title))
        assert repr(_multiplicative_selection(topic, pool, table, 150)) == \
            repr(reference_pool.multiplicative_selection(topic, pool, table, 150))


def _assert_pools_match(topics, table, idx, stopwords=frozenset()):
    for topic in topics:
        for pool_size in (1, 3, 12, 1000):
            got = scored_candidate_pool(topic, table, idx, pool_size, stopwords)
            want = reference_pool.scored_candidate_pool(topic, table, idx, pool_size,
                                                        stopwords)
            assert repr(got) == repr(want)
            assert repr(_multiplicative_selection(topic, got, table, 10)) == \
                repr(reference_pool.multiplicative_selection(topic, want, table, 10))


@pytest.mark.parametrize("seed", [0, 1])
def test_pool_equals_list_then_filter_on_mismatch_world(seed):
    topics, idx, _, table = mismatch_world(seed=seed)
    topics.append(Topic("zz", ["bgt1", "bgt2"]))  # no title term in the table
    _assert_pools_match(topics, table, idx)


def test_pool_equals_list_then_filter_on_fixtures(mini_topics, mini_index, tiny_table,
                                                  stopwords):
    _assert_pools_match(mini_topics, tiny_table, mini_index, stopwords)


# top_k_neighbors first sorts only the rows at or above the cosine of a small
# multiple of k rows. The tests below slide a group of ties across that cut,
# ask for more terms than the table holds, and reject the whole head.

def _ladder(n_high, n_tied, n_low):
    """Rows at strictly falling cosines to (1, 0), then n_tied identical rows,
    then lower rows; the tied terms are named in reverse row order, so their
    string order is not their row order."""
    rows = [(1.0, 0.01 * i) for i in range(n_high)]
    rows += [(1.0, 1.0)] * n_tied
    rows += [(1.0, 2.0 + i) for i in range(n_low)]
    terms = ([f"h{i:02d}" for i in range(n_high)]
             + [f"t{n_tied - i:02d}" for i in range(n_tied)]
             + [f"l{i:02d}" for i in range(n_low)])
    return EmbeddingTable(terms, np.array(rows)), np.array([1.0, 0.0])


def _reference_within(v, k, table, within):
    full = reference_pool.top_k_neighbors(v, len(table), table)
    return [e for e in full if within is None or e[0] in within][:k]


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_ties_straddling_the_head_cut_come_out_in_term_order(k):
    # for every multiple of k up to 5, some n_high puts the cut inside the
    # tied group; within rejects every row above it, so the walk must reach
    # the tied rows, all of them in the head
    for n_high in range(5 * k + 1):
        table, v = _ladder(n_high, 5, 4)
        within = {t for t in table.terms if not t.startswith("h")}
        for kk in (k, k + 1, k + 4):
            assert repr(top_k_neighbors(v, kk, table, within=within)) == \
                repr(_reference_within(v, kk, table, within))
            assert repr(top_k_neighbors(v, kk, table)) == \
                repr(_reference_within(v, kk, table, None))


def test_k_at_or_above_the_row_count_sorts_every_row():
    table, v = _ladder(3, 4, 3)
    for k in (len(table) - 1, len(table), len(table) + 7):
        for within in (None, {"h01", "t02", "l00", "absent"}):
            assert repr(top_k_neighbors(v, k, table, within=within)) == \
                repr(_reference_within(v, k, table, within))


def test_within_rejecting_the_head_widens_until_found():
    table, v = _ladder(40, 6, 5)
    for k, within in [(1, {"l04"}), (2, {"l03", "l04"}), (3, {"t01", "l04", "h39"}),
                      (2, {"absent"})]:
        assert repr(top_k_neighbors(v, k, table, within=within)) == \
            repr(_reference_within(v, k, table, within))


@st.composite
def tie_heavy_tables(draw):
    """Up to 80 rows of components in {-1, 0, 1}: few distinct cosines, so
    ties sit at any cut; zero rows among them."""
    n = draw(st.integers(10, 80))
    dim = draw(st.integers(1, 3))
    terms = draw(st.lists(TERMS, min_size=n, max_size=n, unique=True))
    matrix = np.array(draw(st.lists(st.lists(st.integers(-1, 1), min_size=dim,
                                             max_size=dim), min_size=n, max_size=n)),
                      dtype=np.float64)
    if not np.any(matrix):
        matrix[0] = 1.0
    return EmbeddingTable(terms, matrix)


@settings(max_examples=150)
@given(st.data())
def test_top_k_neighbors_equals_the_reference_on_tie_heavy_tables(data):
    table = data.draw(tie_heavy_tables())
    v = data.draw(queries(table))
    k = data.draw(st.integers(1, len(table) + 1))
    exclude = set(data.draw(st.lists(st.sampled_from(table.terms), max_size=5)))
    within = data.draw(st.none() | st.sets(st.sampled_from(table.terms), max_size=10))
    full = reference_pool.top_k_neighbors(v, len(table), table, exclude)
    want = [e for e in full if within is None or e[0] in within][:k]
    assert repr(top_k_neighbors(v, k, table, exclude, within=within)) == repr(want)
