import sys
from pathlib import Path

import pytest
from hypothesis import settings

from qexp.collection import (
    build_index,
    ingest_trec_docs,
    load_qrels,
    load_stopwords,
    load_topics,
)
from qexp.embeddings import load_embeddings

FIXTURES = Path(__file__).parent / "fixtures"

# every property test replays the same examples on every run
settings.register_profile("qexp", derandomize=True, database=None, deadline=None)
settings.load_profile("qexp")


def pytest_sessionstart(session):
    # tests load tests/fixtures/tiny_vectors.txt in place; a .qxvec cache an earlier
    # run left beside it would let them read an older parse instead of this one
    for cache in FIXTURES.glob(".*.qxvec"):
        cache.unlink()


def pytest_sessionfinish(session):
    pytest_sessionstart(session)


@pytest.fixture(scope="session")
def stopwords():
    return load_stopwords()


@pytest.fixture(scope="session")
def mini_docs(stopwords):
    return ingest_trec_docs(FIXTURES / "mini_corpus.sgml", stopwords)


@pytest.fixture(scope="session")
def mini_index(mini_docs):
    return build_index(mini_docs)


@pytest.fixture(scope="session")
def mini_topics(stopwords):
    return load_topics(FIXTURES / "mini_topics.txt", stopwords)


@pytest.fixture(scope="session")
def mini_qrels():
    return load_qrels(FIXTURES / "mini_qrels.txt")


@pytest.fixture(scope="session")
def tiny_table():
    return load_embeddings(FIXTURES / "tiny_vectors.txt")


def pytest_terminal_summary(terminalreporter):
    mod = sys.modules.get("tests.test_acceptance") or sys.modules.get("test_acceptance")
    results = getattr(mod, "RESULTS", None) if mod else None
    if not results:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for num in sorted(results):
        terminalreporter.write_line(results[num])
