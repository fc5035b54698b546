"""The .qxvec cache beside a vectors file: a hit gives the text parse's table
bit for bit, and a stale, damaged or unwritable cache never changes a load."""

import os
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_embeddings
import test_embeddings
from mutation import mutate
from qexp import embeddings
from qexp.collection import ParseError
from qexp.embeddings import load_embeddings

TEXT = "3 3\nsolar 1 0 0.5\npanel 0.25 -1e-3 2\nénergie 3 1e-300 -0.0\n"
KEEP = {"solar", "énergie", "absent"}
# the malformed files of test_first_bad_line_in_file_order_is_named
BAD_FILES = test_embeddings.test_first_bad_line_in_file_order_is_named.pytestmark[0].args[1]


def caches(path):
    return sorted(p.name for p in path.parent.glob(f".{path.name}.*.qxvec"))


def table_bits(table):
    return table.terms, table.matrix.shape, table.matrix.tobytes()


def reference_bits(path, restrict):
    return table_bits(reference_embeddings.load_embeddings(path, restrict_to=restrict))


def no_parse(*args, **kwargs):
    raise AssertionError("np.loadtxt called on a cache hit")


@pytest.fixture
def vectors(tmp_path):
    path = tmp_path / "v.txt"
    path.write_text(TEXT, encoding="utf-8")
    return path


def test_a_second_load_reads_the_cache_and_never_parses(vectors, monkeypatch, caplog):
    caplog.set_level("INFO", logger="qexp.embeddings")
    expected = reference_bits(vectors, KEEP)
    assert table_bits(load_embeddings(vectors, restrict_to=KEEP)) == expected
    (name,) = caches(vectors)
    assert len(name) == len(".v.txt.") + 16 + len(".qxvec")
    assert f"embeddings {vectors}: 2 of 3 rows kept, cache miss, " in caplog.text
    assert "no cache written" not in caplog.text
    caplog.clear()
    monkeypatch.setattr(np, "loadtxt", no_parse)
    assert table_bits(load_embeddings(vectors, restrict_to=sorted(KEEP))) == expected
    assert f"embeddings {vectors}: 2 rows kept, cache hit, " in caplog.text
    assert caches(vectors) == [name]


def test_a_changed_source_or_restriction_never_reads_the_old_entry(vectors):
    old = table_bits(load_embeddings(vectors, restrict_to=KEEP))
    (name,) = caches(vectors)
    stamp = os.stat(vectors).st_mtime_ns
    # one byte changed, same size and modification time: only the digest tells
    vectors.write_bytes(vectors.read_bytes().replace(b"1 0 0.5", b"1 0 0.6"))
    os.utime(vectors, ns=(stamp, stamp))
    expected = reference_bits(vectors, KEEP)
    assert expected != old
    assert table_bits(load_embeddings(vectors, restrict_to=KEEP)) == expected
    assert caches(vectors) == [name]  # the entry is replaced, not added to
    for restrict in ({"panel"}, None, {"solar"}):
        assert table_bits(load_embeddings(vectors, restrict_to=restrict)) == reference_bits(
            vectors, restrict)


def test_a_source_keeps_its_two_most_recently_used_entries(vectors, monkeypatch):
    other = vectors.parent / "w.txt"
    other.write_text(TEXT, encoding="utf-8")
    load_embeddings(other)
    names = {}
    for restrict in (KEEP, {"panel"}):
        load_embeddings(vectors, restrict_to=restrict)
        names[frozenset(restrict)] = (set(caches(vectors)) - set(names.values())).pop()
    assert len(caches(vectors)) == 2
    monkeypatch.setattr(np, "loadtxt", no_parse)
    load_embeddings(vectors, restrict_to=KEEP)  # a hit makes KEEP's entry the newer
    monkeypatch.undo()
    load_embeddings(vectors, restrict_to={"solar"})
    assert len(caches(vectors)) == 2 and names[frozenset(KEEP)] in caches(vectors)
    assert names[frozenset({"panel"})] not in caches(vectors)
    load_embeddings(vectors)
    assert len(caches(vectors)) == 2 and len(caches(other)) == 1  # only its own source's
    monkeypatch.setattr(np, "loadtxt", no_parse)
    assert table_bits(load_embeddings(other)) == reference_bits(other, None)


@pytest.mark.skipif(not hasattr(os, "getuid"), reason="POSIX file modes")
def test_an_unwritable_directory_still_loads(vectors, caplog):
    caplog.set_level("INFO", logger="qexp.embeddings")
    vectors.parent.chmod(0o555)
    try:
        assert table_bits(load_embeddings(vectors, restrict_to=KEEP)) == reference_bits(
            vectors, KEEP)
        if not os.access(vectors.parent, os.W_OK):  # root writes anyway
            assert caches(vectors) == []
            assert "no cache written: [Errno 13] Permission denied" in caplog.text
    finally:
        vectors.parent.chmod(0o755)
    assert [p.name for p in vectors.parent.iterdir() if p.name.endswith(".tmp")] == []


@pytest.mark.parametrize("text, fault, reason", [
    (TEXT, OSError(28, "No space left on device"), "[Errno 28] No space left on device"),
    ("x" * 70000 + " 1 2\nb 3 4\n", None, "a term is too long for the cache's term table"),
])
def test_a_failed_cache_write_is_logged_and_ignored(tmp_path, monkeypatch, caplog,
                                                   text, fault, reason):
    caplog.set_level("INFO", logger="qexp.embeddings")
    path = tmp_path / "v.txt"
    path.write_text(text, encoding="utf-8")
    if fault:
        def write_file(*args):
            raise fault
        monkeypatch.setattr(embeddings, "write_file", write_file)
    assert table_bits(load_embeddings(path)) == reference_bits(path, None)
    assert "cache miss, " in caplog.text and f"; no cache written: {reason}" in caplog.text
    assert sorted(p.name for p in tmp_path.iterdir()) == ["v.txt"]


def test_a_source_changed_during_the_parse_writes_no_cache(vectors, monkeypatch, caplog):
    caplog.set_level("INFO", logger="qexp.embeddings")
    real_loadtxt = np.loadtxt

    def loadtxt(*args, **kwargs):
        out = real_loadtxt(*args, **kwargs)
        vectors.write_text(TEXT + "late 1 2 3\n", encoding="utf-8")
        return out

    monkeypatch.setattr(np, "loadtxt", loadtxt)
    assert load_embeddings(vectors, restrict_to=KEEP).terms == ["solar", "énergie"]
    assert caches(vectors) == []
    assert "no cache written: the source changed during the parse" in caplog.text


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="named pipes")
def test_a_pipe_is_read_once_and_never_cached(vectors, caplog):
    caplog.set_level("INFO", logger="qexp.embeddings")
    pipe = vectors.parent / "pipe.txt"
    os.mkfifo(pipe)
    writer = threading.Thread(target=pipe.write_text, args=(TEXT,),
                              kwargs={"encoding": "utf-8"}, daemon=True)
    writer.start()
    assert table_bits(load_embeddings(pipe, restrict_to=KEEP)) == reference_bits(
        vectors, KEEP)
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert caches(pipe) == []
    assert "no cache written: the source is not a regular file" in caplog.text


@pytest.mark.parametrize("text, restrict, message", BAD_FILES)
def test_a_malformed_source_beside_an_earlier_cache_raises_its_parse_error(
        tmp_path, text, restrict, message):
    p = tmp_path / "v.txt"
    p.write_text("a 1 0\nb 0 1\n")
    load_embeddings(p, restrict_to=restrict)
    before = {name: (tmp_path / name).read_bytes() for name in caches(p)}
    assert len(before) == 1
    p.write_text(text)
    with pytest.raises(ParseError) as info:
        load_embeddings(p, restrict_to=restrict)
    assert str(info.value) == f"{p}:{message}"
    assert {name: (tmp_path / name).read_bytes() for name in caches(p)} == before


_FUZZ_TOKENS = [b"\x00", b"\x01", b"\xff" * 8, b"QXVC", b"\x00" * 8, b"\x7f\xf0",
                b"solar", "é".encode(), b" ", b"\n"]


@settings(max_examples=300)
@given(st.data())
def test_a_mutated_cache_loads_the_text_table_and_is_rewritten(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzz_vectors.txt"
    path.write_text(TEXT, encoding="utf-8")
    expected = reference_bits(path, KEEP)
    for name in caches(path):
        (path.parent / name).unlink()
    load_embeddings(path, restrict_to=KEEP)
    (name,) = caches(path)
    cache = path.parent / name
    cache.write_bytes(mutate(cache.read_bytes(), data, _FUZZ_TOKENS))
    assert table_bits(load_embeddings(path, restrict_to=KEEP)) == expected
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np, "loadtxt", no_parse)
        assert table_bits(load_embeddings(path, restrict_to=KEEP)) == expected
    assert caches(path) == [name]
