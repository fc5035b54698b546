"""One byte-level or field-level mutation of a text file's bytes, drawn by
hypothesis, for the readers' mutation fuzz tests."""

from hypothesis import strategies as st


def mutate(raw: bytes, data, tokens, sep: bytes = b" ") -> bytes:
    """raw truncated, with one byte flipped, a token inserted, a run of up to
    8 bytes deleted, or one sep-separated field of one line replaced by a
    token; a token is one of tokens or up to 8 random bytes."""
    raw = bytearray(raw)
    kind = data.draw(st.sampled_from(["truncate", "flip", "insert", "delete", "field"]))
    at = data.draw(st.integers(0, len(raw) - 1))
    token = data.draw(st.sampled_from(tokens) | st.binary(min_size=1, max_size=8))
    if kind == "truncate":
        return bytes(raw[:at])
    if kind == "flip":
        raw[at] ^= data.draw(st.integers(1, 255))
    elif kind == "insert":
        raw[at:at] = token
    elif kind == "delete":
        del raw[at:at + data.draw(st.integers(1, 8))]
    else:
        lines = bytes(raw).split(b"\n")
        row = data.draw(st.integers(0, len(lines) - 1))
        fields = lines[row].split(sep)
        fields[data.draw(st.integers(0, len(fields) - 1))] = token
        lines[row] = sep.join(fields)
        return b"\n".join(lines)
    return bytes(raw)
