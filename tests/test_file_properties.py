"""Property tests of the sample file formats on fuzzed input.

Core claims:
    - read_csv agrees with the per-line reference reader of tests/oracles.py
      on fuzzed CSV text (digits, commas, newlines, carriage returns, spaces,
      signs, underscores, letters, blank lines, a missing final newline): the
      same rows and alphabet, or the same exception type and message, at the
      default chunk size and at chunks of a few bytes
    - write_csv writes the bytes of the join-based reference writer and
      read_csv reads them back, for k in [2, 256], n in [0, 20] and files of
      several chunks
    - write_binary / read_binary round-trip, and a truncated or corrupted CLS1
      file either loads exactly what its bytes say or raises SampleFormatError

The module skips where hypothesis is not installed.
"""

import contextlib
import struct
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from chowliu import Alphabet, SampleFormatError, SampleSet, read_binary, read_csv, write_binary, write_csv  # noqa: E402
from chowliu import estimation  # noqa: E402

from oracles import reference_write_csv  # noqa: E402
from test_csv_chunks import outcome, reference_outcome  # noqa: E402

# Deterministic examples and no example database, so the suite is repeatable.
# The fuzzed reader gets more examples: its inputs are the most varied.
PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)
FUZZ = settings(PROPERTY, max_examples=300)

# None keeps the default chunk size; the others put chunk boundaries inside
# small files, down to one byte per read.
CHUNKS = st.sampled_from([None, 1, 5, 16, 64])
TOKENS = ["0", "7", "10", "255", "256", "280", "007", "1000", ",", "\n", "\n\n", "\r", "\r\n",
          " ", "+", "-", "_", "x"]


@contextlib.contextmanager
def chunk_size(chunk):
    if chunk is None:
        yield
    else:
        with mock.patch.object(estimation, "_CSV_CHUNK_BYTES", chunk):
            yield


@contextlib.contextmanager
def scratch_file(name: str):
    with tempfile.TemporaryDirectory() as tmp:
        yield Path(tmp) / name


@st.composite
def edited_csv_texts(draw):
    """Canonical CSV text with a few tokens inserted, replaced or deleted."""
    width = draw(st.integers(1, 4))
    values = st.one_of(st.integers(0, 9), st.integers(0, 300))
    lines = draw(st.lists(st.lists(values, min_size=width, max_size=width), max_size=8))
    text = "".join(",".join(map(str, line)) + "\n" for line in lines)
    edits = st.tuples(st.integers(0, 1000), st.sampled_from(["insert", "replace", "delete"]), st.sampled_from(TOKENS))
    for position, op, token in draw(st.lists(edits, max_size=3)):
        i = position % (len(text) + 1)
        if op == "insert":
            text = text[:i] + token + text[i:]
        elif op == "replace":
            text = text[:i] + token + text[i + 1:]
        else:
            text = text[:i] + text[i + 1:]
    if draw(st.booleans()) and text.endswith("\n"):
        text = text[:-1]
    return text


CSV_TEXTS = st.one_of(edited_csv_texts(), st.text(alphabet="0123456789,\n\r +-_x", max_size=40))


@FUZZ
@given(CSV_TEXTS, st.sampled_from([None, 1, 2, 3, 10, 256, 300]), CHUNKS)
def test_read_csv_agrees_with_reference_reader(text, k, chunk):
    with scratch_file("s.csv") as path, chunk_size(chunk):
        path.write_bytes(text.encode())
        assert outcome(lambda: read_csv(path, k=k)) == reference_outcome(path, k)


@PROPERTY
@given(st.integers(2, 256), st.integers(0, 20), st.integers(0, 40), CHUNKS, st.data())
def test_csv_round_trip_with_reference_bytes(k, n, count, chunk, data):
    rows = data.draw(arrays(np.uint8, (count, n), elements=st.integers(0, k - 1)))
    with scratch_file("s.csv") as path, scratch_file("r.csv") as reference, chunk_size(chunk):
        write_csv(SampleSet(Alphabet(k), rows), path)
        reference_write_csv(rows, reference)
        assert path.read_bytes() == reference.read_bytes()
        if count == 0 or n == 0:
            with pytest.raises(SampleFormatError, match="no samples"):
                read_csv(path, k=k)
        else:
            again = read_csv(path, k=k)
            assert again.alphabet.size == k and np.array_equal(again.rows, rows)


def cls1_contents(blob: bytes):
    """(rows, k) that a CLS1 file of these bytes holds, or None if malformed."""
    if len(blob) < 20:
        return None
    magic, n, k, count = struct.unpack("<4sIIQ", blob[:20])
    body = blob[20:]
    if magic != b"CLS1" or len(body) != n * count or not 2 <= k <= 256 or count >= 2**63:
        return None
    if body and max(body) >= k:
        return None
    return np.frombuffer(body, dtype=np.uint8).reshape(count, n), k


@PROPERTY
@given(st.integers(2, 256), st.integers(0, 20), st.integers(0, 40), st.data())
def test_binary_round_trip(k, n, count, data):
    rows = data.draw(arrays(np.uint8, (count, n), elements=st.integers(0, k - 1)))
    with scratch_file("s.bin") as path:
        write_binary(SampleSet(Alphabet(k), rows), path)
        again = read_binary(path)
    assert again.alphabet.size == k and np.array_equal(again.rows, rows)


@PROPERTY
@given(
    st.integers(2, 256),
    st.integers(0, 6),
    st.integers(0, 6),
    st.lists(st.tuples(st.integers(0, 23), st.integers(0, 255)), max_size=3),
    st.one_of(st.none(), st.integers(0, 60)),
    st.data(),
)
def test_corrupted_cls1_loads_exactly_or_is_a_format_error(k, n, count, corruptions, cut, data):
    rows = data.draw(arrays(np.uint8, (count, n), elements=st.integers(0, k - 1)))
    blob = bytearray(struct.pack("<4sIIQ", b"CLS1", n, k, count) + rows.tobytes())
    for position, value in corruptions:
        if position < len(blob):
            blob[position] = value
    blob = bytes(blob[:cut])
    expected = cls1_contents(blob)
    with scratch_file("s.bin") as path:
        path.write_bytes(blob)
        if expected is None:
            with pytest.raises(SampleFormatError):
                read_binary(path)
        else:
            s = read_binary(path)
            assert s.alphabet.size == expected[1] and np.array_equal(s.rows, expected[0])
