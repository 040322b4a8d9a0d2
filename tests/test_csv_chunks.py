"""The chunked CSV reader and writer on files larger than one chunk.

Core claims:
    - a canonical file of several chunks is parsed without the per-line
      reader, into exactly the rows the reference reader gives
    - a bad line just after a chunk boundary, a width change, a CRLF line, a
      two-digit symbol or a digit of at least --k in a later chunk, an
      out-of-byte symbol under --k 300, and small files of unequal widths,
      blank lines or other non-canonical text give the reference reader's
      result or its exception type and message
    - bytes that are not valid UTF-8 are a format error naming the line
    - the writer gives the reference writer's bytes for every symbol width,
      in chunks of one-digit text, of padded text and of unpadded wider text
    - the extra memory of reading and writing is set by the chunk size, not
      by the file size; a one-digit file takes under one chunk to read besides
      its rows, and under four to write
"""

import tracemalloc

import numpy as np
import pytest

from chowliu import Alphabet, SampleFormatError, SampleSet, read_csv, write_csv
from chowliu import estimation

from oracles import ReferenceFormatError, reference_read_csv, reference_write_csv

WIDTH = 8
LINE = 2 * WIDTH  # bytes of a canonical line of one-digit symbols
# The first line that starts in the second chunk.
NEXT_CHUNK_LINE = estimation._CSV_CHUNK_BYTES // LINE + 1
LINES = NEXT_CHUNK_LINE + 100


def outcome(read):
    """(rows, alphabet size) of a successful read, else (type, message)."""
    try:
        s = read()
    except ValueError as err:
        return type(err), str(err)
    return s.rows.tolist(), s.alphabet.size


def reference_outcome(path, k=None):
    """The reference reader followed by the library's own SampleSet check,
    which is what read_csv did with the reference reader's rows."""
    try:
        rows, size = reference_read_csv(path, k)
        return outcome(lambda: SampleSet(Alphabet(size), rows))
    except ReferenceFormatError as err:
        return SampleFormatError, str(err)


@pytest.fixture(scope="module")
def canonical():
    rng = np.random.default_rng(5)
    return tuple(",".join(str(v) for v in row) + "\n" for row in rng.integers(0, 2, size=(LINES, WIDTH)))


def assert_matches_reference(path, k=None):
    got = outcome(lambda: read_csv(path, k=k))
    assert got == reference_outcome(path, k)
    return got


def test_canonical_file_of_several_chunks_skips_the_per_line_reader(tmp_path, monkeypatch, canonical):
    lines = list(canonical)
    lines.insert(NEXT_CHUNK_LINE - 1, "\n")  # a blank line at the boundary
    lines[-1] = lines[-1].rstrip("\n")  # and no newline at the end
    path = tmp_path / "samples.csv"
    path.write_text("".join(lines))
    assert path.stat().st_size > estimation._CSV_CHUNK_BYTES

    def per_line(*args):
        raise AssertionError("canonical input reached the per-line reader")

    monkeypatch.setattr(estimation, "_read_csv_lines", per_line)
    rows, size = assert_matches_reference(path)
    assert len(rows) == LINES and size == 2


@pytest.mark.parametrize(
    "line,text,k",
    [
        (NEXT_CHUNK_LINE, "0,1,x,1,0,1,0,1\n", None),
        (NEXT_CHUNK_LINE + 40, "0,1,0,1,0,1,0\n", None),
        (NEXT_CHUNK_LINE + 40, "0,1,0,1,0,1,0,1\r\n", None),
        (NEXT_CHUNK_LINE + 40, "0,1,0,1,0,280,0,1\n", 300),
        (NEXT_CHUNK_LINE + 40, "0,1,0,1,0,280,0,1\n", None),
        (NEXT_CHUNK_LINE + 40, "0,1,0,1,0,1,0,1 \n", 2),
        (NEXT_CHUNK_LINE + 40, "0,1,0,1,0,12,0,1\n", None),
        (NEXT_CHUNK_LINE + 40, "0,1,0,1,0,7,0,1\n", 5),
    ],
    ids=["bad-line-after-boundary", "width-change", "crlf-line", "k300-symbol-280",
         "symbol-280", "trailing-space", "two-digit-symbol", "digit-above-k"],
)
def test_non_canonical_line_in_a_later_chunk_matches_reference(tmp_path, canonical, line, text, k):
    lines = list(canonical)
    lines[line - 1] = text
    path = tmp_path / "samples.csv"
    path.write_text("".join(lines), newline="")
    assert_matches_reference(path, k)


@pytest.mark.parametrize("chunk", [None, 3])
@pytest.mark.parametrize(
    "text",
    ["0,1\n0\n0,1,1\n", "0,1\n0,1,1\n0\n", "255,0\n0,255\n", "1\n\n\n2", "0,1\r\n1,0\r\n", "", "\n\n",
     "1,1000\n", "01,001\n"],
    ids=["widths-2-1-3", "widths-2-3-1", "three-digits", "blank-lines", "crlf", "empty", "blank-only",
         "four-digits", "leading-zeros"],
)
def test_small_files_match_reference(tmp_path, monkeypatch, text, chunk):
    if chunk is not None:
        monkeypatch.setattr(estimation, "_CSV_CHUNK_BYTES", chunk)
    path = tmp_path / "samples.csv"
    path.write_bytes(text.encode())
    assert_matches_reference(path)


def test_k300_symbol_280_keeps_the_alphabet_too_large_error(tmp_path, canonical):
    lines = list(canonical)
    lines[NEXT_CHUNK_LINE + 40] = "0,1,0,1,0,280,0,1\n"
    path = tmp_path / "samples.csv"
    path.write_text("".join(lines))
    with pytest.raises(ValueError, match="alphabet too large") as err:
        read_csv(path, k=300)
    assert type(err.value) is ValueError


def test_bytes_that_are_not_utf8_name_the_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"0,1\n1,\xff\n")
    with pytest.raises(SampleFormatError, match=r":2: bytes that are not valid UTF-8$"):
        read_csv(path)


def test_writer_matches_reference_on_several_chunks(tmp_path):
    rng = np.random.default_rng(9)
    s = SampleSet(Alphabet(256), rng.integers(0, 256, size=(80_000, WIDTH)))
    path, reference = tmp_path / "s.csv", tmp_path / "r.csv"
    write_csv(s, path)
    reference_write_csv(s.rows, reference)
    assert path.stat().st_size > 2 * estimation._CSV_CHUNK_BYTES
    assert path.read_bytes() == reference.read_bytes()
    assert np.array_equal(read_csv(path).rows, s.rows)


@pytest.mark.parametrize("k", [2, 10, 11, 100, 256])
def test_writer_matches_reference_at_every_symbol_width(tmp_path, monkeypatch, k):
    # A third of the rows one-digit, a third any symbol and a third only
    # symbols of the widest text, so the chunks take both of the writer's
    # widths, with and without padding.
    monkeypatch.setattr(estimation, "_CSV_CHUNK_BYTES", 1 << 14)
    rng = np.random.default_rng(k)
    rows = rng.integers(0, k, size=(6000, WIDTH))
    rows[:2000] %= 10
    low = 10 ** (len(str(k - 1)) - 1)
    rows[4000:] = low + rows[4000:] % (k - low)
    s = SampleSet(Alphabet(k), rows)
    path, reference = tmp_path / "s.csv", tmp_path / "r.csv"
    write_csv(s, path)
    reference_write_csv(s.rows, reference)
    assert path.read_bytes() == reference.read_bytes()


def peak_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_extra_memory_is_set_by_the_chunk_size(tmp_path, monkeypatch):
    chunk = 1 << 16
    monkeypatch.setattr(estimation, "_CSV_CHUNK_BYTES", chunk)
    rng = np.random.default_rng(3)
    s = SampleSet(Alphabet(10), rng.integers(0, 10, size=(100_000, WIDTH)))
    path = tmp_path / "s.csv"
    assert peak_bytes(lambda: write_csv(s, path)) < 16 * chunk
    assert path.stat().st_size > 20 * chunk
    # The parsed blocks and their concatenation hold the output twice.
    assert peak_bytes(lambda: read_csv(path)) < 2 * s.rows.nbytes + 32 * chunk


@pytest.fixture
def one_digit_file(tmp_path, monkeypatch):
    """(sample set, CSV path) of 20,000 rows of one-digit symbols, written
    with chunks of 64 KiB, the chunk size both tests here read and write in."""
    monkeypatch.setattr(estimation, "_CSV_CHUNK_BYTES", 1 << 16)
    rng = np.random.default_rng(4)
    s = SampleSet(Alphabet(10), rng.integers(0, 10, size=(20_000, WIDTH)))
    path = tmp_path / "s.csv"
    write_csv(s, path)
    assert path.stat().st_size > 4 * estimation._CSV_CHUNK_BYTES
    return s, path


def test_one_digit_file_is_written_in_under_four_chunks(one_digit_file):
    # Two-byte cells need no np.extract; most of the peak is np.take's intp
    # copy of the symbols.
    s, path = one_digit_file
    assert peak_bytes(lambda: write_csv(s, path)) < 4 * estimation._CSV_CHUNK_BYTES


def test_one_digit_file_is_read_in_under_one_chunk_besides_its_rows(one_digit_file):
    # A one-digit chunk is read off its own bytes, with no index arrays; the
    # parsed blocks and their concatenation hold the rows twice.
    s, path = one_digit_file
    assert peak_bytes(lambda: read_csv(path)) < 2 * s.rows.nbytes + estimation._CSV_CHUNK_BYTES
