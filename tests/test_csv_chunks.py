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
    - with chunks of a few lines, the reader gives the reference reader's
      result where a chunk ends exactly at a newline, where a line is longer
      than a chunk, with no final newline, with blank lines across a chunk
      boundary, and with a non-canonical chunk after canonical ones, whose
      errors name the file's own line; a file whose size is reported wrong
      reads the same, through either reader, and so does a pipe, which is
      read once
    - only a block that holds a non-canonical line reaches the per-line
      reader, and a lone CR in it keeps the text-mode line numbers of the
      canonical blocks after it
    - the writer gives the reference writer's bytes for every symbol width,
      in chunks of one-digit text, of padded text and of unpadded wider text
    - the extra memory of reading and writing is set by the chunk size, not
      by the file size; a one-digit file takes under two chunks to read
      besides its one copy of the rows, also with one non-canonical line
      early on, and under one to write; the
      per-line reader holds its rows in bytes, so a CR LF file takes under
      one more copy of the rows and a few chunks
"""

import os
import threading
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


def no_per_line_reader(*args):
    raise AssertionError("canonical input reached the per-line reader")


def blank_lines_across_a_boundary(lines):
    lines[3] += "\n\n"  # blank lines 5 and 6, the first ending a chunk of 4 * LINE + 1 bytes
    return lines


def no_final_newline(lines):
    lines[-1] = lines[-1].rstrip("\n")
    return lines


@pytest.mark.parametrize(
    "edit,chunk",
    [
        (lambda lines: lines, 4 * LINE),
        (lambda lines: lines, LINE // 2 - 1),
        (no_final_newline, 4 * LINE),
        (no_final_newline, 4 * LINE + 3),
        (blank_lines_across_a_boundary, 4 * LINE + 1),
        (lambda lines: ["0,1,2,3,4,5,6,7,8,9," * 20 + "9\n"] * 12, 64),
    ],
    ids=["chunk-ends-at-a-newline", "line-longer-than-a-chunk", "no-final-newline",
         "no-final-newline-mid-chunk", "blank-lines-across-a-boundary", "long-lines"],
)
def test_canonical_files_in_small_chunks(tmp_path, monkeypatch, canonical, edit, chunk):
    path = tmp_path / "samples.csv"
    path.write_text("".join(edit(list(canonical[:40]))))
    monkeypatch.setattr(estimation, "_CSV_CHUNK_BYTES", chunk)
    monkeypatch.setattr(estimation, "_read_csv_lines", no_per_line_reader)
    assert_matches_reference(path)


@pytest.mark.parametrize(
    "line,text,k",
    [
        (30, " 0,1,0,1,0,1,0,1\n", None),
        (30, "0,1,0,1,0,1,0,1\r\n", None),
        (30, "0,1,0,1,0,1,0,x\n", None),
        (30, "0,1,0,1,0,1,0\n", None),
        (9, "0,1,0,1,0,1,0,1\r", None),
        (30, "0,1,0,1,0,1,0,1\n0,1\r", None),
        (39, "0,1,0,1,0,1,0,7\n", 5),
    ],
    ids=["leading-space", "crlf", "bad-symbol", "width-change", "lone-cr", "width-change-after-lone-cr",
         "digit-above-k"],
)
def test_non_canonical_chunk_after_canonical_ones(tmp_path, monkeypatch, canonical, line, text, k):
    lines = list(canonical[:40])
    lines[line - 1] = text
    path = tmp_path / "samples.csv"
    path.write_text("".join(lines), newline="")
    monkeypatch.setattr(estimation, "_CSV_CHUNK_BYTES", 4 * LINE + 5)
    assert_matches_reference(path, k)


def test_only_the_non_canonical_block_reaches_the_per_line_reader(tmp_path, monkeypatch, canonical):
    # A leading space on line 5 makes the first block non-canonical; the
    # blocks after it are canonical again and skip the per-line reader.
    lines = list(canonical)
    lines[4] = " " + lines[4]
    path = tmp_path / "samples.csv"
    path.write_text("".join(lines))
    seen = []
    per_line = estimation._read_csv_lines

    def spy(*args):
        rows, count = per_line(*args)
        seen.append(count)
        return rows, count

    monkeypatch.setattr(estimation, "_read_csv_lines", spy)
    rows, size = assert_matches_reference(path)
    assert len(rows) == LINES and size == 2
    # The first block: the whole lines of the first chunk, one byte longer.
    assert seen == [(estimation._CSV_CHUNK_BYTES - 1) // LINE]


def test_lone_cr_in_an_early_block_keeps_later_line_numbers(tmp_path, canonical):
    # Line 5 ends in a lone CR, so text mode reads one more line than there
    # are LFs; a bad symbol in a later, otherwise canonical, block must be
    # named by the text-mode line number.
    lines = list(canonical)
    lines[4] = lines[4].replace("\n", "\r")
    lines[NEXT_CHUNK_LINE + 40] = "0,1,0,x,0,1,0,1\n"
    path = tmp_path / "samples.csv"
    path.write_text("".join(lines), newline="")
    kind, message = assert_matches_reference(path)
    assert kind is SampleFormatError and message.startswith(f"{path}:{NEXT_CHUNK_LINE + 41}: ")


@pytest.mark.parametrize("size", [0, 100, 10**6], ids=["none", "too-small", "too-large"])
def test_a_wrong_file_size_reads_the_same(tmp_path, monkeypatch, canonical, size):
    monkeypatch.setattr(estimation, "_CSV_CHUNK_BYTES", 4 * LINE + 5)
    fstat = os.fstat

    def wrong_size(fd):
        return os.stat_result(fstat(fd)[:6] + (size,) + fstat(fd)[7:])

    # "\r\n" line ends send the whole file through the per-line reader.
    for newline in ("\n", "\r\n"):
        path = tmp_path / "samples.csv"
        path.write_text("".join(canonical[:200]), newline=newline)
        want = outcome(lambda: read_csv(path))
        with monkeypatch.context() as patch:
            patch.setattr(os, "fstat", wrong_size)
            assert outcome(lambda: read_csv(path)) == want


def read_pipe(data: bytes):
    """outcome() of read_csv on a pipe that carries `data`, with the pipe's
    path in a message replaced by <path>."""
    r, w = os.pipe()

    def write():
        try:
            with open(w, "wb") as fh:
                fh.write(data)
        except BrokenPipeError:  # the reader stopped at an error
            pass

    writer = threading.Thread(target=write)
    writer.start()
    try:
        got = outcome(lambda: read_csv(f"/dev/fd/{r}"))
    finally:
        os.close(r)
        writer.join(timeout=60)
    assert not writer.is_alive()
    if isinstance(got[1], str):
        return got[0], got[1].replace(f"/dev/fd/{r}", "<path>")
    return got


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd to name a pipe")
@pytest.mark.parametrize(
    "line,text",
    [(None, None), (NEXT_CHUNK_LINE + 40, " 0,1,0,1,0,1,0,1\n"), (NEXT_CHUNK_LINE + 40, "0,1,0,x,0,1,0,1\n")],
    ids=["canonical", "late-leading-space", "late-bad-symbol"],
)
def test_pipe_input_reads_what_the_file_does(tmp_path, canonical, line, text):
    lines = list(canonical)
    if line is not None:
        lines[line - 1] = text
    data = "".join(lines).encode()
    assert len(data) > estimation._CSV_CHUNK_BYTES
    path = tmp_path / "samples.csv"
    path.write_bytes(data)
    want = outcome(lambda: read_csv(path))
    if isinstance(want[1], str):
        want = want[0], want[1].replace(str(path), "<path>")
    assert read_pipe(data) == want


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
    assert peak_bytes(lambda: write_csv(s, path)) < chunk
    assert path.stat().st_size > 20 * chunk
    # One copy of the rows, sized from the file, and a few chunks.
    assert peak_bytes(lambda: read_csv(path)) < s.rows.nbytes + 4 * chunk


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
    # Two-byte cells need neither np.take nor np.extract; the peak is their
    # one reused buffer, half a chunk.
    s, path = one_digit_file
    assert peak_bytes(lambda: write_csv(s, path)) < 4 * estimation._CSV_CHUNK_BYTES


def test_one_digit_file_is_read_in_under_two_chunks_besides_its_rows(one_digit_file):
    # A one-digit chunk is read off its own bytes, with no index arrays, into
    # the one rows array: the buffer and one block's rows, half a chunk.
    s, path = one_digit_file
    assert peak_bytes(lambda: read_csv(path)) < s.rows.nbytes + 2 * estimation._CSV_CHUNK_BYTES


def test_one_early_non_canonical_line_keeps_the_one_digit_bound(one_digit_file):
    # A leading space on line 11 sends the first block alone through the
    # per-line reader, which keeps one byte a symbol; every later block is
    # read off its bytes, so the bound of a canonical file holds.
    s, path = one_digit_file
    data = path.read_bytes()
    path.write_bytes(data[:10 * LINE] + b" " + data[10 * LINE:])
    assert np.array_equal(read_csv(path).rows, s.rows)
    assert peak_bytes(lambda: read_csv(path)) < s.rows.nbytes + 2 * estimation._CSV_CHUNK_BYTES


@pytest.mark.parametrize("count", [20_000, 80_000])
def test_per_line_reader_holds_its_rows_in_bytes(tmp_path, monkeypatch, count):
    # A CR LF file goes through the per-line reader from its first line.  Its
    # rows are kept as one byte a symbol, a block at a time, not as Python
    # lists of ints (about 25 times the rows' bytes).
    chunk = 1 << 14
    monkeypatch.setattr(estimation, "_CSV_CHUNK_BYTES", chunk)
    rows = np.random.default_rng(6).integers(0, 2, size=(count, WIDTH), dtype=np.uint8)
    path = tmp_path / "crlf.csv"
    path.write_bytes("".join(",".join(map(str, row)) + "\r\n" for row in rows.tolist()).encode())
    assert np.array_equal(read_csv(path).rows, rows)
    assert peak_bytes(lambda: read_csv(path)) < 2 * rows.nbytes + 8 * chunk
