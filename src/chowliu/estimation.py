"""Sample sets, empirical counting, and add-1 (Laplace) estimation.

A SampleSet is N rows of n symbols and is the only input the estimators see.
Counting is exact 64-bit integer arithmetic; add-1 smoothing maps a count
vector (t_0, ..., t_{k-1}) with total N to ((t_i + 1) / (N + k))_i, which is
strictly positive and exactly normalized.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .model import Alphabet, RootedTree, TreeModel, _inverse_cdf, _kl_arrays, kl_divergence, random_tree_model
from .model import sample, to_dense
from .seeding import derive_seed

__all__ = [
    "SampleSet",
    "CountTable",
    "SampleFormatError",
    "empirical_counts",
    "add_one_estimate",
    "learn_parameters",
    "write_csv",
    "read_csv",
    "write_binary",
    "read_binary",
    "add_one_risk_bound",
    "calibrate_add_one_constant",
    "fixed_structure_samples",
    "calibrate_fixed_structure_constant",
    "DEFAULT_ADD_ONE_CONSTANT",
    "DEFAULT_FIXED_STRUCTURE_CONSTANT",
]

_BINARY_MAGIC = b"CLS1"


class SampleFormatError(ValueError):
    """Raised for malformed sample files; messages carry path and line number."""


@dataclass(frozen=True)
class SampleSet:
    """N samples of n variables, one byte per symbol (alphabets up to 256)."""

    alphabet: Alphabet
    rows: np.ndarray

    def __post_init__(self):
        k = self.alphabet.size
        if k > 256:
            raise ValueError("sample sets store one byte per symbol; alphabet too large")
        arr = np.asarray(self.rows)
        if arr.ndim != 2:
            raise ValueError(f"rows must be 2-dimensional, got shape {arr.shape}")
        if arr.size:
            if not np.issubdtype(arr.dtype, np.integer):
                raise ValueError(f"symbols must be integers, got dtype {arr.dtype}")
            lo, hi = int(arr.min()), int(arr.max())
            if lo < 0 or hi >= k:
                raise ValueError(f"symbol out of range [0, {k}): saw {lo if lo < 0 else hi}")
        arr = np.ascontiguousarray(arr, dtype=np.uint8)
        arr.flags.writeable = False
        object.__setattr__(self, "rows", arr)

    @property
    def n_samples(self) -> int:
        return self.rows.shape[0]

    @property
    def n_variables(self) -> int:
        return self.rows.shape[1]


@dataclass(frozen=True)
class CountTable:
    """Joint occurrence counts over 1-3 variables; 64-bit so totals up to 1e9
    rows stay exact.  Counts are additive across disjoint sample chunks."""

    variables: tuple
    counts: np.ndarray
    total: int

    def __post_init__(self):
        arr = np.array(self.counts, dtype=np.int64)
        arr.flags.writeable = False
        object.__setattr__(self, "counts", arr)
        object.__setattr__(self, "variables", tuple(int(v) for v in self.variables))


def empirical_counts(s: SampleSet, variables) -> CountTable:
    """Exact joint counts of the given 1-3 distinct variables."""
    vs = tuple(int(v) for v in variables)
    if not 1 <= len(vs) <= 3:
        raise ValueError("counting supports 1 to 3 variables")
    if len(set(vs)) != len(vs):
        raise ValueError(f"duplicate variables in {vs}")
    for v in vs:
        if not 0 <= v < s.n_variables:
            raise ValueError(f"variable {v} out of range for n={s.n_variables}")
    k = s.alphabet.size
    shape = (k,) * len(vs)
    if s.n_samples == 0:
        return CountTable(vs, np.zeros(shape, dtype=np.int64), 0)
    code = s.rows[:, vs[0]].astype(np.int64)
    for v in vs[1:]:
        code = code * k + s.rows[:, v]
    counts = np.bincount(code, minlength=k ** len(vs)).astype(np.int64)
    return CountTable(vs, counts.reshape(shape), s.n_samples)


# The one-hot product costs O(N (nk)^2) and a bincount per pair O(N n^2).
# Counting all pairs of n=40 variables in N=2e4 rows on a 2-core x86 VM took
# 0.018 s against 0.065 s at k=4, 0.05 s against 0.066 s at k=10, 0.075 s
# against 0.063-0.074 s at k=11 and 0.14 s against 0.071 s at k=16, so k=10
# is the crossover.
_ONE_HOT_MAX_K = 10
# Extra memory of the one-hot pass, whatever n and k are: a third for the
# float32 row chunk, two thirds for the int64 count block and its float32
# chunk product (12 bytes per entry), so n*k up to 418 fits in one block.
# A chunk thus holds far fewer than the 2^24 rows up to which float32 sums of
# ones are exact.
_COUNT_BUDGET_BYTES = 3 << 20


def _count_plan(n: int, k: int) -> tuple:
    """(rows per chunk, source variables per block) of the one-hot pass."""
    rows = max(1, _COUNT_BUDGET_BYTES // 3 // (4 * n * k))
    block = max(1, _COUNT_BUDGET_BYTES * 2 // 3 // (12 * k * n * k))
    return rows, block


def _one_hot_blocks(s: SampleSet):
    """Yield (lo, hi, counts) for consecutive blocks [lo, hi) of source
    variables, where counts[i - lo, :, j - lo, :] is the joint count table of
    variables i and j for lo <= i < hi and lo <= j < n.

    Each chunk of rows becomes a float32 one-hot matrix X, one column per
    (variable, symbol); X_src^T X holds the chunk's co-occurrence counts
    exactly, and the chunks add up in an int64 block."""
    n, k = s.n_variables, s.alphabet.size
    rows, block = _count_plan(n, k)
    symbols = np.arange(k, dtype=np.uint8)
    buffer = np.empty(rows * n * k, dtype=np.float32)
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        width = (n - lo) * k
        counts = np.zeros(((hi - lo) * k, width), dtype=np.int64)
        product = np.empty(counts.shape, dtype=np.float32)
        for start in range(0, s.n_samples, rows):
            chunk = s.rows[start:start + rows, lo:]
            one_hot = buffer[: chunk.shape[0] * width].reshape(chunk.shape[0], width)
            np.equal(chunk[:, :, None], symbols, out=one_hot.reshape(*chunk.shape, k))
            np.matmul(one_hot[:, : (hi - lo) * k].T, one_hot, out=product)
            np.add(counts, product, out=counts, casting="unsafe")
        yield lo, hi, counts.reshape(hi - lo, k, n - lo, k)


def _pair_counts(s: SampleSet):
    """Yield ((i, j), counts) for every pair i < j, by i and then j ascending,
    where counts equals empirical_counts(s, (i, j)).counts: a C-contiguous
    int64 k x k table.  Alphabets up to _ONE_HOT_MAX_K are counted by
    one-hot products over row chunks, larger ones with a bincount per pair."""
    n = s.n_variables
    if s.alphabet.size > _ONE_HOT_MAX_K:
        for i in range(n):
            for j in range(i + 1, n):
                yield (i, j), empirical_counts(s, (i, j)).counts
        return
    for lo, hi, counts in _one_hot_blocks(s):
        for i in range(lo, hi):
            for j in range(i + 1, n):
                yield (i, j), counts[i - lo, :, j - lo, :].copy()


def add_one_estimate(counts, k: int | None = None) -> np.ndarray:
    """Add-1 smoothed distribution (t_i + 1) / (N + k) from a count vector."""
    if isinstance(counts, CountTable):
        if len(counts.variables) != 1:
            raise ValueError("add-1 estimation expects single-variable counts")
        vec = counts.counts
    else:
        vec = np.asarray(counts, dtype=np.int64)
    if vec.ndim != 1:
        raise ValueError("expected a 1-dimensional count vector")
    size = vec.shape[0]
    if k is not None and k != size:
        raise ValueError(f"count vector has length {size}, expected alphabet size {k}")
    if np.any(vec < 0):
        raise ValueError("negative count")
    return _add_one(vec)


def _add_one(counts: np.ndarray) -> np.ndarray:
    """Add-1 estimates (t + 1) / (N + k) of the count vectors t along the last axis."""
    return (counts + 1.0) / (counts.sum(axis=-1, keepdims=True) + counts.shape[-1])


def learn_parameters(s: SampleSet, tree: RootedTree) -> TreeModel:
    """Fit add-1 conditionals along a fixed rooted tree.

    The root marginal is the add-1 estimate of the root's symbol counts; each
    non-root node gets one add-1 row per parent symbol, computed from the
    exact pair counts.  Parent symbols never seen in the data fall back to the
    uniform row (the add-1 estimate of an empty count vector).
    """
    if s.n_variables != tree.n:
        raise ValueError(f"sample set has {s.n_variables} variables but tree has {tree.n} nodes")
    root_marginal = add_one_estimate(empirical_counts(s, (tree.root,)))
    cpt = {}
    for node in range(tree.n):
        if node == tree.root:
            continue
        cpt[node] = _add_one(empirical_counts(s, (tree.parent[node], node)).counts)
    return TreeModel(tree, s.alphabet, root_marginal, cpt)


# -- file formats --------------------------------------------------------------


# Sets the extra memory of CSV reading and writing, whatever the file size:
# the reader parses about this many bytes of the file at a time, with 11-15
# times as much in numpy temporaries; the writer formats about this many
# bytes of symbol text at a time, with 5-9 times as much in temporaries.
_CSV_CHUNK_BYTES = 1 << 20
_COMMA, _NEWLINE = ord(","), ord("\n")
# Row i holds the text of symbol i followed by a comma, padded with zero bytes.
_SYMBOL_TEXT = np.array([list(f"{v},".encode().ljust(4, b"\0")) for v in range(256)], dtype=np.uint8)


def write_csv(s: SampleSet, path) -> None:
    """Plain integer CSV, one sample per line, no header."""
    count, n = s.rows.shape
    with open(path, "wb") as fh:
        if n == 0:
            for start in range(0, count, _CSV_CHUNK_BYTES):
                fh.write(b"\n" * min(_CSV_CHUNK_BYTES, count - start))
            return
        step = max(1, _CSV_CHUNK_BYTES // (4 * n))
        for start in range(0, count, step):
            cells = _SYMBOL_TEXT.take(s.rows[start:start + step], axis=0)
            last = cells[:, -1, :]
            last[last == _COMMA] = _NEWLINE
            fh.write(np.extract(cells, cells))  # the nonzero bytes: text without padding


def read_csv(path, k: int | None = None) -> SampleSet:
    """Read an integer CSV sample set.

    The alphabet size is inferred as max(symbol) + 1 (at least 2) unless `k`
    is given.  Malformed content raises SampleFormatError naming the line.
    A file in the form write_csv writes is parsed in chunks with numpy; any
    other file is read line by line, with Python int() semantics per field.
    """
    rows = _read_canonical_csv(path, 256 if k is None else min(k, 256))
    if rows is None:
        rows = _read_csv_lines(path, k)
    size = k if k is not None else max(2, int(rows.max()) + 1)
    return SampleSet(Alphabet(size), rows)


def _read_canonical_csv(path, limit):
    """The rows of a CSV file as a uint8 array, read in chunks of about
    _CSV_CHUNK_BYTES, or None unless every chunk is canonical (see
    _canonical_block) and the file holds at least one row."""
    blocks = []
    width = None
    with open(path, "rb") as fh:
        while chunk := fh.read(_CSV_CHUNK_BYTES):
            chunk += fh.readline()  # finish the chunk's last line
            if not chunk.endswith(b"\n"):
                chunk += b"\n"  # a last line without a newline still counts
            block = _canonical_block(chunk, width, limit)
            if block is None:
                return None
            if len(block):
                blocks.append(block)
                width = block.shape[1]
    if not blocks:
        return None
    return blocks[0] if len(blocks) == 1 else np.concatenate(blocks)


def _canonical_block(chunk: bytes, width: int | None, limit):
    """The rows of `chunk`, whole lines each ending in a newline, as a uint8
    array; or None unless every line is canonical.  Canonical lines hold only
    ASCII digits, commas and the newline; every field has 1-3 digits; every
    non-blank line has `width` fields (the first line's count when `width` is
    None); every value is below `limit`.  Blank lines are skipped."""
    text = np.frombuffer(chunk, dtype=np.uint8)
    newline = text == _NEWLINE
    blank = newline.copy()  # a newline at the start or after a newline
    blank[1:] &= newline[:-1]
    if blank.any():
        text, newline = text[~blank], newline[~blank]
        if not text.size:
            return np.empty((0, width or 0), dtype=np.uint8)
    digit = text - ord("0")  # wraps round for bytes below "0"
    is_digit = digit < 10
    if not (is_digit | newline | (text == _COMMA)).all():
        return None
    separator = ~is_digit
    # One separator ends each field, so no two are adjacent and none leads.
    if separator[0] or (separator[1:] & separator[:-1]).any():
        return None
    ends = np.flatnonzero(separator)  # the separator that ends each field
    ends_line = newline.take(ends)
    if width is None:
        width = int(np.argmax(ends_line)) + 1
    rows = int(np.count_nonzero(newline))
    if ends.size != rows * width or not ends_line[width - 1::width].all():
        return None
    value = digit
    longer = is_digit[1:] & is_digit[:-1]  # a digit follows a digit
    if longer.any():
        if (longer[2:] & longer[1:-1] & longer[:-2]).any():  # four digits in a row
            return None
        # Horner's rule along each field, restarting after every separator.
        tail = np.where(is_digit, digit, 0).astype(np.uint16)
        value = tail.copy()
        for _ in range(2):
            value[1:] = (tail[1:] + 10 * value[:-1]) * is_digit[1:]
    ends -= 1
    values = value.take(ends)  # a field's value sits at its last digit
    if int(values.max()) >= limit:
        return None
    return values.astype(np.uint8, copy=False).reshape(rows, width)


def _read_csv_lines(path, k: int | None) -> np.ndarray:
    """The per-line reader: Python int() semantics for every field, and the
    one place that words CSV format errors."""
    rows = []
    width = None
    limit = 256 if k is None else k  # symbols are stored in one byte
    # Undecodable bytes become lone surrogates, which no field accepts, so the
    # line that holds them is found and named.
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text:
                continue
            parts = text.split(",")
            try:
                values = [int(p) for p in parts]
            except ValueError:
                if any("\udc80" <= c <= "\udcff" for c in text):
                    raise SampleFormatError(f"{path}:{lineno}: bytes that are not valid UTF-8") from None
                raise SampleFormatError(f"{path}:{lineno}: non-integer symbol in {text!r}") from None
            if width is None:
                width = len(values)
            elif len(values) != width:
                raise SampleFormatError(
                    f"{path}:{lineno}: expected {width} columns, got {len(values)}"
                )
            for v in values:
                if not 0 <= v < limit:
                    if v < 0:
                        raise SampleFormatError(f"{path}:{lineno}: negative symbol {v}")
                    if k is None:
                        raise SampleFormatError(f"{path}:{lineno}: symbol {v} above 255, the largest one-byte symbol")
                    raise SampleFormatError(f"{path}:{lineno}: symbol {v} out of range for k={k}")
            rows.append(values)
    if width is None:
        raise SampleFormatError(f"{path}: no samples")
    return np.array(rows, dtype=np.int64)


def write_binary(s: SampleSet, path) -> None:
    """Binary format: magic 'CLS1', little-endian u32 n, u32 k, u64 N, then
    N * n symbol bytes in row-major order."""
    header = struct.pack("<4sIIQ", _BINARY_MAGIC, s.n_variables, s.alphabet.size, s.n_samples)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(s.rows.tobytes())


def read_binary(path, k: int | None = None) -> SampleSet:
    """Read a CLS1 sample set, over an alphabet of size `k` if given, else the header's."""
    header_size = struct.calcsize("<4sIIQ")
    with open(path, "rb") as fh:
        header = fh.read(header_size)
        if len(header) < header_size:
            raise SampleFormatError(f"{path}: truncated header")
        magic, n, header_k, count = struct.unpack("<4sIIQ", header)
        if magic != _BINARY_MAGIC:
            raise SampleFormatError(f"{path}: bad magic {magic!r}")
        # Check the size the header claims before reading a body of that size.
        expected = header_size + count * n
        size = os.fstat(fh.fileno()).st_size
        if size != expected:
            raise SampleFormatError(f"{path}: expected {expected} bytes, got {size}")
        body = fh.read(count * n)
    try:
        rows = np.frombuffer(body, dtype=np.uint8).reshape(count, n)
        return SampleSet(Alphabet(int(header_k if k is None else k)), rows)
    except ValueError as err:  # bad alphabet size in the header, a symbol >= k, or 2^63 empty rows
        raise SampleFormatError(f"{path}: {err}") from None


# -- calibrated sample-complexity constants ------------------------------------
#
# The high-probability guarantees below are stated up to universal constants;
# the shipped defaults were produced by the calibration routines in this
# module at their default arguments (fixed seeds), not taken from theory.

DEFAULT_ADD_ONE_CONSTANT = 0.04654489447537851
DEFAULT_FIXED_STRUCTURE_CONSTANT = 0.015625


def _floored_log(x: float) -> float:
    return max(math.log(x), 1.0)


def add_one_risk_bound(k: int, delta: float, n_samples: int, constant: float) -> float:
    """High-probability ceiling on D(p || add-1 estimate) from n_samples draws:
    constant * k * log(k / delta) * log(n_samples) / n_samples."""
    return constant * k * _floored_log(k / delta) * _floored_log(n_samples) / n_samples


def _sample_size(constant: float, lead: int, scale: int, epsilon: float, delta: float) -> int:
    """ceil(constant * (lead / epsilon) * log(scale / delta)
    * log(scale * log(1 / delta) / epsilon)), every log natural and floored
    at 1, and at least 1 overall."""
    inner = _floored_log(1.0 / delta)
    value = constant * (lead / epsilon) * _floored_log(scale / delta) * _floored_log(scale * inner / epsilon)
    return max(1, math.ceil(value))


def _add_one_kl(p: np.ndarray, count: int, rng: np.random.Generator) -> float:
    """D(p || add-1 estimate) after `count` draws from p."""
    counts = np.bincount(_inverse_cdf(p, rng.random(count)), minlength=len(p))
    return _kl_arrays(p, _add_one(counts))


def calibrate_add_one_constant(
    k: int = 4,
    delta: float = 0.05,
    sample_sizes=(100, 1000, 10000),
    trials: int = 1000,
    seed: int = 20260814,
) -> float:
    """Smallest constant for which the add-1 KL bound holds simultaneously at
    every reference sample size in at least a (1 - delta) fraction of trials.

    Each trial draws a Dirichlet(1) distribution, simulates all sample sizes,
    and records the worst ratio of achieved KL to the bound shape; the
    (1 - delta) quantile of those worst ratios is the calibrated constant.
    """
    if trials < 100:
        raise ValueError("need at least 100 calibration trials")
    worst = np.empty(trials)
    for t in range(trials):
        rng = np.random.default_rng(derive_seed(seed, "add-one", t))
        p = rng.dirichlet(np.ones(k))
        ratio = 0.0
        for count in sample_sizes:
            # The bound at constant 1 is the shape the constant scales.
            ratio = max(ratio, _add_one_kl(p, count, rng) / add_one_risk_bound(k, delta, count, 1.0))
        worst[t] = ratio
    worst.sort()
    index = math.ceil((1.0 - delta) * trials) - 1
    return float(worst[index])


def fixed_structure_samples(
    n: int,
    k: int,
    epsilon: float,
    delta: float,
    constant: float = DEFAULT_FIXED_STRUCTURE_CONSTANT,
) -> int:
    """Samples sufficient for add-1 learning on a known tree to come within
    epsilon additional KL with probability 1 - delta (calibrated constant)."""
    if epsilon <= 0 or not 0 < delta < 1:
        raise ValueError("need epsilon > 0 and delta in (0, 1)")
    return _sample_size(constant, n * k * k, n * k, epsilon, delta)


def calibrate_fixed_structure_constant(
    n: int = 8,
    k: int = 2,
    epsilon: float = 0.1,
    delta: float = 0.1,
    trials: int = 1000,
    seed: int = 20260814,
    target_rate: float = 0.95,
) -> float:
    """Smallest grid constant at which add-1 learning on the true skeleton of
    a random tree model lands within epsilon KL in at least `target_rate` of
    trials.  The target leaves slack over 1 - delta so a fresh evaluation at
    the returned constant still clears 1 - delta."""
    grid = [2.0**e for e in range(-9, 7)]
    for constant in grid:
        count = fixed_structure_samples(n, k, epsilon, delta, constant)
        hits = 0
        for t in range(trials):
            m = random_tree_model(n, k, derive_seed(seed, "fixed-structure", constant, t, "model"))
            s = sample(m, count, derive_seed(seed, "fixed-structure", constant, t, "data"))
            learned = learn_parameters(s, m.tree)
            if kl_divergence(to_dense(m), to_dense(learned)) <= epsilon:
                hits += 1
        if hits / trials >= target_rate:
            return constant
    raise RuntimeError("no constant in the calibration grid reached the target rate")
