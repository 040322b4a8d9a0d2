"""Counting, add-1 estimation, sample file formats, and calibrated bounds.

Core claims:
    - SampleSet enforces byte-sized alphabets and symbol ranges
    - empirical_counts tallies exactly, is additive over chunks, and returns
      a read-only int64 array; _trial_counts stacks, trial by trial, the
      counts of sample_dense's draws under each trial's seed, as float64
    - add_one_estimate matches (t + 1) / (N + k) cell by cell, never zero
    - learn_parameters reproduces the hand-computed add-1 model on degenerate
      data, is uniform at N=0, and is consistent at large N
    - empirical_counts and learn_parameters give the same tables in row
      chunks of any size, and their extra memory is set by the chunk size,
      not by the number of rows
    - CSV and binary round-trips are lossless; malformed input errors name
      the offending line or byte-level defect; write_binary writes the rows
      in the documented layout without copying them
    - the add-1 risk bound formula and its calibration are deterministic and
      reproduce the shipped constants exactly; fixed_structure_samples
      rejects a non-finite epsilon and a sample size that is not finite
"""

import math
import struct
import tracemalloc

import numpy as np
import pytest

from chowliu import (
    Alphabet,
    DenseJoint,
    RootedTree,
    SampleFormatError,
    SampleSet,
    add_one_estimate,
    add_one_risk_bound,
    empirical_counts,
    fixed_structure_samples,
    kl_divergence,
    learn_parameters,
    random_tree_model,
    read_binary,
    read_csv,
    sample,
    sample_dense,
    to_dense,
    validate_tree_model,
    write_binary,
    write_csv,
)
from chowliu import estimation
from chowliu.estimation import (
    DEFAULT_ADD_ONE_CONSTANT,
    DEFAULT_FIXED_STRUCTURE_CONSTANT,
    _trial_counts,
    calibrate_add_one_constant,
    calibrate_fixed_structure_constant,
)


# -- SampleSet ---------------------------------------------------------------

def test_sample_set_validation():
    s = SampleSet(Alphabet(3), [[0, 1], [2, 0]])
    assert s.n_samples == 2 and s.n_variables == 2
    assert s.rows.dtype == np.uint8

    with pytest.raises(ValueError):
        SampleSet(Alphabet(2), [[0, 2]])
    with pytest.raises(ValueError):
        SampleSet(Alphabet(2), [[0, -1]])
    with pytest.raises(ValueError):
        SampleSet(Alphabet(2), [0, 1])
    with pytest.raises(ValueError):
        SampleSet(Alphabet(2), [[0.5, 0.5]])
    with pytest.raises(ValueError):
        SampleSet(Alphabet(257), [[0]])


# -- counting ------------------------------------------------------------------

def test_empirical_counts_all_zero_pairs():
    s = SampleSet(Alphabet(2), np.zeros((4, 2), dtype=np.int64))
    c = empirical_counts(s, (0, 1))
    assert np.array_equal(c, [[4, 0], [0, 0]])
    assert c.sum() == 4
    assert c.dtype == np.int64 and not c.flags.writeable


def test_empirical_counts_empty_set():
    s = SampleSet(Alphabet(2), np.zeros((0, 3), dtype=np.int64))
    c = empirical_counts(s, (0, 2))
    assert np.array_equal(c, np.zeros((2, 2)))
    assert c.sum() == 0


def test_empirical_counts_single_variable_tally():
    s = SampleSet(Alphabet(2), [[0, 1], [1, 0], [0, 1]])
    c = empirical_counts(s, (1,))
    assert np.array_equal(c, [1, 2])


def test_empirical_counts_additive_over_chunks():
    rng = np.random.default_rng(5)
    rows = rng.integers(0, 3, size=(50, 4))
    whole = empirical_counts(SampleSet(Alphabet(3), rows), (0, 2, 3))
    first = empirical_counts(SampleSet(Alphabet(3), rows[:20]), (0, 2, 3))
    second = empirical_counts(SampleSet(Alphabet(3), rows[20:]), (0, 2, 3))
    assert np.array_equal(whole, first + second)
    assert whole.sum() == first.sum() + second.sum()


def test_empirical_counts_rejects_bad_variables():
    s = SampleSet(Alphabet(2), [[0, 1, 0]])
    with pytest.raises(ValueError):
        empirical_counts(s, ())
    with pytest.raises(ValueError):
        empirical_counts(s, (0, 0))
    with pytest.raises(ValueError):
        empirical_counts(s, (0, 1, 2, 2))
    with pytest.raises(ValueError):
        empirical_counts(s, (3,))


@pytest.mark.parametrize("n,k", [(1, 3), (2, 2), (3, 2), (3, 4)])
def test_trial_counts_stack_each_trials_counts(n, k):
    rng = np.random.default_rng(n * 10 + k)
    joint = DenseJoint(n, Alphabet(k), rng.dirichlet(np.ones(k**n)))
    tables = _trial_counts(joint, 37, 5, lambda t: 100 + t)
    assert tables.shape == (5,) + (k,) * n and tables.dtype == np.float64
    for t in range(5):
        assert np.array_equal(tables[t], empirical_counts(sample_dense(joint, 37, 100 + t), range(n)))


# -- add-1 ---------------------------------------------------------------------

def test_add_one_formula_cases():
    assert np.allclose(add_one_estimate([3, 1]), [2.0 / 3.0, 1.0 / 3.0], atol=0)
    assert np.allclose(add_one_estimate([0, 0]), [0.5, 0.5], atol=0)
    assert np.allclose(add_one_estimate([10, 0, 0]), [11.0 / 13.0, 1.0 / 13.0, 1.0 / 13.0], atol=0)


def test_add_one_accepts_count_table():
    s = SampleSet(Alphabet(2), [[0, 1], [1, 0], [0, 1]])
    est = add_one_estimate(empirical_counts(s, (1,)))
    assert np.allclose(est, [2.0 / 5.0, 3.0 / 5.0], atol=0)


def test_add_one_always_positive_and_normalized():
    rng = np.random.default_rng(7)
    for _ in range(50):
        k = int(rng.integers(2, 9))
        counts = rng.integers(0, 100, size=k)
        est = add_one_estimate(counts)
        assert np.all(est > 0)
        assert est.sum() == pytest.approx(1.0, abs=1e-12)


def test_add_one_rejects_bad_inputs():
    s = SampleSet(Alphabet(2), [[0, 1]])
    with pytest.raises(ValueError):
        add_one_estimate(empirical_counts(s, (0, 1)))
    with pytest.raises(ValueError):
        add_one_estimate([-1, 2])
    with pytest.raises(ValueError):
        add_one_estimate([[1, 2], [3, 4]])


# -- learn_parameters -------------------------------------------------------------

def test_learn_parameters_all_zero_rows_chain():
    tree = RootedTree(3, 0, (-1, 0, 1))
    s = SampleSet(Alphabet(2), np.zeros((8, 3), dtype=np.int64))
    m = learn_parameters(s, tree)
    validate_tree_model(m)
    assert np.allclose(m.root_marginal, [0.9, 0.1], atol=0)
    for node in (1, 2):
        assert np.allclose(m.cpt[node][0], [0.9, 0.1], atol=0)
        assert np.allclose(m.cpt[node][1], [0.5, 0.5], atol=0)


def test_learn_parameters_empty_input_is_uniform():
    tree = RootedTree(3, 1, (1, -1, 1))
    s = SampleSet(Alphabet(3), np.zeros((0, 3), dtype=np.int64))
    m = learn_parameters(s, tree)
    assert np.allclose(m.root_marginal, 1.0 / 3.0, atol=0)
    for rows in m.cpt.values():
        assert np.allclose(rows, 1.0 / 3.0, atol=0)


def test_learn_parameters_consistent_at_large_n():
    truth = random_tree_model(4, 2, seed=11)
    s = sample(truth, 200_000, seed=13)
    learned = learn_parameters(s, truth.tree)
    assert np.max(np.abs(learned.root_marginal - truth.root_marginal)) <= 0.01
    for node in truth.cpt:
        assert np.max(np.abs(learned.cpt[node] - truth.cpt[node])) <= 0.01


def peak_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_counts_in_row_chunks_match_one_pass(monkeypatch):
    m = random_tree_model(5, 3, seed=6)
    s = sample(m, 1000, seed=7)
    variables = [(3,), (0, 2), (4, 0, 1)]
    whole = [empirical_counts(s, vs) for vs in variables]
    learned = learn_parameters(s, m.tree)
    # 15 chunks of 64 rows and one of 40.
    monkeypatch.setattr(estimation, "_COUNT_CHUNK_ROWS", 64)
    monkeypatch.setattr(estimation, "_CODE_CHUNK_BYTES", 64 * s.n_variables)
    for vs, counts in zip(variables, whole):
        assert np.array_equal(empirical_counts(s, vs), counts)
    chunked = learn_parameters(s, m.tree)
    assert np.array_equal(chunked.root_marginal, learned.root_marginal)
    assert all(np.array_equal(chunked.cpt[node], learned.cpt[node]) for node in learned.cpt)


def test_counting_memory_is_set_by_the_chunk_size(monkeypatch):
    monkeypatch.setattr(estimation, "_COUNT_CHUNK_ROWS", 1 << 13)
    monkeypatch.setattr(estimation, "_CODE_CHUNK_BYTES", 1 << 16)
    m = random_tree_model(6, 3, seed=2)
    for count in (50_000, 200_000):
        s = sample(m, count, seed=1)
        # An int64 code of every row would take 8 bytes a row, 1.6 MB at the
        # larger count; a chunk's codes take 8-16 bytes a row of the chunk.
        assert peak_bytes(lambda: empirical_counts(s, (0, 1, 2))) < 24 * estimation._COUNT_CHUNK_ROWS
        # The transposed symbols of one chunk of rows and their pair codes.
        assert peak_bytes(lambda: learn_parameters(s, m.tree)) < 6 * estimation._CODE_CHUNK_BYTES


def test_learn_parameters_dimension_mismatch():
    tree = RootedTree(3, 0, (-1, 0, 1))
    s = SampleSet(Alphabet(2), [[0, 1]])
    with pytest.raises(ValueError):
        learn_parameters(s, tree)


# -- file formats -------------------------------------------------------------------

def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(17)
    s = SampleSet(Alphabet(4), rng.integers(0, 4, size=(30, 3)))
    path = tmp_path / "samples.csv"
    write_csv(s, path)
    again = read_csv(path, k=4)
    assert np.array_equal(again.rows, s.rows)
    assert again.alphabet.size == 4

    inferred = read_csv(path)
    assert inferred.alphabet.size == int(s.rows.max()) + 1


def test_csv_errors_name_the_line(tmp_path):
    path = tmp_path / "bad.csv"

    path.write_text("0,1\n0,x\n")
    with pytest.raises(SampleFormatError, match=":2:"):
        read_csv(path)

    path.write_text("0,1\n0\n")
    with pytest.raises(SampleFormatError, match=":2:"):
        read_csv(path)

    path.write_text("0,1\n0,-2\n")
    with pytest.raises(SampleFormatError, match=":2:"):
        read_csv(path)

    path.write_text("0,1\n0,3\n")
    with pytest.raises(SampleFormatError, match="out of range"):
        read_csv(path, k=2)

    path.write_text("\n")
    with pytest.raises(SampleFormatError, match="no samples"):
        read_csv(path)


def test_binary_round_trip(tmp_path):
    rng = np.random.default_rng(19)
    s = SampleSet(Alphabet(5), rng.integers(0, 5, size=(64, 4)))
    path = tmp_path / "samples.bin"
    write_binary(s, path)
    again = read_binary(path)
    assert np.array_equal(again.rows, s.rows)
    assert again.alphabet.size == 5


def test_write_binary_writes_the_rows_without_a_copy(tmp_path):
    rng = np.random.default_rng(23)
    s = SampleSet(Alphabet(7), rng.integers(0, 7, size=(250_000, 4)))
    path = tmp_path / "samples.bin"
    tracemalloc.start()
    try:
        write_binary(s, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < s.rows.nbytes // 8
    assert path.read_bytes() == struct.pack("<4sIIQ", b"CLS1", 4, 7, 250_000) + s.rows.tobytes()


def test_binary_rejects_garbage(tmp_path):
    path = tmp_path / "bad.bin"

    path.write_bytes(b"XY")
    with pytest.raises(SampleFormatError, match="truncated"):
        read_binary(path)

    path.write_bytes(b"NOPE" + bytes(16))
    with pytest.raises(SampleFormatError, match="magic"):
        read_binary(path)

    s = SampleSet(Alphabet(2), [[0, 1]])
    write_binary(s, path)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(SampleFormatError, match="bytes"):
        read_binary(path)


def test_binary_header_claiming_more_rows_than_the_file_holds(tmp_path):
    path = tmp_path / "short.bin"
    write_binary(SampleSet(Alphabet(2), [[0, 1], [1, 0]]), path)
    blob = bytearray(path.read_bytes())
    blob[12:20] = (10**12).to_bytes(8, "little")  # u64 sample count
    path.write_bytes(bytes(blob))
    with pytest.raises(SampleFormatError, match=f"expected {20 + 2 * 10**12} bytes, got 24"):
        read_binary(path)


# -- calibrated bounds ------------------------------------------------------------------

def test_add_one_risk_bound_shape():
    base = add_one_risk_bound(4, 0.05, 1000, constant=1.0)
    assert base == pytest.approx(4 * math.log(4 / 0.05) * math.log(1000) / 1000, abs=1e-15)
    # Monotone: more samples shrink the bound; larger k grows it.
    assert add_one_risk_bound(4, 0.05, 10_000, 1.0) < base
    assert add_one_risk_bound(8, 0.05, 1000, 1.0) > base
    # Logs floor at 1 instead of going negative or tiny.
    assert add_one_risk_bound(2, 0.9, 2, 1.0) == pytest.approx(2.0 * 1.0 * 1.0 / 2.0, abs=1e-15)


def test_fixed_structure_samples_formula():
    n_small = fixed_structure_samples(8, 2, epsilon=0.1, delta=0.1)
    n_fine = fixed_structure_samples(8, 2, epsilon=0.05, delta=0.1)
    assert n_small >= 1
    assert n_fine > n_small  # tighter epsilon needs more data
    assert fixed_structure_samples(8, 2, epsilon=1e9, delta=0.5) == 1
    with pytest.raises(ValueError):
        fixed_structure_samples(8, 2, epsilon=0.0, delta=0.1)
    with pytest.raises(ValueError):
        fixed_structure_samples(8, 2, epsilon=0.1, delta=1.5)


def test_fixed_structure_samples_need_a_finite_size():
    for epsilon in (math.inf, math.nan):
        with pytest.raises(ValueError, match="^need a finite epsilon > 0 and delta in \\(0, 1\\)$"):
            fixed_structure_samples(8, 2, epsilon=epsilon, delta=0.1)
    with pytest.raises(ValueError, match="^no finite sample size at epsilon=1e-320 and delta=0.1$"):
        fixed_structure_samples(8, 2, epsilon=1e-320, delta=0.1)


def test_add_one_calibration_reproduces_shipped_constant():
    value = calibrate_add_one_constant()
    assert value == DEFAULT_ADD_ONE_CONSTANT
    assert calibrate_add_one_constant() == value  # deterministic


def test_fixed_structure_calibration_reproduces_shipped_constant():
    value = calibrate_fixed_structure_constant()
    assert value == DEFAULT_FIXED_STRUCTURE_CONSTANT


def test_fixed_structure_constant_holds_on_fresh_seed():
    # Fresh-seed spot check of the calibrated guarantee at a smaller trial
    # count: add-1 learning on the true skeleton lands within epsilon.
    epsilon, delta = 0.1, 0.1
    count = fixed_structure_samples(8, 2, epsilon, delta)
    hits = 0
    trials = 200
    for t in range(trials):
        truth = random_tree_model(8, 2, seed=900_000 + t)
        s = sample(truth, count, seed=7_000_000 + t)
        learned = learn_parameters(s, truth.tree)
        if kl_divergence(to_dense(truth), to_dense(learned)) <= epsilon:
            hits += 1
    assert hits / trials >= 1.0 - delta
