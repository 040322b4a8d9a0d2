"""Property tests of the MI matrix on fuzzed small sample sets.

Core claims:
    - mi_matrix equals the per-pair bincount loop of tests/oracles.py bit for
      bit
    - permuting columns permutes the weights: bit for bit on pairs that keep
      their order, and to rounding on pairs whose count table is transposed
      (the joint entropy then sums the same cells in another order)
    - relabelling the symbols of any column moves no weight by more than 1e-12

The module skips where hypothesis is not installed.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from chowliu import Alphabet, SampleSet, mi_matrix  # noqa: E402

from oracles import pairwise_plug_in_mi  # noqa: E402

# Deterministic examples and no example database, so the suite is repeatable.
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

# Transposing a count table reorders the joint entropy's sum: 1e-14 is about
# twenty units in the last place of a weight no larger than log(14).
TRANSPOSE_ATOL = 1e-14


@st.composite
def sample_sets(draw):
    k = draw(st.integers(2, 14))
    n = draw(st.integers(1, 6))
    count = draw(st.integers(1, 40))
    rows = draw(arrays(np.uint8, (count, n), elements=st.integers(0, k - 1)))
    return SampleSet(Alphabet(k), rows)


@PROPERTY
@given(sample_sets())
def test_mi_matrix_equals_per_pair_loop(s):
    assert np.array_equal(mi_matrix(s).weights, pairwise_plug_in_mi(s.rows, s.alphabet.size))


@PROPERTY
@given(sample_sets(), st.randoms(use_true_random=False))
def test_permuting_columns_permutes_weights(s, random):
    n = s.n_variables
    perm = list(range(n))
    random.shuffle(perm)
    w = mi_matrix(s).weights
    permuted = mi_matrix(SampleSet(s.alphabet, s.rows[:, perm])).weights
    for a in range(n):
        for b in range(a + 1, n):
            expected = w[perm[a], perm[b]]
            if perm[a] < perm[b]:
                assert permuted[a, b] == expected
            else:
                assert permuted[a, b] == pytest.approx(expected, rel=0.0, abs=TRANSPOSE_ATOL)


@PROPERTY
@given(sample_sets(), st.randoms(use_true_random=False))
def test_relabelling_symbols_keeps_weights(s, random):
    k = s.alphabet.size
    relabelled = s.rows.copy()
    for column in range(s.n_variables):
        labels = list(range(k))
        random.shuffle(labels)
        relabelled[:, column] = np.array(labels, dtype=np.uint8)[s.rows[:, column]]
    w = mi_matrix(s).weights
    assert np.allclose(mi_matrix(SampleSet(s.alphabet, relabelled)).weights, w, rtol=0.0, atol=1e-12)
