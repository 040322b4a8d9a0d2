"""Information quantities on probability tables.

Core claims:
    - PairTable / TripleTable validate mass and shape, expose marginals and
      cell deviations that sum to zero
    - entropy matches direct summation; point mass 0, uniform ln k
    - the deviation term is the continuous extension of
      (a + b) log(1 + a/b) - a, nonnegative, sandwiched by its envelope
    - mutual information computed two ways (entropy form, deviation-sum form)
      agrees with a third direct oracle
    - conditional MI handles deterministic, XOR, and empty-slice cases
    - the chain-rule identity I(X;Y) - I(X;Z) = I(X;Y|Z) - I(X;Z|Y) is exact
    - the MI matrix loop gives the same matrix whatever order its pairs come in
"""

import math

import numpy as np
import pytest

from chowliu import (
    ChainRuleGap,
    PairTable,
    TripleTable,
    chain_rule_gap,
    conditional_mi,
    entropy,
    kl_deviation_bounds,
    kl_deviation_term,
    mutual_information,
    mutual_information_from_deviations,
)
from chowliu.info import _pairwise_mi

from oracles import direct_cmi, direct_entropy, direct_mi, random_joint_table

LN2 = math.log(2.0)


# -- tables ---------------------------------------------------------------------

def test_pair_table_marginals_and_deviations():
    t = PairTable([[0.4, 0.1], [0.2, 0.3]])
    assert t.k == 2
    assert np.allclose(t.x_marginal, [0.5, 0.5])
    assert np.allclose(t.y_marginal, [0.6, 0.4])
    assert abs(t.deviations.sum()) < 1e-12
    assert t.deviations[0, 0] == pytest.approx(0.4 - 0.5 * 0.6)


def test_pair_table_rejects_bad_mass():
    with pytest.raises(ValueError):
        PairTable([[0.6, 0.1], [0.2, 0.3]])
    with pytest.raises(ValueError):
        PairTable([[0.5, -0.1], [0.3, 0.3]])
    with pytest.raises(ValueError):
        PairTable([0.5, 0.5])


def test_triple_table_shape_and_marginal():
    joint = np.full((2, 2, 2), 0.125)
    t = TripleTable(joint)
    assert t.k == 2
    assert np.allclose(t.z_marginal, [0.5, 0.5])
    with pytest.raises(ValueError):
        TripleTable(np.full((2, 2), 0.25))


# -- entropy ----------------------------------------------------------------------

def test_entropy_point_mass_is_zero():
    assert entropy([1.0, 0.0, 0.0]) == 0.0


def test_entropy_binary_example():
    assert entropy([0.7, 0.3]) == pytest.approx(direct_entropy([0.7, 0.3]), abs=1e-15)
    assert entropy([0.7, 0.3]) == pytest.approx(0.6108643020548935, abs=1e-12)


def test_entropy_uniform_vs_oracle():
    for k in (2, 3, 5, 8):
        assert entropy(np.full(k, 1.0 / k)) == pytest.approx(math.log(k), abs=1e-12)
    rng = np.random.default_rng(7)
    for _ in range(50):
        p = rng.dirichlet(np.ones(6))
        assert entropy(p) == pytest.approx(direct_entropy(p), abs=1e-12)


def test_entropy_rejects_negative():
    with pytest.raises(ValueError):
        entropy([1.1, -0.1])


# -- deviation term ---------------------------------------------------------------

def test_deviation_term_zero_cases():
    assert kl_deviation_term(0.0, 0.3) == 0.0
    assert kl_deviation_term(0.0, 0.0) == 0.0


def test_deviation_term_limit_at_negative_base():
    assert kl_deviation_term(-0.3, 0.3) == pytest.approx(0.3, abs=1e-15)


def test_deviation_term_interior_value():
    expected = 0.5 * LN2 - 0.25
    assert kl_deviation_term(0.25, 0.25) == pytest.approx(expected, abs=1e-15)
    assert expected == pytest.approx(0.096574, abs=1e-6)


def test_deviation_term_rejects_domain_violations():
    with pytest.raises(ValueError):
        kl_deviation_term(0.5, 2.0)
    with pytest.raises(ValueError):
        kl_deviation_term(-0.4, 0.3)
    with pytest.raises(ValueError):
        kl_deviation_term(0.9, 0.3)


def test_deviation_bounds_examples():
    b = kl_deviation_bounds(0.0, 0.5)
    assert (b.envelope, b.lower, b.upper) == (0.0, 0.0, 0.0)

    b = kl_deviation_bounds(0.25, 0.25)
    assert b.envelope == pytest.approx(min(0.25, 0.25 * math.log(3.0)), abs=1e-15)
    assert b.envelope == pytest.approx(0.25, abs=1e-15)
    f = kl_deviation_term(0.25, 0.25)
    assert b.lower <= f <= b.upper
    assert b.lower == pytest.approx(0.25 / 3.0, abs=1e-15)

    b = kl_deviation_bounds(-0.3, 0.3)
    assert b.envelope == pytest.approx(0.3, abs=1e-15)
    assert kl_deviation_term(-0.3, 0.3) == pytest.approx(b.upper, abs=1e-15)


def test_deviation_sandwich_on_grid():
    bases = np.linspace(1e-6, 1.0, 60)
    for base in bases:
        for frac in np.linspace(0.0, 1.0, 60):
            delta = -base + frac * 1.0  # spans [-base, 1 - base] clipped below
            if delta > 1.0 - base:
                continue
            f = kl_deviation_term(float(delta), float(base))
            b = kl_deviation_bounds(float(delta), float(base))
            assert f >= 0.0
            assert b.lower - 1e-12 <= f <= b.upper + 1e-12


# -- mutual information -----------------------------------------------------------

def test_mi_of_product_table_is_zero():
    # Dyadic masses so the marginals of the outer product are bit-exact and
    # every cell deviation is exactly 0 on the deviation route; the entropy
    # route may still carry cancellation dust of a few ulps.
    px = np.array([0.25, 0.25, 0.5])
    py = np.array([0.5, 0.25, 0.25])
    assert mutual_information_from_deviations(np.outer(px, py)) == 0.0
    assert mutual_information(np.outer(px, py)) == pytest.approx(0.0, abs=1e-12)
    # Non-dyadic products are still zero to well under any stated tolerance.
    loose = np.outer([0.2, 0.3, 0.5], [0.6, 0.3, 0.1])
    assert mutual_information_from_deviations(loose) == pytest.approx(0.0, abs=1e-12)


def test_mi_of_perfect_copy_is_ln2():
    table = [[0.5, 0.0], [0.0, 0.5]]
    assert mutual_information(table) == pytest.approx(LN2, abs=1e-12)
    assert mutual_information_from_deviations(table) == pytest.approx(LN2, abs=1e-12)


def test_mi_routes_agree_with_direct_oracle():
    rng = np.random.default_rng(11)
    for _ in range(80):
        k = int(rng.integers(2, 7))
        joint = rng.dirichlet(np.ones(k * k)).reshape(k, k)
        via_entropy = mutual_information(joint)
        via_dev = mutual_information_from_deviations(joint)
        oracle = direct_mi(joint)
        assert via_entropy == pytest.approx(oracle, abs=1e-10)
        assert via_dev == pytest.approx(oracle, abs=1e-10)
        assert via_entropy == pytest.approx(via_dev, abs=1e-10)


def test_mi_accepts_pair_table():
    t = PairTable([[0.4, 0.1], [0.2, 0.3]])
    assert mutual_information(t) == pytest.approx(direct_mi(t.joint), abs=1e-12)


def test_deviation_route_cells_stay_below_one():
    rng = np.random.default_rng(13)
    for _ in range(60):
        k = int(rng.integers(2, 7))
        joint = rng.dirichlet(np.ones(k * k)).reshape(k, k)
        base = np.outer(joint.sum(axis=1), joint.sum(axis=0))
        dev = joint - base
        for i in range(k):
            for j in range(k):
                assert kl_deviation_term(float(dev[i, j]), float(base[i, j])) <= 1.0 + 1e-12


# -- conditional MI -----------------------------------------------------------------

def test_cmi_of_shared_bit_is_zero():
    # X = Y = Z = one fair bit: given Z, both are constants.
    joint = np.zeros((2, 2, 2))
    joint[0, 0, 0] = joint[1, 1, 1] = 0.5
    assert conditional_mi(joint) == 0.0


def test_cmi_of_xor_is_ln2():
    # X, Y fair and independent, Z = X xor Y.
    joint = np.zeros((2, 2, 2))
    for x in (0, 1):
        for y in (0, 1):
            joint[x, y, x ^ y] = 0.25
    assert conditional_mi(joint) == pytest.approx(LN2, abs=1e-12)


def test_cmi_skips_empty_slices():
    joint = np.zeros((2, 2, 2))
    joint[:, :, 0] = [[0.25, 0.25], [0.25, 0.25]]
    assert conditional_mi(joint) == 0.0


def test_cmi_matches_direct_oracle():
    rng = np.random.default_rng(17)
    for _ in range(60):
        k = int(rng.integers(2, 5))
        joint = random_joint_table(3, k, rng)
        assert conditional_mi(joint) == pytest.approx(direct_cmi(joint), abs=1e-10)


# -- chain rule ----------------------------------------------------------------------

def test_chain_rule_gap_zero_for_independent():
    joint = np.full((2, 2, 2), 0.125)
    gap = chain_rule_gap(joint)
    assert isinstance(gap, ChainRuleGap)
    assert gap.mi_gap == pytest.approx(0.0, abs=1e-12)
    assert gap.cmi_gap == pytest.approx(0.0, abs=1e-12)


def test_chain_rule_identity_on_random_triples():
    rng = np.random.default_rng(19)
    for _ in range(120):
        k = int(rng.integers(2, 4))
        joint = random_joint_table(3, k, rng)
        gap = chain_rule_gap(joint)
        assert gap.mi_gap == pytest.approx(gap.cmi_gap, abs=1e-10)
        # Both sides against the direct oracle as well.
        lhs = direct_mi(joint.sum(axis=2)) - direct_mi(joint.sum(axis=1))
        assert gap.mi_gap == pytest.approx(lhs, abs=1e-10)


# -- MI matrix --------------------------------------------------------------------

def test_pairwise_mi_does_not_depend_on_the_order_of_its_pairs():
    rng = np.random.default_rng(23)
    n = 6
    pairs = [((i, j), random_joint_table(2, 3, rng)) for i in range(n) for j in range(i + 1, n) if (i + j) % 4]
    w = _pairwise_mi(n, pairs)
    for (i, j), table in pairs:
        assert w[i, j] == w[j, i] == mutual_information(table)
    missing = np.ones((n, n), dtype=bool)
    for (i, j), _ in pairs:
        missing[i, j] = missing[j, i] = False
    assert not w[missing].any()  # the diagonal and pairs not given
    for _ in range(5):
        shuffled = [pairs[index] for index in rng.permutation(len(pairs))]
        assert np.array_equal(_pairwise_mi(n, iter(shuffled)), w)
