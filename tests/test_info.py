"""Information quantities on probability tables.

Core claims:
    - tables of the wrong mass, sign or shape are rejected
    - entropy matches direct summation; point mass 0, uniform ln k
    - the deviation term is the continuous extension of
      (a + b) log(1 + a/b) - a, nonnegative, sandwiched by its envelope
    - mutual information computed two ways (entropy form, deviation-sum form)
      agrees with a third direct oracle
    - conditional MI handles deterministic, XOR, and empty-slice cases
    - the chain-rule identity I(X;Y) - I(X;Z) = I(X;Y|Z) - I(X;Z|Y) is exact
    - a (B, k, k) stack of tables gives each table's mutual information and a
      (B, k, k, k) stack each table's conditional MI bit for bit, and every
      table of a stack is checked
    - the MI matrix loop gives the same matrix whatever order its rows come in
"""

import math
import re

import numpy as np
import pytest

from chowliu import (
    ChainRuleGap,
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

def test_pair_table_rejects_bad_mass():
    with pytest.raises(ValueError, match="^table row sum != 1: 1.2"):
        mutual_information([[0.6, 0.1], [0.2, 0.3]])
    with pytest.raises(ValueError, match="^negative entry in table$"):
        mutual_information([[0.5, -0.1], [0.3, 0.3]])
    with pytest.raises(ValueError, match="^expected a 2-dimensional table or a stack of them, got shape \\(2,\\)$"):
        mutual_information([0.5, 0.5])
    with pytest.raises(ValueError, match="^expected a 2-dimensional table, got shape \\(1, 2, 2\\)$"):
        mutual_information_from_deviations(np.full((1, 2, 2), 0.25))


def test_triple_table_shape_and_marginal():
    triple = np.full((2, 2, 2), 0.125)
    with pytest.raises(ValueError, match="^expected a 3-dimensional table or a stack of them, got shape \\(2, 2\\)$"):
        conditional_mi(np.full((2, 2), 0.25))
    with pytest.raises(ValueError, match="^table row sum != 1: 1.125$"):
        conditional_mi(triple + np.where(np.arange(8) == 5, 0.125, 0.0).reshape(2, 2, 2))
    with pytest.raises(ValueError, match="^negative entry in table$"):
        conditional_mi(triple - np.where(np.arange(8) == 5, 0.25, 0.0).reshape(2, 2, 2))
    with pytest.raises(ValueError, match="^table axes must share one alphabet, got shape \\(2, 2, 3\\)$"):
        conditional_mi(np.full((2, 2, 3), 1.0 / 12.0))
    with pytest.raises(ValueError, match="^expected a 3-dimensional table, got shape \\(1, 2, 2, 2\\)$"):
        chain_rule_gap(triple[None])


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


def test_deviation_bounds_on_a_zero_base_are_infinite():
    # A cell with no mass under the base and some under the table: the KL term is infinite.
    b = kl_deviation_bounds(0.1, 0.0)
    assert (b.envelope, b.lower, b.upper) == (math.inf, math.inf, math.inf)
    assert kl_deviation_term(0.1, 0.0) == math.inf


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

def mixed_stack(k: int, rng) -> np.ndarray:
    """Tables with every count of positive entries from 1 to k^2, each count
    twice: once with count-like entries (integers over their total), once with
    uniform random entries."""
    tables = []
    for positive in range(1, k * k + 1):
        for values in (rng.integers(1, 50, positive).astype(float), rng.random(positive) + 1e-3):
            flat = np.zeros(k * k)
            flat[rng.choice(k * k, positive, replace=False)] = values
            tables.append((flat / flat.sum()).reshape(k, k))
    return np.stack(tables)


@pytest.mark.parametrize("k", range(2, 12))
def test_stacked_mi_is_bit_identical_to_the_single_table_call(k):
    stack = mixed_stack(k, np.random.default_rng(k))
    assert (np.count_nonzero(stack.reshape(len(stack), -1), axis=1) == 1).any()  # a single-cell table
    got = mutual_information(stack)
    assert got.shape == (len(stack),)
    assert np.array_equal(got, [mutual_information(t) for t in stack])
    assert not np.signbit(got).any()  # clamped to +0.0, as the single-table call is


def test_a_stack_names_the_first_failing_table_by_its_row():
    stack = mixed_stack(3, np.random.default_rng(1))[:5].copy()
    for value, word in ((-0.1, "negative"), (float("nan"), "NaN")):
        bad = stack.copy()
        bad[3, 1, 2] = value
        with pytest.raises(ValueError, match=f"^{word} entry in table at row 3$"):
            mutual_information(bad)
    bad = stack.copy()
    bad[4] *= 0.9
    with pytest.raises(ValueError, match="^table row sum != 1 at row 4: 0.9"):
        mutual_information(bad)


def test_a_stack_of_tables_must_share_one_alphabet():
    with pytest.raises(ValueError, match="^table axes must share one alphabet, got shape \\(2, 3\\)$"):
        mutual_information(np.full((4, 2, 3), 1.0 / 6.0))
    with pytest.raises(ValueError, match="^alphabet size must be >= 2$"):
        mutual_information(np.ones((4, 1, 1)))


def test_a_triple_joint_passed_as_a_stack_is_rejected():
    # Slice z of an (x, y, z) joint sums to p(z), not 1.
    joint = random_joint_table(3, 3, np.random.default_rng(2))
    with pytest.raises(ValueError, match="^table row sum != 1 at row 0: "):
        mutual_information(joint)


def test_an_empty_stack_gives_an_empty_array():
    got = mutual_information(np.zeros((0, 3, 3)))
    assert isinstance(got, np.ndarray) and got.shape == (0,)


def triple_stack(k: int, rng) -> np.ndarray:
    """100 (x, y, z) tables: count-like or uniform random entries, a random
    share of them zero, and in every other table one or more empty z-slices."""
    tables = []
    for b in range(100):
        flat = rng.integers(0, 20, k**3).astype(float) if b % 2 else rng.random(k**3)
        flat[rng.random(k**3) < rng.choice((0.0, 0.3, 0.8))] = 0.0
        table = flat.reshape(k, k, k)
        if b % 4 < 2:
            table[:, :, rng.choice(k, int(rng.integers(1, k)), replace=False)] = 0.0
        if not table.any():
            table[0, 0, 0] = 1.0
        tables.append(table / table.sum())
    return np.stack(tables)


@pytest.mark.parametrize("k", range(2, 9))
def test_stacked_cmi_is_bit_identical_to_the_single_table_call(k):
    stack = triple_stack(k, np.random.default_rng(k))
    assert (stack.sum(axis=(1, 2)) == 0).any()  # an empty z-slice
    got = conditional_mi(stack)
    assert got.shape == (len(stack),)
    assert np.array_equal(got, [conditional_mi(t) for t in stack])


def test_an_empty_triple_stack_gives_an_empty_array():
    got = conditional_mi(np.zeros((0, 3, 3, 3)))
    assert isinstance(got, np.ndarray) and got.shape == (0,)


def test_a_triple_stack_names_the_first_failing_table_by_its_row():
    stack = triple_stack(3, np.random.default_rng(1))[:5].copy()
    bad = stack.copy()
    bad[3, 1, 2, 0] = -0.1
    with pytest.raises(ValueError, match="^negative entry in table at row 3$"):
        conditional_mi(bad)
    bad = stack.copy()
    bad[4] *= 0.5
    with pytest.raises(ValueError, match="^table row sum != 1 at row 4: 0.5"):
        conditional_mi(bad)


@pytest.mark.parametrize("shape", [(4, 4), (1, 2, 2, 2, 2)])
def test_conditional_mi_rejects_2d_and_5d_input(shape):
    message = f"expected a 3-dimensional table or a stack of them, got shape {shape}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        conditional_mi(np.full(shape, 1.0 / np.prod(shape)))


def test_pairwise_mi_does_not_depend_on_the_order_of_its_pairs():
    rng = np.random.default_rng(23)
    n = 6
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if (u + v) % 4]
    rng.shuffle(pairs)
    lists = []
    for start, stop in [(0, 1), (1, 4), (4, 9), (9, len(pairs))]:  # lists of one pair to several sources
        us, vs = map(np.array, zip(*pairs[start:stop]))
        lists.append((us, vs, np.stack([random_joint_table(2, 3, rng) for _ in us])))
    w = _pairwise_mi(n, lists)
    missing = np.ones((n, n), dtype=bool)
    for us, vs, stack in lists:
        for u, v, table in zip(us, vs, stack):
            assert w[u, v] == w[v, u] == mutual_information(table)
            missing[u, v] = missing[v, u] = False
    assert not w[missing].any()  # the diagonal and pairs not given
    for _ in range(5):
        shuffled = [lists[index] for index in rng.permutation(len(lists))]
        assert np.array_equal(_pairwise_mi(n, iter(shuffled)), w)


# -- NaN and infinity -------------------------------------------------------------

@pytest.mark.parametrize("bad", [float("nan"), -float("inf")])
def test_tables_with_nan_or_negative_infinity_are_rejected(bad):
    word = "NaN" if math.isnan(bad) else "negative"
    with pytest.raises(ValueError, match=f"^{word} entry in table$"):
        mutual_information([[bad, 0.5], [0.25, 0.25]])
    with pytest.raises(ValueError, match=f"^{word} entry in table$"):
        conditional_mi(np.full((2, 2, 2), 0.125) + np.where(np.arange(8) == 3, bad, 0.0).reshape(2, 2, 2))
    with pytest.raises(ValueError, match="NaN"):
        entropy([float("nan"), 0.5])
    with pytest.raises(ValueError):
        entropy([bad, 0.5])


def test_table_with_infinity_fails_the_sum_check():
    with pytest.raises(ValueError, match="^table row sum != 1: inf$"):
        mutual_information([[float("inf"), 0.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="^table row sum != 1: 0.9"):
        mutual_information([[0.4, 0.2], [0.2, 0.1]])


@pytest.mark.parametrize("delta,base", [(float("nan"), 0.3), (0.1, float("nan")), (float("inf"), 0.3)])
def test_deviation_functions_reject_nan(delta, base):
    with pytest.raises(ValueError):
        kl_deviation_term(delta, base)
    with pytest.raises(ValueError):
        kl_deviation_bounds(delta, base)
