"""Hard-instance triple families checked against independent enumeration.

Core claims:
  * Both family generators reproduce an independent event-enumeration oracle
    exactly (copy/fresh events over a hidden coin vs agreement products).
  * Non-realizable members have uniform marginals, complement symmetry, and
    are coordinate relabelings of each other; the documented epsilon and
    epsilon^2 cell coefficients are exact, not truncations.
  * Realizable members are exactly tree-structured: projection onto any tree
    containing the strong edge has zero KL, and the weight drop from losing
    that edge equals the reported MI gap.
  * Non-realizable members are far from every tree: the all-weak-edges tree
    trails the best tree by exactly the MI gap, which is at least 0.4 eps.
  * The fact verifiers report Hellinger^2 = eps/2 (realizable) and KL that
    scales quadratically in eps (non-realizable), with honest flag logic; the
    Hellinger flag catches a 5 % error even at the 1e-13 floor.
    Each verifier takes epsilon down to a floor (1e-6 non-realizable, 1e-13
    realizable) where every fact still holds, and rejects a smaller one.
  * block_product concatenates independent blocks most-significant-first,
    preserves per-block marginals, and tensorizes Hellinger affinity.
"""

import dataclasses
import math

import numpy as np
import pytest

from chowliu import hardinstances
from chowliu import (
    Alphabet,
    DenseJoint,
    UndirectedTree,
    block_product,
    kl_to_tree_projection,
    mutual_information,
    nonrealizable_triple,
    realizable_triple,
    statistical_distances,
    verify_nonrealizable_facts,
    verify_realizable_facts,
)

from oracles import direct_kl, direct_mi, enumerate_nonrealizable, enumerate_realizable

PATH_XYZ = UndirectedTree(3, ((0, 1), (1, 2)))
PATH_YXZ = UndirectedTree(3, ((0, 1), (0, 2)))
PATH_XZY = UndirectedTree(3, ((0, 2), (1, 2)))


# ------------------------------------------------------------ argument checks


def test_generator_argument_validation():
    with pytest.raises(ValueError, match="index"):
        nonrealizable_triple(5, 0.1)
    with pytest.raises(ValueError, match="epsilon"):
        nonrealizable_triple(1, 0.25)
    with pytest.raises(ValueError, match="epsilon"):
        nonrealizable_triple(1, -0.01)
    with pytest.raises(ValueError, match="index"):
        realizable_triple(0, 0.1)
    with pytest.raises(ValueError, match="epsilon"):
        realizable_triple(1, 1.5)
    # Both generators accept epsilon = 0, which collapses each family to a
    # single distribution, and the realizable one accepts epsilon = 1 too.
    assert realizable_triple(1, 0.0).table()[0, 0, 0] == 0.5
    assert realizable_triple(1, 1.0).table()[0, 1, 1] == 0.25


@pytest.mark.parametrize("index", [0, 4, -1])
def test_generators_reject_a_bad_member_index(index):
    for make in (nonrealizable_triple, realizable_triple):
        with pytest.raises(ValueError, match=f"^member index must be 1, 2, or 3, got {index}$"):
            make(index, 0.1)


# ------------------------------------------------------------ exact generation


@pytest.mark.parametrize("index", [1, 2, 3])
@pytest.mark.parametrize("epsilon", [0.01, 0.02, 0.05, 0.1, 0.2, 0.24])
def test_nonrealizable_matches_enumeration_oracle(index, epsilon):
    lib = nonrealizable_triple(index, epsilon).table()
    oracle = enumerate_nonrealizable(index, epsilon)
    assert np.abs(lib - oracle).max() <= 1e-15


@pytest.mark.parametrize("index", [1, 2, 3])
@pytest.mark.parametrize("epsilon", [0.01, 0.05, 0.1, 0.2, 0.5, 0.9])
def test_realizable_matches_enumeration_oracle(index, epsilon):
    lib = realizable_triple(index, epsilon).table()
    oracle = enumerate_realizable(index, epsilon)
    assert np.abs(lib - oracle).max() <= 1e-15


def test_nonrealizable_members_coincide_at_epsilon_zero():
    tables = [nonrealizable_triple(i, 0.0).table() for i in (1, 2, 3)]
    assert np.array_equal(tables[0], tables[1])
    assert np.array_equal(tables[1], tables[2])
    # 1/2 * (a^3 + (1-a)^3) at a = 7/8 is 43/128 on the diagonal states.
    assert tables[0][0, 0, 0] == 43.0 / 128.0
    assert tables[0][0, 0, 0] == 0.3359375
    assert tables[0][1, 1, 1] == 43.0 / 128.0


@pytest.mark.parametrize("epsilon", [0.02, 0.05, 0.1, 0.2])
def test_nonrealizable_cell_coefficients_are_exact(epsilon):
    # Both quadratic coefficients are exact properties of the construction
    # (the third coordinate carries the sign flip, breaking the symmetry).
    table = nonrealizable_triple(1, epsilon).table()
    cell_001 = 0.5 * (7.0 / 64.0 + 3.0 * epsilon / 8.0 + 3.0 * epsilon**2 / 4.0)
    cell_010 = 0.5 * (7.0 / 64.0 - 3.0 * epsilon / 8.0 - epsilon**2 / 4.0)
    assert table[0, 0, 1] == pytest.approx(cell_001, abs=1e-15)
    assert table[0, 1, 0] == pytest.approx(cell_010, abs=1e-15)


def test_nonrealizable_single_bit_marginals_are_uniform():
    for index in (1, 2, 3):
        joint = nonrealizable_triple(index, 0.13)
        for v in range(3):
            marg = joint.marginal((v,))
            assert marg[0] == pytest.approx(0.5, abs=1e-15)
            assert marg[1] == pytest.approx(0.5, abs=1e-15)


def test_nonrealizable_complement_symmetry():
    # Flipping all three bits (and the hidden coin with them) is a symmetry.
    for epsilon in (0.03, 0.1, 0.2):
        t = nonrealizable_triple(1, epsilon).table()
        assert np.abs(t - t[::-1, ::-1, ::-1]).max() <= 1e-15


def test_members_are_coordinate_relabelings():
    t1 = nonrealizable_triple(1, 0.07).table()
    t2 = nonrealizable_triple(2, 0.07).table()
    t3 = nonrealizable_triple(3, 0.07).table()
    # Member 2 moves the weak coordinate from Z to Y, member 3 to X.
    assert np.abs(t2 - np.transpose(t1, (0, 2, 1))).max() <= 1e-15
    assert np.abs(t3 - np.transpose(t1, (2, 1, 0))).max() <= 1e-15
    s1 = realizable_triple(1, 0.07).table()
    s2 = realizable_triple(2, 0.07).table()
    s3 = realizable_triple(3, 0.07).table()
    assert np.abs(s2 - np.transpose(s1, (1, 0, 2))).max() <= 1e-15
    assert np.abs(s3 - np.transpose(s1, (2, 1, 0))).max() <= 1e-15


# ------------------------------------------------------- realizable-side facts


@pytest.mark.parametrize("epsilon", [0.05, 0.1, 0.2])
def test_realizable_anchor_cells(epsilon):
    table = realizable_triple(1, epsilon).table()
    # Member 1 ties (Y, Z); states with Y != Z are impossible.
    assert table[0, 0, 1] == 0.0
    assert table[0, 1, 0] == 0.0
    assert table[1, 0, 1] == 0.0
    assert table[1, 1, 0] == 0.0
    assert table[0, 0, 0] == pytest.approx(0.5 * (1.0 - epsilon / 2.0), abs=1e-15)
    assert table[0, 1, 1] == pytest.approx(epsilon / 4.0, abs=1e-15)


def test_realizable_members_are_exactly_tree_structured():
    # Any tree containing the tied edge (Y, Z) fits member 1 exactly.
    for epsilon in (0.05, 0.1, 0.2):
        joint = realizable_triple(1, epsilon)
        assert abs(kl_to_tree_projection(joint, PATH_XYZ).kl) <= 1e-10
        assert abs(kl_to_tree_projection(joint, PATH_XZY).kl) <= 1e-10


def test_realizable_tree_separation_equals_mi_gap():
    # Swapping the tied edge (Y, Z) for the weak edge (X, Z) costs exactly
    # I(Y;Z) - I(X;Z), the reported gap.
    for epsilon in (0.05, 0.1, 0.2):
        joint = realizable_triple(1, epsilon)
        facts = verify_realizable_facts(epsilon)
        kl_without_tied_edge = kl_to_tree_projection(joint, PATH_YXZ).kl
        assert kl_without_tied_edge == pytest.approx(facts.mi_gap, abs=1e-12)


@pytest.mark.parametrize("epsilon", [0.05, 0.1, 0.2])
def test_realizable_facts_hellinger_is_half_epsilon(epsilon):
    facts = verify_realizable_facts(epsilon)
    assert facts.hellinger_sq == pytest.approx(epsilon / 2.0, abs=1e-12)
    assert facts.hellinger_expected == epsilon / 2.0
    assert facts.hellinger_ok


def test_realizable_hellinger_flag_catches_an_error_at_the_floor(monkeypatch):
    def off_by_five_percent(p, q):
        report = statistical_distances(p, q)
        return dataclasses.replace(report, hellinger_sq=report.hellinger_sq * 1.05)

    monkeypatch.setattr(hardinstances, "statistical_distances", off_by_five_percent)
    facts = verify_realizable_facts(1e-13)
    assert facts.hellinger_sq == pytest.approx(1.05 * 5e-14, rel=1e-3)
    assert not facts.hellinger_ok


def test_realizable_facts_mi_gap_matches_oracle():
    for epsilon in (0.05, 0.1, 0.2):
        facts = verify_realizable_facts(epsilon)
        oracle = enumerate_realizable(1, epsilon)
        gap = direct_mi(oracle.sum(axis=0)) - direct_mi(oracle.sum(axis=1))
        assert facts.mi_gap == pytest.approx(gap, abs=1e-12)
        assert facts.mi_gap_leading == pytest.approx(
            (epsilon / 2.0) * math.log(2.0 / epsilon), abs=1e-15
        )
        assert facts.mi_gap_ok


def test_realizable_gap_close_to_leading_term():
    # At epsilon = 0.1 the exact gap exceeds the leading term by under a
    # quarter of its own size.
    facts = verify_realizable_facts(0.1)
    assert facts.mi_gap >= facts.mi_gap_leading
    assert abs(facts.mi_gap - facts.mi_gap_leading) / facts.mi_gap <= 0.25


def test_realizable_facts_epsilon_range():
    for bad in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(ValueError, match="epsilon"):
            verify_realizable_facts(bad)


# --------------------------------------------------- non-realizable-side facts


@pytest.mark.parametrize("epsilon", [0.02, 0.05, 0.1])
def test_nonrealizable_every_tree_is_far(epsilon):
    # The all-weak-edges tree trails the (tied) best trees by exactly the MI
    # gap, so member 1 is at least 0.4 eps from its worst tree while the best
    # trees absorb the rest.
    joint = nonrealizable_triple(1, epsilon)
    facts = verify_nonrealizable_facts(epsilon)
    kl_weak = kl_to_tree_projection(joint, PATH_XZY).kl
    kl_a = kl_to_tree_projection(joint, PATH_XYZ).kl
    kl_b = kl_to_tree_projection(joint, PATH_YXZ).kl
    assert kl_a == pytest.approx(kl_b, abs=1e-12)
    assert kl_weak - min(kl_a, kl_b) == pytest.approx(facts.mi_gap, abs=1e-12)
    assert kl_weak >= 0.4 * epsilon
    assert min(kl_a, kl_b) > 0.0


def test_nonrealizable_facts_match_oracle():
    for epsilon in (0.05, 0.1):
        facts = verify_nonrealizable_facts(epsilon)
        o1 = enumerate_nonrealizable(1, epsilon)
        o2 = enumerate_nonrealizable(2, epsilon)
        gap = direct_mi(o1.sum(axis=2)) - direct_mi(o1.sum(axis=1))
        kl = direct_kl(o1.reshape(-1), o2.reshape(-1))
        assert facts.mi_gap == pytest.approx(gap, abs=1e-12)
        assert facts.kl_r1_r2 == pytest.approx(kl, abs=1e-12)
        assert facts.mi_gap_bound == pytest.approx(0.4 * epsilon, abs=1e-15)


@pytest.mark.parametrize("epsilon", [0.02, 0.05, 0.1])
def test_nonrealizable_gap_flag_holds_at_small_epsilon(epsilon):
    facts = verify_nonrealizable_facts(epsilon)
    assert facts.mi_gap >= 0.4 * epsilon
    assert facts.mi_gap_ok
    assert facts.kl_quadratic_ok


def test_nonrealizable_quadratic_flag_saturates_at_large_epsilon():
    # By eps = 0.2 the quartic correction pushes the halving ratio past 1.5;
    # the verifier reports that honestly instead of clamping.
    facts = verify_nonrealizable_facts(0.2)
    assert facts.kl_quadratic_ratio > 1.5
    assert not facts.kl_quadratic_ok
    assert facts.mi_gap_ok


def test_nonrealizable_kl_scales_quadratically():
    kl_01 = verify_nonrealizable_facts(0.1).kl_r1_r2
    kl_005 = verify_nonrealizable_facts(0.05).kl_r1_r2
    assert 3.0 <= kl_01 / kl_005 <= 5.3


def test_nonrealizable_facts_vanish_with_epsilon():
    facts = verify_nonrealizable_facts(1e-6)
    assert facts.kl_r1_r2 <= 1e-10
    assert facts.mi_gap <= 1e-5
    assert facts.mi_gap_ok
    assert facts.kl_quadratic_ok


def test_nonrealizable_facts_epsilon_range():
    for bad in (0.0, 0.25, -0.1, 0.3):
        with pytest.raises(ValueError, match="epsilon"):
            verify_nonrealizable_facts(bad)


@pytest.mark.parametrize(
    "verify, floor, top",
    [(verify_nonrealizable_facts, 1e-6, "0.25"), (verify_realizable_facts, 1e-13, "1")],
    ids=["nonrealizable", "realizable"],
)
def test_fact_verifiers_hold_down_to_their_floor(verify, floor, top):
    for epsilon in (floor, 2 * floor, 10 * floor):
        facts = vars(verify(epsilon))
        assert all(value for name, value in facts.items() if name.endswith("_ok")), facts
        assert all(math.isfinite(value) for value in facts.values() if isinstance(value, float))
    for below in (floor / 2, 1e-17, 1e-320):
        with pytest.raises(ValueError) as err:
            verify(below)
        assert str(err.value) == f"epsilon must lie in [{floor}, {top}), got {below}"


# --------------------------------------------------------------- block product


def test_block_product_single_block_is_identity():
    joint = nonrealizable_triple(1, 0.1)
    prod = block_product([joint])
    assert prod.n == 3
    assert np.array_equal(prod.probs, joint.probs)


def test_block_product_orders_most_significant_first():
    point = DenseJoint(1, Alphabet(2), [0.0, 1.0])
    fair = DenseJoint(1, Alphabet(2), [0.5, 0.5])
    prod = block_product([point, fair])
    # First block owns the most significant digit: states 10 and 11.
    assert prod.probs.tolist() == [0.0, 0.0, 0.5, 0.5]
    flipped = block_product([fair, point])
    assert flipped.probs.tolist() == [0.0, 0.5, 0.0, 0.5]


def test_block_product_of_uniform_bits_is_uniform():
    fair = DenseJoint(1, Alphabet(2), [0.5, 0.5])
    prod = block_product([fair, fair])
    assert prod.n == 2
    assert np.allclose(prod.table(), 0.25)


def test_block_product_blocks_are_independent():
    big = block_product([nonrealizable_triple(1, 0.1), nonrealizable_triple(2, 0.1)])
    assert big.n == 6
    for i in range(3):
        for j in range(3, 6):
            assert mutual_information(big.marginal((i, j))) <= 1e-12


def test_block_product_preserves_block_marginals():
    r1 = nonrealizable_triple(1, 0.1)
    r2 = nonrealizable_triple(2, 0.1)
    big = block_product([r1, r2])
    assert np.abs(big.marginal((0, 1, 2)) - r1.table()).max() <= 1e-15
    assert np.abs(big.marginal((3, 4, 5)) - r2.table()).max() <= 1e-15


@pytest.mark.parametrize("copies", [1, 2, 3, 4, 5])
def test_hellinger_tensorizes_over_blocks(copies):
    # Affinity multiplies across independent blocks, so H^2 of m copies is
    # 1 - (1 - eps/2)^m for the realizable pair.
    epsilon = 0.1
    p = block_product([realizable_triple(1, epsilon)] * copies)
    q = block_product([realizable_triple(2, epsilon)] * copies)
    h2 = statistical_distances(p, q).hellinger_sq
    assert h2 == pytest.approx(1.0 - (1.0 - epsilon / 2.0) ** copies, abs=1e-12)


def test_block_product_rejects_empty_and_mismatched():
    with pytest.raises(ValueError, match="at least one"):
        block_product([])
    bit = DenseJoint(1, Alphabet(2), [0.5, 0.5])
    trit = DenseJoint(1, Alphabet(3), [0.4, 0.3, 0.3])
    with pytest.raises(ValueError, match="alphabet"):
        block_product([bit, trit])


def test_block_product_respects_dense_cap():
    # Nine binary triples need 2^27 entries, past the 2^24 cap.
    with pytest.raises(ValueError, match="cap"):
        block_product([nonrealizable_triple(1, 0.1)] * 9)
