"""Pinned bytes of the hidden-value instance tables, of dense marginals and
of random spanning trees.

Core claims:
  * Both three-bit families (members 1-3 at several epsilon, from 0 to the
    edge of each domain) give tables whose concatenated `probs` bytes have a
    pinned sha256 digest.
  * `calibration_family(k, epsilon)` at k in {2, 3, 5} gives pinned bytes,
    member by member in family order.
  * `DenseJoint.marginal` gives pinned bytes and shapes for every ordered
    choice of variables of 3- and 4-variable tables (k in {2, 3}).
  * `random_spanning_tree(n, rng)` for n = 1..8 over six seeds gives pinned
    edges, and the draw that follows each tree is pinned too, so the
    decoder's use of the RNG stream is fixed.
  * `mutual_information`, `entropy`, `conditional_mi` and `chain_rule_gap`
    give pinned values on seeded tables with k = 2..10, sparse ones and ones
    with an empty z-slice among them, each in C, transposed and reversed
    layout.  The layout decides the order of numpy's sums, so this pins the
    last bits of the one information kernel for every layout a caller may
    pass.  The last bits of float64 `np.log` depend on the SIMD path numpy
    dispatches to, so that digest is pinned once per path, keyed by the bits
    of `np.log` on a fixed seeded probe; a path with no pinned digest fails,
    naming its fingerprint.

The oracle tests compare these tables within 1e-15, which a change in the
last bit passes; these digests do not. Every table here feeds pinned outputs
(verify-facts, calibrate, the experiment kinds), so any rewrite of the
builders must keep them bit for bit.
"""

import hashlib
import itertools

import numpy as np
import pytest

from chowliu import (
    Alphabet,
    DenseJoint,
    calibration_family,
    chain_rule_gap,
    conditional_mi,
    entropy,
    mutual_information,
    nonrealizable_triple,
    random_spanning_tree,
    realizable_triple,
)

NONREALIZABLE_EPSILONS = (0.0, 0.013, 0.05, 0.1, 0.2, 0.2499)
REALIZABLE_EPSILONS = (0.0, 0.013, 0.05, 0.1, 0.5, 1.0)
LAYOUTS = (
    lambda t: t,
    lambda t: t.T,
    lambda t: t[(slice(None, None, -1),) * t.ndim],
)


def digest(joints) -> str:
    h = hashlib.sha256()
    for joint in joints:
        h.update(joint.probs.tobytes())
    return h.hexdigest()


def test_nonrealizable_family_bytes():
    tables = (nonrealizable_triple(i, e) for i in (1, 2, 3) for e in NONREALIZABLE_EPSILONS)
    assert digest(tables) == "30f9abe3e3c382af44d139d41b1d913efd2117542239d19106c6380cf1775fc2"


def test_realizable_family_bytes():
    tables = (realizable_triple(i, e) for i in (1, 2, 3) for e in REALIZABLE_EPSILONS)
    assert digest(tables) == "cefef5902b7531ab940b220e2c3a38d59f2ee1d551b39f1407b590be2f3c5dbf"


@pytest.mark.parametrize(
    "k, epsilon, expected",
    [
        (2, 0.05, "5ae60d8b6843f69e0844b607f6ccb8978f558d6066eee9e2101ec50585a12118"),
        (2, 0.1, "0f779185a5790d8a5712d398868b6838ba92c1c92125d3c6b4befdc068b4f701"),
        (3, 0.05, "984d307398d1a15d720264ead84f245a48a81063bd6252463955d8a668ca7b61"),
        (3, 0.1, "c5f8513a66ad11dc436e718cf84085a48f64863ec7f747baee646bed06931265"),
        (5, 0.05, "bd3787051afa6b8563f43910ec87a9ce1c514fabbbffdedf7fd559e453bd915e"),
        (5, 0.1, "a259e03a3c3e814749718db5841c9a266d0c8ccb4c0fa68ae2466ef8605f8719"),
    ],
)
def test_calibration_family_bytes(k, epsilon, expected):
    members = calibration_family(k, epsilon)
    assert [m.name for m in members][:4] == ["ci-common-cause", "ci-product", "dep-copy", "dep-borderline"]
    assert digest(m.joint for m in members) == expected


def test_dense_marginal_bytes():
    h = hashlib.sha256()
    for n, k in ((3, 2), (3, 3), (4, 2), (4, 3)):
        rng = np.random.default_rng(n * 10 + k)
        p = DenseJoint(n, Alphabet(k), rng.dirichlet(np.ones(k**n)))
        for r in range(1, n + 1):
            for variables in itertools.permutations(range(n), r):
                table = p.marginal(variables)
                h.update(repr((variables, table.shape)).encode())
                h.update(table.tobytes())
    assert h.hexdigest() == "368e025519b23555003ab80494c9bafbe2f7a76a0bab44c07cd4d2db833298ae"


def test_random_spanning_tree_edges_and_stream():
    h = hashlib.sha256()
    for n in range(1, 9):
        for seed in range(6):
            rng = np.random.default_rng(seed)
            edges = random_spanning_tree(n, rng).edges
            h.update(repr((n, seed, edges, rng.random())).encode())
    assert h.hexdigest() == "174a39a5077a41032ac199b45bf036d6fa4d5242aec881669d3bbee244867912"


def seeded_table(rng, k: int, ndim: int) -> np.ndarray:
    flat = rng.dirichlet(np.ones(k**ndim))
    flat[rng.random(k**ndim) < rng.choice((0.0, 0.3, 0.7))] = 0.0
    if ndim == 3 and rng.random() < 0.5:
        flat.reshape(k, k, k)[:, :, rng.integers(k)] = 0.0  # an empty z-slice
    if not flat.any():
        flat[rng.integers(k**ndim)] = 1.0
    return (flat / flat.sum()).reshape((k,) * ndim)


# The values' digest on each SIMD path of float64 np.log, keyed by
# log_fingerprint(): AVX-512, then the path numpy takes with
# NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR".
INFORMATION_DIGESTS = {
    "074880710264a534": "2e793c8937082cb6a19837e92a682ecadf096b8c9d959af628f526435af62467",
    "8d1a90b05e0fbe19": "61d5ea8ec04b7fbe428eadeaff0ab244c4da797e892cc563d07fb5541983a3c5",
}


def log_fingerprint() -> str:
    """The first 16 hex digits of the sha256 of float64 np.log on a fixed
    seeded probe, which tell numpy's SIMD paths for it apart."""
    probe = np.random.default_rng(0).random(1000)
    return hashlib.sha256(np.log(probe).tobytes()).hexdigest()[:16]


def test_information_values():
    values = []
    for k in range(2, 11):
        rng = np.random.default_rng(1000 + k)
        for _ in range(20):
            pair, triple = seeded_table(rng, k, 2), seeded_table(rng, k, 3)
            for layout in LAYOUTS:
                p, t = layout(pair), layout(triple)
                gap = chain_rule_gap(t)
                values += [mutual_information(p), entropy(p), conditional_mi(t), entropy(t), gap.mi_gap, gap.cmi_gap]
    assert len(values) == 3240
    digest = hashlib.sha256(np.array(values).tobytes()).hexdigest()
    fingerprint = log_fingerprint()
    assert fingerprint in INFORMATION_DIGESTS, f"no digest pinned for the np.log fingerprint {fingerprint}"
    assert digest == INFORMATION_DIGESTS[fingerprint]
