"""Acceptance suite: thirteen end-to-end checks at their stated tolerances.

One test per criterion, each printing a single PASS/FAIL line with the
measured margin.  Statistical criteria use pinned seeds; the identities are
checked on freshly generated random instances every run.

  1. Projection KL identity: D(P || P_T) = total correlation - tree weight.
  2. KL decomposition against brute force; conditional term nonnegative.
  3. Deviation-form MI equals entropy-form MI; envelope sandwich; terms <= 1.
  4. Chain-rule identity on random triples.
  5. Tree models have zero conditional MI on every path triple.
  6. Kruskal equals exhaustive maximum over all labeled trees.
  7. Exchange pairing yields valid one-edge swaps, bijectively.
  8. Structure recovery on realizable 10-node models at epsilon = 0.05.
  9. Sample-complexity slopes separate the two hard-instance regimes.
 10. CI tester completeness and soundness at the calibrated sample size.
 11. Add-1 estimation KL bound holds with high probability.
 12. Hard-instance facts: Hellinger, MI gap, quadratic KL scaling.
 13. CLI output is byte-identical across reruns.
"""

import itertools
import json
import subprocess
import sys
import time

import numpy as np

from chowliu import (
    Alphabet,
    DenseJoint,
    UndirectedTree,
    chain_rule_gap,
    conditional_mi,
    exchange_pairing,
    kl_decomposition,
    kl_divergence,
    kl_to_tree_projection,
    max_weight_spanning_tree,
    mutual_information,
    mutual_information_from_deviations,
    kl_deviation_bounds,
    kl_deviation_term,
    project_onto_tree,
    random_spanning_tree,
    random_tree_model,
    to_dense,
    tree_weight,
    verify_nonrealizable_facts,
    verify_realizable_facts,
)
# Aliased so pytest does not collect the library function as a test item.
from chowliu.citest import test_conditional_independence as cmi_verdict
from chowliu.citest import (
    INDEPENDENT,
    TesterConfig,
    calibration_family,
    required_samples_cmi,
)
from chowliu.harness import ExperimentCell, ExperimentConfig, fitted_slope, run_experiment
from chowliu.model import sample_dense
from chowliu.seeding import derive_seed

from oracles import all_labeled_trees, is_spanning_tree, random_joint_table


def check(number, ok, detail):
    line = f"criterion {number:02d} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


def random_dense(n, k, rng):
    return DenseJoint(n, Alphabet(k), random_joint_table(n, k, rng).reshape(-1))


def test_criterion_01_projection_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    shapes = list(itertools.product((3, 4, 5), (2, 3)))
    worst = 0.0
    for trial in range(100):
        n, k = shapes[trial % len(shapes)]
        p = random_dense(n, k, rng)
        for _ in range(5):
            t = random_spanning_tree(n, rng)
            report = kl_to_tree_projection(p, t)
            brute = kl_divergence(p, to_dense(project_onto_tree(p, t, root=0)))
            worst = max(worst, abs(brute - report.kl))
    elapsed = time.perf_counter() - start
    check(1, worst <= 1e-9 and elapsed < 20.0,
          f"projection identity, 100 joints x 5 trees, worst |diff|={worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_kl_decomposition():
    rng = np.random.default_rng(202)
    worst = 0.0
    min_conditional = np.inf
    for trial in range(100):
        n = 3 + trial % 2
        k = 2 + trial % 2
        p = random_dense(n, k, rng)
        m = random_tree_model(n, k, seed=int(rng.integers(1 << 31)), cpt_floor=0.05)
        decomp = kl_decomposition(p, m)
        brute = kl_divergence(p, to_dense(m))
        worst = max(worst, abs(decomp.total - brute))
        min_conditional = min(min_conditional, decomp.conditional_term)
    check(2, worst <= 1e-9 and min_conditional >= -1e-12,
          f"decomposition vs brute force, worst |diff|={worst:.2e}, "
          f"min conditional term={min_conditional:.2e}")


def test_criterion_03_deviation_route():
    start = time.perf_counter()
    rng = np.random.default_rng(303)
    worst = 0.0
    max_term = -np.inf
    for _ in range(500):
        k = int(rng.integers(2, 7))
        joint = random_joint_table(2, k, rng)
        table = DenseJoint(2, Alphabet(k), joint.reshape(-1))
        a = mutual_information(joint)
        b = mutual_information_from_deviations(joint)
        worst = max(worst, abs(a - b))
        base = np.outer(joint.sum(axis=1), joint.sum(axis=0))
        dev = joint - base
        for i in range(k):
            for j in range(k):
                max_term = max(max_term, kl_deviation_term(float(dev[i, j]), float(base[i, j])))
        del table
    sandwich_ok = True
    # Sweep the full domain: for each base mass, deviations from -b to 1 - b.
    for b in np.linspace(0.005, 0.995, 200):
        for a in np.linspace(-b, 1.0 - b, 200):
            f = kl_deviation_term(float(a), float(b))
            bounds = kl_deviation_bounds(float(a), float(b))
            if not (bounds.lower - 1e-12 <= f <= bounds.upper + 1e-12):
                sandwich_ok = False
    elapsed = time.perf_counter() - start
    check(3, worst <= 1e-10 and sandwich_ok and max_term <= 1.0 + 1e-12 and elapsed < 10.0,
          f"MI routes worst |diff|={worst:.2e}, sandwich on 200x200 grid {sandwich_ok}, "
          f"max term={max_term:.3f}, {elapsed:.1f}s")


def test_criterion_04_chain_rule():
    rng = np.random.default_rng(404)
    worst = 0.0
    for trial in range(1000):
        k = 2 if trial % 2 == 0 else 3
        gap = chain_rule_gap(random_joint_table(3, k, rng))
        worst = max(worst, abs(gap.mi_gap - gap.cmi_gap))
    check(4, worst <= 1e-10, f"chain rule on 1000 triples, worst |diff|={worst:.2e}")


def test_criterion_05_path_triples():
    worst = 0.0
    for seed in range(50):
        m = random_tree_model(8, 2, seed=5000 + seed)
        dense = to_dense(m)
        for u in range(8):
            for v in range(u + 1, 8):
                path = m.tree.path(u, v)
                for w in path[1:-1]:
                    worst = max(worst, conditional_mi(dense.marginal((u, v, w))))
    check(5, worst <= 1e-10, f"path-triple CMI over 50 models, worst={worst:.2e}")


def test_criterion_06_mst_oracle():
    rng = np.random.default_rng(606)
    exact = True
    for trial in range(200):
        n = 2 + trial % 5
        w = rng.random((n, n))
        w = (w + w.T) / 2.0
        np.fill_diagonal(w, 0.0)
        kruskal = tree_weight(w, max_weight_spanning_tree(w))
        best = max(
            tree_weight(w, UndirectedTree(n, edges)) if edges else 0.0
            for edges in all_labeled_trees(n)
        )
        if kruskal != best:
            exact = False
    check(6, exact, "Kruskal weight equals exhaustive maximum on 200 matrices, exact")


def test_criterion_07_exchange_pairing():
    rng = np.random.default_rng(707)
    ok = True
    for _ in range(100):
        t1 = random_spanning_tree(8, rng)
        t2 = random_spanning_tree(8, rng)
        pairing = exchange_pairing(t1, t2)
        only_t1 = sorted(set(t1.edges) - set(t2.edges))
        only_t2 = sorted(set(t2.edges) - set(t1.edges))
        if sorted(drop for drop, _ in pairing) != only_t1:
            ok = False
        if sorted(add for _, add in pairing) != only_t2:
            ok = False
        if len({add for _, add in pairing}) != len(pairing):
            ok = False
        for drop, add in pairing:
            edges = (set(t1.edges) - {drop}) | {add}
            if not is_spanning_tree(8, edges):
                ok = False
    check(7, ok, "100 tree pairs: swaps are spanning trees, pairing bijective")


def test_criterion_08_realizable_recovery():
    start = time.perf_counter()
    rows = run_experiment(
        ExperimentConfig(
            "RealizableRecovery", (ExperimentCell(10, 2, 0.05, 5000),), trials=100, seed=1
        )
    )
    elapsed = time.perf_counter() - start
    rate = rows[0].success_rate
    check(8, rate >= 0.9 and elapsed < 300.0,
          f"n=10 recovery rate={rate:.2f} at eps=0.05, N=5000, {elapsed:.1f}s")


def test_criterion_09_separation_slopes():
    grid = tuple(ExperimentCell(3, 2, eps, 0) for eps in (0.05, 0.1, 0.2))

    def slope(regime):
        cfg = ExperimentConfig("SeparationCurve", grid, trials=200, seed=1, options={"regime": regime})
        return fitted_slope(run_experiment(cfg))

    start = time.perf_counter()
    realizable, nonrealizable = slope("realizable"), slope("nonrealizable")
    elapsed = time.perf_counter() - start
    check(9, realizable <= 1.4 and nonrealizable >= 1.6 and elapsed < 900.0,
          f"slopes: realizable={realizable:.2f} (<= 1.4), "
          f"nonrealizable={nonrealizable:.2f} (>= 1.6), {elapsed:.1f}s")


def test_criterion_10_ci_tester_rates():
    results = []
    ok = True
    for k in (2, 3):
        cfg = TesterConfig(epsilon=0.1, delta=0.1, k=k)
        n = required_samples_cmi(cfg)
        family = {m.name: m for m in calibration_family(k, 0.1)}
        completeness_failures = soundness_failures = 0
        for t in range(200):
            s = sample_dense(family["ci-common-cause"].joint, n, derive_seed("acc10", k, "ci", t))
            completeness_failures += cmi_verdict(s, cfg).verdict != INDEPENDENT
            s = sample_dense(family["dep-borderline"].joint, n, derive_seed("acc10", k, "dep", t))
            soundness_failures += cmi_verdict(s, cfg).verdict == INDEPENDENT
        ok = ok and completeness_failures <= 30 and soundness_failures <= 30
        results.append(f"k={k}: N={n}, miss={completeness_failures}/200, "
                       f"false-accept={soundness_failures}/200")
    check(10, ok, "; ".join(results))


def test_criterion_11_add_one_bound():
    grid = tuple(ExperimentCell(1, 4, 0.05, n_samples) for n_samples in (100, 1000, 10000))
    rows = run_experiment(ExperimentConfig("Add1Risk", grid, trials=200, seed=1))
    rates = [row.success_rate for row in rows]
    check(11, all(rate >= 0.9 for rate in rates),
          "KL bound held in " + ", ".join(
              f"{rate:.0%} at N={cell.n_samples}" for rate, cell in zip(rates, grid)))


def test_criterion_12_hard_instance_facts():
    start = time.perf_counter()
    hellinger_ok = True
    for eps in (0.05, 0.1, 0.2):
        facts = verify_realizable_facts(eps)
        if abs(facts.hellinger_sq - eps / 2.0) > 1e-12:
            hellinger_ok = False
    gap_ok = all(verify_nonrealizable_facts(eps).mi_gap_ok for eps in (0.05, 0.1))
    quad_ok = all(verify_nonrealizable_facts(eps).kl_quadratic_ok for eps in (0.05, 0.1))
    elapsed = time.perf_counter() - start
    check(12, hellinger_ok and gap_ok and quad_ok and elapsed < 5.0,
          f"Hellinger exact {hellinger_ok}, MI gap >= 0.4 eps {gap_ok}, "
          f"quadratic KL {quad_ok}, {elapsed:.1f}s")


def test_criterion_13_cli_determinism(tmp_path):
    config = {
        "kind": "Add1Risk",
        "grid": [{"n": 1, "k": 3, "epsilon": 0.05, "N": 200}],
        "trials": 25,
        "seed": 9,
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))

    def run(args):
        proc = subprocess.run(
            [sys.executable, "-m", "chowliu.cli", *args],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    run(["experiment", "--config", str(config_path), "--out", str(out_a)])
    run(["experiment", "--config", str(config_path), "--out", str(out_b)])
    files_equal = out_a.read_bytes() == out_b.read_bytes()
    verdicts_equal = (
        run(["verify-facts", "--regime", "realizable", "--epsilon", "0.1"])
        == run(["verify-facts", "--regime", "realizable", "--epsilon", "0.1"])
    )
    check(13, files_equal and verdicts_equal,
          f"experiment CSV bytes identical {files_equal}, "
          f"verify-facts stdout identical {verdicts_equal}")
