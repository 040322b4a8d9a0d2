"""Learning tree-structured discrete distributions.

The package covers the full pipeline: dense joint distributions and rooted
tree models (`model`), information-theoretic quantities with two independent
computation routes (`info`), sample containers and smoothed estimation
(`estimation`), maximum-weight tree structure learning (`structure`),
sample-efficient conditional-independence testing (`citest`), exactly
analyzable hard instance families (`hardinstances`), and a deterministic
experiment harness (`harness`).
"""

from .estimation import (
    SampleFormatError,
    SampleSet,
    add_one_estimate,
    add_one_risk_bound,
    calibrate_add_one_constant,
    calibrate_fixed_structure_constant,
    empirical_counts,
    fixed_structure_samples,
    learn_parameters,
    read_binary,
    read_csv,
    write_binary,
    write_csv,
)
from .citest import (
    DEPENDENT,
    INDEPENDENT,
    CalibrationError,
    TesterConfig,
    TestVerdict,
    calibrate,
    calibration_family,
    required_samples_cmi,
    required_samples_mi,
    test_conditional_independence,
    test_independence,
)
from .hardinstances import (
    block_product,
    nonrealizable_triple,
    realizable_triple,
    verify_nonrealizable_facts,
    verify_realizable_facts,
)
from .harness import (
    ExperimentCell,
    ExperimentConfig,
    ExperimentRow,
    run_experiment,
    write_rows_csv,
)
from .info import (
    ChainRuleGap,
    DeviationBounds,
    chain_rule_gap,
    conditional_mi,
    entropy,
    kl_deviation_bounds,
    kl_deviation_term,
    mutual_information,
    mutual_information_from_deviations,
)
from .model import (
    DENSE_CAP,
    Alphabet,
    DenseJoint,
    KLDecomposition,
    RootedTree,
    TreeModel,
    UndirectedTree,
    exact_mi_matrix,
    kl_decomposition,
    kl_divergence,
    kl_to_tree_projection,
    node_marginals,
    pair_marginal,
    project_onto_tree,
    random_spanning_tree,
    random_tree_model,
    root_at,
    sample,
    sample_dense,
    statistical_distances,
    to_dense,
    validate_tree_model,
)
from .structure import (
    MIMatrix,
    chow_liu_structure,
    exchange_pairing,
    learn_tree_distribution,
    max_weight_spanning_tree,
    mi_matrix,
    tree_weight,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # model
    "Alphabet", "DenseJoint", "UndirectedTree", "RootedTree", "TreeModel",
    "DENSE_CAP", "root_at", "validate_tree_model", "node_marginals", "to_dense",
    "sample", "sample_dense", "pair_marginal", "exact_mi_matrix",
    "project_onto_tree", "kl_divergence", "kl_to_tree_projection",
    "kl_decomposition", "KLDecomposition", "statistical_distances",
    "random_spanning_tree", "random_tree_model",
    # info
    "entropy", "mutual_information",
    "kl_deviation_term", "kl_deviation_bounds", "DeviationBounds",
    "mutual_information_from_deviations", "conditional_mi",
    "chain_rule_gap", "ChainRuleGap",
    # estimation
    "SampleSet", "SampleFormatError", "empirical_counts", "add_one_estimate",
    "learn_parameters", "read_csv", "write_csv", "read_binary", "write_binary",
    "add_one_risk_bound", "calibrate_add_one_constant",
    "fixed_structure_samples", "calibrate_fixed_structure_constant",
    # structure
    "MIMatrix", "mi_matrix", "max_weight_spanning_tree", "tree_weight",
    "chow_liu_structure", "learn_tree_distribution", "exchange_pairing",
    # citest
    "TesterConfig", "TestVerdict", "INDEPENDENT", "DEPENDENT",
    "required_samples_cmi", "required_samples_mi",
    "test_conditional_independence", "test_independence",
    "calibration_family", "calibrate", "CalibrationError",
    # hardinstances
    "nonrealizable_triple", "realizable_triple",
    "block_product", "verify_nonrealizable_facts", "verify_realizable_facts",
    # harness
    "ExperimentCell", "ExperimentConfig", "ExperimentRow",
    "run_experiment", "write_rows_csv",
]
