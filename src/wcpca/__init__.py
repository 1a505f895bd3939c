"""Worst-case principal component analysis across data domains.

Estimates a single k-dimensional frame whose worst-case loss over a
collection of domain covariances (or over their convex hull) is optimal,
plus matrix-completion variants that share a right factor across domains.
"""

from .completion import (
    CompletionModel,
    IncoherenceReport,
    MaskedDataset,
    MaskedDomain,
    fit_max_mc,
    fit_pool_mc,
    incoherence,
    inductive_ols,
    missingness_budget,
    ols_subset_stability_check,
)
from .datagen import (
    GenConfig,
    SourceComponents,
    add_heterogeneous_noise,
    sample_gaussian_rows,
    sample_masks,
    sample_source_components,
    sample_source_covariances,
    sample_target_covariance,
)
from .errors import (
    ConstantColumn,
    DegenerateBaseline,
    EmptyData,
    InvalidConfig,
    InvalidInput,
    InvalidKind,
    InvalidRank,
    InvalidWeights,
    NoObservations,
    RankDeficient,
    SchemaError,
    WcpcaError,
    ZeroTrace,
    exit_code_for,
)
from .evaluation import (
    hull_supremum,
    mc_domain_losses,
    relative_deltas,
    sample_hull_members,
)
from .experiments import EXPERIMENTS, ExperimentConfig, run_experiment
from .linalg import (
    Spectrum,
    as_covariance,
    haar_frame,
    orthocomplement_frame,
    projection_distance,
    stiefel_project,
    sym_eigen,
    sym_eigenvalues,
    top_k_frame,
)
from .losses import (
    MIN_KINDS,
    NORMALIZED_KINDS,
    REGRET_KINDS,
    DomainCollection,
    DomainSpec,
    LossKind,
    average_covariance,
    loss,
    make_collection,
    pooled_covariance,
    top_k_eigensum,
    worst_case,
)
from .preprocess import (
    PreprocessedCollection,
    RawTable,
    explained_variance_table,
    load_covariances,
    load_csv,
    load_masked_csv,
    masked_dataset_from_blocks,
    preprocess,
    save_covariances,
)
from .rng import as_rng, make_rng, spawn_seed
from .solvers import (
    FitResult,
    Restart,
    SolverConfig,
    avgcov_pca,
    order_basis,
    pool_pca,
    sep_pca,
    sequential_minpca,
    solve_wcpca,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "WcpcaError",
    "InvalidInput",
    "InvalidRank",
    "RankDeficient",
    "ZeroTrace",
    "InvalidWeights",
    "InvalidKind",
    "NoObservations",
    "SchemaError",
    "EmptyData",
    "ConstantColumn",
    "DegenerateBaseline",
    "InvalidConfig",
    "exit_code_for",
    # rng
    "make_rng",
    "as_rng",
    "spawn_seed",
    # linear algebra
    "Spectrum",
    "as_covariance",
    "sym_eigen",
    "sym_eigenvalues",
    "top_k_frame",
    "stiefel_project",
    "projection_distance",
    "haar_frame",
    "orthocomplement_frame",
    # losses and domains
    "LossKind",
    "MIN_KINDS",
    "NORMALIZED_KINDS",
    "REGRET_KINDS",
    "DomainSpec",
    "DomainCollection",
    "make_collection",
    "top_k_eigensum",
    "loss",
    "worst_case",
    "pooled_covariance",
    "average_covariance",
    # solvers
    "SolverConfig",
    "FitResult",
    "Restart",
    "pool_pca",
    "sep_pca",
    "avgcov_pca",
    "solve_wcpca",
    "sequential_minpca",
    "order_basis",
    # completion
    "MaskedDomain",
    "MaskedDataset",
    "CompletionModel",
    "IncoherenceReport",
    "inductive_ols",
    "fit_pool_mc",
    "fit_max_mc",
    "incoherence",
    "missingness_budget",
    "ols_subset_stability_check",
    # data generation
    "GenConfig",
    "SourceComponents",
    "sample_source_components",
    "sample_source_covariances",
    "sample_target_covariance",
    "sample_gaussian_rows",
    "add_heterogeneous_noise",
    "sample_masks",
    # evaluation
    "hull_supremum",
    "sample_hull_members",
    "relative_deltas",
    "mc_domain_losses",
    # preprocessing and IO
    "RawTable",
    "PreprocessedCollection",
    "load_csv",
    "preprocess",
    "explained_variance_table",
    "save_covariances",
    "load_covariances",
    "load_masked_csv",
    "masked_dataset_from_blocks",
    # experiments
    "EXPERIMENTS",
    "ExperimentConfig",
    "run_experiment",
]
