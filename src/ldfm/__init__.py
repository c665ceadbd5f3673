"""Latent dependency forest models for discrete data.

The joint weight of an assignment is the total weight of all spanning
trees of its pairwise-dependency graph, computed in O(n^3) via the
matrix-tree theorem; parameters are learned with EM from edge posteriors
and queries are answered with Gibbs or tree-augmented MCMC.
"""

from .dataio import (
    Dataset,
    DatasetFormatError,
    GroundTruthNet,
    ModelFormatError,
    fixture_net,
    forward_sample,
    load_dataset,
    load_model,
    load_schema,
    save_dataset,
    save_model,
    save_schema,
)
from .evaluation import (
    EvalReport,
    IndependenceBaseline,
    evaluate,
    evaluate_baseline,
    fit_independence_baseline,
    format_report,
    make_query_instances,
)
from .learning import (
    Smoothing,
    SufficientStats,
    TrainConfig,
    data_log_likelihood,
    e_step,
    m_step,
    train_em,
)
from .matrix_tree import (
    NumericConsistencyError,
    SingularLaplacianError,
    log_partition_many,
    partition_and_posteriors_many,
    unnormalized_log_joint_many,
)
from .model import (
    MISSING,
    LdfmModel,
    Variant,
    VariableSchema,
    make_uniform_model,
    validate_model,
)
from .oracle import (
    brute_partition_and_posteriors,
    brute_unnormalized_joint,
    brute_valid_normalizer,
    enumerate_rooted_trees,
    exact_conditional,
)
from .sampling import (
    QueryInstance,
    SamplerConfig,
    SamplerKind,
    estimate_cll,
    estimate_cmll,
    run_chains,
)

__all__ = [
    "Dataset",
    "DatasetFormatError",
    "EvalReport",
    "GroundTruthNet",
    "IndependenceBaseline",
    "LdfmModel",
    "MISSING",
    "ModelFormatError",
    "NumericConsistencyError",
    "QueryInstance",
    "SamplerConfig",
    "SamplerKind",
    "SingularLaplacianError",
    "Smoothing",
    "SufficientStats",
    "TrainConfig",
    "VariableSchema",
    "Variant",
    "brute_partition_and_posteriors",
    "brute_unnormalized_joint",
    "brute_valid_normalizer",
    "data_log_likelihood",
    "e_step",
    "enumerate_rooted_trees",
    "estimate_cll",
    "estimate_cmll",
    "evaluate",
    "evaluate_baseline",
    "exact_conditional",
    "fit_independence_baseline",
    "fixture_net",
    "format_report",
    "forward_sample",
    "load_dataset",
    "load_model",
    "load_schema",
    "log_partition_many",
    "m_step",
    "make_query_instances",
    "make_uniform_model",
    "partition_and_posteriors_many",
    "run_chains",
    "save_dataset",
    "save_model",
    "save_schema",
    "train_em",
    "unnormalized_log_joint_many",
    "validate_model",
]

__version__ = "0.1.0"
