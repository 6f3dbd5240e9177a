"""conceptlearn: measure how well word embeddings capture human-defined
word-list concepts via held-out linear-classifier performance, Monte-Carlo
null distributions, and paired nonparametric comparison."""

from .concepts import (
    Concept,
    ConceptError,
    ResolvedConcept,
    expand_wildcards,
    load_concept,
    random_concept,
    resolve,
)
from .embeddings import (
    EmbeddingParseError,
    EmbeddingSourceSpec,
    EmbeddingStore,
    load_embedding,
    normalize,
    random_gaussian_embedding,
    save_embedding,
)
from .experiment import (
    AggregateResult,
    ExperimentConfig,
    NullDistribution,
    empirical_p_value,
    format_p_value,
    run_concept,
    run_null,
)
from .metrics import (
    METRIC_NAMES,
    MetricsRecord,
    evaluate_scores,
    roc_auc,
)
from .perceptron import (
    PerceptronModel,
    TrainConfig,
    loss_and_gradient,
    score,
    sigmoid,
    train,
    train_many,
)
from .splits import EvaluationSplit, make_split, split_rng
from .stats import WilcoxonOutcome, critical_value, wilcoxon_signed_rank

__version__ = "0.1.0"

__all__ = [
    "AggregateResult",
    "Concept",
    "ConceptError",
    "EmbeddingParseError",
    "EmbeddingSourceSpec",
    "EmbeddingStore",
    "EvaluationSplit",
    "ExperimentConfig",
    "METRIC_NAMES",
    "MetricsRecord",
    "NullDistribution",
    "PerceptronModel",
    "ResolvedConcept",
    "TrainConfig",
    "WilcoxonOutcome",
    "critical_value",
    "empirical_p_value",
    "evaluate_scores",
    "expand_wildcards",
    "format_p_value",
    "load_concept",
    "load_embedding",
    "loss_and_gradient",
    "make_split",
    "normalize",
    "random_concept",
    "random_gaussian_embedding",
    "resolve",
    "roc_auc",
    "run_concept",
    "run_null",
    "save_embedding",
    "score",
    "sigmoid",
    "split_rng",
    "train",
    "train_many",
    "wilcoxon_signed_rank",
]
