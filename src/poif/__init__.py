"""Person-of-interest face and voice verification on feature streams.

The package learns per-modality embeddings with a contrastive objective,
scores test videos against a person's pristine reference set, and
calibrates the scores so a false-alarm target translates directly into a
decision threshold.  A synthetic world generator and a small CLI make the
whole pipeline reproducible end to end.
"""

from .encoder import EncoderConfig, EncoderParams, encode_batch, init_encoder
from .exceptions import (
    ConfigError,
    DataError,
    DegenerateReferenceError,
    PoifError,
    UndefinedMetricError,
)
from .losses import LossReport, positive_sets
from .metrics import MetricsReport, ScoreSample, accuracy, auc, knn_person_id, pd_at_fa
from .records import ManipFlags, Modality, SegmentTable
from .scoring import (
    FUSED,
    DecisionPolicy,
    ReferenceSet,
    StackVerdict,
    build_reference,
    quantile_threshold,
    score_video,
)
from .synthgen import (
    Benchmark,
    ManipulationSpec,
    WorldConfig,
    apply_manipulation,
    generate_benchmark,
    generate_world,
)
from .training import (
    TrainConfig,
    TrainingIndex,
    TrainResult,
    index_training_set,
    sample_batch,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "Benchmark",
    "ConfigError",
    "DataError",
    "DecisionPolicy",
    "DegenerateReferenceError",
    "EncoderConfig",
    "EncoderParams",
    "FUSED",
    "LossReport",
    "ManipFlags",
    "ManipulationSpec",
    "MetricsReport",
    "Modality",
    "PoifError",
    "ReferenceSet",
    "ScoreSample",
    "SegmentTable",
    "StackVerdict",
    "TrainConfig",
    "TrainResult",
    "TrainingIndex",
    "UndefinedMetricError",
    "WorldConfig",
    "accuracy",
    "apply_manipulation",
    "auc",
    "build_reference",
    "encode_batch",
    "generate_benchmark",
    "generate_world",
    "index_training_set",
    "init_encoder",
    "knn_person_id",
    "pd_at_fa",
    "positive_sets",
    "quantile_threshold",
    "sample_batch",
    "score_video",
    "train",
]
