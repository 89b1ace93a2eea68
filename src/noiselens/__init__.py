"""Surrogate-guided clean-sample selection and noise-aware margin training
for classification datasets with unreliable labels, on precomputed
embeddings."""

from types import ModuleType as _ModuleType

from .data import (
    Dataset,
    ScoreMatrix,
    load_dataset,
    load_score_matrix,
    save_dataset,
    save_score_matrix,
)
from .errors import FormatError, NoiseLensError, TrainingDivergedError, ValidationError
from .experiment import (
    ExperimentConfig,
    ExperimentResult,
    config_from_text,
    load_experiment_config,
    run_experiment,
)
from .losses import (
    LossBatch,
    MarginConfig,
    cross_entropy,
    focal_loss,
    nabm_loss_batch,
    nabm_probability,
)
from .noise import (
    CorruptionRecord,
    NoiseSpec,
    SelectionQuality,
    blob_means,
    inject_noise,
    make_blobs,
    oracle_scores,
    selection_quality,
)
from .priors import (
    ClassPrior,
    TransitionMatrix,
    compute_class_prior,
    estimate_transition_matrix,
    load_class_prior,
    load_transition_matrix,
    save_class_prior,
    save_transition_matrix,
    transition_matrix_error,
)
from .report import (
    HistogramReport,
    SweepPoint,
    SweepReport,
    TrainingBundle,
    accuracy,
    confidence_histogram,
    evaluate,
    threshold_sweep,
    top_k_accuracy,
)
from .scorer import (
    ClassEmbeddingBank,
    ScorerConfig,
    cosine_softmax_score,
    load_embedding_bank,
    save_embedding_bank,
    score_with_surrogate,
)
from .selection import (
    SelectionMask,
    apply_mask,
    js_divergence,
    load_mask,
    save_mask,
    select_by_confidence,
    select_by_prompt_consistency,
)
from .trainer import (
    LinearClassifier,
    PredictionResult,
    TrainConfig,
    TrainReport,
    init_classifier,
    load_classifier,
    predict,
    save_classifier,
    train,
    train_heads,
)

__version__ = "0.1.0"

# The public names: those the imports above bind, but the submodules.
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
