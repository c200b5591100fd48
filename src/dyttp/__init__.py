"""Trajectory prediction with a normalization-free transformer backbone.

The package is a small, numpy-backed library: a float64 autodiff engine
(`tensor`), neural building blocks with DynamicTanh as a drop-in replacement
for LayerNorm (`layers`), the interaction-stage backbone (`backbone`),
cyclical-learning-rate training with snapshot ensembling (`training`),
forecasting metrics and latency benchmarking (`evaluation`), synthetic
scenario data and its binary container (`data`), and a reproducible command
line (`cli`).
"""

from .backbone import BatchPrediction, ModelConfig, TrajectoryPredictor
from .data import DatasetSplit, GenConfig, Scenario, generate_synthetic
from .evaluation import MetricsReport, evaluate_model, min_ade, min_fde, miss_rate
from .tensor import Rng, Tape, Tensor, backward, grad_check
from .training import EnsembleConfig, SchedulerConfig, Snapshot, lr_at, train

__version__ = "0.1.0"

__all__ = [
    "Tensor", "Tape", "Rng", "backward", "grad_check",
    "ModelConfig", "TrajectoryPredictor", "BatchPrediction",
    "Scenario", "DatasetSplit", "GenConfig", "generate_synthetic",
    "MetricsReport", "evaluate_model", "min_ade", "min_fde", "miss_rate",
    "SchedulerConfig", "EnsembleConfig", "Snapshot", "lr_at", "train",
    "__version__",
]
