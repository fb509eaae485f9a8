"""Evidential open-set classification workbench.

Small classifiers that output per-class belief masses plus a calibrated
uncertainty score, with threshold selection on validation data to separate
reliable predictions from samples that should be rejected or referred.
"""

__version__ = "0.1.0"

from .calibration import ThresholdCalibration, calibrate
from .data import Dataset, gen_blobs, gen_ood, load_csv, save_csv, split_622
from .head import SubjectiveOpinion, opinion_from_alpha
from .losses import Schedule
from .metrics import MetricReport, evaluate, ood_detection_rate
from .mlp import MlpConfig, MlpParams
from .records import Predictions
from .training import Model, TrainConfig, TrainResult, predict, predict_records, train

__all__ = [
    "Dataset",
    "MetricReport",
    "MlpConfig",
    "MlpParams",
    "Model",
    "Predictions",
    "Schedule",
    "SubjectiveOpinion",
    "ThresholdCalibration",
    "TrainConfig",
    "TrainResult",
    "calibrate",
    "evaluate",
    "gen_blobs",
    "gen_ood",
    "load_csv",
    "ood_detection_rate",
    "opinion_from_alpha",
    "predict",
    "predict_records",
    "save_csv",
    "split_622",
    "train",
]
