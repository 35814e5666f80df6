"""Vaccine-stance tweet classification and surge-date detection."""

__version__ = "0.1.0"

from .corpus import (
    CATEGORY_NAMES,
    CATEGORY_SLUGS,
    Category,
    LabeledDataset,
    Tweet,
    ingest_jsonl,
    labeled_subset,
    split_dataset,
)
from .encoder import (
    EncoderConfig,
    ModelParams,
    init_params,
    load_checkpoint,
    predict_proba,
    save_checkpoint,
)
from .metrics import EvalReport, auc, confusion, evaluate, prf, roc_points
from .timeline import (
    PeakReport,
    aggregate_daily,
    classify_corpus,
    detect_peaks,
    share,
)
from .tokenizer import Vocabulary, build_vocab, encode, tokenize
from .trainer import TrainConfig, TrainTrace, adam_step, cross_entropy, gradients, train

__all__ = [
    "CATEGORY_NAMES",
    "CATEGORY_SLUGS",
    "Category",
    "EncoderConfig",
    "EvalReport",
    "LabeledDataset",
    "ModelParams",
    "PeakReport",
    "TrainConfig",
    "TrainTrace",
    "Tweet",
    "Vocabulary",
    "__version__",
    "adam_step",
    "aggregate_daily",
    "auc",
    "build_vocab",
    "classify_corpus",
    "confusion",
    "cross_entropy",
    "detect_peaks",
    "encode",
    "evaluate",
    "gradients",
    "ingest_jsonl",
    "init_params",
    "labeled_subset",
    "load_checkpoint",
    "predict_proba",
    "prf",
    "roc_points",
    "save_checkpoint",
    "share",
    "split_dataset",
    "tokenize",
    "train",
]
