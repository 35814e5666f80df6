"""Evaluation suite: confusion matrix, precision/recall/F1, ROC, AUC.

ROC curves are one-vs-rest threshold sweeps over distinct score values in
descending order; tied scores move as a single block, which makes the
trapezoidal area under the curve exactly equal to the pairwise
Mann-Whitney statistic with ties counted half. Zero-denominator
precision/recall/F1 are defined as 0.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import CATEGORY_SLUGS, N_CLASSES, LabeledDataset
from .encoder import ModelParams, bucket_len, collate, forward_with_cache, predict_proba
from .errors import DataValidationError, NumericalError
from .tokenizer import Vocabulary, encode


@dataclass(frozen=True)
class ConfusionMatrix:
    """counts[gold][predicted] over the 4 categories."""

    counts: np.ndarray

    def __post_init__(self) -> None:
        c = np.asarray(self.counts, dtype=np.int64)
        if c.shape != (N_CLASSES, N_CLASSES):
            raise DataValidationError(f"confusion matrix must be 4x4, got {c.shape}")
        if (c < 0).any():
            raise DataValidationError("confusion matrix entries must be non-negative")
        object.__setattr__(self, "counts", c)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @property
    def supports(self) -> np.ndarray:
        """Gold examples per class (row sums)."""
        return self.counts.sum(axis=1)


def confusion(preds: Sequence[int], golds: Sequence[int]) -> ConfusionMatrix:
    if len(preds) != len(golds):
        raise DataValidationError(
            f"got {len(preds)} predictions for {len(golds)} gold labels"
        )
    if len(preds) == 0:
        raise DataValidationError("cannot build a confusion matrix from zero examples")
    p, g = np.asarray(preds), np.asarray(golds)
    bad = (p < 0) | (p >= N_CLASSES) | (g < 0) | (g >= N_CLASSES)
    if bad.any():
        k = bad.argmax()
        raise DataValidationError(f"label out of range: pred={p[k]} gold={g[k]}")
    counts = np.bincount(g * N_CLASSES + p, minlength=N_CLASSES * N_CLASSES)
    return ConfusionMatrix(counts.reshape(N_CLASSES, N_CLASSES))


@dataclass(frozen=True)
class PrfResult:
    precision: tuple[float, float, float, float]
    recall: tuple[float, float, float, float]
    f1: tuple[float, float, float, float]
    macro_f1: float
    weighted_f1: float
    accuracy: float


def _safe_div(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    return np.divide(num, den, out=np.zeros_like(num), where=den > 0)


def prf(cm: ConfusionMatrix) -> PrfResult:
    """Per-class precision/recall/F1 plus macro, support-weighted, accuracy."""
    counts = cm.counts
    tp = np.diag(counts).astype(np.float64)
    support = counts.sum(axis=1).astype(np.float64)
    predicted = counts.sum(axis=0).astype(np.float64)
    precision = _safe_div(tp, predicted)
    recall = _safe_div(tp, support)
    f1 = _safe_div(2 * precision * recall, precision + recall)
    total = counts.sum()
    return PrfResult(
        precision=tuple(precision.tolist()),
        recall=tuple(recall.tolist()),
        f1=tuple(f1.tolist()),
        macro_f1=float(np.mean(f1)),
        weighted_f1=float(np.dot(f1, support) / total),
        accuracy=float(tp.sum() / total),
    )


@dataclass(frozen=True)
class RocCurve:
    """Step curve from (0,0) to (1,1); coordinates non-decreasing."""

    fprs: tuple[float, ...]
    tprs: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.fprs) != len(self.tprs) or len(self.fprs) < 2:
            raise DataValidationError("ROC curve needs matched fpr/tpr sequences, length >= 2")


def roc_points(scores: Sequence[float], binary_golds: Sequence[int]) -> RocCurve:
    """Threshold sweep over distinct scores descending, tied scores as one block."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(binary_golds, dtype=np.int64)
    if s.shape != y.shape or s.ndim != 1:
        raise DataValidationError("scores and golds must be 1-d sequences of equal length")
    if not np.isin(y, (0, 1)).all():
        raise DataValidationError("binary golds must be 0 or 1")
    n_pos = int(y.sum())
    n_neg = int(len(y) - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise DataValidationError("ROC/AUC undefined: gold vector contains a single class")

    order = np.argsort(-s, kind="stable")
    ranked = s[order]
    # the last position of each tie block is one threshold of the sweep
    ends = np.flatnonzero(np.append(ranked[1:] != ranked[:-1], True))
    tp = np.cumsum(y[order])[ends]
    fp = ends + 1 - tp
    return RocCurve((0.0, *(fp / n_neg).tolist()), (0.0, *(tp / n_pos).tolist()))


def auc(curve: RocCurve) -> float:
    """Trapezoidal area; equals the Mann-Whitney pair statistic with ties at half."""
    # A plain loop on purpose: built-in sum() compensates rounding from Python
    # 3.12 on and numpy sums pairwise, so either would change the bits.
    area = 0.0
    for k in range(1, len(curve.fprs)):
        dx = curve.fprs[k] - curve.fprs[k - 1]
        area += dx * (curve.tprs[k] + curve.tprs[k - 1]) / 2.0
    return area


@dataclass(frozen=True)
class EvalReport(PrfResult):
    """`prf`'s scores plus the confusion matrix they come from, the
    one-vs-rest ROC curves with their areas, and the example count."""

    confusion: ConfusionMatrix
    auc: tuple[float, float, float, float]
    roc_curves: tuple[RocCurve, RocCurve, RocCurve, RocCurve]
    n_examples: int


def check_batch_size(batch_size: int, key: str = "batch_size") -> None:
    """Reject a batch size below 1; ``key`` names the setting in the message."""
    if batch_size < 1:
        raise DataValidationError(f"{key} must be >= 1, got {batch_size}")


# A forward goes to the thread pool only when its feed-forward multiply-adds
# (real tokens x n_layers x d_model x d_ff) reach this many. Below it the
# forward's time is mostly Python that holds the interpreter lock, and
# handing it to a thread costs more than the overlap gains. Measured for
# float32 forwards; the table is in CHANGES.md.
POOL_MIN_FFN_MACS = 1 << 23

# predict_batches encodes and buckets this many batches' texts at a time, so
# each bucket fills whole forwards of ``batch_size`` texts and leaves one
# remainder a window rather than one a batch: fewer forwards, each with the
# same Python cost whatever its size. Measured against 4 in CHANGES.md.
PREDICT_WINDOW_BATCHES = 16
DEFAULT_INFERENCE_BATCH_SIZE = 64


def forward_workers() -> int:
    """Threads for inference forwards: the CPUs this process may run on (on macOS, all)."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _predict_rows(probs: np.ndarray, rows: np.ndarray, params: ModelParams,
                  ids: np.ndarray, lengths: np.ndarray) -> None:
    # An overflow ends as a NaN or an infinity in ``probs``, which
    # predict_batches reports; a warning from a worker thread would say less.
    with np.errstate(all="ignore"):
        logits, _ = forward_with_cache(params, ids, lengths)
        probs[rows] = predict_proba(logits)


def predict_batches(
    params: ModelParams,
    vocab: Vocabulary,
    texts: Sequence[str],
    batch_size: int = DEFAULT_INFERENCE_BATCH_SIZE,
    stats: dict | None = None,
) -> np.ndarray:
    """Probability matrix (n, 4) from inference-mode batched forwards, in
    input order.

    The forwards run in float32, on the parameters cast once per call to
    the values ``save_checkpoint`` stores, so trained parameters in memory
    and their reloaded checkpoint give the same bytes. Each row's softmax
    is taken in float64. A row that is not finite, such as a float32
    overflow inside the encoder gives, raises NumericalError naming the
    first such input, after every forward has run.

    The texts are encoded and bucketed by length a window of
    ``PREDICT_WINDOW_BATCHES * batch_size`` at a time, and each bucket is
    cut into forwards of at most ``batch_size`` texts, in input order; so a
    forward never holds more than ``batch_size`` texts, and only one window's
    encodings are held at once. Every text is computed at its own bucket's
    width and its row depends only on the text, not on the batch size, the
    window or its neighbours.

    This thread encodes, buckets and collates; the forwards run on a pool
    of ``forward_workers()`` threads, one per CPU the process may use,
    opened for the call, with at most two per worker submitted and
    unfinished. BLAS and numpy's array loops release the interpreter lock,
    so large forwards overlap; a forward below ``POOL_MIN_FFN_MACS`` is mostly
    Python and runs here instead, and so does every forward when the
    process may use one CPU only. The workers allocate from glibc's one
    main arena (``encoder._keep_batch_arrays_in_heap``), so the pool does
    not raise peak memory. Each forward writes its own rows, so no output
    byte depends on the pool, the gate or the arena. ``stats``, if given,
    gets ``"threads"``: the workers used, or 1 when every forward ran on
    this thread.

    Refuses to run when the checkpoint records a vocabulary hash different
    from the one supplied, which would silently skew every token id.
    """
    check_batch_size(batch_size)
    if params.vocab_hash is not None and params.vocab_hash != vocab.content_hash():
        raise DataValidationError(
            "vocabulary hash mismatch: checkpoint was trained with a different vocabulary "
            f"({params.vocab_hash[:12]}... vs {vocab.content_hash()[:12]}...)"
        )
    if params.config.vocab_size != len(vocab):
        raise DataValidationError(
            f"checkpoint vocab_size {params.config.vocab_size} != vocabulary size {len(vocab)}"
        )
    probs = np.empty((len(texts), N_CLASSES), dtype=np.float64)
    cfg = params.config
    params = replace(params, tensors=params.tensors.astype(np.float32))
    macs_per_token = cfg.n_layers * cfg.d_model * cfg.d_ff
    workers = forward_workers()
    threads = 1
    window = PREDICT_WINDOW_BATCHES * batch_size
    with ThreadPoolExecutor(workers) as pool:
        pending: set = set()
        for start in range(0, len(texts), window):
            encs = [encode(vocab, text, cfg.max_len) for text in texts[start : start + window]]
            buckets: dict[int, list[int]] = {}
            for i, enc in enumerate(encs):
                buckets.setdefault(bucket_len(enc.n_real, cfg.max_len), []).append(i)
            cuts = (bucket[cut : cut + batch_size] for bucket in buckets.values()
                    for cut in range(0, len(bucket), batch_size))
            for rows in cuts:
                batch = [encs[i] for i in rows]
                ids, lengths = collate(batch, cfg)
                at = start + np.array(rows)
                if workers == 1 or sum(e.n_real for e in batch) * macs_per_token < POOL_MIN_FFN_MACS:
                    _predict_rows(probs, at, params, ids, lengths)
                    continue
                if len(pending) == 2 * workers:
                    done, pending = wait(pending, return_when=FIRST_COMPLETED)
                    for future in done:
                        future.result()
                pending.add(pool.submit(_predict_rows, probs, at, params, ids, lengths))
                threads = workers
        for future in pending:
            future.result()
    if not np.isfinite(probs).all():
        first = int(np.flatnonzero(~np.isfinite(probs).all(axis=1))[0])
        raise NumericalError(f"inference gave non-finite class probabilities for input {first} "
                             f"(counting from 0) of {len(texts)}")
    if stats is not None:
        stats["threads"] = threads
    return probs


def evaluate(
    params: ModelParams,
    vocab: Vocabulary,
    testset: LabeledDataset,
    batch_size: int = DEFAULT_INFERENCE_BATCH_SIZE,
) -> EvalReport:
    """Classify every test example and assemble the full report.

    Predictions are the argmax of the probability row; numpy's argmax takes
    the first maximum, which is the lowest-class-id tie-break. Per-class AUC
    is one-vs-rest on that class's probability column.
    """
    if not testset.examples:
        raise DataValidationError("test set is empty")
    texts = [t.text for t in testset.examples]
    golds = np.array([int(t.gold_label) for t in testset.examples])
    probs = predict_batches(params, vocab, texts, batch_size)
    cm = confusion(probs.argmax(axis=1), golds)
    curves = tuple(roc_points(probs[:, c], golds == c) for c in range(N_CLASSES))
    return EvalReport(
        **vars(prf(cm)),
        confusion=cm,
        auc=tuple(auc(curve) for curve in curves),
        roc_curves=curves,
        n_examples=len(golds),
    )


def report_to_dict(report: EvalReport) -> dict:
    per_class = {}
    for c, slug in enumerate(CATEGORY_SLUGS):
        per_class[slug] = {
            "precision": report.precision[c],
            "recall": report.recall[c],
            "f1": report.f1[c],
            "auc": report.auc[c],
            "support": int(report.confusion.supports[c]),
        }
    return {
        "n_examples": report.n_examples,
        "confusion_rows_gold_cols_pred": report.confusion.counts.tolist(),
        "per_class": per_class,
        "macro_f1": report.macro_f1,
        "weighted_f1": report.weighted_f1,
        "accuracy": report.accuracy,
    }


def write_report(report: EvalReport, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(report_to_dict(report), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


def write_roc_csv(curve: RocCurve, path: str | Path) -> None:
    """One class's ROC curve as fpr,tpr rows."""
    lines = ["fpr,tpr"] + [f"{x:.10f},{y:.10f}" for x, y in zip(curve.fprs, curve.tprs)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")

