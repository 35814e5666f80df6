"""Cross-entropy fine-tuning with Adam.

The optimizer is plain Adam (no weight decay, no warmup, no schedule), its
b1, b2 and eps the constants ``ADAM_BETA1``, ``ADAM_BETA2``, ``ADAM_EPS``:
    m <- b1*m + (1-b1)*g        mhat = m / (1 - b1^t)
    v <- b2*v + (1-b2)*g^2      vhat = v / (1 - b2^t)
    theta <- theta - lr * mhat / (sqrt(vhat) + eps)

Everything is deterministic given the three seeds (init, shuffle, dropout).
The per-epoch permutation and the per-step dropout masks are derived from
numpy SeedSequences spawned at (epoch,) and (epoch, step), so the schedule
does not depend on how many batches an epoch happens to have.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import DatasetSplit, Tweet
from .encoder import (
    EncoderConfig,
    ModelParams,
    TensorBuffer,
    backward_from_logits,
    collate,
    forward_with_cache,
    init_params,
)
from .errors import DataValidationError, NumericalError
from .tokenizer import Encoding, Vocabulary, encode

# Values per block of the Adam update: each block's slices of the gradient,
# the parameters, both moments and two scratch arrays stay in cache while
# the update's passes run over them.
ADAM_BLOCK = 1 << 15

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # Kingma & Ba's published values


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 5e-6
    epochs: int = 25
    batch_size: int = 16
    shuffle_seed: int = 0
    class_weights: tuple[float, float, float, float] | None = None
    init_seed: int = 0
    dropout_seed: int = 0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise DataValidationError(f"learning_rate must be finite and >= 0, got {self.learning_rate}")
        if self.epochs < 1:
            raise DataValidationError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise DataValidationError(f"batch_size must be >= 1, got {self.batch_size}")
        for name in ("init_seed", "shuffle_seed", "dropout_seed"):
            seed = getattr(self, name)
            if seed < 0:  # numpy's generators take no negative seed
                raise DataValidationError(f"{name} must be >= 0, got {seed}")
        if self.class_weights is not None:
            if len(self.class_weights) != 4:
                raise DataValidationError("class_weights must have exactly 4 entries")
            if not all(math.isfinite(w) and w >= 0 for w in self.class_weights):
                raise DataValidationError(f"class_weights must be finite and non-negative, got {self.class_weights}")
            if not any(self.class_weights):  # every loss and gradient would be exactly 0
                raise DataValidationError(f"class_weights must not all be zero, got {self.class_weights}")
            object.__setattr__(self, "class_weights", tuple(float(w) for w in self.class_weights))


@dataclass
class TrainTrace:
    """Per-epoch mean loss and on-the-fly training accuracy, plus the result."""

    epoch_losses: list[float]
    epoch_accuracies: list[float]
    params: ModelParams


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def _weight_vector(weights: Sequence[float] | None) -> np.ndarray:
    if weights is None:
        return np.ones(4, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (4,):
        raise DataValidationError(f"class weight vector must have shape (4,), got {w.shape}")
    return w


def cross_entropy(
    logits: np.ndarray, labels: Sequence[int], weights: Sequence[float] | None = None
) -> float:
    """Mean over the batch of -w_y * log softmax(logits)_y."""
    logits = np.asarray(logits, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if logits.ndim != 2 or logits.shape[0] != y.shape[0]:
        raise DataValidationError(
            f"need one label per logit row, got logits {logits.shape} and {y.shape[0]} labels"
        )
    return _loss_and_dlogits(logits, y, weights)[0]


def _loss_and_dlogits(
    logits: np.ndarray, labels: Sequence[int], weights: Sequence[float] | None
) -> tuple[float, np.ndarray]:
    y = np.asarray(labels, dtype=np.int64)
    w = _weight_vector(weights)
    logp = _log_softmax(logits)
    rows = np.arange(len(y))
    loss = float(-(w[y] * logp[rows, y]).mean())
    dlogits = np.exp(logp)
    dlogits[rows, y] -= 1.0
    dlogits *= w[y][:, None] / len(y)
    return loss, dlogits


def _step(
    params: ModelParams,
    batch: Sequence[Encoding],
    labels: Sequence[int],
    weights: Sequence[float] | None,
    train_mode: bool,
    dropout_seed: int | np.random.SeedSequence | None,
    grads: TensorBuffer | None = None,
) -> tuple[float, np.ndarray, TensorBuffer]:
    """collate -> forward with cache -> loss and dlogits -> backward, then
    check that loss and gradients are finite. Returns (loss, logits, grads).
    The gradients overwrite ``grads`` if given, else a fresh buffer."""
    ids, lengths = collate(batch, params.config)
    logits, cache = forward_with_cache(
        params, ids, lengths, train_mode=train_mode, dropout_seed=dropout_seed, need_cache=True
    )
    loss, dlogits = _loss_and_dlogits(logits, labels, weights)
    grads = backward_from_logits(params, cache, dlogits, out=grads)
    if not np.isfinite(loss):
        raise NumericalError("non-finite loss")
    grads.check_finite("non-finite gradient")
    return loss, logits, grads


def gradients(
    params: ModelParams,
    batch: Sequence[Encoding],
    labels: Sequence[int],
    config: TrainConfig | None = None,
    train_mode: bool = False,
    dropout_seed: int | np.random.SeedSequence | None = None,
) -> TensorBuffer:
    """Exact gradient of the cross-entropy of the batch's logits for every tensor.

    ``train_mode`` stays off for gradient checking; train() turns it on so
    the dropout masks participate in the backward pass.
    """
    weights = config.class_weights if config is not None else None
    return _step(params, batch, labels, weights, train_mode, dropout_seed)[2]


class AdamState:
    """Adam's step count and two moments, in the layout of the gradient
    buffer it is built for, which is the parameters'."""

    def __init__(self, grads: TensorBuffer):
        self.t = 0
        self.m, self.v = grads.zeros_like(), grads.zeros_like()


def adam_step(
    params: ModelParams,
    grads: TensorBuffer,
    state: AdamState,
    config: TrainConfig,
) -> None:
    """One bias-corrected Adam update of every parameter, in place. ``grads``
    and the moments hold the parameters' layout; any other layout is
    refused unwritten."""
    if grads.spec != params.tensors.spec:
        raise DataValidationError("gradient names and shapes do not match the parameter layout")
    if state.m.spec != grads.spec or state.v.spec != grads.spec:
        raise DataValidationError("Adam moments do not match the gradient layout")
    state.t += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    bc1 = 1.0 - b1**state.t
    bc2 = 1.0 - b2**state.t
    g, m, v, theta = grads.flat, state.m.flat, state.v.flat, params.tensors.flat
    # The whole-buffer update (m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g,
    # theta -= lr * (m/bc1) / (sqrt(v/bc2) + eps)), one block at a time with
    # the same operations in the same order, so every value rounds as before.
    scratch = np.empty((2, min(ADAM_BLOCK, g.size)))
    for start in range(0, g.size, ADAM_BLOCK):
        blk = slice(start, start + ADAM_BLOCK)
        gb, mb, vb, tb = g[blk], m[blk], v[blk], theta[blk]
        a, b = scratch[:, : gb.size]
        mb *= b1
        np.multiply(gb, 1.0 - b1, out=a)
        mb += a
        vb *= b2
        np.multiply(gb, gb, out=a)
        a *= 1.0 - b2
        vb += a
        np.divide(mb, bc1, out=a)
        a *= config.learning_rate
        np.divide(vb, bc2, out=b)
        np.sqrt(b, out=b)
        b += ADAM_EPS
        a /= b
        tb -= a


def _epoch_permutation(shuffle_seed: int, epoch: int, n: int) -> np.ndarray:
    ss = np.random.SeedSequence(entropy=shuffle_seed, spawn_key=(epoch,))
    return np.random.default_rng(ss).permutation(n)


def _step_dropout_seed(dropout_seed: int, epoch: int, step: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=dropout_seed, spawn_key=(epoch, step))


def train(
    split: DatasetSplit,
    vocab: Vocabulary,
    model_config: EncoderConfig,
    train_config: TrainConfig,
) -> TrainTrace:
    """Fine-tune a freshly initialized model on the split's train half.

    Every step's backward writes into one gradient buffer, allocated once,
    so a step never holds two."""
    tweets: Sequence[Tweet] = split.train.examples
    if not tweets:
        raise DataValidationError("train set is empty")
    encodings = [encode(vocab, t.text, model_config.max_len) for t in tweets]
    labels = np.array([int(t.gold_label) for t in tweets], dtype=np.int64)
    n = len(encodings)

    params = init_params(model_config, train_config.init_seed, vocab.content_hash())
    grads = params.tensors.zeros_like()
    state = AdamState(grads)

    epoch_losses: list[float] = []
    epoch_accuracies: list[float] = []
    for epoch in range(train_config.epochs):
        perm = _epoch_permutation(train_config.shuffle_seed, epoch, n)
        loss_sum = 0.0
        hit = 0
        for step, start in enumerate(range(0, n, train_config.batch_size)):
            take = perm[start : start + train_config.batch_size]
            batch = [encodings[i] for i in take]
            batch_labels = labels[take]
            # A diverging run overflows on the way; _step's finiteness checks
            # report it as a NumericalError, so numpy's warnings would only
            # repeat that (or, raised as errors, hide it).
            with np.errstate(all="ignore"):
                try:
                    loss, logits, _ = _step(
                        params, batch, batch_labels, train_config.class_weights, train_mode=True,
                        dropout_seed=_step_dropout_seed(train_config.dropout_seed, epoch, step),
                        grads=grads,
                    )
                except NumericalError as exc:
                    raise NumericalError(f"{exc} at epoch {epoch} batch {step}") from None
                adam_step(params, grads, state, train_config)
            loss_sum += loss * len(take)
            hit += int((logits.argmax(axis=1) == batch_labels).sum())
        epoch_losses.append(loss_sum / n)
        epoch_accuracies.append(hit / n)
    return TrainTrace(epoch_losses=epoch_losses, epoch_accuracies=epoch_accuracies, params=params)


def write_trace(trace: TrainTrace, path: str | Path) -> None:
    """Plain-text table: epoch, mean_loss, train_accuracy."""
    lines = ["epoch  mean_loss       train_accuracy"]
    for i, (loss, acc) in enumerate(zip(trace.epoch_losses, trace.epoch_accuracies), start=1):
        lines.append(f"{i:5d}  {loss:<14.10f}  {acc:.6f}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
