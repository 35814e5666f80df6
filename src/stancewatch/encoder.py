"""Small bidirectional transformer encoder with a 4-class head.

The computation is the original post-layer-norm ordering:

    h0 = LayerNorm(tok_emb + pos_emb + seg_emb)
    per layer:  a  = MultiHeadAttention(h)             (additive -1e9 pad mask)
                h  = LayerNorm(h + dropout(a))         (add-and-norm)
                f  = W2 . gelu(W1 . h + b1) + b2
                h  = LayerNorm(h + dropout(f))         (add-and-norm)
    pooled = tanh(pooler . h[CLS] + b)
    logits = classifier . pooled + b

Attention, the feed-forward and add-and-norm are each a pair of functions,
``_attention_*``, ``_ffn_*`` and ``_add_and_norm*``. Each forward returns
its output and a tuple of what its backward reads; the cache is those
tuples, (attention, norm1, ffn, norm2) per layer, between the embedding's
arrays and the head's. Each backward writes its parameters' gradients and
adds its input gradient into the residual's in place.

GELU uses the exact Gaussian CDF form, x * 0.5 * (1 + erf(x / sqrt(2))),
with one erf per value: a training forward keeps the CDF for the backward
pass, whose GELU derivative then needs only the density's exp. Dropout
(embedding output, attention output, feed-forward output) runs only in
train mode, with seeded masks, so inference and gradient checks are
deterministic. The additive mask constant is -1e9 rather than -inf so no
NaN can propagate through the softmax. ``layer*.bk`` has an analytically
zero gradient (q . bk is one constant across a row of scores, which the
softmax cancels), so training moves it only by rounding noise: it is the
first tensor to differ in byte comparisons between two correct versions.

Encodings are ``max_len`` long, but ``collate`` trims a batch to
``bucket_len`` of its longest member: the smallest multiple of ``BUCKET``
that holds it, capped at ``max_len``. Trimming drops only padding, and
padding cannot move the result: exp(-1e9) is exactly 0.0 in float64, so a
padded key gets exactly zero attention weight, and a padded query feeds
nothing but its own row, which the [CLS] output never reads. A different
width changes only the order of float summation. A dropout mask row is
drawn at the batch's width and the generator then skips the draws of the
positions past it up to ``max_len``, so a trimmed train-mode batch sees
the same masks at its real positions as the full-width one. Attention
scores, softmax and layernorm work in place on their temporaries, taking
the same float steps as the allocating forms. The head computes each
row as its own one-row product, so a row's logits do not depend on how
many rows share its batch.

The last layer computes [CLS] only, since the head reads nothing else of
its output: the queries, context, output projection, both add-and-norms
and the feed-forward run on row 0, while keys and values still come from
every position, so nothing the [CLS] row attends to is dropped. Training
and inference take this one path; the other rows would get a gradient of
exactly zero. That layer's dropout masks are drawn one position wide, and
the skip to ``max_len`` gives [CLS] the values a full-width mask holds.

All arithmetic is float64 in memory. The parameters live in one buffer
whose named views follow ``tensor_shapes``; a checkpoint is a metadata
header followed by that buffer as little-endian float32.
"""

from __future__ import annotations

import ctypes
import json
import math
import struct
import sys
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np
from scipy.special import erf, ndtr, ndtri

from .errors import DataValidationError, InputPathError, NumericalError
from .tokenizer import Encoding

MASK_ADDEND = -1e9
BUCKET = 8
INIT_STD = 0.02
INIT_CLIP_SIGMAS = 2.0

CHECKPOINT_MAGIC = b"SWCKPT"
CHECKPOINT_VERSION = 1


def _keep_batch_arrays_in_heap() -> None:
    """Keep the arrays a batch frees mapped for the next batch.

    A training step or an inference batch allocates and frees a few MB of
    activations. glibc's default thresholds move with the largest block the
    process has freed so far; until that block is about half the size of a
    step's arrays together, glibc returns the freed top of the heap to the
    kernel after every step and the next step faults the same pages in
    again (about 2k page faults a step when training the default model at
    batch 16), at a cost that rises and varies with the load on the
    machine. Fixed thresholds serve blocks below 32 MB from the heap and
    keep up to 64 MB of it free, from the first step on. Without glibc
    this does nothing.
    """
    if not sys.platform.startswith("linux"):
        return
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        m_trim_threshold, m_mmap_threshold = -1, -3  # glibc's parameter numbers
        mallopt(m_mmap_threshold, 32 << 20)
        mallopt(m_trim_threshold, 64 << 20)


_keep_batch_arrays_in_heap()


@dataclass(frozen=True)
class EncoderConfig:
    """Model dimensions. ``d_ff`` of 0 means the conventional 4 * d_model."""

    vocab_size: int
    d_model: int = 128
    n_layers: int = 2
    n_heads: int = 4
    d_ff: int = 0
    max_len: int = 64
    n_classes: int = 4
    dropout_rate: float = 0.1
    layer_norm_eps: float = 1e-12

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            kinds = (int,) if f.type == "int" else (int, float)
            if isinstance(value, bool) or not isinstance(value, kinds):
                raise DataValidationError(f"{f.name} must be {f.type}, got {value!r}")
        if self.d_ff == 0:
            object.__setattr__(self, "d_ff", 4 * self.d_model)
        for name in ("vocab_size", "d_model", "n_layers", "n_heads", "d_ff", "max_len"):
            if getattr(self, name) <= 0:
                raise DataValidationError(f"{name} must be positive, got {getattr(self, name)}")
        if self.d_model % self.n_heads != 0:
            raise DataValidationError(
                f"n_heads ({self.n_heads}) must divide d_model ({self.d_model})"
            )
        if self.n_classes != 4:
            raise DataValidationError(f"n_classes is fixed at 4, got {self.n_classes}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise DataValidationError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        if not self.layer_norm_eps > 0.0:
            raise DataValidationError(f"layer_norm_eps must be positive, got {self.layer_norm_eps}")

    @property
    def d_head(self) -> int:
        return self.d_model // self.n_heads


class TensorBuffer(Mapping[str, np.ndarray]):
    """Named, reshaped views onto one contiguous float64 buffer.

    ``spec`` is an ordered list of (name, shape); each tensor sits in
    ``flat`` right after the one before it. Parameters, gradients and the
    Adam moments share this layout, so whole-model arithmetic is arithmetic
    on ``flat`` and a tail of the spec is a tail slice of the buffer.
    """

    def __init__(self, spec: Sequence[tuple[str, tuple[int, ...]]], flat: np.ndarray | None = None):
        self.spec = list(spec)
        sizes = [math.prod(shape) for _, shape in self.spec]
        total = sum(sizes)
        self.flat = np.zeros(total, dtype=np.float64) if flat is None else flat
        if self.flat.shape != (total,):
            raise DataValidationError(f"buffer of shape {self.flat.shape} does not hold {total} values")
        self._views: dict[str, np.ndarray] = {}
        start = 0
        for (name, shape), size in zip(self.spec, sizes):
            self._views[name] = self.flat[start : start + size].reshape(shape)
            start += size

    def __getitem__(self, name: str) -> np.ndarray:
        return self._views[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._views)

    def __len__(self) -> int:
        return len(self._views)

    def zeros_like(self) -> "TensorBuffer":
        return TensorBuffer(self.spec)

    def tail(self, name: str) -> "TensorBuffer":
        """Tensor ``name`` and every one after it, as views of the same memory."""
        rest = self.spec[list(self._views).index(name) :]
        return TensorBuffer(rest, self.flat[self.flat.size - sum(math.prod(s) for _, s in rest) :])

    def check_finite(self, what: str) -> None:
        """Raise NumericalError naming the first tensor that holds a NaN or an infinity."""
        if not np.isfinite(self.flat).all():
            bad = next(name for name, arr in self.items() if not np.isfinite(arr).all())
            raise NumericalError(f"{what} in tensor {bad}")


@dataclass
class ModelParams:
    """All learnable tensors, laid out by ``tensor_shapes(config)`` in one
    buffer, plus the metadata the checkpoint header carries."""

    config: EncoderConfig
    tensors: TensorBuffer
    vocab_hash: str | None = None
    init_seed: int | None = None


def tensor_shapes(config: EncoderConfig) -> list[tuple[str, tuple[int, ...]]]:
    """The documented fixed tensor order of the parameter buffer, which
    checkpoints, gradients and Adam state share."""
    d, dff = config.d_model, config.d_ff
    shapes: list[tuple[str, tuple[int, ...]]] = [
        ("tok_emb", (config.vocab_size, d)),
        ("pos_emb", (config.max_len, d)),
        ("seg_emb", (2, d)),
        ("emb_ln_gain", (d,)),
        ("emb_ln_bias", (d,)),
    ]
    for i in range(config.n_layers):
        prefix = f"layer{i}."
        shapes += [
            (prefix + "wq", (d, d)),
            (prefix + "bq", (d,)),
            (prefix + "wk", (d, d)),
            (prefix + "bk", (d,)),
            (prefix + "wv", (d, d)),
            (prefix + "bv", (d,)),
            (prefix + "wo", (d, d)),
            (prefix + "bo", (d,)),
            (prefix + "ln1_gain", (d,)),
            (prefix + "ln1_bias", (d,)),
            (prefix + "w1", (d, dff)),
            (prefix + "b1", (dff,)),
            (prefix + "w2", (dff, d)),
            (prefix + "b2", (d,)),
            (prefix + "ln2_gain", (d,)),
            (prefix + "ln2_bias", (d,)),
        ]
    shapes += [
        ("pooler_w", (d, d)),
        ("pooler_b", (d,)),
        ("classifier_w", (config.n_classes, d)),
        ("classifier_b", (config.n_classes,)),
    ]
    return shapes


def _layer(tensors: Mapping[str, np.ndarray], i: int) -> dict[str, np.ndarray]:
    """Layer i's tensors keyed by their name inside the layer ("wq", "b1", ...)."""
    prefix = f"layer{i}."
    return {name[len(prefix) :]: arr for name, arr in tensors.items() if name.startswith(prefix)}


def _truncated_normal(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    # Inverse-CDF sampling of a normal truncated to +-2 sigma: no rejection
    # loop, so the draw count per tensor is fixed and seeding is stable.
    lo = ndtr(-INIT_CLIP_SIGMAS)
    hi = ndtr(INIT_CLIP_SIGMAS)
    u = rng.random(shape)
    return ndtri(lo + u * (hi - lo)) * INIT_STD


def init_params(
    config: EncoderConfig, seed: int, vocab_hash: str | None = None
) -> ModelParams:
    """Fresh parameters: weights (every matrix) truncated normal(0, 0.02^2)
    within 2 sigma, drawn in tensor order; biases zero, layer-norm gains one.
    Deterministic per seed."""
    rng = np.random.default_rng(seed)
    tensors = TensorBuffer(tensor_shapes(config))
    for name, arr in tensors.items():
        if arr.ndim == 2:
            arr[...] = _truncated_normal(rng, arr.shape)
        elif name.endswith("_gain"):
            arr[...] = 1.0
    return ModelParams(config, tensors, vocab_hash=vocab_hash, init_seed=seed)


def gelu_and_cdf(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """GELU(x) = x * Phi(x) and the Gaussian CDF Phi(x) = 0.5 * (1 + erf(x / sqrt 2))
    it scales by, from one erf per value. Scaling by 0.5 is exact, so x * Phi(x)
    rounds as x * 0.5 * (1 + erf(...)) does."""
    cdf = erf(x / np.sqrt(2.0))
    cdf += 1.0
    cdf *= 0.5
    return x * cdf, cdf


def gelu_grad(x: np.ndarray, cdf: np.ndarray) -> np.ndarray:
    """Phi(x) + x * phi(x). ``cdf`` is Phi(x) as ``gelu_and_cdf`` returned it,
    so only the pdf's exp is computed here."""
    pdf = np.exp(-0.5 * x * x)
    pdf /= np.sqrt(2.0 * np.pi)
    pdf *= x
    pdf += cdf
    return pdf


def _layernorm_forward(
    x: np.ndarray, gain: np.ndarray, bias: np.ndarray, eps: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Normalize over the last axis. Returns (y, xhat, inv_std) for backprop.

    The variance is the mean of the squared centred values, the steps
    ``x.var`` takes, so centring once gives the same bytes."""
    xhat = x - x.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((xhat * xhat).mean(axis=-1, keepdims=True) + eps)
    xhat *= inv
    y = xhat * gain
    y += bias
    return y, xhat, inv


def _layernorm_backward(
    dy: np.ndarray, xhat: np.ndarray, inv: np.ndarray, gain: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Returns (dx, dgain, dbias); parameter grads are summed over rows."""
    axes = tuple(range(dy.ndim - 1))
    dgain = (dy * xhat).sum(axis=axes)
    dbias = dy.sum(axis=axes)
    dxhat = dy * gain
    dx = inv * (
        dxhat
        - dxhat.mean(axis=-1, keepdims=True)
        - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
    )
    return dx, dgain, dbias


def _softmax_lastaxis(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, computed in place in ``x``, which it returns."""
    x -= x.max(axis=-1, keepdims=True)
    np.exp(x, out=x)
    x /= x.sum(axis=-1, keepdims=True)
    return x


def bucket_len(n_real: int, max_len: int) -> int:
    """Width a sequence of ``n_real`` real tokens is computed at: the
    smallest multiple of BUCKET that holds it, at most ``max_len``."""
    return min(max_len, -(-n_real // BUCKET) * BUCKET)


def collate(batch: Sequence[Encoding], config: EncoderConfig) -> tuple[np.ndarray, np.ndarray]:
    """Stack encodings into (ids, mask) arrays, validating dimensions, and
    trim them to the bucket of the longest member (the last real position
    of any row, read from the masks)."""
    if not batch:
        raise DataValidationError("empty batch")
    for i, enc in enumerate(batch):
        if len(enc.ids) != config.max_len:
            raise DataValidationError(
                f"batch item {i}: encoding length {len(enc.ids)} does not match "
                f"model max_len {config.max_len}"
            )
    ids = np.array([enc.ids for enc in batch], dtype=np.int64)
    if ids.max() >= config.vocab_size:
        raise DataValidationError(
            f"token id {int(ids.max())} out of range for vocab_size {config.vocab_size}"
        )
    mask = np.array([enc.mask for enc in batch], dtype=np.float64)
    last_real = np.flatnonzero(mask.any(axis=0)).max(initial=0)
    width = bucket_len(int(last_real) + 1, config.max_len)
    return ids[:, :width], mask[:, :width]


def _dropout_mask(rng: np.random.Generator, cfg: EncoderConfig, batch: int, width: int) -> np.ndarray:
    # Inverted dropout: surviving activations are scaled by 1 / keep. Each
    # row consumes max_len * d_model draws whatever the width: its first
    # width * d_model fill the row and the generator skips the rest (PCG64
    # spends one 64-bit output per float64), so a trimmed batch gets the
    # full-width masks at its positions.
    draw = np.empty((batch, width, cfg.d_model))
    skip = (cfg.max_len - width) * cfg.d_model
    for row in draw:
        rng.random(out=row)
        rng.bit_generator.advance(skip)
    return np.where(draw >= cfg.dropout_rate, 1.0 / (1.0 - cfg.dropout_rate), 0.0)


def _attention_forward(
    hq: np.ndarray, h: np.ndarray, addmask: np.ndarray, layer: dict, n_heads: int
) -> tuple:
    """Multi-head attention of the query rows ``hq`` (``h`` itself, or its
    first rows) over every row of ``h``, through the output projection, and
    (hq, h, q, k, v, probs, ctx) for the backward."""
    q, k, v = (
        (x @ layer["w" + n] + layer["b" + n]).reshape(*x.shape[:2], n_heads, -1).transpose(0, 2, 1, 3)
        for x, n in ((hq, "q"), (h, "k"), (h, "v"))
    )
    scores = q @ k.transpose(0, 1, 3, 2)
    scores *= 1.0 / np.sqrt(q.shape[-1])
    scores += addmask
    probs = _softmax_lastaxis(scores)
    ctx = (probs @ v).transpose(0, 2, 1, 3).reshape(hq.shape)
    attn = ctx @ layer["wo"]
    attn += layer["bo"]
    return attn, (hq, h, q, k, v, probs, ctx)


def _attention_backward(dattn: np.ndarray, dhq: np.ndarray, saved: tuple, layer: dict, g: dict) -> np.ndarray:
    """Writes its parameter gradients into ``g``; returns the gradient of
    ``h``: ``dhq``, the query rows' residual gradient, padded with zeros to
    every row, plus the q, k and v terms."""
    hq, h, q, k, v, probs, ctx = saved
    B, n_heads, Tq, d_head = q.shape
    d = n_heads * d_head
    g["wo"][...] = ctx.reshape(-1, d).T @ dattn.reshape(-1, d)
    g["bo"][...] = dattn.sum(axis=(0, 1))
    dctx = (dattn @ layer["wo"].T).reshape(B, Tq, n_heads, d_head).transpose(0, 2, 1, 3)
    dprobs = dctx @ v.transpose(0, 1, 3, 2)
    dv = probs.transpose(0, 1, 3, 2) @ dctx
    dscores = probs * (dprobs - (dprobs * probs).sum(axis=-1, keepdims=True))
    scale = 1.0 / np.sqrt(d_head)
    dq = dscores @ k * scale
    dk = dscores.transpose(0, 1, 3, 2) @ q * scale
    dh = np.zeros(h.shape)
    dh[:, :Tq] = dhq
    for x, name, dproj in ((hq, "q", dq), (h, "k", dk), (h, "v", dv)):
        dmat = dproj.transpose(0, 2, 1, 3).reshape(-1, d)
        g["w" + name][...] = x.reshape(-1, d).T @ dmat
        g["b" + name][...] = dmat.sum(axis=0)
        dh[:, : x.shape[1]] += (dmat @ layer["w" + name].T).reshape(x.shape)
    return dh


def _ffn_forward(h: np.ndarray, layer: dict) -> tuple:
    """W2 . gelu(W1 . h + b1) + b2, and (h, u, cdf, gu)."""
    u = h @ layer["w1"]
    u += layer["b1"]
    gu, cdf = gelu_and_cdf(u)
    f = gu @ layer["w2"]
    f += layer["b2"]
    return f, (h, u, cdf, gu)


def _ffn_backward(df: np.ndarray, dh: np.ndarray, saved: tuple, layer: dict, g: dict) -> None:
    """Writes its parameter gradients into ``g`` and adds its input gradient into ``dh``."""
    h, u, cdf, gu = saved
    d, d_ff = layer["w1"].shape
    g["w2"][...] = gu.reshape(-1, d_ff).T @ df.reshape(-1, d)
    g["b2"][...] = df.sum(axis=(0, 1))
    du = df @ layer["w2"].T
    du *= gelu_grad(u, cdf)
    g["w1"][...] = h.reshape(-1, d).T @ du.reshape(-1, d_ff)
    g["b1"][...] = du.sum(axis=(0, 1))
    dh += du @ layer["w1"].T


def _add_and_norm(h, branch, drop, gain, bias, eps) -> tuple:
    """LayerNorm(h + dropout(branch)), summed in place in ``branch``, and (drop,
    xhat, inv); ``drop`` is the dropout mask, None outside training."""
    if drop is not None:
        branch *= drop
    branch += h
    y, xhat, inv = _layernorm_forward(branch, gain, bias, eps)
    return y, (drop, xhat, inv)


def _add_and_norm_backward(dy, saved, gain, dgain, dbias) -> tuple[np.ndarray, np.ndarray]:
    """(d h, d branch); writes the layer norm's gradients into ``dgain`` and
    ``dbias``. Without dropout both are one array, so a branch's backward
    reads all of its gradient before it adds into the residual's."""
    drop, xhat, inv = saved
    dh, dgain[...], dbias[...] = _layernorm_backward(dy, xhat, inv, gain)
    return dh, dh if drop is None else dh * drop


def forward_with_cache(
    params: ModelParams,
    ids: np.ndarray,
    mask: np.ndarray,
    train_mode: bool = False,
    dropout_seed: int | np.random.SeedSequence | None = None,
    need_cache: bool = False,
) -> tuple[np.ndarray, tuple | None]:
    """Run the encoder on collated arrays; optionally keep activations.

    The cache holds everything the backward pass needs. Dropout masks are
    drawn in a fixed order (embedding, then per layer attention / ffn) from
    a generator seeded with ``dropout_seed``.
    """
    cfg = params.config
    B, T = ids.shape
    dropping = train_mode and cfg.dropout_rate > 0.0
    if dropping and dropout_seed is None:
        raise DataValidationError("train-mode forward requires an explicit dropout seed")
    rng = np.random.default_rng(dropout_seed) if dropping else None

    def dropout(width: int) -> np.ndarray | None:
        return None if rng is None else _dropout_mask(rng, cfg, B, width)

    addmask = ((1.0 - mask) * MASK_ADDEND)[:, None, None, :]  # (B,1,1,T)

    p, eps = params.tensors, cfg.layer_norm_eps
    x = p["tok_emb"][ids] + p["pos_emb"][None, :T, :] + p["seg_emb"][0]
    h, emb_xhat, emb_inv = _layernorm_forward(x, p["emb_ln_gain"], p["emb_ln_bias"], eps)
    emb_drop = dropout(T)
    if emb_drop is not None:
        h *= emb_drop

    layers = []
    for i in range(cfg.n_layers):
        layer = _layer(p, i)
        # Only [CLS] of the last layer's output reaches the head, so that
        # layer computes the queries and all after them for row 0.
        hq = h[:, :1] if i == cfg.n_layers - 1 else h
        rows = hq.shape[1]
        attn, attention = _attention_forward(hq, h, addmask, layer, cfg.n_heads)
        h1, norm1 = _add_and_norm(hq, attn, dropout(rows), layer["ln1_gain"], layer["ln1_bias"], eps)
        f, ffn = _ffn_forward(h1, layer)
        h, norm2 = _add_and_norm(h1, f, dropout(rows), layer["ln2_gain"], layer["ln2_bias"], eps)
        if need_cache:
            layers.append((attention, norm1, ffn, norm2))
        # Free this layer's arrays before the next layer allocates its own.
        del hq, attn, attention, h1, norm1, f, ffn, norm2

    # One-row products per batch entry: a 2-D product would switch BLAS
    # kernels with the row count and so round a lone row differently.
    pooled = np.tanh((h[:, :1, :] @ p["pooler_w"])[:, 0] + p["pooler_b"])
    logits = (pooled[:, None, :] @ p["classifier_w"].T)[:, 0] + p["classifier_b"]
    cache = ((ids, emb_drop, emb_xhat, emb_inv), layers, (h, pooled))
    return logits, cache if need_cache else None


def forward(
    params: ModelParams,
    batch: Sequence[Encoding],
    train_mode: bool = False,
    dropout_seed: int | np.random.SeedSequence | None = None,
) -> np.ndarray:
    """Class scores for a batch of encodings, shape (batch, 4)."""
    ids, mask = collate(batch, params.config)
    logits, _ = forward_with_cache(params, ids, mask, train_mode, dropout_seed)
    return logits


def backward_from_logits(
    params: ModelParams, cache: tuple, dlogits: np.ndarray, head_only: bool = False
) -> TensorBuffer:
    """Exact gradients of every parameter tensor given d(loss)/d(logits),
    in the parameters' buffer layout. ``head_only`` stops after the pooler
    and classifier, leaving the encoder's gradients zero."""
    p = params.tensors
    grads = p.zeros_like()
    (ids, emb_drop, emb_xhat, emb_inv), layers, (h, pooled) = cache

    grads["classifier_w"][...] = dlogits.T @ pooled
    grads["classifier_b"][...] = dlogits.sum(axis=0)
    dpooled = dlogits @ p["classifier_w"]
    dpooled_pre = dpooled * (1.0 - pooled * pooled)
    grads["pooler_w"][...] = h[:, 0, :].T @ dpooled_pre
    grads["pooler_b"][...] = dpooled_pre.sum(axis=0)
    if head_only:
        return grads
    dh = (dpooled_pre @ p["pooler_w"].T)[:, None, :]

    for i in reversed(range(len(layers))):
        layer, g = _layer(p, i), _layer(grads, i)
        attention, norm1, ffn, norm2 = layers[i]
        dh1, df = _add_and_norm_backward(dh, norm2, layer["ln2_gain"], g["ln2_gain"], g["ln2_bias"])
        _ffn_backward(df, dh1, ffn, layer, g)
        dh, dattn = _add_and_norm_backward(dh1, norm1, layer["ln1_gain"], g["ln1_gain"], g["ln1_bias"])
        dh = _attention_backward(dattn, dh, attention, layer, g)

    if emb_drop is not None:
        dh = dh * emb_drop
    dx, grads["emb_ln_gain"][...], grads["emb_ln_bias"][...] = _layernorm_backward(
        dh, emb_xhat, emb_inv, p["emb_ln_gain"]
    )
    np.add.at(grads["tok_emb"], ids.reshape(-1), dx.reshape(ids.size, -1))
    grads["pos_emb"][: ids.shape[1]] = dx.sum(axis=0)
    grads["seg_emb"][0] = dx.sum(axis=(0, 1))
    return grads


def predict_proba(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max subtraction; rows sum to 1. ``logits`` is
    left as it is."""
    return _softmax_lastaxis(np.array(logits, dtype=np.float64))


def save_checkpoint(params: ModelParams, path: str | Path) -> None:
    """Write magic, version, JSON metadata header, then the parameter
    buffer as little-endian float32. A weight that is not finite in float32
    raises NumericalError before the file is opened."""
    with np.errstate(over="ignore"):
        stored = TensorBuffer(params.tensors.spec, params.tensors.flat.astype("<f4"))
    stored.check_finite("the checkpoint would hold a weight that is not finite in float32")
    meta = {"config": asdict(params.config), "vocab_hash": params.vocab_hash,
            "init_seed": params.init_seed}
    header = json.dumps(meta, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<II", CHECKPOINT_VERSION, len(header)))
        fh.write(header)
        fh.write(stored.flat.tobytes())


def load_checkpoint(path: str | Path) -> ModelParams:
    """Read a checkpoint, validating magic, version, header, buffer size and
    that every weight is finite."""
    p = Path(path)
    if not p.is_file():
        raise InputPathError(f"cannot read checkpoint file: {p}")
    blob = p.read_bytes()
    if blob[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise DataValidationError(f"{p} is not a checkpoint (bad magic bytes)")
    off = len(CHECKPOINT_MAGIC)
    if len(blob) < off + 8:
        raise DataValidationError(f"checkpoint truncated: {p} ends inside its preamble")
    version, hlen = struct.unpack_from("<II", blob, off)
    off += 8
    if version != CHECKPOINT_VERSION:
        raise DataValidationError(f"unsupported checkpoint version {version}")
    try:
        header = json.loads(blob[off : off + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataValidationError(f"corrupt checkpoint header: {exc}")
    off += hlen
    if not isinstance(header, dict) or not isinstance(header.get("config"), dict):
        raise DataValidationError(f"checkpoint header of {p} has no config object")
    try:
        config = EncoderConfig(**header["config"])
    except TypeError as exc:
        raise DataValidationError(f"bad checkpoint config: {exc}")
    vocab_hash, init_seed = header.get("vocab_hash"), header.get("init_seed")
    if not isinstance(vocab_hash, (str, type(None))) or not isinstance(init_seed, (int, type(None))):
        raise DataValidationError("checkpoint vocab_hash must be a string and init_seed an integer")

    spec = tensor_shapes(config)
    count = sum(math.prod(shape) for _, shape in spec)
    if len(blob) - off < 4 * count:
        raise DataValidationError(
            f"checkpoint truncated: {4 * count} bytes of tensors expected, {len(blob) - off} present"
        )
    if len(blob) - off > 4 * count:
        raise DataValidationError(f"checkpoint has {len(blob) - off - 4 * count} unexpected trailing bytes")
    flat = np.frombuffer(blob, dtype="<f4", count=count, offset=off).astype(np.float64)
    tensors = TensorBuffer(spec, flat)
    tensors.check_finite(f"checkpoint {p} holds a non-finite weight")
    return ModelParams(config, tensors, vocab_hash=vocab_hash, init_seed=init_seed)
