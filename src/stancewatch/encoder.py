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
its output and a tuple of what its backward reads; the cache is a list
of those tuples, (attention, norm1, ffn, norm2) per layer, between the
embedding's arrays and the head's. Each backward writes its parameters'
gradients and adds its input gradient into the residual's in place. A
cache serves one full backward: ``backward_from_logits`` pops each
layer's tuple and drops every part after its last read, so a training
step holds a layer's activations only until that layer's backward is
done, and a second full backward on the same cache is refused.

GELU uses the Gaussian CDF form, x * Phi(x). In float64 (training, its
gradients and their checks) Phi is 0.5 * (1 + erf(x / sqrt(2))), with one
erf per value from Moshier's Cephes rational approximations in numpy
array passes (``_erf``), within 3 ulp of ``math.erf``: a training forward
keeps the CDF for the backward
pass, whose GELU derivative then needs only the density's exp, and whose
GELU output is recomputed from it with one multiply instead of kept. In
float32 (inference) Phi comes from the Abramowitz & Stegun 7.1.26
polynomial in numpy's own array passes, within 3e-7 of the float64 CDF.
Both run over the flat values in blocks of ``GELU_BLOCK`` (65,536),
which keeps their temporaries to a few cache-sized blocks; the
backward's GELU derivative runs in the same blocks, in place.
The initial weights are BERT's truncated normal: normal draws, each beyond
2 sigma redrawn (``_truncated_normal``). Dropout
(embedding output, attention output, feed-forward output) runs only in
train mode, with seeded masks, so inference and gradient checks are
deterministic. The forward multiplies by the float mask it draws, and a
training cache keeps the mask as booleans, a byte a value, which the
backward applies as x * keep * (1 / (1 - rate)): the bytes of the float
mask's product, since x * 1.0 is x and x * 0.0 is a signed zero.
The additive mask constant is -1e9 rather than -inf so no
NaN can propagate through the softmax. ``layer*.bk`` has an analytically
zero gradient (q . bk is one constant across a row of scores, which the
softmax cancels), so training moves it only by rounding noise: it is the
first tensor to differ in byte comparisons between two correct versions.

An encoding holds only its real ids; ``collate`` alone pads, with
``[PAD]`` to ``bucket_len`` of a batch's longest member (the smallest
multiple of ``BUCKET`` that holds it, capped at ``max_len``), and returns
each row's real length with the ids: the one form of a batch's real
positions, from which ``forward_with_cache`` builds its packing and mask.

Row-wise work runs on the real tokens only. The real positions of the
(B, T) batch are packed, in row-major order, into an (n, d) array whose n
is their count rounded up to a multiple of ``BUCKET``, with zero rows at
the end (``_Packing``). The embedding sum, every layernorm, dropout, the
Q/K/V and output projections and the feed-forward run on those rows, and
the backward's weight gradients are products over them. Every row-wise
product is a stack of BUCKET-row tiles, (n / 8, 8, k) @ (k, m) (``_rows``):
numpy calls BLAS once per tile, so every call has one shape whatever the
batch, and a row rounds the same way whichever tile and position it takes,
which ``tests/test_blas_tiles.py`` checks of the BLAS library. A single
(n, k) product would not do: BLAS picks kernels by the row count, and
rounds a row of a few-row product differently. Attention scores, softmax
and context stay on the (B, heads, T, T) grid, into which q, k and v are
gathered from the projections' rows and a zero row for padded positions
(``_Packing.unpack_product``); the context is gathered back at the real
positions. A batch with no padding takes the same path: its
packed rows are copies of its grid rows.

Padding is never read. The ids at padded positions are not looked up;
exp(-1e9) is exactly 0.0 in float64 and in float32, so a padded key gets
exactly zero attention weight; and a padded query row of the grid is never
gathered.
Since the head computes each row as its own one-row product too, a row's
logits do not depend on how many rows share its batch, only on its
width: a different width changes the order of float summation in the
attention grid. Dropout masks are drawn straight into packed rows: a grid
row's real positions take its first draws and the generator skips the
draws of the positions past them up to ``max_len``, so a real position
gets the same train-mode mask at any width and padding costs no draw;
``tests/encoder_reference.py`` keeps the grid draw as the masks' byte
oracle. Attention scores,
softmax, layernorm and the attention backward work in place on their
temporaries, taking the same float steps as the allocating forms.

The last layer computes [CLS] only, since the head reads nothing else of
its output: the queries, context, output projection, both add-and-norms
and the feed-forward run on each row's [CLS], packed the same way (B rows
rounded up to a multiple of BUCKET), while keys and values still come
from every real position, so nothing the [CLS] row attends to is dropped.
Training and inference take this one path; the other rows would get a
gradient of exactly zero. That layer's dropout masks are drawn one
position wide, and the skip to ``max_len`` gives [CLS] the values a
full-width mask holds.

The parameters live in one buffer whose named views follow
``tensor_shapes`` and are grouped by layer once (``TensorBuffer.layers``)
for both passes; a checkpoint is a metadata header followed by that buffer
as little-endian float32; the header (version 2; any other is refused)
holds ``EncoderConfig``'s fields. The buffer is float64 in memory, and
training, its gradients and the backward are float64. A forward computes in the
buffer's dtype: every array it allocates takes that dtype and every
constant is a Python float, since under NumPy 2 a ``np.float64`` scalar
would promote a float32 array to float64. Inference runs on a float32
cast of the buffer, the values a checkpoint stores
(``metrics.predict_batches``); ``predict_proba`` takes the softmax of its
logits in float64.
"""

from __future__ import annotations

import ctypes
import json
import math
import struct
import sys
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import asdict, dataclass, fields
from itertools import chain
from pathlib import Path

import numpy as np

from .corpus import N_CLASSES
from .errors import DataValidationError, InputPathError, NumericalError
from .tokenizer import PAD_ID, Encoding

MASK_ADDEND = -1e9
BUCKET = 8
INIT_STD = 0.02
INIT_CLIP_SIGMAS = 2.0
LAYER_NORM_EPS = 1e-12
HEAD_START = "pooler_w"  # the head: the tail of the parameter buffer from this tensor on

CHECKPOINT_MAGIC = b"SWCKPT"
CHECKPOINT_VERSION = 2


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
    keep up to 64 MB of it free, from the first step on.

    Inference forwards run on a pool of threads, one per CPU the process
    may use, except those too small to gain from a thread, which stay on
    the calling thread (``metrics.predict_batches``). glibc would give
    each thread an arena of its own, with its own free memory held back,
    which raised classify's peak RSS by a fifth; one arena keeps every
    thread in the main heap, under the thresholds above. No result
    depends on the pool or on these settings. Without glibc this does
    nothing.
    """
    if not sys.platform.startswith("linux"):
        return
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        m_trim_threshold, m_mmap_threshold, m_arena_max = -1, -3, -8  # glibc's parameter numbers
        mallopt(m_mmap_threshold, 32 << 20)
        mallopt(m_trim_threshold, 64 << 20)
        mallopt(m_arena_max, 1)


_keep_batch_arrays_in_heap()


@dataclass(frozen=True)
class EncoderConfig:
    """Model dimensions. BERT's feed-forward width 4 * d_model (``d_ff``),
    its ``LAYER_NORM_EPS`` and the head's ``corpus.N_CLASSES`` are constants."""

    vocab_size: int
    d_model: int = 128
    n_layers: int = 2
    n_heads: int = 4
    max_len: int = 64
    dropout_rate: float = 0.1

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            kinds = (int,) if f.type == "int" else (int, float)
            if isinstance(value, bool) or not isinstance(value, kinds):
                raise DataValidationError(f"{f.name} must be {f.type}, got {value!r}")
        for name in ("vocab_size", "d_model", "n_layers", "n_heads", "max_len"):
            if getattr(self, name) <= 0:
                raise DataValidationError(f"{name} must be positive, got {getattr(self, name)}")
        if self.d_model % self.n_heads != 0:
            raise DataValidationError(
                f"n_heads ({self.n_heads}) must divide d_model ({self.d_model})"
            )
        if not 0.0 <= self.dropout_rate < 1.0:
            raise DataValidationError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")

    @property
    def d_ff(self) -> int:
        return 4 * self.d_model

    @property
    def d_head(self) -> int:
        return self.d_model // self.n_heads


class TensorBuffer(Mapping[str, np.ndarray]):
    """Named, reshaped views onto one contiguous buffer: float64, or the
    float32 cast that inference runs on (``astype``).

    ``spec`` is an ordered list of (name, shape); each tensor sits in
    ``flat`` right after the one before it. Gradients hold the parameters'
    layout or a tail of it, and Adam's moments the gradients', so arithmetic
    on the model is arithmetic on ``flat``. ``layers[i]`` holds layer i's
    views by their name inside it ("wq", "b1", ...); a head's tail has none.
    """

    def __init__(self, spec: Sequence[tuple[str, tuple[int, ...]]], flat: np.ndarray | None = None):
        self.spec = list(spec)
        sizes = [math.prod(shape) for _, shape in self.spec]
        total = sum(sizes)
        self.flat = np.zeros(total, dtype=np.float64) if flat is None else flat
        if self.flat.shape != (total,):
            raise DataValidationError(f"buffer of shape {self.flat.shape} does not hold {total} values")
        self._views: dict[str, np.ndarray] = {}
        layers: dict[str, dict[str, np.ndarray]] = {}
        start = 0
        for (name, shape), size in zip(self.spec, sizes):
            self._views[name] = view = self.flat[start : start + size].reshape(shape)
            start += size
            layer, dot, key = name.partition(".")
            if dot:
                layers.setdefault(layer, {})[key] = view
        self.layers = list(layers.values())

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

    def astype(self, dtype) -> "TensorBuffer":
        """The same layout holding these values cast to ``dtype``; one beyond
        its range becomes an infinity, without a warning."""
        with np.errstate(over="ignore"):
            return TensorBuffer(self.spec, self.flat.astype(dtype))

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


def _layout(config: EncoderConfig) -> tuple[list, list, list]:
    """The shapes of the embedding's tensors, of one encoder layer's (by
    their name inside the layer) and of the head's, each in buffer order."""
    d, dff = config.d_model, config.d_ff
    embedding = [
        ("tok_emb", (config.vocab_size, d)),
        ("pos_emb", (config.max_len, d)),
        ("seg_emb", (2, d)),
        ("emb_ln_gain", (d,)),
        ("emb_ln_bias", (d,)),
    ]
    layer = [
        ("wq", (d, d)),
        ("bq", (d,)),
        ("wk", (d, d)),
        ("bk", (d,)),
        ("wv", (d, d)),
        ("bv", (d,)),
        ("wo", (d, d)),
        ("bo", (d,)),
        ("ln1_gain", (d,)),
        ("ln1_bias", (d,)),
        ("w1", (d, dff)),
        ("b1", (dff,)),
        ("w2", (dff, d)),
        ("b2", (d,)),
        ("ln2_gain", (d,)),
        ("ln2_bias", (d,)),
    ]
    head = [
        ("pooler_w", (d, d)),
        ("pooler_b", (d,)),
        ("classifier_w", (N_CLASSES, d)),
        ("classifier_b", (N_CLASSES,)),
    ]
    return embedding, layer, head


def tensor_shapes(config: EncoderConfig) -> list[tuple[str, tuple[int, ...]]]:
    """The documented fixed tensor order of the parameter buffer, which
    checkpoints and gradients share: the embedding's tensors, then each
    layer's as ``layer{i}.<name>``, then the head's."""
    embedding, layer, head = _layout(config)
    layers = [(f"layer{i}.{name}", shape) for i in range(config.n_layers) for name, shape in layer]
    return embedding + layers + head


def _value_count(config: EncoderConfig) -> int:
    """How many values ``tensor_shapes(config)`` lays out, without listing each layer's."""
    embedding, layer, head = (sum(math.prod(shape) for _, shape in part) for part in _layout(config))
    return embedding + config.n_layers * layer + head


# Cephes ndtr.c and ndtri.c (S. L. Moshier, Methods and Programs for
# Mathematical Functions, 1989), highest power first. erf(x) is
# x T(x^2) / U(x^2) for |x| <= 1 and 1 - exp(-x^2) P(|x|) / Q(|x|) above,
# with the sign of x; erfc(6) is 2e-17, below half an ulp of 1, so x is
# clamped to +-_ERF_SATURATES before it is squared. U and Q are monic, their
# leading 1 left out.
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERF_SATURATES = 6.0


def _polevl(x: np.ndarray, coeffs: Sequence[float], out: np.ndarray | None = None) -> np.ndarray:
    """Horner's rule, c0 x^n + ... + cn, in place on one new array or ``out``."""
    y = np.multiply(x, coeffs[0], out=out)
    for c in coeffs[1:-1]:
        y += c
        y *= x
    y += coeffs[-1]
    return y


def _p1evl(x: np.ndarray, coeffs: Sequence[float]) -> np.ndarray:
    """Horner's rule for the monic x^n + c0 x^(n-1) + ... + c(n-1)."""
    y = x + coeffs[0]
    for c in coeffs[1:]:
        y *= x
        y += c
    return y


def _erf(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """float64 erf by Cephes ndtr.c, within 1 ulp of the C function and 3 ulp
    of ``math.erf``. x T(x^2) / U(x^2) runs on every value, and the erfc
    form on the values beyond 1 only, gathered by index: GELU's arguments
    mostly lie within 1 (all of them at the init, 99 % after the README's
    25-epoch synthetic run), and the erfc form's 38 array passes over every
    value would more than double the cost. erf(+-0) is +-0, erf(+-inf) is
    +-1 and NaN stays NaN, without a numpy warning. ``out``, if given, is a
    1-D array of x's size to write into."""
    # a 0-d x would make every ufunc below return a scalar; NaN stays NaN
    c = np.clip(x.reshape(-1), -_ERF_SATURATES, _ERF_SATURATES)
    z = np.square(c)
    far = np.flatnonzero(z > 1.0)
    out = _polevl(z, _ERF_T, out)
    out *= c
    out /= _p1evl(z, _ERF_U)
    signed = np.take(c, far)
    a = np.abs(signed)
    large = _polevl(a, _ERFC_P)
    e = np.square(a)
    np.negative(e, out=e)
    np.exp(e, out=e)
    large *= e
    large /= _p1evl(a, _ERFC_Q)
    np.subtract(1.0, large, out=large)
    np.copysign(large, signed, out=large)
    np.put(out, far, large)
    return out.reshape(x.shape)


def _truncated_normal(rng: np.random.Generator, arr: np.ndarray) -> None:
    """Fill ``arr`` in place as BERT's initializer does: standard normal
    draws, each beyond +-``INIT_CLIP_SIGMAS`` redrawn (in index order, until
    none is left), scaled to ``INIT_STD``. How many draws a tensor takes
    from ``rng`` varies, but is fixed by the seed."""
    rng.standard_normal(out=arr)
    flat = arr.reshape(-1)
    far = np.flatnonzero(np.abs(flat) > INIT_CLIP_SIGMAS)
    while far.size:
        redrawn = rng.standard_normal(far.size)
        np.put(flat, far, redrawn)
        far = far[np.abs(redrawn) > INIT_CLIP_SIGMAS]
    arr *= INIT_STD


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
            _truncated_normal(rng, arr)
        elif name.endswith("_gain"):
            arr[...] = 1.0
    return ModelParams(config, tensors, vocab_hash=vocab_hash, init_seed=seed)


# Abramowitz & Stegun 7.1.26 (Handbook of Mathematical Functions, 1964):
# erfc(z) = t (a1 + t (a2 + t (a3 + t (a4 + t a5)))) exp(-z^2), t = 1 / (1 + p z),
# within 1.5e-7 for z >= 0. With z = |x| / sqrt 2 its half is Phi(-|x|), so p
# is divided by sqrt 2 and the coefficients, a5 first, are halved (exactly).
_AS_P = 0.3275911 / math.sqrt(2.0)
_AS_HALF_COEFFS = tuple(0.5 * a for a in (1.061405429, -1.453152027, 1.421413741,
                                          -0.284496736, 0.254829592))
# x is clamped to +-GELU_F32_CLAMP before it is squared: exp(-x^2 / 2) is
# already exactly 0 in float32 from |x| = 14.5 on, and x * x would overflow
# from about 1.8e19.
GELU_F32_CLAMP = 20.0


# Values per block of the GELU passes (``gelu_and_cdf``, and the feed-forward
# backward's derivative): a block's slices of the input, of both outputs
# and of the float64 erf's temporaries (512 KB each) stay in cache while
# the passes run over them, and the temporaries take a few blocks, not a
# hidden-width array each.
GELU_BLOCK = 1 << 16


def _blocks(n: int) -> Iterator[slice]:
    """Slices of ``GELU_BLOCK`` values that cover ``n`` values in order."""
    return (slice(start, start + GELU_BLOCK) for start in range(0, n, GELU_BLOCK))


def gelu_and_cdf(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """GELU(x) = x * Phi(x) and the Gaussian CDF Phi(x) it scales by.

    Both dtypes run over the flat values in blocks of ``GELU_BLOCK``, each
    written into the two arrays returned; every step is elementwise, so a
    value's bytes do not depend on its neighbours or its block.

    float64: Phi(x) = 0.5 * (1 + erf(x / sqrt 2)), one erf per value. Scaling
    by 0.5 is exact, so x * Phi(x) rounds as x * 0.5 * (1 + erf(...)) does.

    float32: q = Phi(-|x|) from Abramowitz & Stegun 7.1.26, then
    Phi(x) = 0.5 + copysign(0.5 - q, x), within 3e-7 of float64 ``erf``. Every
    step is an in-place pass over one of the two outputs, with no branch on
    values. Phi is 0 at -inf and 1 at +inf, and NaN stays NaN; GELU(-inf) is
    -inf * 0, a NaN, as in float64, here without a warning."""
    gu, cdf = np.empty(x.shape, dtype=x.dtype), np.empty(x.shape, dtype=x.dtype)
    kernel = _gelu_f32 if x.dtype == np.float32 else _gelu_f64
    xs, gus, cdfs = x.reshape(-1), gu.reshape(-1), cdf.reshape(-1)
    for blk in _blocks(x.size):
        kernel(xs[blk], gus[blk], cdfs[blk])
    return gu, cdf


def _gelu_f64(x: np.ndarray, gu: np.ndarray, cdf: np.ndarray) -> None:
    _erf(x / math.sqrt(2.0), out=cdf)
    cdf += 1.0
    cdf *= 0.5
    np.multiply(x, cdf, out=gu)


def _gelu_f32(x: np.ndarray, t: np.ndarray, cdf: np.ndarray) -> None:
    np.abs(x, out=t)
    t *= _AS_P
    t += 1.0
    np.reciprocal(t, out=t)
    np.multiply(t, _AS_HALF_COEFFS[0], out=cdf)
    for a in _AS_HALF_COEFFS[1:]:
        cdf += a
        cdf *= t
    # cdf holds t P(t) / 2; t's array takes exp(-x^2 / 2), then GELU
    np.clip(x, -GELU_F32_CLAMP, GELU_F32_CLAMP, out=t)
    np.square(t, out=t)
    t *= -0.5
    np.exp(t, out=t)
    cdf *= t
    np.subtract(0.5, cdf, out=cdf)
    np.copysign(cdf, x, out=cdf)
    cdf += 0.5
    with np.errstate(invalid="ignore"):
        np.multiply(x, cdf, out=t)


def gelu_grad(x: np.ndarray, cdf: np.ndarray) -> np.ndarray:
    """Phi(x) + x * phi(x). ``cdf`` is Phi(x) as ``gelu_and_cdf`` returned it,
    so only the pdf's exp is computed here."""
    pdf = np.exp(-0.5 * x * x)
    pdf /= math.sqrt(2.0 * math.pi)
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
    """Pad encodings with ``[PAD]`` into (B, T) int64 ids as wide as the bucket
    of the longest member, and return them with the rows' int64 lengths,
    checking that each holds 1..max_len ids and every id is in the vocabulary."""
    if not batch:
        raise DataValidationError("empty batch")
    n_real = np.fromiter((len(enc.ids) for enc in batch), dtype=np.int64, count=len(batch))
    bad = np.flatnonzero((n_real < 1) | (n_real > config.max_len))
    if bad.size:
        raise DataValidationError(
            f"batch item {bad[0]}: encoding holds {n_real[bad[0]]} ids, not 1 to max_len {config.max_len}"
        )
    real = np.arange(bucket_len(int(n_real.max()), config.max_len)) < n_real[:, None]
    ids = np.full(real.shape, PAD_ID, dtype=np.int64)
    ids[real] = np.fromiter(chain.from_iterable(enc.ids for enc in batch), dtype=np.int64,
                            count=int(n_real.sum()))
    lo, hi = int(ids.min()), int(ids.max())
    if lo < 0 or hi >= config.vocab_size:
        raise DataValidationError(
            f"token id {lo if lo < 0 else hi} out of range for vocab_size {config.vocab_size}"
        )
    return ids, n_real


def _dropout_mask(rng: np.random.Generator, cfg: EncoderConfig, packing: "_Packing") -> np.ndarray:
    """Inverted dropout mask for ``packing``'s rows: surviving activations
    are scaled by 1 / keep, and the rows past the real ones are 0.

    Each grid row consumes max_len * d_model draws whatever its length: its
    real positions' draws fill its packed rows and the generator skips the
    rest (PCG64 spends one 64-bit output per float64), so a real position
    gets the value it holds in a full-width mask, and padding costs no draw.
    """
    draw = np.empty((packing.n_real, cfg.d_model))
    for start, length in zip(packing.starts.tolist(), packing.lengths.tolist()):
        rng.random(out=draw[start:start + length])
        rng.bit_generator.advance((cfg.max_len - length) * cfg.d_model)
    return packing.pad(np.where(draw >= cfg.dropout_rate, 1.0 / (1.0 - cfg.dropout_rate), 0.0))


class _Packing:
    """Where the real positions of a (B, width) grid sit among packed rows,
    given each grid row's real length.

    The real positions, in row-major order, fill the first ``n_real`` of
    ``rows`` rows; ``rows`` is ``n_real`` rounded up to a multiple of
    BUCKET, and the rows past ``n_real`` are zero. Packing and unpacking
    always return new arrays.
    """

    def __init__(self, lengths: np.ndarray, width: int):
        self.grid = (len(lengths), width)
        self.lengths = lengths
        self.n_real = int(lengths.sum())
        self.rows = -(-self.n_real // BUCKET) * BUCKET
        self.real = np.arange(width) < lengths[:, None]  # (B, width), True at real positions
        self.index = np.flatnonzero(self.real)
        self.columns = self.index % width  # each packed row's position in its grid row
        self.starts = np.cumsum(lengths) - lengths  # each grid row's first packed row
        # Each grid position's packed row; a padded one reads the zero row
        # that ``unpack_product`` puts after the packed rows.
        self.inverse = np.full(len(lengths) * width, self.rows)
        self.inverse[self.index] = np.arange(self.n_real)

    def pad(self, real: np.ndarray) -> np.ndarray:
        """The ``n_real`` rows ``real``, followed by zero rows up to ``rows``."""
        out = np.zeros((self.rows, real.shape[1]), dtype=real.dtype)
        out[: len(real)] = real
        return out

    def pack(self, grid: np.ndarray) -> np.ndarray:
        """(B, T, ...) grid values -> (rows, features) packed rows."""
        flat = grid.reshape(self.grid[0] * self.grid[1], -1)
        out = np.zeros((self.rows, flat.shape[1]), dtype=grid.dtype)
        # mode="clip" lets take write straight into ``out``; with the default
        # "raise" it buffers the whole result first (the index is in range).
        np.take(flat, self.index, axis=0, out=out[: self.n_real], mode="clip")
        return out

    def unpack_product(self, x: np.ndarray, w: np.ndarray, bias: np.ndarray | None = None) -> np.ndarray:
        """``_rows(x, w) + bias`` of packed rows ``x`` as a (B, T, m) grid,
        zero where padded: a gather from the product's rows and one zero row."""
        out = np.empty((self.rows + 1, w.shape[1]), dtype=x.dtype)
        _rows(x, w, out=out[:-1])
        if bias is not None:
            out[:-1] += bias
        out[-1] = 0.0
        return np.take(out, self.inverse, axis=0).reshape(*self.grid, -1)


def _rows(x: np.ndarray, w: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``x @ w`` for packed rows, as a stack of BUCKET-row products: numpy
    calls BLAS once per tile, so every call has one shape and a row's bytes
    do not depend on how many rows there are or where it sits among them.
    ``out``, if given, is a C-contiguous (len(x), m) array to write into."""
    if out is None:
        out = np.empty((len(x), w.shape[1]), dtype=x.dtype)
    np.matmul(x.reshape(-1, BUCKET, x.shape[1]), w, out=out.reshape(-1, BUCKET, w.shape[1]))
    return out


def _attention_forward(
    hq: np.ndarray, queries: _Packing, h: np.ndarray, keys: _Packing, addmask: np.ndarray,
    layer: dict, n_heads: int,
) -> tuple:
    """Multi-head attention of the packed query rows ``hq`` (laid out by
    ``queries``) over the packed rows ``h`` (laid out by ``keys``), through
    the output projection, and (hq, queries, h, keys, q, k, v, probs, ctx)
    for the backward. Scores, softmax and context run on the (B, heads, T,
    T) grid, into which the projections are gathered with zero padding."""
    q, k, v = (
        packing.unpack_product(x, layer["w" + n], layer["b" + n])
        .reshape(*packing.grid, n_heads, -1).transpose(0, 2, 1, 3)
        for x, packing, n in ((hq, queries, "q"), (h, keys, "k"), (h, keys, "v"))
    )
    scores = q @ k.transpose(0, 1, 3, 2)
    scores *= 1.0 / math.sqrt(q.shape[-1])
    scores += addmask
    probs = _softmax_lastaxis(scores)
    ctx = queries.pack((probs @ v).transpose(0, 2, 1, 3))
    attn = _rows(ctx, layer["wo"])
    attn += layer["bo"]
    return attn, (hq, queries, h, keys, q, k, v, probs, ctx)


def _attention_backward(dattn: np.ndarray, dhq: np.ndarray, saved: tuple, layer: dict, g: dict) -> np.ndarray:
    """Writes its parameter gradients into ``g``; returns the gradient of
    ``h``'s packed rows: ``dhq``, the query rows' residual gradient, plus
    the q term at the query rows, then the k and v terms."""
    hq, queries, h, keys, q, k, v, probs, ctx = saved
    n_heads = q.shape[1]
    g["wo"][...] = ctx.T @ dattn
    g["bo"][...] = dattn.sum(axis=0)
    dctx = queries.unpack_product(dattn, layer["wo"].T)
    dctx = dctx.reshape(*queries.grid, n_heads, -1).transpose(0, 2, 1, 3)
    dprobs = dctx @ v.transpose(0, 1, 3, 2)
    dv = keys.pack((probs.transpose(0, 1, 3, 2) @ dctx).transpose(0, 2, 1, 3))
    del dctx
    # dprobs becomes the scores' gradient, probs * (dprobs - sum(dprobs * probs)), in place
    dprobs -= (dprobs * probs).sum(axis=-1, keepdims=True)
    dprobs *= probs
    scale = 1.0 / math.sqrt(q.shape[-1])
    dq = dprobs @ k
    dq *= scale
    dq = queries.pack(dq.transpose(0, 2, 1, 3))
    dk = dprobs.transpose(0, 1, 3, 2) @ q
    del dprobs
    dk *= scale
    dk = keys.pack(dk.transpose(0, 2, 1, 3))
    for x, name, dmat in ((hq, "q", dq), (h, "k", dk), (h, "v", dv)):
        g["w" + name][...] = x.T @ dmat
        g["b" + name][...] = dmat.sum(axis=0)
    # dattn is read by now; without dropout it is dhq, which takes the q term in place.
    dhq += _rows(dq, layer["wq"].T)
    if queries is keys:
        dh = dhq
    else:
        dh = np.zeros(h.shape)
        dh[keys.starts] = dhq[: queries.n_real]
    dh += _rows(dk, layer["wk"].T)
    dh += _rows(dv, layer["wv"].T)
    return dh


def _ffn_forward(h: np.ndarray, layer: dict) -> tuple:
    """W2 . gelu(W1 . h + b1) + b2, and (h, u, cdf) for the backward.

    The GELU output gu = u * cdf is not kept: the backward recomputes it
    with the one multiply ``gelu_and_cdf`` makes, so it gets the same bytes
    and a training cache holds one hidden-width array fewer per layer."""
    u = _rows(h, layer["w1"])
    u += layer["b1"]
    gu, cdf = gelu_and_cdf(u)
    f = _rows(gu, layer["w2"])
    f += layer["b2"]
    return f, (h, u, cdf)


def _ffn_backward(df: np.ndarray, dh: np.ndarray, saved: tuple, layer: dict, g: dict) -> None:
    """Writes its parameter gradients into ``g`` and adds its input gradient into ``dh``.

    One hidden-width array serves two jobs: it holds the GELU output
    u * cdf for w2's gradient, then u's gradient, which the GELU
    derivative scales in place, one ``GELU_BLOCK`` at a time."""
    h, u, cdf = saved
    du = np.multiply(u, cdf)
    g["w2"][...] = du.T @ df
    g["b2"][...] = df.sum(axis=0)
    _rows(df, layer["w2"].T, out=du)
    dus, us, cdfs = du.reshape(-1), u.reshape(-1), cdf.reshape(-1)
    for blk in _blocks(du.size):
        dus[blk] *= gelu_grad(us[blk], cdfs[blk])
    g["w1"][...] = h.T @ du
    g["b1"][...] = du.sum(axis=0)
    dh += _rows(du, layer["w1"].T)


def _apply_dropout(x: np.ndarray, mask: np.ndarray | None) -> np.ndarray | None:
    """x *= mask in place, for a float dropout mask (None outside training),
    and the mask as booleans, a byte a value: what a cache keeps of it."""
    if mask is None:
        return None
    x *= mask
    return mask != 0.0


def _dropout_grad(dy: np.ndarray, keep: np.ndarray, scale: float) -> np.ndarray:
    """dy times the float mask that ``keep`` holds, as dy * keep * scale
    (scale = 1 / (1 - rate)) in a new array: a kept value becomes dy * scale
    and a dropped one dy * 0.0, the bytes of the float mask's product."""
    out = dy * keep
    out *= scale
    return out


def _add_and_norm(h, branch, mask, gain, bias, eps) -> tuple:
    """LayerNorm(h + dropout(branch)), summed in place in ``branch``, and (keep,
    xhat, inv); ``mask`` is the float dropout mask, None outside training,
    and ``keep`` its booleans."""
    keep = _apply_dropout(branch, mask)
    branch += h
    y, xhat, inv = _layernorm_forward(branch, gain, bias, eps)
    return y, (keep, xhat, inv)


def _add_and_norm_backward(dy, saved, scale, gain, dgain, dbias) -> tuple[np.ndarray, np.ndarray]:
    """(d h, d branch); writes the layer norm's gradients into ``dgain`` and
    ``dbias``. Without dropout both are one array, so a branch's backward
    reads all of its gradient before it adds into the residual's."""
    keep, xhat, inv = saved
    dh, dgain[...], dbias[...] = _layernorm_backward(dy, xhat, inv, gain)
    return dh, dh if keep is None else _dropout_grad(dh, keep, scale)


def forward_with_cache(
    params: ModelParams,
    ids: np.ndarray,
    lengths: np.ndarray,
    train_mode: bool = False,
    dropout_seed: int | np.random.SeedSequence | None = None,
    need_cache: bool = False,
) -> tuple[np.ndarray, tuple]:
    """Run the encoder on collated arrays; return the logits and a cache.

    ``lengths`` is each row's real length, 1 to T, as ``collate`` returns
    it. The cache always holds the head's inputs, the last layer's [CLS]
    row and the pooled vector, which is all a head-only backward reads.
    ``need_cache`` adds the embedding's arrays and a list of every layer's
    tuples, which one full backward consumes. Dropout masks are drawn in a
    fixed order (embedding, then per layer attention / ffn) from a
    generator seeded with ``dropout_seed``, and kept as booleans.
    """
    cfg = params.config
    B, T = ids.shape
    if (not B or lengths.shape != (B,) or lengths.dtype.kind not in "iu"
            or lengths.min() < 1 or lengths.max() > T):
        raise DataValidationError(f"lengths must hold one integer from 1 to {T} for each row of ids "
                                  f"of shape {ids.shape}, and B >= 1")
    tokens = _Packing(lengths, T)
    cls = _Packing(np.ones(B, dtype=np.int64), 1)
    dropping = train_mode and cfg.dropout_rate > 0.0
    if dropping and dropout_seed is None:
        raise DataValidationError("train-mode forward requires an explicit dropout seed")
    rng = np.random.default_rng(dropout_seed) if dropping else None

    def dropout(packing: _Packing) -> np.ndarray | None:
        return None if rng is None else _dropout_mask(rng, cfg, packing)

    p, eps = params.tensors, LAYER_NORM_EPS
    dtype = p.flat.dtype
    addmask = np.where(tokens.real, 0.0, MASK_ADDEND).astype(dtype, copy=False)[:, None, None, :]
    tok = np.take(ids, tokens.index)
    x = np.zeros((tokens.rows, cfg.d_model), dtype=dtype)
    np.add(np.take(p["tok_emb"], tok, axis=0), np.take(p["pos_emb"], tokens.columns, axis=0),
           out=x[: tokens.n_real])
    x[: tokens.n_real] += p["seg_emb"][0]
    h, emb_xhat, emb_inv = _layernorm_forward(x, p["emb_ln_gain"], p["emb_ln_bias"], eps)
    emb_keep = _apply_dropout(h, dropout(tokens))

    layers = []
    for i, layer in enumerate(p.layers):
        # Only [CLS] of the last layer's output reaches the head, so that
        # layer computes the queries and all after them for [CLS] rows.
        queries = cls if i == cfg.n_layers - 1 else tokens
        hq = cls.pad(h[tokens.starts]) if queries is cls else h
        attn, attention = _attention_forward(hq, queries, h, tokens, addmask, layer, cfg.n_heads)
        h1, norm1 = _add_and_norm(hq, attn, dropout(queries), layer["ln1_gain"], layer["ln1_bias"], eps)
        f, ffn = _ffn_forward(h1, layer)
        h, norm2 = _add_and_norm(h1, f, dropout(queries), layer["ln2_gain"], layer["ln2_bias"], eps)
        if need_cache:
            layers.append((attention, norm1, ffn, norm2))
        # Free this layer's arrays before the next layer allocates its own.
        del hq, attn, attention, h1, norm1, f, ffn, norm2

    # One-row products per batch entry: a 2-D product would switch BLAS
    # kernels with the row count and so round a lone row differently.
    h = h[:B, None, :]
    pooled = np.tanh((h @ p["pooler_w"])[:, 0] + p["pooler_b"])
    logits = (pooled[:, None, :] @ p["classifier_w"].T)[:, 0] + p["classifier_b"]
    if not need_cache:
        return logits, (None, None, (h, pooled))
    return logits, ((tokens, cls, tok, emb_keep, emb_xhat, emb_inv), layers, (h, pooled))


def backward_from_logits(
    params: ModelParams, cache: tuple, dlogits: np.ndarray, out: TensorBuffer | None = None
) -> TensorBuffer:
    """Exact gradients, given d(loss)/d(logits), of every parameter tensor
    that ``out`` holds, or of every one in a fresh buffer without ``out``.

    ``out`` holds the parameters' whole layout or the head's tail of it
    (``tail(HEAD_START)``); any other layout is refused. A head-sized buffer
    stops the backward after the pooler and classifier, which reads only
    the head's part of the cache; a whole one needs the cache of a forward
    run with ``need_cache``, and consumes its layers: each layer's arrays
    are dropped after their last read, so a second full backward on that
    cache is refused. Every tensor is overwritten, the embedding tables,
    sums over positions, zeroed first, so a reused buffer gets the same
    bytes as a fresh one."""
    p = params.tensors
    grads = p.zeros_like() if out is None else out
    whole = grads.spec == p.spec
    if not whole and grads.spec != p.tail(HEAD_START).spec:
        raise DataValidationError("gradient buffer must hold the whole layout or the head's tail")
    emb, layers, (h, pooled) = cache
    if whole and layers is None:
        raise DataValidationError("a full backward needs a forward run with need_cache=True")
    if whole and len(layers) != len(p.layers):
        raise DataValidationError("this cache served a full backward already; run the forward again")

    grads["classifier_w"][...] = dlogits.T @ pooled
    grads["classifier_b"][...] = dlogits.sum(axis=0)
    dpooled = dlogits @ p["classifier_w"]
    dpooled_pre = dpooled * (1.0 - pooled * pooled)
    grads["pooler_w"][...] = h[:, 0, :].T @ dpooled_pre
    grads["pooler_b"][...] = dpooled_pre.sum(axis=0)
    if not whole:
        return grads
    tokens, cls, tok, emb_keep, emb_xhat, emb_inv = emb
    scale = 1.0 / (1.0 - params.config.dropout_rate)
    dh = cls.pad(dpooled_pre @ p["pooler_w"].T)

    for layer, g in zip(reversed(p.layers), reversed(grads.layers)):
        # Popped, so each part is freed after its last read below.
        attention, norm1, ffn, norm2 = layers.pop()
        dh1, df = _add_and_norm_backward(dh, norm2, scale, layer["ln2_gain"], g["ln2_gain"], g["ln2_bias"])
        del dh, norm2
        _ffn_backward(df, dh1, ffn, layer, g)
        del df, ffn
        dh, dattn = _add_and_norm_backward(dh1, norm1, scale, layer["ln1_gain"], g["ln1_gain"], g["ln1_bias"])
        del dh1, norm1
        dh = _attention_backward(dattn, dh, attention, layer, g)
        del dattn, attention

    if emb_keep is not None:
        dh = _dropout_grad(dh, emb_keep, scale)
    dx, grads["emb_ln_gain"][...], grads["emb_ln_bias"][...] = _layernorm_backward(
        dh, emb_xhat, emb_inv, p["emb_ln_gain"]
    )
    real = dx[: tokens.n_real]
    for name in ("tok_emb", "pos_emb", "seg_emb"):
        grads[name][...] = 0.0
    np.add.at(grads["tok_emb"], tok, real)
    np.add.at(grads["pos_emb"], tokens.columns, real)
    grads["seg_emb"][0] = dx.sum(axis=0)
    return grads


def predict_proba(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max subtraction; rows sum to 1. ``logits`` is
    left as it is."""
    return _softmax_lastaxis(np.array(logits, dtype=np.float64))


def save_checkpoint(params: ModelParams, path: str | Path) -> None:
    """Write magic, version, JSON metadata header, then the parameter
    buffer as little-endian float32. A weight that is not finite in float32
    raises NumericalError before the file is opened."""
    stored = params.tensors.astype("<f4")
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
    except (ValueError, RecursionError) as exc:
        # a UnicodeDecodeError or JSONDecodeError; a plain ValueError for an
        # integer of too many digits, or RecursionError for deep nesting
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

    # Counted before the layout is listed: a header may claim any number of layers.
    count = _value_count(config)
    if len(blob) - off < 4 * count:
        raise DataValidationError(
            f"checkpoint truncated: {4 * count} bytes of tensors expected, {len(blob) - off} present"
        )
    if len(blob) - off > 4 * count:
        raise DataValidationError(f"checkpoint has {len(blob) - off - 4 * count} unexpected trailing bytes")
    flat = np.frombuffer(blob, dtype="<f4", count=count, offset=off).astype(np.float64)
    tensors = TensorBuffer(tensor_shapes(config), flat)
    tensors.check_finite(f"checkpoint {p} holds a non-finite weight")
    return ModelParams(config, tensors, vocab_hash=vocab_hash, init_seed=init_seed)
