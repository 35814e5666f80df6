"""Whole-array reference for the encoder's elementwise ops and Adam, and
the encoder's forward and backward pass as one loop each.

The ops take numpy only, no imports from the package. These are GELU
with a second erf in its gradient (the package's float64 Cephes erf and
its float32 Abramowitz & Stegun steps, written out one allocation each),
layernorm through
``x.var``, a softmax that allocates each step, dropout masks drawn at
``max_len`` and sliced, and the whole-buffer Adam update, as the package
computed them before it cached the Gaussian CDF, drew masks at the bucket
width, worked in place and blocked Adam. They are kept as an oracle: the
package must return exactly equal arrays and leave a random generator in
the same state. ``dropout_grid`` is the bucket-width draw that followed,
kept as the oracle for the package's masks drawn at real positions only.

``adam_step`` leaves out the package's checks of the gradient and moment
layouts; it takes any objects with the attributes it reads, moments of the
gradients' size, and moves the tail of the parameters they cover. It reads
b1, b2 and eps from the package's constants, which ``test_trainer`` pins to
the published values.

``forward_with_cache`` and ``backward_from_logits`` are the package's
passes as they were before the layer loop became pairs of forward and
backward functions: one loop each, talking through a dict of named
arrays. They call the package's own ops (through ``package.``, since this
module's op names are taken) and ``dropout_grid``. With ``cls_only`` (the default) the last
layer computes its queries and all after them for row 0, as the package
does; the package packs the real rows and makes its row-wise products in
8-row tiles, where these passes make one product per sequence, so the two
differ by rounding only. Without ``cls_only`` every layer runs at full
width, as the package's passes did before; that agrees in real
arithmetic too, since the head reads only row 0 of the last layer.

``collate`` is the package's as it was when encodings came padded to
``max_len`` with their masks: it takes (ids, mask) pairs, such as
``conftest.padded`` makes, reads the last real position from the masks
and trims the padding off again. The package's ``collate`` pads the real
ids itself and must return the same bytes.
"""

from __future__ import annotations

import math

import numpy as np

import stancewatch.encoder as package
from stancewatch.encoder import ModelParams, TensorBuffer
from stancewatch.trainer import ADAM_BETA1, ADAM_BETA2, ADAM_EPS


# Abramowitz & Stegun 7.1.26, as the float32 GELU takes it: p over sqrt 2,
# and the coefficients a5 to a1 halved.
AS_P = 0.3275911 / math.sqrt(2.0)
AS_HALF_COEFFS = (0.5 * 1.061405429, 0.5 * -1.453152027, 0.5 * 1.421413741,
                  0.5 * -0.284496736, 0.5 * 0.254829592)


def _cdf_float32(x):
    """Phi(x) by the package's float32 steps, one allocating step each."""
    t = 1.0 / (np.abs(x) * AS_P + 1.0)
    poly = t * AS_HALF_COEFFS[0]
    for c in AS_HALF_COEFFS[1:]:
        poly = (poly + c) * t
    q = poly * np.exp(np.square(np.clip(x, -20.0, 20.0)) * -0.5)
    return np.copysign(0.5 - q, x) + 0.5


# Cephes ndtr.c, as the float64 erf takes it: x T(x^2) / U(x^2) for
# |x| <= 1, 1 - exp(-x^2) P(|x|) / Q(|x|) above, |x| clamped to 6; U and Q
# monic.
ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
         7.00332514112805075473e3, 5.55923013010394962768e4)
ERF_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
         2.26290000613890934246e4, 4.92673942608635921086e4)
ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
          4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
          9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
ERFC_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
          9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
          1.65666309194161350182e3, 5.57535340817727675546e2)


def _horner(x, coeffs, monic=False):
    poly = x + coeffs[0] if monic else coeffs[0]
    for c in coeffs[1:]:
        poly = poly * x + c
    return poly


def _erf(x):
    """erf(x) by the package's float64 steps, one allocating step each."""
    a = np.minimum(np.abs(x), 6.0)
    z = a * a
    small = a * _horner(z, ERF_T) / _horner(z, ERF_U, monic=True)
    large = 1.0 - np.exp(-z) * _horner(a, ERFC_P) / _horner(a, ERFC_Q, monic=True)
    return np.copysign(np.where(a <= 1.0, small, large), x)


def gelu(x):
    if x.dtype == np.float32:
        with np.errstate(invalid="ignore"):
            return x * _cdf_float32(x)
    return x * 0.5 * (1.0 + _erf(x / math.sqrt(2.0)))


def gelu_cdf(x):
    if x.dtype == np.float32:
        return _cdf_float32(x)
    return 0.5 * (1.0 + _erf(x / math.sqrt(2.0)))


def gelu_grad(x):
    cdf = 0.5 * (1.0 + _erf(x / math.sqrt(2.0)))
    pdf = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    return cdf + x * pdf


def _layernorm_forward(x, gain, bias, eps):
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * inv
    return xhat * gain + bias, xhat, inv


def _softmax_lastaxis(x):
    z = x - x.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _dropout_mask(rng, cfg, batch, width):
    draw = rng.random((batch, cfg.max_len, cfg.d_model))[:, :width]
    return (draw >= cfg.dropout_rate).astype(np.float64) / (1.0 - cfg.dropout_rate)


def dropout_grid(rng, cfg, batch, width):
    """The package's (batch, width, d_model) masks as it drew them before it
    drew real positions only: each row fills ``width`` positions and the
    generator skips the rest up to ``max_len``, padding included. The
    package's packed masks must equal these, packed."""
    draw = np.empty((batch, width, cfg.d_model))
    skip = (cfg.max_len - width) * cfg.d_model
    for row in draw:
        rng.random(out=row)
        rng.bit_generator.advance(skip)
    return np.where(draw >= cfg.dropout_rate, 1.0 / (1.0 - cfg.dropout_rate), 0.0)


def adam_step(params, grads, state, config):
    state.t += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    bc1 = 1.0 - b1**state.t
    bc2 = 1.0 - b2**state.t
    g, m, v = grads.flat, state.m.flat, state.v.flat
    theta = params.tensors.flat[params.tensors.flat.size - g.size :]
    m *= b1
    m += (1.0 - b1) * g
    v *= b2
    v += (1.0 - b2) * (g * g)
    mhat = m / bc1
    vhat = v / bc2
    theta -= config.learning_rate * mhat / (np.sqrt(vhat) + ADAM_EPS)


def collate(batch, config):
    if not batch:
        raise package.DataValidationError("empty batch")
    for i, (ids, _) in enumerate(batch):
        if len(ids) != config.max_len:
            raise package.DataValidationError(
                f"batch item {i}: encoding length {len(ids)} does not match "
                f"model max_len {config.max_len}"
            )
    ids = np.array([ids for ids, _ in batch], dtype=np.int64)
    if ids.max() >= config.vocab_size:
        raise package.DataValidationError(
            f"token id {int(ids.max())} out of range for vocab_size {config.vocab_size}"
        )
    mask = np.array([mask for _, mask in batch], dtype=np.float64)
    last_real = np.flatnonzero(mask.any(axis=0)).max(initial=0)
    width = package.bucket_len(int(last_real) + 1, config.max_len)
    return ids[:, :width], mask[:, :width]


def forward_with_cache(
    params: ModelParams,
    ids: np.ndarray,
    mask: np.ndarray,
    train_mode: bool = False,
    dropout_seed: int | np.random.SeedSequence | None = None,
    need_cache: bool = False,
    cls_only: bool = True,
) -> tuple[np.ndarray, dict | None]:
    """Run the encoder on collated arrays; optionally keep activations.

    The cache holds everything the backward pass needs. Dropout masks are
    drawn in a fixed order (embedding, then per layer attention / ffn) from
    a generator seeded with ``dropout_seed``.
    """
    cfg = params.config
    B, T = ids.shape
    dropping = train_mode and cfg.dropout_rate > 0.0
    rng: np.random.Generator | None = None
    if dropping:
        if dropout_seed is None:
            raise package.DataValidationError("train-mode forward requires an explicit dropout seed")
        rng = np.random.default_rng(dropout_seed)

    addmask = ((1.0 - mask) * package.MASK_ADDEND)[:, None, None, :]  # (B,1,1,T)

    p = params.tensors
    x = p["tok_emb"][ids] + p["pos_emb"][None, :T, :] + p["seg_emb"][0]
    h, emb_xhat, emb_inv = package._layernorm_forward(
        x, p["emb_ln_gain"], p["emb_ln_bias"], package.LAYER_NORM_EPS
    )
    emb_drop = None
    if dropping:
        emb_drop = dropout_grid(rng, cfg, B, T)
        h *= emb_drop

    cache: dict | None = None
    if need_cache:
        cache = {
            "ids": ids,
            "emb_xhat": emb_xhat,
            "emb_inv": emb_inv,
            "emb_drop": emb_drop,
            "layers": [],
        }

    scale = 1.0 / np.sqrt(cfg.d_head)
    for i in range(cfg.n_layers):
        layer = p.layers[i]
        h_in = h
        rows = 1 if cls_only and i == cfg.n_layers - 1 else T
        hq = h[:, :rows]
        q = (hq @ layer["wq"] + layer["bq"]).reshape(B, rows, cfg.n_heads, cfg.d_head).transpose(0, 2, 1, 3)
        k = (h @ layer["wk"] + layer["bk"]).reshape(B, T, cfg.n_heads, cfg.d_head).transpose(0, 2, 1, 3)
        v = (h @ layer["wv"] + layer["bv"]).reshape(B, T, cfg.n_heads, cfg.d_head).transpose(0, 2, 1, 3)
        scores = q @ k.transpose(0, 1, 3, 2)
        scores *= scale
        scores += addmask
        probs = package._softmax_lastaxis(scores)
        ctx = (probs @ v).transpose(0, 2, 1, 3).reshape(B, rows, cfg.d_model)
        attn = ctx @ layer["wo"]
        attn += layer["bo"]
        attn_drop = None
        if dropping:
            attn_drop = dropout_grid(rng, cfg, B, rows)
            attn *= attn_drop
        attn += hq
        h1, ln1_xhat, ln1_inv = package._layernorm_forward(
            attn, layer["ln1_gain"], layer["ln1_bias"], package.LAYER_NORM_EPS
        )
        u = h1 @ layer["w1"]
        u += layer["b1"]
        gu, cdf = package.gelu_and_cdf(u)
        f = gu @ layer["w2"]
        f += layer["b2"]
        ffn_drop = None
        if dropping:
            ffn_drop = dropout_grid(rng, cfg, B, rows)
            f *= ffn_drop
        f += h1
        h, ln2_xhat, ln2_inv = package._layernorm_forward(
            f, layer["ln2_gain"], layer["ln2_bias"], package.LAYER_NORM_EPS
        )
        if need_cache:
            cache["layers"].append(
                {
                    "h_in": h_in, "hq": hq,
                    "q": q, "k": k, "v": v,
                    "probs": probs,
                    "ctx": ctx,
                    "attn_drop": attn_drop,
                    "ln1_xhat": ln1_xhat, "ln1_inv": ln1_inv,
                    "h1": h1,
                    "u": u, "cdf": cdf, "gu": gu,
                    "ffn_drop": ffn_drop,
                    "ln2_xhat": ln2_xhat, "ln2_inv": ln2_inv,
                }
            )

    # One-row products per batch entry: a 2-D product would switch BLAS
    # kernels with the row count and so round a lone row differently.
    pooled = np.tanh((h[:, :1, :] @ p["pooler_w"])[:, 0] + p["pooler_b"])
    logits = (pooled[:, None, :] @ p["classifier_w"].T)[:, 0] + p["classifier_b"]
    if need_cache:
        cache["h_cls"] = h[:, 0, :]
        cache["pooled"] = pooled
        cache["h_last_shape"] = h.shape
    return logits, cache


def backward_from_logits(
    params: ModelParams, cache: dict, dlogits: np.ndarray
) -> TensorBuffer:
    """Exact gradients of every parameter tensor given d(loss)/d(logits),
    in the parameters' buffer layout."""
    cfg = params.config
    B, T = cache["ids"].shape
    d = cfg.d_model
    p = params.tensors
    grads = p.zeros_like()

    pooled = cache["pooled"]
    grads["classifier_w"][...] = dlogits.T @ pooled
    grads["classifier_b"][...] = dlogits.sum(axis=0)
    dpooled = dlogits @ p["classifier_w"]
    dpooled_pre = dpooled * (1.0 - pooled * pooled)
    grads["pooler_w"][...] = cache["h_cls"].T @ dpooled_pre
    grads["pooler_b"][...] = dpooled_pre.sum(axis=0)
    dh = np.zeros(cache["h_last_shape"], dtype=np.float64)
    dh[:, 0, :] = dpooled_pre @ p["pooler_w"].T

    scale = 1.0 / np.sqrt(cfg.d_head)
    for i in range(cfg.n_layers - 1, -1, -1):
        layer, g = p.layers[i], grads.layers[i]
        lc = cache["layers"][i]
        rows = lc["q"].shape[2]

        dr2, g["ln2_gain"][...], g["ln2_bias"][...] = package._layernorm_backward(
            dh, lc["ln2_xhat"], lc["ln2_inv"], layer["ln2_gain"]
        )
        dh1 = df = dr2
        if lc["ffn_drop"] is not None:
            df = df * lc["ffn_drop"]
        gu = lc["gu"]
        g["w2"][...] = gu.reshape(-1, cfg.d_ff).T @ df.reshape(-1, d)
        g["b2"][...] = df.sum(axis=(0, 1))
        du = df @ layer["w2"].T
        du *= package.gelu_grad(lc["u"], lc["cdf"])
        h1 = lc["h1"]
        g["w1"][...] = h1.reshape(-1, d).T @ du.reshape(-1, cfg.d_ff)
        g["b1"][...] = du.sum(axis=(0, 1))
        dh1 += du @ layer["w1"].T

        dr1, g["ln1_gain"][...], g["ln1_bias"][...] = package._layernorm_backward(
            dh1, lc["ln1_xhat"], lc["ln1_inv"], layer["ln1_gain"]
        )
        dh_prev = dattn = dr1
        if lc["attn_drop"] is not None:
            dattn = dattn * lc["attn_drop"]
        ctx = lc["ctx"]
        g["wo"][...] = ctx.reshape(-1, d).T @ dattn.reshape(-1, d)
        g["bo"][...] = dattn.sum(axis=(0, 1))
        dctx = (dattn @ layer["wo"].T).reshape(B, rows, cfg.n_heads, cfg.d_head).transpose(0, 2, 1, 3)

        probs, q, k, v = lc["probs"], lc["q"], lc["k"], lc["v"]
        dprobs = dctx @ v.transpose(0, 1, 3, 2)
        dv = probs.transpose(0, 1, 3, 2) @ dctx
        dscores = probs * (dprobs - (dprobs * probs).sum(axis=-1, keepdims=True))
        dq = dscores @ k * scale
        dk = dscores.transpose(0, 1, 3, 2) @ q * scale

        # The query rows' residual gradient, zero on the rows past them.
        dh = np.zeros((B, T, d), dtype=np.float64)
        dh[:, :rows] = dh_prev
        for name, dproj, x in (("q", dq, lc["hq"]), ("k", dk, lc["h_in"]), ("v", dv, lc["h_in"])):
            n = x.shape[1]
            dmat = dproj.transpose(0, 2, 1, 3).reshape(B * n, d)
            g["w" + name][...] = x.reshape(-1, d).T @ dmat
            g["b" + name][...] = dmat.sum(axis=0)
            dh[:, :n] += (dmat @ layer["w" + name].T).reshape(B, n, d)

    if cache["emb_drop"] is not None:
        dh = dh * cache["emb_drop"]
    dx, grads["emb_ln_gain"][...], grads["emb_ln_bias"][...] = package._layernorm_backward(
        dh, cache["emb_xhat"], cache["emb_inv"], p["emb_ln_gain"]
    )
    np.add.at(grads["tok_emb"], cache["ids"].reshape(-1), dx.reshape(-1, d))
    grads["pos_emb"][:T] = dx.sum(axis=0)
    grads["seg_emb"][0] = dx.sum(axis=(0, 1))
    return grads
