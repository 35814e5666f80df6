"""Whole-array reference for the encoder's elementwise ops and Adam, and
the encoder's forward and backward pass as one loop each.

The ops take numpy and scipy's erf only, no imports from the package.
These are GELU with a second erf in its gradient, layernorm through
``x.var``, a softmax that allocates each step, dropout masks drawn at
``max_len`` and sliced, and the whole-buffer Adam update, as the package
computed them before it cached the Gaussian CDF, drew masks at the bucket
width, worked in place and blocked Adam. They are kept as an oracle: the
package must return exactly equal arrays and leave a random generator in
the same state.

``adam_step`` leaves out the package's check of the gradient layout; it
takes any objects with the attributes it reads.

``forward_with_cache`` and ``backward_from_logits`` are the package's
passes as they were before the layer loop became pairs of forward and
backward functions: one loop each, talking through a dict of named
arrays. They call the package's own ops (through ``package.``, since this
module's op names are taken), so they pin the order of the float
operations between the ops, not the ops. With ``cls_only`` (the default)
the last layer computes its queries and all after them for row 0, as the
package does, and the package must give the same logits and gradient
bytes. Without it every layer runs at full width, as the package's passes
did before; the two agree in real arithmetic, since the head reads only
row 0 of the last layer, so they differ by rounding only.
"""

from __future__ import annotations

import numpy as np
from scipy.special import erf

import stancewatch.encoder as package
from stancewatch.encoder import ModelParams, TensorBuffer


def gelu(x):
    return x * 0.5 * (1.0 + erf(x / np.sqrt(2.0)))


def gelu_grad(x):
    cdf = 0.5 * (1.0 + erf(x / np.sqrt(2.0)))
    pdf = np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)
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


def adam_step(params, grads, state, config):
    state.t += 1
    b1, b2 = config.beta1, config.beta2
    bc1 = 1.0 - b1**state.t
    bc2 = 1.0 - b2**state.t
    lo = params.tensors.flat.size - grads.flat.size
    g, theta, m, v = grads.flat, params.tensors.flat[lo:], state.m.flat[lo:], state.v.flat[lo:]
    m *= b1
    m += (1.0 - b1) * g
    v *= b2
    v += (1.0 - b2) * (g * g)
    mhat = m / bc1
    vhat = v / bc2
    theta -= config.learning_rate * mhat / (np.sqrt(vhat) + config.adam_eps)


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
        x, p["emb_ln_gain"], p["emb_ln_bias"], cfg.layer_norm_eps
    )
    emb_drop = None
    if dropping:
        emb_drop = package._dropout_mask(rng, cfg, B, T)
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
        layer = package._layer(p, i)
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
            attn_drop = package._dropout_mask(rng, cfg, B, rows)
            attn *= attn_drop
        attn += hq
        h1, ln1_xhat, ln1_inv = package._layernorm_forward(
            attn, layer["ln1_gain"], layer["ln1_bias"], cfg.layer_norm_eps
        )
        u = h1 @ layer["w1"]
        u += layer["b1"]
        gu, cdf = package.gelu_and_cdf(u)
        f = gu @ layer["w2"]
        f += layer["b2"]
        ffn_drop = None
        if dropping:
            ffn_drop = package._dropout_mask(rng, cfg, B, rows)
            f *= ffn_drop
        f += h1
        h, ln2_xhat, ln2_inv = package._layernorm_forward(
            f, layer["ln2_gain"], layer["ln2_bias"], cfg.layer_norm_eps
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
        layer, g = package._layer(p, i), package._layer(grads, i)
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
