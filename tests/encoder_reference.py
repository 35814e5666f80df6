"""Whole-array reference for the encoder's elementwise ops and Adam.

numpy and scipy's erf only: no imports from the package. These are GELU
with a second erf in its gradient, layernorm through ``x.var``, a softmax
that allocates each step, dropout masks drawn at ``max_len`` and sliced,
and the whole-buffer Adam update, as the package computed them before it
cached the Gaussian CDF, drew masks at the bucket width, worked in place
and blocked Adam. They are kept as an oracle: the package must return
exactly equal arrays and leave a random generator in the same state.

``adam_step`` leaves out the package's check of the gradient layout; it
takes any objects with the attributes it reads.
"""

import numpy as np
from scipy.special import erf


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
