"""The encoder's elementwise ops and Adam against the whole-array versions
they replaced (tests/encoder_reference.py): each op returns the same bytes,
and training and inference give the same bytes with the reference ops
swapped in. The forward and backward passes give the same bytes as the
one-loop passes they replaced."""

from dataclasses import replace

import numpy as np
import pytest

import encoder_reference as reference
import stancewatch.encoder as sw_encoder
import stancewatch.trainer as sw_trainer
from stancewatch.corpus import labeled_subset, split_dataset
from stancewatch.encoder import (
    EncoderConfig,
    _dropout_mask,
    _layernorm_forward,
    _softmax_lastaxis,
    gelu_and_cdf,
    gelu_grad,
    init_params,
    predict_proba,
)
from stancewatch.metrics import predict_batches
from stancewatch.synth import generate_labeled
from stancewatch.tokenizer import build_vocab
from stancewatch.trainer import ADAM_BLOCK, HEAD_START, AdamState, TrainConfig, adam_step, train


def assert_same_bytes(got, want):
    """Equal shape, dtype and bytes: stricter than array_equal, which takes
    -0.0 for 0.0."""
    got, want = np.asarray(got), np.asarray(want)
    assert (got.shape, got.dtype) == (want.shape, want.dtype)
    assert got.tobytes() == want.tobytes()


def gelu_grid() -> np.ndarray:
    points = [0.0, 1e-300, 5e-324, 1e-310, 8.0, 40.0, 1.0, 0.5]
    magnitudes = np.logspace(-300, 1.7, 3000)
    grid = np.concatenate([np.linspace(-40.0, 40.0, 160_001), points, magnitudes])
    return np.concatenate([grid, -grid])


class TestGelu:
    def test_gelu_matches_reference(self):
        x = gelu_grid()
        gu, cdf = gelu_and_cdf(x)
        assert_same_bytes(gu, reference.gelu(x))

    def test_grad_from_cached_cdf_matches_reference(self):
        x = gelu_grid()
        _, cdf = gelu_and_cdf(x)
        assert_same_bytes(gelu_grad(x, cdf), reference.gelu_grad(x))

    def test_three_dimensional_activations(self):
        u = np.random.default_rng(3).normal(scale=3.0, size=(5, 16, 64))
        gu, cdf = gelu_and_cdf(u)
        assert_same_bytes(gu, reference.gelu(u))
        assert_same_bytes(gelu_grad(u, cdf), reference.gelu_grad(u))


class TestLayernorm:
    @pytest.mark.parametrize("rows", ["random", "constant", "offset"])
    def test_matches_reference(self, rows):
        rng = np.random.default_rng(4)
        x = rng.normal(scale=2.0, size=(5, 16, 32))
        if rows == "constant":
            x = np.broadcast_to(x[..., :1], x.shape).copy()
        elif rows == "offset":
            x += 1e6
        gain, bias = rng.normal(size=32), rng.normal(size=32)
        before = x.copy()
        got = _layernorm_forward(x, gain, bias, 1e-12)
        want = reference._layernorm_forward(before, gain, bias, 1e-12)
        for g, w in zip(got, want):
            assert_same_bytes(g, w)
        assert_same_bytes(x, before)


class TestSoftmax:
    def test_masked_scores_match_reference(self):
        rng = np.random.default_rng(5)
        scores = rng.normal(scale=4.0, size=(3, 2, 16, 16))
        scores[0, :, :, 9:] += -1e9
        want = reference._softmax_lastaxis(scores)
        assert_same_bytes(_softmax_lastaxis(scores.copy()), want)

    def test_predict_proba_leaves_logits_alone(self):
        logits = np.random.default_rng(6).normal(scale=30.0, size=(10, 4))
        before = logits.copy()
        p = predict_proba(logits)
        assert_same_bytes(logits, before)
        assert_same_bytes(p, reference._softmax_lastaxis(before))


class TestDropoutMask:
    @pytest.mark.parametrize("width", [8, 24, 32])
    @pytest.mark.parametrize("batch", [1, 5])
    def test_masks_and_generator_state_match_reference(self, batch, width):
        cfg = EncoderConfig(vocab_size=16, d_model=16, n_heads=2, max_len=32, dropout_rate=0.1)
        rng, ref_rng = np.random.default_rng(7), np.random.default_rng(7)
        for _ in range(3):
            assert_same_bytes(_dropout_mask(rng, cfg, batch, width),
                              reference._dropout_mask(ref_rng, cfg, batch, width))
        assert rng.random() == ref_rng.random()


class TestAdam:
    @pytest.mark.parametrize("tail", [None, HEAD_START])
    def test_five_steps_match_reference(self, tail):
        cfg = EncoderConfig(vocab_size=300, d_model=64, n_layers=2, n_heads=4)
        params, ref_params = init_params(cfg, seed=1), init_params(cfg, seed=1)
        state, ref_state = AdamState.for_params(params), AdamState.for_params(ref_params)
        grads = params.tensors if tail is None else params.tensors.tail(tail)
        assert grads.flat.size % ADAM_BLOCK != 0
        if tail is None:
            assert grads.flat.size > 2 * ADAM_BLOCK
        tc = TrainConfig(learning_rate=1e-3)
        rng = np.random.default_rng(8)
        for step in range(5):
            g = grads.zeros_like()
            g.flat[:] = rng.normal(scale=10.0 ** -step, size=g.flat.size)
            adam_step(params, g, state, tc)
            reference.adam_step(ref_params, g, ref_state, tc)
        assert state.t == ref_state.t == 5
        for got, want in ((params.tensors, ref_params.tensors), (state.m, ref_state.m), (state.v, ref_state.v)):
            assert_same_bytes(got.flat, want.flat)


def swap_in_reference(monkeypatch):
    monkeypatch.setattr(sw_encoder, "gelu_and_cdf", lambda x: (reference.gelu(x), None))
    monkeypatch.setattr(sw_encoder, "gelu_grad", lambda x, cdf: reference.gelu_grad(x))
    for name in ("_layernorm_forward", "_softmax_lastaxis", "_dropout_mask"):
        monkeypatch.setattr(sw_encoder, name, getattr(reference, name))
    monkeypatch.setattr(sw_trainer, "adam_step", reference.adam_step)


@pytest.mark.parametrize("head_only", [False, True])
def test_training_and_inference_match_reference_ops(monkeypatch, head_only):
    """Same machine, same BLAS: only the swapped ops differ between the runs."""
    examples = generate_labeled(per_class=10, seed=3)
    # Joined texts reach the 16- and 24-wide buckets, not only the 8-wide one.
    data = labeled_subset(
        t if i % 3 else replace(t, text=" ".join(u.text for u in examples[i : i + 4]))
        for i, t in enumerate(examples)
    )
    split = split_dataset(data, 0.7, 1)
    vocab = build_vocab([t.text for t in split.train.examples], 300)
    model_cfg = EncoderConfig(vocab_size=len(vocab), d_model=32, n_layers=2, n_heads=4,
                              max_len=24, dropout_rate=0.1)
    tc = TrainConfig(learning_rate=1e-3, epochs=2, batch_size=8, head_only=head_only)
    texts = [t.text for t in split.test.examples]

    def run():
        trace = train(split, vocab, model_cfg, tc)
        return trace, predict_batches(trace.params, vocab, texts, batch_size=5)

    trace, probs = run()
    with monkeypatch.context() as m:
        swap_in_reference(m)
        ref_trace, ref_probs = run()
    assert trace.epoch_losses == ref_trace.epoch_losses
    assert_same_bytes(trace.params.tensors.flat, ref_trace.params.tensors.flat)
    assert_same_bytes(probs, ref_probs)


def noisy_pass_inputs(width, train_mode, n_layers, batch):
    """Parameters with noise on every tensor, (ids, mask) of ``batch`` rows
    ``width`` wide whose real lengths reach into the last 8 positions, the
    dropout seed and the generator for d(loss)/d(logits)."""
    cfg = EncoderConfig(vocab_size=40, d_model=32, n_layers=n_layers, n_heads=4, max_len=32,
                        dropout_rate=0.1)
    params = init_params(cfg, seed=11)
    rng = np.random.default_rng(width + 100 * batch)
    params.tensors.flat[:] += rng.normal(scale=0.05, size=params.tensors.flat.size)
    ids = rng.integers(1, cfg.vocab_size, size=(batch, width))
    mask = np.ones((batch, width))
    for row, n_real in enumerate(rng.integers(max(1, width - 7), width + 1, size=batch)):
        ids[row, n_real:], mask[row, n_real:] = 0, 0.0
    return params, ids, mask, 5 if train_mode else None, rng


pass_cases = pytest.mark.parametrize(
    "width, train_mode, n_layers, batch",
    [(w, t, n, b) for w in (8, 24, 32) for t in (False, True) for n in (1, 2) for b in (1, 5)],
)


@pass_cases
def test_passes_match_single_loop_reference(width, train_mode, n_layers, batch):
    """Logits and every gradient tensor equal the one-loop passes, which run
    the last layer for [CLS] only, byte for byte, at widths 8, 24 and
    max_len, with and without dropout; and the cache-free logits equal the
    cached ones byte for byte."""
    params, ids, mask, seed, rng = noisy_pass_inputs(width, train_mode, n_layers, batch)
    logits, cache = sw_encoder.forward_with_cache(params, ids, mask, train_mode, seed, need_cache=True)
    ref_logits, ref_cache = reference.forward_with_cache(params, ids, mask, train_mode, seed, True)
    assert_same_bytes(logits, ref_logits)
    assert_same_bytes(sw_encoder.forward_with_cache(params, ids, mask, train_mode, seed)[0], logits)
    dlogits = rng.normal(size=logits.shape)
    grads = sw_encoder.backward_from_logits(params, cache, dlogits)
    ref_grads = reference.backward_from_logits(params, ref_cache, dlogits)
    for name in grads:
        assert_same_bytes(grads[name], ref_grads[name])


@pass_cases
def test_passes_match_full_width_reference_to_rounding(width, train_mode, n_layers, batch):
    """Against the one-loop passes with the last layer at full width, the
    form the package computed before, only rounding moves: logits within
    1e-14 with the same argmax, every gradient within 1e-14 of the largest
    gradient value, and ``layer*.bk``, whose gradient is zero in real
    arithmetic, within 1e-15 absolute."""
    params, ids, mask, seed, rng = noisy_pass_inputs(width, train_mode, n_layers, batch)
    logits, cache = sw_encoder.forward_with_cache(params, ids, mask, train_mode, seed, need_cache=True)
    full_logits, full_cache = reference.forward_with_cache(params, ids, mask, train_mode, seed, True,
                                                           cls_only=False)
    np.testing.assert_allclose(logits, full_logits, rtol=0, atol=1e-14)
    np.testing.assert_array_equal(logits.argmax(axis=1), full_logits.argmax(axis=1))
    dlogits = rng.normal(size=logits.shape)
    grads = sw_encoder.backward_from_logits(params, cache, dlogits)
    full_grads = reference.backward_from_logits(params, full_cache, dlogits)
    largest = np.abs(full_grads.flat).max()
    for name in grads:
        atol = 1e-15 if name.endswith(".bk") else 1e-14 * largest
        np.testing.assert_allclose(grads[name], full_grads[name], rtol=0, atol=atol, err_msg=name)
