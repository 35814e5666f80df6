"""The encoder's elementwise ops and Adam against the whole-array versions
they replaced (tests/encoder_reference.py): each op returns the same bytes,
and training and inference give the same bytes with the reference ops
swapped in. The forward and backward passes agree with the one-loop
passes they replaced to rounding, and ``collate`` gives the ids, and the
lengths of the masks, of the one that trimmed encodings padded to
``max_len``."""

import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import encoder_reference as reference
from conftest import leading_ones, padded, random_encodings
import stancewatch.encoder as sw_encoder
import stancewatch.trainer as sw_trainer
from stancewatch.corpus import labeled_subset, split_dataset
from stancewatch.encoder import (
    EncoderConfig,
    _dropout_mask,
    _layernorm_forward,
    _Packing,
    _softmax_lastaxis,
    collate,
    gelu_and_cdf,
    gelu_grad,
    init_params,
    predict_proba,
)
from stancewatch.metrics import predict_batches
from stancewatch.synth import generate_labeled
from stancewatch.tokenizer import build_vocab, encode
from stancewatch.trainer import ADAM_BLOCK, AdamState, TrainConfig, adam_step, train


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


# Largest distance of the float32 Gaussian CDF and GELU from float64 erf's,
# over [-12, 12]; Abramowitz & Stegun 7.1.26 alone is within 7.5e-8 of the CDF.
F32_GELU_BOUND = 5e-7


class TestGeluFloat32:
    """Inference's float32 GELU, which takes Abramowitz & Stegun 7.1.26 in
    place of scipy's erf: its error against float64 erf, its special values,
    and bytes that do not depend on a value's neighbours."""

    def test_error_against_float64_erf(self):
        x = np.linspace(-12.0, 12.0, 2_000_001).astype(np.float32)
        gu, cdf = gelu_and_cdf(x)
        assert gu.dtype == cdf.dtype == np.float32
        exact = reference.gelu_cdf(x.astype(np.float64))
        cdf_err = np.abs(cdf - exact).max()
        gelu_err = np.abs(gu - x.astype(np.float64) * exact).max()
        assert cdf_err <= F32_GELU_BOUND and gelu_err <= F32_GELU_BOUND, (cdf_err, gelu_err)
        assert cdf.min() == 0.0 and cdf.max() == 1.0  # the tails round to 0 and 1, not past them

    def test_special_values_without_a_warning(self):
        tiny = np.finfo(np.float32).smallest_subnormal
        big = np.finfo(np.float32).max
        x = np.array([0.0, -0.0, tiny, -tiny, 1e-40, -1e-40, big, -big, np.inf, -np.inf, np.nan],
                     dtype=np.float32)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gu, cdf = gelu_and_cdf(x)
        assert cdf[:6].tolist() == [0.5] * 6
        assert cdf[6:10].tolist() == [1.0, 0.0, 1.0, 0.0]
        assert gu[6] == big and gu[7] == 0.0 and gu[8] == np.inf
        # GELU(-inf) = -inf * 0, a NaN in float64 too
        assert np.isnan(gu[9]) and np.isnan(gu[10]) and np.isnan(cdf[10])

    def test_clamp_changes_no_byte(self, monkeypatch):
        x = np.concatenate([np.linspace(-1e19, 1e19, 10_001), np.geomspace(1e-3, 1e19, 10_000)])
        x = np.concatenate([x, -x]).astype(np.float32)
        clamped = gelu_and_cdf(x)
        monkeypatch.setattr(sw_encoder, "GELU_F32_CLAMP", np.inf)
        for got, want in zip(clamped, gelu_and_cdf(x)):
            assert_same_bytes(got, want)

    def test_bytes_do_not_depend_on_offset_or_length(self):
        values = np.random.default_rng(9).normal(scale=4.0, size=200).astype(np.float32)
        values[:6] = [0.0, -0.0, 1e-40, 14.5, -14.5, -20.5]
        alone = [gelu_and_cdf(values[i : i + 1]) for i in range(len(values))]
        for offset in range(40):
            for length in (offset + len(values), offset + len(values) + 17):
                x = np.full(length, 0.75, dtype=np.float32)
                x[offset : offset + len(values)] = values
                gu, cdf = gelu_and_cdf(x)
                for i, (g, c) in enumerate(alone):
                    assert_same_bytes(gu[offset + i : offset + i + 1], g)
                    assert_same_bytes(cdf[offset + i : offset + i + 1], c)

    def test_matches_reference_steps(self):
        x = np.concatenate([gelu_grid(), [np.inf, -np.inf, np.nan]]).astype(np.float32)
        gu, cdf = gelu_and_cdf(x)
        assert_same_bytes(gu, reference.gelu(x))
        assert_same_bytes(cdf, reference.gelu_cdf(x))


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
    """Masks drawn at real positions only, packed, against the grid masks
    they replaced (``dropout_grid``) and the ``max_len`` draw before those."""

    @pytest.mark.parametrize("width", [8, 24, 32])
    @pytest.mark.parametrize("batch", [1, 5])
    def test_masks_and_generator_state_match_reference(self, batch, width):
        cfg = EncoderConfig(vocab_size=16, d_model=16, n_heads=2, max_len=32, dropout_rate=0.1)
        lengths = np.random.default_rng(batch * width).integers(1, width + 1, batch)
        lengths[0] = width
        packing = _Packing(lengths, width)
        rngs = [np.random.default_rng(7) for _ in range(3)]
        for _ in range(3):
            got = _dropout_mask(rngs[0], cfg, packing)
            assert_same_bytes(got, packing.pack(reference.dropout_grid(rngs[1], cfg, batch, width)))
            assert_same_bytes(got, packing.pack(reference._dropout_mask(rngs[2], cfg, batch, width)))
            assert not got[packing.n_real:].any()
        assert rngs[0].random() == rngs[1].random() == rngs[2].random()

    def test_boolean_mask_gives_the_float_masks_bytes(self):
        """A cache keeps the mask as booleans, and the backward applies it as
        x * keep * scale: the bytes of x times the float mask, signed zeros,
        infinities and NaN included."""
        cfg = EncoderConfig(vocab_size=16, d_model=16, n_heads=2, max_len=32, dropout_rate=0.1)
        packing = _Packing(np.array([32, 5, 17]), 32)
        mask = _dropout_mask(np.random.default_rng(3), cfg, packing)
        x = np.random.default_rng(4).normal(size=mask.shape)
        special = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, np.inf, -np.inf, np.nan]
        x[: len(special)] = np.array(special)[:, None]
        with np.errstate(invalid="ignore", over="ignore"):
            got = sw_encoder._dropout_grad(x, mask != 0.0, 1.0 / (1.0 - cfg.dropout_rate))
            assert_same_bytes(got, x * mask)
        assert (mask[: len(special)] == 0.0).any() and (mask[: len(special)] != 0.0).any()


class TestAdam:
    @pytest.mark.parametrize("d_model, blocks", [(64, 4), (8, 1)], ids=["four-blocks", "one-block"])
    def test_five_steps_match_reference(self, d_model, blocks):
        """Whole blocks and a last part block, or a single part block."""
        cfg = EncoderConfig(vocab_size=300, d_model=d_model, n_layers=2, n_heads=4)
        params, ref_params = init_params(cfg, seed=1), init_params(cfg, seed=1)
        grads = params.tensors
        state, ref_state = AdamState(grads), AdamState(grads)
        assert grads.flat.size % ADAM_BLOCK != 0
        assert -(-grads.flat.size // ADAM_BLOCK) == blocks
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
    # The feed-forward backward recomputes GELU as u * cdf, so the CDF goes along.
    monkeypatch.setattr(sw_encoder, "gelu_and_cdf", lambda x: (reference.gelu(x), reference.gelu_cdf(x)))
    monkeypatch.setattr(sw_encoder, "gelu_grad", lambda x, cdf: reference.gelu_grad(x))
    for name in ("_layernorm_forward", "_softmax_lastaxis"):
        monkeypatch.setattr(sw_encoder, name, getattr(reference, name))
    monkeypatch.setattr(sw_encoder, "_dropout_mask", lambda rng, cfg, packing: packing.pack(
        reference._dropout_mask(rng, cfg, *packing.grid)))
    monkeypatch.setattr(sw_trainer, "adam_step", reference.adam_step)


def test_training_and_inference_match_reference_ops(monkeypatch):
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
    tc = TrainConfig(learning_rate=1e-3, epochs=2, batch_size=8)
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
    """Parameters with noise on every tensor, (ids, lengths) of ``batch`` rows
    ``width`` wide whose real lengths reach into the last 8 positions, the
    dropout seed and the generator for d(loss)/d(logits)."""
    cfg = EncoderConfig(vocab_size=40, d_model=32, n_layers=n_layers, n_heads=4, max_len=32,
                        dropout_rate=0.1)
    params = init_params(cfg, seed=11)
    rng = np.random.default_rng(width + 100 * batch)
    params.tensors.flat[:] += rng.normal(scale=0.05, size=params.tensors.flat.size)
    ids = rng.integers(1, cfg.vocab_size, size=(batch, width))
    lengths = rng.integers(max(1, width - 7), width + 1, size=batch)
    for row, n_real in enumerate(lengths):
        ids[row, n_real:] = 0
    return params, ids, lengths, 5 if train_mode else None, rng


pass_cases = pytest.mark.parametrize(
    "width, train_mode, n_layers, batch",
    [(w, t, n, b) for w in (8, 24, 32) for t in (False, True) for n in (1, 2) for b in (1, 5)],
)


@pass_cases
def test_passes_match_single_loop_reference(width, train_mode, n_layers, batch):
    """Against the one-loop passes, which run the last layer for [CLS] only
    but make one product per sequence (one row per sequence at [CLS]) where
    the package makes 8-row tiles of packed real rows, only rounding moves,
    at widths 8, 24 and max_len, with and without dropout: logits within
    1e-14 with the same argmax, every gradient within 1e-14 of the largest
    gradient value, and ``layer*.bk``, whose gradient is zero in real
    arithmetic, within 1e-15 absolute. The cache-free logits equal the
    cached ones byte for byte."""
    params, ids, lengths, seed, rng = noisy_pass_inputs(width, train_mode, n_layers, batch)
    mask = leading_ones(lengths, width)
    logits, cache = sw_encoder.forward_with_cache(params, ids, lengths, train_mode, seed, need_cache=True)
    ref_logits, ref_cache = reference.forward_with_cache(params, ids, mask, train_mode, seed, True)
    np.testing.assert_allclose(logits, ref_logits, rtol=0, atol=1e-14)
    np.testing.assert_array_equal(logits.argmax(axis=1), ref_logits.argmax(axis=1))
    assert_same_bytes(sw_encoder.forward_with_cache(params, ids, lengths, train_mode, seed)[0], logits)
    dlogits = rng.normal(size=logits.shape)
    grads = sw_encoder.backward_from_logits(params, cache, dlogits)
    ref_grads = reference.backward_from_logits(params, ref_cache, dlogits)
    largest = np.abs(ref_grads.flat).max()
    for name in grads:
        atol = 1e-15 if name.endswith(".bk") else 1e-14 * largest
        np.testing.assert_allclose(grads[name], ref_grads[name], rtol=0, atol=atol, err_msg=name)


@pass_cases
def test_passes_match_full_width_reference_to_rounding(width, train_mode, n_layers, batch):
    """Against the one-loop passes with the last layer at full width, the
    form the package computed before, only rounding moves: logits within
    1e-14 with the same argmax, every gradient within 1e-14 of the largest
    gradient value, and ``layer*.bk``, whose gradient is zero in real
    arithmetic, within 1e-15 absolute."""
    params, ids, lengths, seed, rng = noisy_pass_inputs(width, train_mode, n_layers, batch)
    mask = leading_ones(lengths, width)
    logits, cache = sw_encoder.forward_with_cache(params, ids, lengths, train_mode, seed, need_cache=True)
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


COLLATE_VOCAB = build_vocab(["aşı aşılar karşı, bcı! aşılar abc"] * 3, max_size=40)
# Each batch item is a text to encode or a seed for one random encoding.
collate_items = st.one_of(st.text(alphabet="aşbcıklr ,!", max_size=150), st.integers(0, 2**32 - 1))


@given(st.sampled_from([2, 8, 12, 40, 64]), st.lists(collate_items, min_size=1, max_size=8))
def test_collate_matches_padded_reference(max_len, items):
    cfg = EncoderConfig(vocab_size=len(COLLATE_VOCAB), d_model=8, n_layers=1, n_heads=2,
                        max_len=max_len)
    batch = [
        encode(COLLATE_VOCAB, item, max_len) if isinstance(item, str)
        else random_encodings(np.random.default_rng(item), 1, cfg)[0]
        for item in items
    ]
    ids, lengths = collate(batch, cfg)
    ref_ids, ref_mask = reference.collate([padded(enc, max_len) for enc in batch], cfg)
    assert_same_bytes(ids, ref_ids)
    assert_same_bytes(lengths, ref_mask.sum(axis=1).astype(np.int64))
    assert_same_bytes(ref_mask, leading_ones(lengths, ids.shape[1]))
