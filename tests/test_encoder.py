import json
import math
import platform
import struct
import tracemalloc
import warnings
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import encoder_reference
import stancewatch.encoder as sw_encoder
from conftest import HOSTILE_JSON, JSON_VALUES, batch_logits, leading_ones, padded, random_encodings
from scalar_reference import forward_scalar
from stancewatch.encoder import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    HEAD_START,
    INIT_CLIP_SIGMAS,
    INIT_STD,
    LAYER_NORM_EPS,
    EncoderConfig,
    TensorBuffer,
    _Packing,
    backward_from_logits,
    bucket_len,
    collate,
    forward_with_cache,
    gelu_and_cdf,
    gelu_grad,
    init_params,
    load_checkpoint,
    predict_proba,
    save_checkpoint,
    tensor_shapes,
)
from stancewatch.errors import DataValidationError, InputPathError, NumericalError
from stancewatch.tokenizer import PAD_ID, Encoding


# Config keys of both checkpoint versions, or any text.
REMOVED_KEY = st.sampled_from(["d_ff", "n_classes", "layer_norm_eps"])
CONFIG_KEY = st.one_of(
    st.sampled_from(["vocab_size", "d_model", "n_layers", "n_heads", "max_len", "dropout_rate"]),
    REMOVED_KEY,
    st.text(max_size=6),
)
CONFIG_VALUE = st.one_of(st.integers(-2, 12), st.sampled_from([0.0, 0.1, 0.5, 1e-12, 2**40]), JSON_VALUES)
# Small model settings that load, and the same with a removed key beside them.
SMALL_CONFIG = st.fixed_dictionaries(
    {"vocab_size": st.integers(4, 12), "d_model": st.sampled_from([4, 8])},
    optional={"n_layers": st.integers(1, 2), "n_heads": st.sampled_from([1, 2, 4]),
              "max_len": st.integers(1, 4), "dropout_rate": st.sampled_from([0, 0.0, 0.5])},
)
HEADER_CONFIG = st.one_of(
    SMALL_CONFIG,
    st.builds(lambda config, key, value: {**config, key: value}, SMALL_CONFIG, REMOVED_KEY, CONFIG_VALUE),
    st.dictionaries(CONFIG_KEY, CONFIG_VALUE, max_size=9),
    JSON_VALUES,
)
FLOAT32_NAN = struct.pack("<f", float("nan"))


def tensors_as_lists(params):
    return {name: arr.tolist() for name, arr in params.tensors.items()}


def scalar_config(config: EncoderConfig) -> dict:
    return {
        "d_model": config.d_model,
        "n_heads": config.n_heads,
        "n_layers": config.n_layers,
        "layer_norm_eps": LAYER_NORM_EPS,
    }


class TestConfig:
    def test_d_ff_default(self):
        cfg = EncoderConfig(vocab_size=10, d_model=8, n_heads=2)
        assert cfg.d_ff == 32

    def test_head_divisibility(self):
        with pytest.raises(DataValidationError, match="divide"):
            EncoderConfig(vocab_size=10, d_model=10, n_heads=3)

    def test_dropout_range(self):
        with pytest.raises(DataValidationError):
            EncoderConfig(vocab_size=10, d_model=8, n_heads=2, dropout_rate=1.0)


class TestInit:
    def test_shapes_match_declaration(self, tiny_config, tiny_params):
        declared = dict(tensor_shapes(tiny_config))
        got = {name: arr.shape for name, arr in tiny_params.tensors.items()}
        assert got == declared

    def test_tensor_order_is_documented_order(self, tiny_config, tiny_params):
        names = [name for name, _ in tiny_params.tensors.items()]
        assert names == [name for name, _ in tensor_shapes(tiny_config)]
        assert names[:5] == ["tok_emb", "pos_emb", "seg_emb", "emb_ln_gain", "emb_ln_bias"]
        assert names[-4:] == ["pooler_w", "pooler_b", "classifier_w", "classifier_b"]

    def test_deterministic_per_seed(self, tiny_config):
        a = init_params(tiny_config, seed=3)
        b = init_params(tiny_config, seed=3)
        c = init_params(tiny_config, seed=4)
        assert all(np.array_equal(x, y) for (_, x), (_, y) in zip(a.tensors.items(), b.tensors.items()))
        assert not np.array_equal(a.tensors["tok_emb"], c.tensors["tok_emb"])

    def test_biases_zero_gains_one(self, tiny_params):
        for name, arr in tiny_params.tensors.items():
            if name.endswith(("_bias", ".bq", ".bk", ".bv", ".bo", ".b1", ".b2")) or name in (
                "pooler_b",
                "classifier_b",
            ):
                assert not arr.any(), name
            if name.endswith("_gain"):
                assert (arr == 1.0).all(), name

    def test_truncation_bound(self, tiny_config):
        params = init_params(tiny_config, seed=0)
        bound = 2.0 * 0.02 + 1e-12
        for name, arr in params.tensors.items():
            if name.endswith("_gain"):
                continue  # layer-norm gains start at 1 by design
            assert np.abs(arr).max() <= bound, name

    def test_weight_stddev_plausible(self):
        cfg = EncoderConfig(vocab_size=500, d_model=64, n_layers=1, n_heads=2, max_len=16)
        params = init_params(cfg, seed=1)
        sd = params.tensors["tok_emb"].std()
        # truncation at 2 sigma shrinks the sd a little below 0.02
        assert 0.015 < sd < 0.02

    def test_truncated_normal_by_redraw(self):
        """Every matrix lies within +-2 sigma, biases are 0 and gains 1, a
        seed gives the same bytes, and the million draws of ``tok_emb`` have
        the sd of the normal truncated at 2 sigma, 0.02 * 0.8796, within 1 %
        (the sample sd's own spread is about 0.06 %; clipping instead of
        redrawing would give 0.02 * 0.959)."""
        cfg = EncoderConfig(vocab_size=8000, d_model=128, n_layers=1, n_heads=2, max_len=16)
        params = init_params(cfg, seed=31)
        for name, arr in params.tensors.items():
            if arr.ndim == 2:
                assert np.abs(arr).max() <= INIT_CLIP_SIGMAS * INIT_STD, name
            elif name.endswith("_gain"):
                assert (arr == 1.0).all(), name
            else:
                assert not arr.any(), name
        assert params.tensors.flat.tobytes() == init_params(cfg, seed=31).tensors.flat.tobytes()
        a = INIT_CLIP_SIGMAS
        density = math.exp(-a * a / 2) / math.sqrt(2 * math.pi)
        factor = math.sqrt(1 - 2 * a * density / math.erf(a / math.sqrt(2)))
        assert round(factor, 4) == 0.8796
        assert abs(params.tensors["tok_emb"].std() / (INIT_STD * factor) - 1) < 0.01

    def test_float64(self, tiny_params):
        for name, arr in tiny_params.tensors.items():
            assert arr.dtype == np.float64, name

    def test_tensors_are_views_of_one_buffer(self, tiny_config, tiny_params):
        flat = tiny_params.tensors.flat
        assert flat.flags.c_contiguous and flat.ndim == 1
        start = 0
        for name, arr in tiny_params.tensors.items():
            assert arr.base is flat, name
            np.testing.assert_array_equal(arr.reshape(-1), flat[start : start + arr.size])
            start += arr.size
        assert start == flat.size
        # gradients use the same layout
        rng = np.random.default_rng(0)
        ids, lengths = collate(random_encodings(rng, 2, tiny_config), tiny_config)
        _, cache = forward_with_cache(tiny_params, ids, lengths, need_cache=True)
        grads = backward_from_logits(tiny_params, cache, np.ones((2, 4)))
        assert grads.spec == tiny_params.tensors.spec
        assert all(np.shares_memory(g, grads.flat) for g in grads.values())

    def test_reused_gradient_buffer_matches_a_fresh_one(self, tiny_config, tiny_params):
        """A backward into a buffer that holds another batch's gradients gives
        a fresh buffer's bytes: the embedding sums start from zero again."""
        rng = np.random.default_rng(3)
        batches = [collate(random_encodings(rng, n, tiny_config), tiny_config) for n in (5, 2)]
        dlogits = rng.normal(size=(5, 4))
        reused = tiny_params.tensors.zeros_like()
        for ids, lengths in batches:
            _, cache = forward_with_cache(tiny_params, ids, lengths, True, 1, need_cache=True)
            fresh = backward_from_logits(tiny_params, cache, dlogits[: len(ids)])
            # a cache serves one full backward
            _, cache = forward_with_cache(tiny_params, ids, lengths, True, 1, need_cache=True)
            assert backward_from_logits(tiny_params, cache, dlogits[: len(ids)], out=reused) is reused
            assert reused.flat.tobytes() == fresh.flat.tobytes()

    def test_a_cache_serves_one_full_backward(self, tiny_config, tiny_params):
        """The full backward frees each layer's arrays as it goes, so a
        second one on the same cache is refused, before it writes anything;
        a head-only backward, which reads only the head's inputs, still runs."""
        config = replace(tiny_config, n_layers=2)
        params = init_params(config, seed=7)
        ids, lengths = collate(random_encodings(np.random.default_rng(4), 3, config), config)
        dlogits = np.random.default_rng(5).normal(size=(3, 4))
        _, cache = forward_with_cache(params, ids, lengths, True, 1, need_cache=True)
        head = backward_from_logits(params, cache, dlogits, out=params.tensors.tail(HEAD_START).zeros_like())
        first = backward_from_logits(params, cache, dlogits)
        assert cache[1] == []
        again = params.tensors.zeros_like()
        with pytest.raises(DataValidationError, match="served a full backward already"):
            backward_from_logits(params, cache, dlogits, out=again)
        assert not again.flat.any()
        after = backward_from_logits(params, cache, dlogits, out=params.tensors.tail(HEAD_START).zeros_like())
        assert after.flat.tobytes() == head.flat.tobytes() == first.tail(HEAD_START).flat.tobytes()

    def test_layer_views_write_through_to_the_buffer(self, tiny_config):
        """Each layer's views are the named views themselves, for parameters,
        gradients and a ``zeros_like`` copy, so a write through one shows
        in ``flat``; the head's tail has no layer."""
        config = replace(tiny_config, n_layers=2)
        params = init_params(config, seed=7)
        ids, lengths = collate(random_encodings(np.random.default_rng(0), 2, config), config)
        _, cache = forward_with_cache(params, ids, lengths, need_cache=True)
        grads = backward_from_logits(params, cache, np.ones((2, 4)))
        for buffer in (params.tensors, grads, params.tensors.zeros_like()):
            assert len(buffer.layers) == config.n_layers
            for i, layer in enumerate(buffer.layers):
                assert list(layer) == ["wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo",
                                       "ln1_gain", "ln1_bias", "w1", "b1", "w2", "b2",
                                       "ln2_gain", "ln2_bias"], i
                for name, arr in layer.items():
                    assert arr is buffer[f"layer{i}.{name}"]
                    arr[...] = i + 2.0
                    assert (buffer[f"layer{i}.{name}"] == i + 2.0).all()
            starts = [list(buffer).index(f"layer{i}.wq") for i in range(config.n_layers)]
            offsets = np.cumsum([0] + [arr.size for arr in buffer.values()])
            for i, start in enumerate(starts):
                assert (buffer.flat[offsets[start]:offsets[start + 16]] == i + 2.0).all()
        assert params.tensors.tail(HEAD_START).layers == []

    def test_tail_is_a_slice_of_the_buffer(self, tiny_params):
        tail = tiny_params.tensors.tail("pooler_w")
        assert list(tail) == ["pooler_w", "pooler_b", "classifier_w", "classifier_b"]
        assert np.shares_memory(tail.flat, tiny_params.tensors.flat)
        k = tiny_params.tensors.flat.size - tail.flat.size
        assert tail.flat.ctypes.data == tiny_params.tensors.flat[k:].ctypes.data
        for name, arr in tail.items():
            assert arr.ctypes.data == tiny_params.tensors[name].ctypes.data, name


class TestBucketLen:
    def test_multiples_of_eight(self):
        assert [bucket_len(n, 64) for n in (1, 2, 8, 9, 16, 17, 63, 64)] == [8, 8, 8, 16, 16, 24, 64, 64]

    def test_capped_at_max_len(self):
        # 12 is not a multiple of 8: the last bucket is max_len itself
        assert [bucket_len(n, 12) for n in (1, 8, 9, 12)] == [8, 8, 12, 12]


class TestCollate:
    def test_trims_to_bucket_of_longest(self):
        cfg = EncoderConfig(vocab_size=16, d_model=8, n_layers=1, n_heads=2, max_len=40)
        rng = np.random.default_rng(3)
        encs = random_encodings(rng, 60, cfg)
        for size in (1, 2, 5):
            for start in range(0, len(encs), size):
                batch = encs[start : start + size]
                ids, lengths = collate(batch, cfg)
                width = bucket_len(max(e.n_real for e in batch), cfg.max_len)
                assert ids.shape == (len(batch), width)
                np.testing.assert_array_equal(lengths, [e.n_real for e in batch])
                full = [padded(e, cfg.max_len) for e in batch]
                np.testing.assert_array_equal(ids, [e_ids[:width] for e_ids, _ in full])
                np.testing.assert_array_equal(leading_ones(lengths, width),
                                              [e_mask[:width] for _, e_mask in full])

    def test_shapes_and_dtypes(self, tiny_config):
        rng = np.random.default_rng(0)
        batch = random_encodings(rng, 3, tiny_config)
        ids, lengths = collate(batch, tiny_config)
        assert ids.shape == (3, 8) and lengths.shape == (3,)
        assert ids.dtype == lengths.dtype == np.int64

    def test_lengths_are_the_real_token_counts(self):
        """Each row's length is its encoding's ``n_real``, as int64, and the
        lengths sum to the batch's real tokens: the count a tracer reads as
        the real-token share of a forward."""
        cfg = EncoderConfig(vocab_size=16, d_model=8, n_layers=1, n_heads=2, max_len=40)
        for seed in range(20):
            rng = np.random.default_rng(seed)
            batch = random_encodings(rng, int(rng.integers(1, 12)), cfg)
            ids, lengths = collate(batch, cfg)
            assert lengths.dtype == np.int64
            assert lengths.tolist() == [enc.n_real for enc in batch]
            assert lengths.sum() == sum(len(enc.ids) for enc in batch) == (ids != PAD_ID).sum()

    def test_wrong_length_rejected(self, tiny_config):
        longest = Encoding((2,) + (4,) * (tiny_config.max_len - 2) + (3,))
        collate([longest], tiny_config)
        too_long = Encoding(longest.ids[:-1] + (4, 3))
        with pytest.raises(DataValidationError, match="batch item 1: .* max_len 8"):
            collate([longest, too_long], tiny_config)

    def test_empty_encoding_rejected(self, tiny_config):
        for batch, item in (([Encoding(())], 0), ([Encoding((2, 3)), Encoding(())], 1)):
            with pytest.raises(DataValidationError, match=f"batch item {item}: encoding holds 0 ids"):
                collate(batch, tiny_config)

    def test_out_of_range_id_rejected(self, tiny_config):
        enc = Encoding((2, 99, 3))
        with pytest.raises(DataValidationError, match="token id 99 out of range"):
            collate([enc], tiny_config)

    def test_negative_id_rejected(self, tiny_config, tiny_params):
        # numpy indexing would read id -1 as the last embedding row, 15
        enc = Encoding((2, -1, 3))
        with pytest.raises(DataValidationError, match="token id -1 out of range"):
            collate([enc], tiny_config)
        with pytest.raises(DataValidationError, match="out of range"):
            batch_logits(tiny_params, [enc])

    def test_empty_batch_rejected(self, tiny_config):
        with pytest.raises(DataValidationError, match="empty"):
            collate([], tiny_config)


def gelu(x):
    return gelu_and_cdf(x)[0]


class TestGelu:
    def test_zero_and_symmetry(self):
        assert gelu(np.array(0.0)) == 0.0
        x = np.linspace(-4, 4, 33)
        # gelu(x) - gelu(-x) == x because Phi(x) + Phi(-x) = 1
        np.testing.assert_allclose(gelu(x) - gelu(-x), x, atol=1e-12)

    def test_known_value(self):
        # Phi(1) = 0.841344746...
        assert math.isclose(float(gelu(np.array(1.0))), 0.8413447460685429, rel_tol=1e-12)

    def test_grad_matches_finite_difference(self):
        x = np.linspace(-3, 3, 25)
        eps = 1e-6
        fd = (gelu(x + eps) - gelu(x - eps)) / (2 * eps)
        np.testing.assert_allclose(gelu_grad(x, gelu_and_cdf(x)[1]), fd, atol=1e-8)


def ulp_distance(got: np.ndarray, want: np.ndarray) -> np.ndarray:
    """How many float64 steps lie between same-signed values."""
    assert (np.signbit(got) == np.signbit(want)).all()
    return np.abs(np.abs(got).view(np.int64) - np.abs(want).view(np.int64))


# The float64 erf against math.erf; scipy's Cephes erf is 3 ulp from it too.
ERF_ULP_BOUND = 3


class TestCephesKernels:
    """The float64 erf against the standard library, without a numpy
    warning."""

    def erf(self, x):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return sw_encoder._erf(x)

    @pytest.mark.parametrize("points", ["grid", "normal"])
    def test_erf_within_3_ulp_of_math_erf(self, points):
        if points == "grid":
            x = np.linspace(-7.0, 7.0, 1_400_001)
        else:
            x = np.random.default_rng(29).normal(size=300_000)
        got = self.erf(x.reshape(-1, 1000) if points == "normal" else x).ravel()
        want = np.array([math.erf(v) for v in x])
        assert ulp_distance(got, want).max() <= ERF_ULP_BOUND

    def test_erf_special_values(self):
        tiny = np.finfo(np.float64).smallest_subnormal
        x = np.array([0.0, -0.0, tiny, -tiny, 1e-310, -1e-310, 6.0, -6.0, np.inf, -np.inf, 1e308, np.nan])
        got = self.erf(x)
        assert got[:2].tolist() == [0.0, 0.0] and np.signbit(got[:2]).tolist() == [False, True]
        want = np.array([math.erf(v) for v in x[2:6]])
        assert ulp_distance(got[2:6], want).max() <= ERF_ULP_BOUND
        assert got[6:11].tolist() == [1.0, -1.0, 1.0, -1.0, 1.0]
        assert np.isnan(got[11])


class TestForward:
    def test_matches_scalar_reference(self, tiny_config, tiny_params):
        rng = np.random.default_rng(12)
        batch = random_encodings(rng, 4, tiny_config)
        logits = batch_logits(tiny_params, batch)
        tensors = tensors_as_lists(tiny_params)
        for row, enc in enumerate(batch):
            ids, mask = padded(enc, tiny_config.max_len)
            want = forward_scalar(tensors, scalar_config(tiny_config), list(ids), list(mask))
            np.testing.assert_allclose(logits[row], want, rtol=0, atol=1e-10)

    def test_padding_does_not_leak(self, tiny_config, tiny_params):
        base = (2, 5, 9, 3)
        lengths = np.array([4])
        la, _ = forward_with_cache(tiny_params, np.array([base + (0, 0, 0, 0)]), lengths)
        lb, _ = forward_with_cache(tiny_params, np.array([base + (7, 11, 4, 6)]), lengths)
        np.testing.assert_allclose(la, lb, rtol=0, atol=1e-6)
        np.testing.assert_array_equal(batch_logits(tiny_params, [Encoding(base)]), la)

    def test_batch_independence(self, tiny_config, tiny_params):
        rng = np.random.default_rng(5)
        batch = random_encodings(rng, 6, tiny_config)
        together = batch_logits(tiny_params, batch)
        alone = np.vstack([batch_logits(tiny_params, [enc]) for enc in batch])
        np.testing.assert_array_equal(together, alone)

    def test_trimmed_train_forward_matches_full_width(self):
        cfg = EncoderConfig(vocab_size=16, d_model=8, n_layers=2, n_heads=2, max_len=32)
        params = init_params(cfg, seed=7)
        batch = random_encodings(np.random.default_rng(6), 40, cfg)
        batch = [enc for enc in batch if enc.n_real <= 12][:5]
        ids, lengths = collate(batch, cfg)
        assert ids.shape[1] == 16
        full_ids = np.array([padded(enc, cfg.max_len)[0] for enc in batch])
        for seed in (1, 2, 3):
            trimmed, _ = forward_with_cache(params, ids, lengths, train_mode=True, dropout_seed=seed)
            full, _ = forward_with_cache(params, full_ids, lengths, train_mode=True, dropout_seed=seed)
            np.testing.assert_allclose(trimmed, full, rtol=0, atol=1e-12)

    def test_train_mode_needs_seed(self, tiny_config, tiny_params):
        rng = np.random.default_rng(1)
        batch = random_encodings(rng, 2, tiny_config)
        with pytest.raises(DataValidationError, match="dropout seed"):
            batch_logits(tiny_params, batch, train_mode=True)

    def test_dropout_seed_reproducible(self, tiny_config, tiny_params):
        rng = np.random.default_rng(2)
        batch = random_encodings(rng, 2, tiny_config)
        a = batch_logits(tiny_params, batch, train_mode=True, dropout_seed=11)
        b = batch_logits(tiny_params, batch, train_mode=True, dropout_seed=11)
        c = batch_logits(tiny_params, batch, train_mode=True, dropout_seed=12)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_eval_mode_ignores_dropout(self, tiny_config, tiny_params):
        rng = np.random.default_rng(3)
        batch = random_encodings(rng, 2, tiny_config)
        a = batch_logits(tiny_params, batch)
        b = batch_logits(tiny_params, batch, train_mode=False, dropout_seed=99)
        np.testing.assert_array_equal(a, b)

    def test_zero_dropout_train_equals_eval(self):
        cfg = EncoderConfig(vocab_size=16, d_model=8, n_layers=1, n_heads=2, max_len=8, dropout_rate=0.0)
        params = init_params(cfg, seed=7)
        rng = np.random.default_rng(4)
        batch = random_encodings(rng, 2, cfg)
        a = batch_logits(params, batch)
        b = batch_logits(params, batch, train_mode=True, dropout_seed=1)
        np.testing.assert_array_equal(a, b)


def noisy_model_and_batch(width, n_layers, batch):
    """Parameters with noise on every tensor, and (ids, lengths) of ``batch``
    rows ``width`` wide whose real lengths reach into the last 8 positions."""
    cfg = EncoderConfig(vocab_size=40, d_model=32, n_layers=n_layers, n_heads=4, max_len=64)
    params = init_params(cfg, seed=11)
    rng = np.random.default_rng(width + 10 * n_layers + 100 * batch)
    params.tensors.flat[:] += rng.normal(scale=0.05, size=params.tensors.flat.size)
    ids = rng.integers(1, cfg.vocab_size, size=(batch, width))
    lengths = rng.integers(max(1, width - 7), width + 1, size=batch)
    for row, n_real in enumerate(lengths):
        ids[row, n_real:] = 0
    return params, ids, lengths


class TestClsOnlyLastLayer:
    """The last layer computes queries, add-and-norms and the feed-forward
    for [CLS] only, over keys and values of every position, with a cache or
    without one."""

    @pytest.mark.parametrize("batch", [1, 5])
    @pytest.mark.parametrize("n_layers", [1, 2, 3])
    @pytest.mark.parametrize("width", [8, 24, 64])
    def test_matches_cached_pass(self, width, n_layers, batch):
        params, ids, lengths = noisy_model_and_batch(width, n_layers, batch)
        cached, _ = forward_with_cache(params, ids, lengths, need_cache=True)
        cls_only, cache = forward_with_cache(params, ids, lengths)
        assert cache[:2] == (None, None)
        assert cls_only.tobytes() == cached.tobytes()

    @pytest.mark.parametrize("n_layers", [1, 2])
    @pytest.mark.parametrize("width", [8, 64])
    def test_train_mode_masks_line_up(self, width, n_layers):
        # The last layer's masks are drawn one position wide; each row then
        # skips to max_len, so [CLS] gets the values the full-width masks hold
        # and the logits match a full-width last layer's to rounding.
        params, ids, lengths = noisy_model_and_batch(width, n_layers, 5)
        for seed in (1, 2):
            cached, _ = forward_with_cache(params, ids, lengths, True, seed, need_cache=True)
            cls_only, _ = forward_with_cache(params, ids, lengths, True, seed)
            assert cls_only.tobytes() == cached.tobytes()
            full_width, _ = encoder_reference.forward_with_cache(
                params, ids, leading_ones(lengths, width), True, seed, cls_only=False)
            np.testing.assert_allclose(cls_only, full_width, rtol=0, atol=1e-14)
        other, _ = forward_with_cache(params, ids, lengths, True, 3)
        assert not np.allclose(other, cached, rtol=0, atol=1e-6)

    @pytest.mark.parametrize("n_layers", [2, 3])
    def test_exact_batch_size_invariance(self, n_layers):
        params, ids, lengths = noisy_model_and_batch(64, n_layers, 6)
        together, _ = forward_with_cache(params, ids, lengths)
        alone = np.vstack([forward_with_cache(params, ids[r : r + 1], lengths[r : r + 1])[0]
                           for r in range(len(ids))])
        np.testing.assert_array_equal(together, alone)


def default_size_model():
    """The default model's sizes (d_model 128, d_ff 512, 2 layers, max_len
    64), noise on every tensor, and 64 encodings: a lone short one first,
    then 63 whose lengths span the buckets 8 to 64."""
    cfg = EncoderConfig(vocab_size=300, d_model=128, n_layers=2, n_heads=4, max_len=64)
    params = init_params(cfg, seed=5)
    rng = np.random.default_rng(7)
    params.tensors.flat[:] += rng.normal(scale=0.05, size=params.tensors.flat.size)
    lengths = [5, *rng.integers(1, cfg.max_len + 1, size=63)]
    encs = [Encoding((2, *(int(i) for i in rng.integers(4, cfg.vocab_size, max(0, n - 2))), 3)[:n])
            for n in lengths]
    return cfg, params, encs, rng


def bucketed_logits(params, batch, need_cache):
    """Logits of each encoding, one forward per length bucket, as
    ``predict_batches`` groups them."""
    out = np.empty((len(batch), 4))
    groups: dict[int, list[int]] = {}
    for i, enc in enumerate(batch):
        groups.setdefault(bucket_len(enc.n_real, params.config.max_len), []).append(i)
    for rows in groups.values():
        ids, lengths = collate([batch[i] for i in rows], params.config)
        out[rows] = forward_with_cache(params, ids, lengths, need_cache=need_cache)[0]
    return out


class TestPackedRows:
    """Row-wise work runs on the real rows only, packed and cut into 8-row
    tiles, so a row's logits do not depend on its batch and padding is
    never read."""

    @pytest.mark.parametrize("need_cache", [False, True])
    def test_exact_batch_size_invariance_at_default_size(self, need_cache):
        # At d_ff 512 the FFN's down-projection has K = 512, where a single
        # (n, 512) @ (512, 128) product rounds a row by the row count n.
        cfg, params, encs, rng = default_size_model()
        assert {bucket_len(e.n_real, cfg.max_len) for e in encs} == set(range(8, 65, 8))
        together = bucketed_logits(params, encs, need_cache)
        assert bucketed_logits(params, encs[:1], need_cache).tobytes() == together[:1].tobytes()
        full = [Encoding((2, *(int(i) for i in rng.integers(4, cfg.vocab_size, 62)), 3)) for _ in range(8)]
        unpadded = bucketed_logits(params, full, need_cache)
        assert unpadded.tobytes() == bucketed_logits(params, encs[1:] + full, need_cache)[-8:].tobytes()
        for row, enc in enumerate(encs):
            assert bucketed_logits(params, [enc], need_cache).tobytes() == together[row].tobytes(), row

    @pytest.mark.parametrize("train_mode", [False, True])
    @pytest.mark.parametrize("lengths", [[3, 8, 1, 6, 8], [8, 7], [24, 24, 23]])
    def test_padding_is_never_read(self, train_mode, lengths):
        """Garbage ids at padded positions, out of the vocabulary too, give
        byte-identical logits and gradients. The lengths include batches one
        real position short of filling their grid."""
        params, _, _ = noisy_model_and_batch(8, 2, 1)
        cfg = params.config
        width = bucket_len(max(lengths), cfg.max_len)
        rng = np.random.default_rng(sum(lengths))
        real = np.arange(width) < np.array(lengths)[:, None]
        ids = np.where(real, rng.integers(1, cfg.vocab_size, size=real.shape), 0)
        garbage = np.where(real, ids, rng.choice([-1, 3, cfg.vocab_size, 10**9], size=real.shape))
        seed = 4 if train_mode else None
        dlogits = rng.normal(size=(len(lengths), 4))
        results = []
        for batch_ids in (ids, garbage):
            logits, cache = forward_with_cache(params, batch_ids, np.array(lengths), train_mode, seed,
                                               need_cache=True)
            results.append((logits, backward_from_logits(params, cache, dlogits)))
        (logits, grads), (garbage_logits, garbage_grads) = results
        assert garbage_logits.tobytes() == logits.tobytes()
        assert garbage_grads.flat.tobytes() == grads.flat.tobytes()

    @pytest.mark.parametrize("width, lengths", [(8, [3, 8, 1, 6, 8]), (64, [64] * 4), (8, [8, 7]),
                                                (1, [1] * 5), (24, [24, 24, 23])])
    @pytest.mark.parametrize("bias", [False, True])
    def test_unpack_product_matches_scatter(self, width, lengths, bias):
        """The gather through a zero row gives the bytes of scattering the
        product's real rows into a zero grid, the form it replaced."""
        rng = np.random.default_rng(width + len(lengths))
        packing = _Packing(np.array(lengths), width)
        x = packing.pad(rng.normal(size=(packing.n_real, 16)))
        w, b = rng.normal(size=(16, 24)), rng.normal(size=24) if bias else None
        product = (x.reshape(-1, 8, 16) @ w).reshape(len(x), 24)
        if bias:
            product = product + b
        want = np.zeros((len(lengths) * width, 24))
        want[packing.index] = product[: packing.n_real]
        got = packing.unpack_product(x, w, b)
        assert got.shape == (len(lengths), width, 24)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("ids_shape, lengths", [
        ((2, 4), np.array([[2, 3]])),
        ((2, 4), np.array([2])),
        ((2, 4), np.array([2, 0])),
        ((2, 4), np.array([2, 5])),
        ((2, 4), np.array([2.0, 3.0])),
        ((0, 4), np.array([], dtype=np.int64)),
    ], ids=["wrong-shape", "too-few", "zero", "past-T", "float", "empty-batch"])
    def test_lengths_must_be_one_to_T_per_row(self, tiny_params, ids_shape, lengths):
        with pytest.raises(DataValidationError, match="lengths must hold one integer from 1 to 4"):
            forward_with_cache(tiny_params, np.full(ids_shape, 5), lengths)


class TestHeadOnlyCache:
    """Without ``need_cache`` the cache holds only the head's inputs: enough
    for a backward into a head-sized buffer, and refused by a full one."""

    def test_head_only_backward_needs_no_layer_cache(self, tiny_config, tiny_params):
        ids, lengths = collate(random_encodings(np.random.default_rng(9), 3, tiny_config), tiny_config)
        dlogits = np.random.default_rng(1).normal(size=(3, 4))
        _, full_cache = forward_with_cache(tiny_params, ids, lengths, True, 2, need_cache=True)
        _, head_cache = forward_with_cache(tiny_params, ids, lengths, True, 2)
        assert head_cache[:2] == (None, None)
        assert [a.shape for a in head_cache[2]] == [(3, 1, 8), (3, 8)]
        head = tiny_params.tensors.tail(HEAD_START)
        want = backward_from_logits(tiny_params, full_cache, dlogits, out=head.zeros_like())
        got = backward_from_logits(tiny_params, head_cache, dlogits, out=head.zeros_like())
        assert got.spec == head.spec
        assert got.flat.tobytes() == want.flat.tobytes()
        with pytest.raises(DataValidationError, match="need_cache"):
            backward_from_logits(tiny_params, head_cache, dlogits)

    @pytest.mark.parametrize("layout", [
        lambda params: params.tensors.tail("classifier_w").spec,
        lambda params: params.tensors.tail("layer0.wq").spec,
        lambda params: params.tensors.tail("pos_emb").spec,
        lambda params: params.tensors.spec[:-1],
        lambda params: tensor_shapes(replace(params.config, vocab_size=params.config.vocab_size + 1)),
    ], ids=["classifier", "from-a-layer", "from-pos-emb", "truncated", "other-model"])
    def test_other_buffer_layouts_are_refused(self, tiny_config, tiny_params, layout):
        ids, lengths = collate(random_encodings(np.random.default_rng(9), 3, tiny_config), tiny_config)
        _, cache = forward_with_cache(tiny_params, ids, lengths, need_cache=True)
        out = TensorBuffer(layout(tiny_params))
        with pytest.raises(DataValidationError, match="whole layout or the head's tail"):
            backward_from_logits(tiny_params, cache, np.ones((3, 4)), out=out)
        assert not out.flat.any()


def float_arrays(obj, path="cache"):
    """(path, array) for every floating-point array in a nested cache tuple."""
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind == "f":
            yield path, obj
    elif isinstance(obj, (tuple, list)):
        for i, item in enumerate(obj):
            yield from float_arrays(item, f"{path}[{i}]")


class TestFloat32Forward:
    """A forward on float32 parameters computes in float32 throughout."""

    @pytest.mark.parametrize("n_layers", [1, 2])
    def test_creates_no_float64_array(self, n_layers):
        params, ids, lengths = noisy_model_and_batch(24, n_layers, 5)
        f32 = replace(params, tensors=params.tensors.astype(np.float32))
        logits, cache = forward_with_cache(f32, ids, lengths, need_cache=True)
        assert logits.dtype == np.float32
        arrays = list(float_arrays(cache))
        assert len(arrays) > 10 * n_layers
        assert [path for path, arr in arrays if arr.dtype != np.float32] == []


class TestPredictProba:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(10, 4)) * 30
        p = predict_proba(logits)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)
        assert (p > 0).all()

    def test_overflow_safe(self):
        p = predict_proba(np.array([[1000.0, 0.0, -1000.0, 500.0]]))
        assert np.isfinite(p).all()
        assert p[0, 0] == pytest.approx(1.0)


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="sets glibc malloc thresholds")
def test_freed_batch_arrays_stay_mapped():
    """Arrays a batch frees are reused by the next batch, not handed back to
    the kernel and faulted in again (glibc's default thresholds trim them:
    about 16k page faults over these ten batches)."""
    import resource

    def batch():
        arrays = [np.ones(3 << 17) for _ in range(3)]  # three 3 MB arrays
        del arrays

    batch()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(10):
        batch()
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 1000


class TestCheckpoint:
    def test_round_trip(self, tiny_config, tmp_path):
        params = init_params(tiny_config, seed=9, vocab_hash="cafe")
        p = tmp_path / "m.ckpt"
        save_checkpoint(params, p)
        back = load_checkpoint(p)
        assert back.config == tiny_config
        assert back.vocab_hash == "cafe"
        assert back.init_seed == 9
        for (na, a), (nb, b) in zip(params.tensors.items(), back.tensors.items()):
            assert na == nb
            # storage is float32, so round-tripped values match at that precision
            np.testing.assert_array_equal(a.astype(np.float32).astype(np.float64), b)

    def test_round_trip_preserves_predictions(self, tiny_config, tmp_path):
        params = init_params(tiny_config, seed=9)
        p = tmp_path / "m.ckpt"
        save_checkpoint(params, p)
        back = load_checkpoint(p)
        rng = np.random.default_rng(8)
        batch = random_encodings(rng, 4, tiny_config)
        a = predict_proba(batch_logits(params, batch)).argmax(axis=1)
        b = predict_proba(batch_logits(back, batch)).argmax(axis=1)
        np.testing.assert_array_equal(a, b)

    def test_save_is_deterministic(self, tiny_config, tmp_path):
        params = init_params(tiny_config, seed=9, vocab_hash="cafe")
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(params, p1)
        save_checkpoint(params, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "m.ckpt"
        p.write_bytes(b"NOTCKPTxxxx")
        with pytest.raises(DataValidationError, match="magic"):
            load_checkpoint(p)

    def test_truncated(self, tiny_config, tmp_path):
        params = init_params(tiny_config, seed=9)
        p = tmp_path / "m.ckpt"
        save_checkpoint(params, p)
        blob = p.read_bytes()
        p.write_bytes(blob[: len(blob) - 10])
        with pytest.raises(DataValidationError, match="truncated"):
            load_checkpoint(p)

    def test_trailing_bytes(self, tiny_config, tmp_path):
        params = init_params(tiny_config, seed=9)
        p = tmp_path / "m.ckpt"
        save_checkpoint(params, p)
        p.write_bytes(p.read_bytes() + b"\x00\x00")
        with pytest.raises(DataValidationError, match="trailing"):
            load_checkpoint(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputPathError):
            load_checkpoint(tmp_path / "none.ckpt")

    def test_corrupt_header(self, tiny_config, tmp_path):
        params = init_params(tiny_config, seed=9)
        p = tmp_path / "m.ckpt"
        save_checkpoint(params, p)
        blob = bytearray(p.read_bytes())
        blob[14] = 0xFF  # inside the JSON header
        p.write_bytes(bytes(blob))
        with pytest.raises(DataValidationError):
            load_checkpoint(p)

    def test_round_trip_shares_one_buffer(self, tiny_config, tmp_path):
        p = tmp_path / "m.ckpt"
        save_checkpoint(init_params(tiny_config, seed=9), p)
        back = load_checkpoint(p)
        assert all(np.shares_memory(arr, back.tensors.flat) for arr in back.tensors.values())

    def test_nonfinite_weight_rejected(self, tiny_config, tmp_path):
        params = init_params(tiny_config, seed=9)
        p = tmp_path / "m.ckpt"
        save_checkpoint(params, p)
        # The buffer ends the file; overwrite the float32 of pooler_w[1, 2].
        from_end = params.tensors.tail("pooler_w").flat.size - (tiny_config.d_model + 2)
        blob = bytearray(p.read_bytes())
        at = len(blob) - 4 * from_end
        blob[at : at + 4] = struct.pack("<f", np.inf)
        p.write_bytes(bytes(blob))
        with pytest.raises(NumericalError, match="pooler_w"):
            load_checkpoint(p)

    @pytest.mark.parametrize("value", [np.nan, 1e300])
    def test_save_refuses_weight_not_finite_in_float32(self, tiny_config, tmp_path, value):
        params = init_params(tiny_config, seed=9)
        params.tensors["pooler_w"][1, 2] = value
        p = tmp_path / "m.ckpt"
        with pytest.raises(NumericalError, match="float32 in tensor pooler_w"):
            save_checkpoint(params, p)
        assert not p.exists()

    def test_header_claiming_many_layers_is_refused_before_listing_them(self, tiny_config, tmp_path):
        """The byte count comes from one layer's shapes times ``n_layers``:
        10**9 layers are refused as truncated without a spec entry built
        for any of them."""
        header = json.dumps({"config": {**asdict(tiny_config), "n_layers": 10**9}}).encode("utf-8")
        p = tmp_path / "m.ckpt"
        p.write_bytes(CHECKPOINT_MAGIC + struct.pack("<II", CHECKPOINT_VERSION, len(header)) + header + bytes(200))
        tracemalloc.start()
        try:
            with pytest.raises(DataValidationError, match="truncated"):
                load_checkpoint(p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak

    @pytest.mark.parametrize("kind", sorted(HOSTILE_JSON))
    def test_header_json_refuses_without_a_decode_error(self, tmp_path, kind):
        raw = HOSTILE_JSON[kind].encode("utf-8")
        p = tmp_path / "m.ckpt"
        p.write_bytes(CHECKPOINT_MAGIC + struct.pack("<II", CHECKPOINT_VERSION, len(raw)) + raw)
        with pytest.raises(DataValidationError, match="corrupt checkpoint header"):
            load_checkpoint(p)

    def test_short_file(self, tmp_path):
        p = tmp_path / "m.ckpt"
        p.write_bytes(CHECKPOINT_MAGIC + b"\x01\x00")
        with pytest.raises(DataValidationError, match="truncated"):
            load_checkpoint(p)

    @pytest.mark.parametrize(
        "header",
        [
            [],
            {"vocab_hash": None},
            {"config": "d_model=8"},
            {"config": {"vocab_size": 16, "d_modl": 8}},
            {"config": {"d_model": 8}},
            {"config": {"vocab_size": "16"}},
            {"config": {"vocab_size": 16.5}},
            {"config": {"vocab_size": 16, "layer_norm_eps": "tiny"}},
            {"config": {"vocab_size": 16}, "vocab_hash": 7},
        ],
    )
    def test_bad_header_rejected(self, tmp_path, header):
        raw = json.dumps(header).encode("utf-8")
        p = tmp_path / "m.ckpt"
        p.write_bytes(CHECKPOINT_MAGIC + struct.pack("<II", CHECKPOINT_VERSION, len(raw)) + raw)
        with pytest.raises(DataValidationError):
            load_checkpoint(p)

    def test_header_holds_only_the_settings(self, tiny_config, tmp_path):
        """Version 2: the header's config is EncoderConfig's six fields; the
        feed-forward width, class count and LayerNorm epsilon are constants."""
        p = tmp_path / "m.ckpt"
        save_checkpoint(init_params(tiny_config, seed=9), p)
        blob = p.read_bytes()
        version, hlen = struct.unpack_from("<II", blob, len(CHECKPOINT_MAGIC))
        header = json.loads(blob[len(CHECKPOINT_MAGIC) + 8 : len(CHECKPOINT_MAGIC) + 8 + hlen])
        assert version == CHECKPOINT_VERSION == 2
        assert sorted(header["config"]) == sorted(asdict(tiny_config)) == sorted(
            ["vocab_size", "d_model", "n_layers", "n_heads", "max_len", "dropout_rate"])

    @settings(max_examples=400, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        header=st.one_of(
            JSON_VALUES,
            st.fixed_dictionaries(
                {"config": HEADER_CONFIG},
                optional={"vocab_hash": JSON_VALUES, "init_seed": JSON_VALUES},
            ),
            st.binary(max_size=24),
            st.sampled_from(sorted(HOSTILE_JSON.values())).map(str.encode),
        ),
        hlen_shift=st.one_of(st.just(0), st.integers(-4, 4)),
        body_shift=st.one_of(st.just(0), st.integers(-8, 8)),
        fill=st.sampled_from([b"\x00\x00\x80\x3f", FLOAT32_NAN, b"\x01"]),
    )
    def test_any_header_loads_or_is_refused(self, tmp_path, header, hlen_shift, body_shift, fill):
        """Any JSON header, including one that sets the removed keys, or any
        bytes: load_checkpoint returns what the header says, or raises one
        of the errors the CLI turns into an exit code, NumericalError
        (exit 4) only for a NaN weight. A header whose config the model
        accepts gets a body of about its size, so some files load."""
        raw = header if isinstance(header, bytes) else json.dumps(header).encode("utf-8")
        size = 0
        config = header.get("config") if isinstance(header, dict) else None
        if isinstance(config, dict):
            try:
                size = 4 * sw_encoder._value_count(EncoderConfig(**config))
            except (TypeError, DataValidationError):
                pass
        body = (fill * (size // len(fill) + 4))[: max(0, size + body_shift)] if size < 1 << 16 else b""
        p = tmp_path / "fuzz.ckpt"
        p.write_bytes(CHECKPOINT_MAGIC + struct.pack("<II", CHECKPOINT_VERSION, max(0, len(raw) + hlen_shift)) + raw + body)
        try:
            params = load_checkpoint(p)
        except (DataValidationError, InputPathError):
            return
        except NumericalError:
            assert fill == FLOAT32_NAN
            return
        assert params.tensors.flat.size * 4 == len(body)
        assert params.config == EncoderConfig(**header["config"])
        assert (params.vocab_hash, params.init_seed) == (header.get("vocab_hash"), header.get("init_seed"))
        assert isinstance(params.vocab_hash, (str, type(None))) and isinstance(params.init_seed, (int, type(None)))

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.integers(0, 2**32 - 1).filter(lambda v: v != CHECKPOINT_VERSION))
    def test_any_other_version_is_refused(self, tiny_config, tmp_path, version):
        """A whole, valid file under any other version number is refused by
        that number alone."""
        p = tmp_path / "m.ckpt"
        save_checkpoint(init_params(tiny_config, seed=9), p)
        blob = bytearray(p.read_bytes())
        struct.pack_into("<I", blob, len(CHECKPOINT_MAGIC), version)
        p.write_bytes(bytes(blob))
        with pytest.raises(DataValidationError, match=f"^unsupported checkpoint version {version}$"):
            load_checkpoint(p)
