import json
import math
import platform
import struct

import numpy as np
import pytest

import encoder_reference
from conftest import random_encodings
from scalar_reference import forward_scalar
from stancewatch.encoder import (
    CHECKPOINT_MAGIC,
    EncoderConfig,
    backward_from_logits,
    bucket_len,
    collate,
    forward,
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
from stancewatch.tokenizer import Encoding


def tensors_as_lists(params):
    return {name: arr.tolist() for name, arr in params.tensors.items()}


def scalar_config(config: EncoderConfig) -> dict:
    return {
        "d_model": config.d_model,
        "n_heads": config.n_heads,
        "n_layers": config.n_layers,
        "layer_norm_eps": config.layer_norm_eps,
    }


class TestConfig:
    def test_d_ff_default(self):
        cfg = EncoderConfig(vocab_size=10, d_model=8, n_heads=2)
        assert cfg.d_ff == 32

    def test_head_divisibility(self):
        with pytest.raises(DataValidationError, match="divide"):
            EncoderConfig(vocab_size=10, d_model=10, n_heads=3)

    def test_n_classes_pinned(self):
        with pytest.raises(DataValidationError):
            EncoderConfig(vocab_size=10, d_model=8, n_heads=2, n_classes=5)

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
        ids, mask = collate(random_encodings(rng, 2, tiny_config), tiny_config)
        _, cache = forward_with_cache(tiny_params, ids, mask, need_cache=True)
        grads = backward_from_logits(tiny_params, cache, np.ones((2, 4)))
        assert grads.spec == tiny_params.tensors.spec
        assert all(np.shares_memory(g, grads.flat) for g in grads.values())

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
                ids, mask = collate(batch, cfg)
                width = bucket_len(max(e.n_real for e in batch), cfg.max_len)
                assert ids.shape == mask.shape == (len(batch), width)
                np.testing.assert_array_equal(ids, [e.ids[:width] for e in batch])
                np.testing.assert_array_equal(mask, [e.mask[:width] for e in batch])

    def test_shapes_and_dtypes(self, tiny_config):
        rng = np.random.default_rng(0)
        batch = random_encodings(rng, 3, tiny_config)
        ids, mask = collate(batch, tiny_config)
        assert ids.shape == (3, 8) and mask.shape == (3, 8)
        assert ids.dtype == np.int64 and mask.dtype == np.float64

    def test_wrong_length_rejected(self, tiny_config):
        enc = Encoding((2, 3), (1, 1), 2)
        with pytest.raises(DataValidationError, match="max_len"):
            collate([enc], tiny_config)

    def test_out_of_range_id_rejected(self, tiny_config):
        ids = (2, 99, 3, 0, 0, 0, 0, 0)
        enc = Encoding(ids, (1, 1, 1, 0, 0, 0, 0, 0), 3)
        with pytest.raises(DataValidationError, match="out of range"):
            collate([enc], tiny_config)

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


class TestForward:
    def test_matches_scalar_reference(self, tiny_config, tiny_params):
        rng = np.random.default_rng(12)
        batch = random_encodings(rng, 4, tiny_config)
        logits = forward(tiny_params, batch)
        tensors = tensors_as_lists(tiny_params)
        for row, enc in enumerate(batch):
            want = forward_scalar(tensors, scalar_config(tiny_config), list(enc.ids), list(enc.mask))
            np.testing.assert_allclose(logits[row], want, rtol=0, atol=1e-10)

    def test_padding_does_not_leak(self, tiny_config, tiny_params):
        base = (2, 5, 9, 3)
        a = Encoding(base + (0, 0, 0, 0), (1, 1, 1, 1, 0, 0, 0, 0), 4)
        b = Encoding(base + (7, 11, 4, 6), (1, 1, 1, 1, 0, 0, 0, 0), 4)
        la = forward(tiny_params, [a])
        lb = forward(tiny_params, [b])
        np.testing.assert_allclose(la, lb, rtol=0, atol=1e-6)

    def test_batch_independence(self, tiny_config, tiny_params):
        rng = np.random.default_rng(5)
        batch = random_encodings(rng, 6, tiny_config)
        together = forward(tiny_params, batch)
        alone = np.vstack([forward(tiny_params, [enc]) for enc in batch])
        np.testing.assert_array_equal(together, alone)

    def test_trimmed_train_forward_matches_full_width(self):
        cfg = EncoderConfig(vocab_size=16, d_model=8, n_layers=2, n_heads=2, max_len=32)
        params = init_params(cfg, seed=7)
        batch = random_encodings(np.random.default_rng(6), 40, cfg)
        batch = [enc for enc in batch if enc.n_real <= 12][:5]
        ids, mask = collate(batch, cfg)
        assert ids.shape[1] == 16
        full_ids = np.array([enc.ids for enc in batch])
        full_mask = np.array([enc.mask for enc in batch], dtype=np.float64)
        for seed in (1, 2, 3):
            trimmed, _ = forward_with_cache(params, ids, mask, train_mode=True, dropout_seed=seed)
            full, _ = forward_with_cache(params, full_ids, full_mask, train_mode=True, dropout_seed=seed)
            np.testing.assert_allclose(trimmed, full, rtol=0, atol=1e-12)

    def test_train_mode_needs_seed(self, tiny_config, tiny_params):
        rng = np.random.default_rng(1)
        batch = random_encodings(rng, 2, tiny_config)
        with pytest.raises(DataValidationError, match="dropout seed"):
            forward(tiny_params, batch, train_mode=True)

    def test_dropout_seed_reproducible(self, tiny_config, tiny_params):
        rng = np.random.default_rng(2)
        batch = random_encodings(rng, 2, tiny_config)
        a = forward(tiny_params, batch, train_mode=True, dropout_seed=11)
        b = forward(tiny_params, batch, train_mode=True, dropout_seed=11)
        c = forward(tiny_params, batch, train_mode=True, dropout_seed=12)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_eval_mode_ignores_dropout(self, tiny_config, tiny_params):
        rng = np.random.default_rng(3)
        batch = random_encodings(rng, 2, tiny_config)
        a = forward(tiny_params, batch)
        b = forward(tiny_params, batch, train_mode=False, dropout_seed=99)
        np.testing.assert_array_equal(a, b)

    def test_zero_dropout_train_equals_eval(self):
        cfg = EncoderConfig(vocab_size=16, d_model=8, n_layers=1, n_heads=2, max_len=8, dropout_rate=0.0)
        params = init_params(cfg, seed=7)
        rng = np.random.default_rng(4)
        batch = random_encodings(rng, 2, cfg)
        a = forward(params, batch)
        b = forward(params, batch, train_mode=True, dropout_seed=1)
        np.testing.assert_array_equal(a, b)


def noisy_model_and_batch(width, n_layers, batch):
    """Parameters with noise on every tensor, and (ids, mask) of ``batch``
    rows ``width`` wide whose real lengths reach into the last 8 positions."""
    cfg = EncoderConfig(vocab_size=40, d_model=32, n_layers=n_layers, n_heads=4, max_len=64)
    params = init_params(cfg, seed=11)
    rng = np.random.default_rng(width + 10 * n_layers + 100 * batch)
    params.tensors.flat[:] += rng.normal(scale=0.05, size=params.tensors.flat.size)
    ids = rng.integers(1, cfg.vocab_size, size=(batch, width))
    mask = np.ones((batch, width))
    for row, n_real in enumerate(rng.integers(max(1, width - 7), width + 1, size=batch)):
        ids[row, n_real:], mask[row, n_real:] = 0, 0.0
    return params, ids, mask


class TestClsOnlyLastLayer:
    """The last layer computes queries, add-and-norms and the feed-forward
    for [CLS] only, over keys and values of every position, with a cache or
    without one."""

    @pytest.mark.parametrize("batch", [1, 5])
    @pytest.mark.parametrize("n_layers", [1, 2, 3])
    @pytest.mark.parametrize("width", [8, 24, 64])
    def test_matches_cached_pass(self, width, n_layers, batch):
        params, ids, mask = noisy_model_and_batch(width, n_layers, batch)
        cached, _ = forward_with_cache(params, ids, mask, need_cache=True)
        cls_only, cache = forward_with_cache(params, ids, mask)
        assert cache is None
        assert cls_only.tobytes() == cached.tobytes()

    @pytest.mark.parametrize("n_layers", [1, 2])
    @pytest.mark.parametrize("width", [8, 64])
    def test_train_mode_masks_line_up(self, width, n_layers):
        # The last layer's masks are drawn one position wide; each row then
        # skips to max_len, so [CLS] gets the values the full-width masks hold
        # and the logits match a full-width last layer's to rounding.
        params, ids, mask = noisy_model_and_batch(width, n_layers, 5)
        for seed in (1, 2):
            cached, _ = forward_with_cache(params, ids, mask, True, seed, need_cache=True)
            cls_only, _ = forward_with_cache(params, ids, mask, True, seed)
            assert cls_only.tobytes() == cached.tobytes()
            full_width, _ = encoder_reference.forward_with_cache(params, ids, mask, True, seed,
                                                                 cls_only=False)
            np.testing.assert_allclose(cls_only, full_width, rtol=0, atol=1e-14)
        other, _ = forward_with_cache(params, ids, mask, True, 3)
        assert not np.allclose(other, cached, rtol=0, atol=1e-6)

    @pytest.mark.parametrize("n_layers", [2, 3])
    def test_exact_batch_size_invariance(self, n_layers):
        params, ids, mask = noisy_model_and_batch(64, n_layers, 6)
        together, _ = forward_with_cache(params, ids, mask)
        alone = np.vstack([forward_with_cache(params, ids[r : r + 1], mask[r : r + 1])[0]
                           for r in range(len(ids))])
        np.testing.assert_array_equal(together, alone)


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
        a = predict_proba(forward(params, batch)).argmax(axis=1)
        b = predict_proba(forward(back, batch)).argmax(axis=1)
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
        p.write_bytes(CHECKPOINT_MAGIC + struct.pack("<II", 1, len(raw)) + raw)
        with pytest.raises(DataValidationError):
            load_checkpoint(p)
