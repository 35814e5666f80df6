import datetime as dt
import json
import math
import os
import threading
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import metrics_reference as reference
from conftest import batch_logits
from stancewatch import metrics
from stancewatch.corpus import Category, LabeledDataset, Tweet, split_dataset
from stancewatch.encoder import (
    EncoderConfig,
    bucket_len,
    collate,
    forward_with_cache,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from stancewatch.errors import DataValidationError, NumericalError
from stancewatch.metrics import (
    ConfusionMatrix,
    auc,
    confusion,
    evaluate,
    predict_batches,
    prf,
    roc_points,
    write_report,
    write_roc_csv,
)
from stancewatch.synth import generate_labeled
from stancewatch.tokenizer import SPECIAL_TOKENS, Vocabulary, build_vocab, encode
from stancewatch.trainer import TrainConfig, train

UTC = dt.timezone.utc


def mann_whitney_auc(scores, golds):
    """Brute-force pairwise statistic: P(pos > neg) + 0.5 P(pos == neg)."""
    pos = [s for s, g in zip(scores, golds) if g == 1]
    neg = [s for s, g in zip(scores, golds) if g == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


class TestConfusion:
    def test_rows_gold_cols_pred(self):
        cm = confusion(preds=[1, 1, 0], golds=[0, 1, 0])
        assert cm.counts[0, 1] == 1  # gold 0 predicted 1
        assert cm.counts[0, 0] == 1
        assert cm.counts[1, 1] == 1
        assert cm.total == 3
        assert cm.supports.tolist() == [2, 1, 0, 0]

    def test_length_mismatch(self):
        with pytest.raises(DataValidationError):
            confusion([0], [0, 1])

    def test_out_of_range(self):
        with pytest.raises(DataValidationError):
            confusion([4], [0])

    def test_empty(self):
        with pytest.raises(DataValidationError):
            confusion([], [])

    def test_negative_counts_rejected(self):
        bad = np.zeros((4, 4), dtype=np.int64)
        bad[0, 0] = -1
        with pytest.raises(DataValidationError):
            ConfusionMatrix(bad)


class TestPrf:
    def test_hand_worked_two_thirds(self):
        # class 0: tp=2, fp=1, fn=1 -> P=2/3, R=2/3, F1=2/3
        counts = np.zeros((4, 4), dtype=np.int64)
        counts[0, 0] = 2
        counts[0, 1] = 1  # fn for class 0
        counts[1, 0] = 1  # fp for class 0
        counts[1, 1] = 5
        result = prf(ConfusionMatrix(counts))
        assert abs(result.precision[0] - 2 / 3) < 1e-12
        assert abs(result.recall[0] - 2 / 3) < 1e-12
        assert abs(result.f1[0] - 2 / 3) < 1e-12

    def test_zero_denominators_give_zero(self):
        counts = np.zeros((4, 4), dtype=np.int64)
        counts[0, 0] = 3  # classes 1..3 never appear
        result = prf(ConfusionMatrix(counts))
        assert result.precision[2] == 0.0
        assert result.recall[2] == 0.0
        assert result.f1[2] == 0.0
        assert result.accuracy == 1.0
        assert result.macro_f1 == 0.25

    def test_weighted_f1_uses_support(self):
        counts = np.zeros((4, 4), dtype=np.int64)
        counts[0, 0] = 9  # perfect, support 9
        counts[1, 2] = 1  # wrong, support 1
        result = prf(ConfusionMatrix(counts))
        assert abs(result.weighted_f1 - 0.9) < 1e-12
        assert abs(result.macro_f1 - 0.25) < 1e-12
        assert abs(result.accuracy - 0.9) < 1e-12

    def test_perfect_prediction(self):
        counts = np.diag([3, 4, 5, 6]).astype(np.int64)
        result = prf(ConfusionMatrix(counts))
        assert result.macro_f1 == 1.0
        assert result.weighted_f1 == 1.0
        assert result.accuracy == 1.0


class TestRoc:
    def test_hand_worked_curve(self):
        # scores .9(+) .8(+) .7(-) .6(+) tie-free
        curve = roc_points([0.9, 0.8, 0.7, 0.6], [1, 1, 0, 1])
        assert curve.fprs == (0.0, 0.0, 0.0, 1.0, 1.0)
        assert curve.tprs == (0.0, 1 / 3, 2 / 3, 2 / 3, 1.0)

    def test_perfect_separation_auc_one(self):
        curve = roc_points([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])
        assert auc(curve) == 1.0

    def test_reversed_separation_auc_zero(self):
        curve = roc_points([0.1, 0.2, 0.8, 0.9], [1, 1, 0, 0])
        assert auc(curve) == 0.0

    def test_all_tied_auc_half(self):
        curve = roc_points([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0])
        assert curve.fprs == (0.0, 1.0)
        assert curve.tprs == (0.0, 1.0)
        assert auc(curve) == 0.5

    def test_hand_worked_tie_block(self):
        # pos at .8, tie block at .5 with one of each, neg at .2
        # AUC = MW: pairs (PN): (.8,.5)=1 (.8,.2)=1 (.5,.5)=.5 (.5,.2)=1 -> 3.5/4
        curve = roc_points([0.8, 0.5, 0.5, 0.2], [1, 1, 0, 0])
        assert abs(auc(curve) - 0.875) < 1e-15

    def test_single_class_rejected(self):
        with pytest.raises(DataValidationError, match="single class"):
            roc_points([0.5, 0.4], [1, 1])
        with pytest.raises(DataValidationError, match="single class"):
            roc_points([0.5, 0.4], [0, 0])

    def test_non_binary_golds_rejected(self):
        with pytest.raises(DataValidationError):
            roc_points([0.5, 0.4], [0, 2])

    def test_curve_monotone_and_anchored(self):
        rng = np.random.default_rng(3)
        scores = rng.random(50)
        golds = rng.integers(0, 2, 50)
        golds[0] = 1
        golds[1] = 0
        curve = roc_points(scores, golds)
        assert (curve.fprs[0], curve.tprs[0]) == (0.0, 0.0)
        assert (curve.fprs[-1], curve.tprs[-1]) == (1.0, 1.0)
        assert all(a <= b for a, b in zip(curve.fprs, curve.fprs[1:]))
        assert all(a <= b for a, b in zip(curve.tprs, curve.tprs[1:]))

    @given(st.data())
    def test_auc_equals_brute_force_mann_whitney(self, data):
        n = data.draw(st.integers(4, 30))
        # coarse grid forces plenty of ties
        scores = data.draw(
            st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]), min_size=n, max_size=n)
        )
        golds = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        if sum(golds) in (0, n):
            golds[0] = 1 - golds[0]
        got = auc(roc_points(scores, golds))
        want = mann_whitney_auc(scores, golds)
        assert abs(got - want) < 1e-12


def bits(values):
    """Exact identity of a float sequence: equal hex strings, -0.0 included."""
    return [float(v).hex() for v in values]


def assert_prf_equal(cm):
    got, want = prf(cm), reference.prf(cm.counts.tolist())
    for name in ("precision", "recall", "f1"):
        assert all(type(v) is float for v in getattr(got, name))
        assert bits(getattr(got, name)) == bits(want[name])
    for name in ("macro_f1", "weighted_f1", "accuracy"):
        assert bits([getattr(got, name)]) == bits([want[name]])


class TestMatchesLoopReference:
    """The array code returns exactly the loop reference's counts and floats."""

    @settings(max_examples=300)
    @given(st.data())
    def test_confusion_and_prf_equal(self, data):
        n = data.draw(st.integers(1, 60))
        # a narrow label range leaves classes unseen (zero denominators);
        # the occasional -1 or 4 must be refused with the reference's message
        labels = st.one_of(st.integers(0, 3), st.integers(0, 1), st.sampled_from([-1, 4]))
        preds = data.draw(st.lists(labels, min_size=n, max_size=n))
        golds = data.draw(st.lists(labels, min_size=n, max_size=n))
        try:
            want = reference.confusion(preds, golds)
        except ValueError as exc:
            with pytest.raises(DataValidationError) as got:
                confusion(preds, golds)
            assert str(got.value) == str(exc)
            return
        cm = confusion(np.array(preds), np.array(golds))
        assert cm.counts.tolist() == want
        assert confusion(preds, golds).counts.tolist() == want
        assert_prf_equal(cm)

    @settings(max_examples=300)
    @given(st.lists(st.integers(0, 1000), min_size=16, max_size=16))
    def test_prf_on_large_counts_equal(self, flat):
        flat[0] += 1  # at least one example
        assert_prf_equal(ConfusionMatrix(np.reshape(flat, (4, 4))))

    @settings(max_examples=300)
    @given(st.data())
    def test_roc_points_and_auc_equal(self, data):
        n = data.draw(st.integers(2, 80))
        # a coarse grid forces tie blocks; free floats give tie-free stretches
        grid = st.sampled_from([0.0, 0.1, 0.25, 1 / 3, 0.5, 2 / 3, 0.9, 1.0])
        scores = data.draw(st.lists(st.one_of(grid, st.floats(0, 1)), min_size=n, max_size=n))
        golds = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        if sum(golds) in (0, n):
            golds[0] = 1 - golds[0]
        curve = roc_points(scores, golds)
        want_fprs, want_tprs = reference.roc_points(scores, golds)
        assert bits(curve.fprs) == bits(want_fprs)
        assert bits(curve.tprs) == bits(want_tprs)
        assert bits([auc(curve)]) == bits([reference.auc(want_fprs, want_tprs)])


def make_testset():
    texts = {
        Category.NEWS: ["haber ajans bülten aşı", "gazete manşet aşı"],
        Category.IRRELEVANT: ["magazin dizi aşı", "futbol tatil aşı"],
        Category.ANTI_VACCINE: ["aşı karşıyım reddet", "aşı komplo zararlı"],
        Category.PRO_VACCINE: ["aşı yaptırdım randevu", "aşı bilim güvenli"],
    }
    tweets = []
    i = 0
    for cat, items in texts.items():
        for text in items:
            tweets.append(
                Tweet(
                    id=f"e{i}",
                    created_at=dt.datetime(2021, 7, 22, tzinfo=UTC) + dt.timedelta(minutes=i),
                    text=text,
                    gold_label=cat,
                )
            )
            i += 1
    return LabeledDataset(tuple(tweets))


@pytest.fixture(scope="module")
def eval_setup():
    testset = make_testset()
    vocab = build_vocab([t.text for t in testset.examples], max_size=300)
    cfg = EncoderConfig(vocab_size=len(vocab), d_model=8, n_layers=1, n_heads=2, max_len=12)
    params = init_params(cfg, seed=11, vocab_hash=vocab.content_hash())
    return params, vocab, testset


class TestEvaluate:
    def test_report_is_coherent(self, eval_setup):
        params, vocab, testset = eval_setup
        report = evaluate(params, vocab, testset)
        assert report.n_examples == 8
        assert report.confusion.total == 8
        assert report.confusion.supports.tolist() == [2, 2, 2, 2]
        assert 0.0 <= report.accuracy <= 1.0
        assert len(report.roc_curves) == 4
        for a in report.auc:
            assert 0.0 <= a <= 1.0

    def test_batch_size_does_not_change_results(self, eval_setup):
        params, vocab, testset = eval_setup
        r1 = evaluate(params, vocab, testset, batch_size=1)
        r8 = evaluate(params, vocab, testset, batch_size=8)
        np.testing.assert_array_equal(r1.confusion.counts, r8.confusion.counts)
        np.testing.assert_allclose(r1.auc, r8.auc, atol=1e-12)

    def test_predict_batches_concatenates(self, eval_setup):
        params, vocab, testset = eval_setup
        texts = [t.text for t in testset.examples]
        p3 = predict_batches(params, vocab, texts, batch_size=3)
        pall = predict_batches(params, vocab, texts, batch_size=100)
        assert p3.shape == (8, 4)
        np.testing.assert_allclose(p3, pall, atol=1e-12)
        np.testing.assert_allclose(p3.sum(axis=1), 1.0, atol=1e-12)

    def test_predict_batches_keeps_input_order_across_buckets(self, eval_setup):
        params, vocab, testset = eval_setup
        words = " ".join(t.text for t in testset.examples).split()
        # one word fits a width of 8, two need 12 (max_len): every chunk mixes both
        texts = [" ".join(words[i : i + 1 + i % 2]) for i in range(20)]
        widths = [bucket_len(encode(vocab, t, 12).n_real, 12) for t in texts]
        assert widths[:2] == [8, 12] and set(widths) == {8, 12}
        alone = np.vstack([predict_batches(params, vocab, [t], batch_size=1) for t in texts])
        for size in (3, 7, 64):
            np.testing.assert_array_equal(predict_batches(params, vocab, texts, size), alone)
        np.testing.assert_array_equal(predict_batches(params, vocab, texts[::-1], 64), alone[::-1])

    def test_predict_batches_empty(self, eval_setup):
        params, vocab, _ = eval_setup
        assert predict_batches(params, vocab, []).shape == (0, 4)

    def test_empty_testset_rejected(self, eval_setup):
        params, vocab, _ = eval_setup
        with pytest.raises(DataValidationError, match="empty"):
            evaluate(params, vocab, LabeledDataset(()))

    def test_write_report_round_trips(self, eval_setup, tmp_path):
        params, vocab, testset = eval_setup
        report = evaluate(params, vocab, testset)
        p = tmp_path / "eval_report.json"
        write_report(report, p)
        doc = json.loads(p.read_text(encoding="utf-8"))
        assert doc["n_examples"] == 8
        assert set(doc["per_class"]) == {"news", "irrelevant", "anti_vaccine", "pro_vaccine"}
        assert doc["per_class"]["news"]["support"] == 2
        assert doc["macro_f1"] == pytest.approx(report.macro_f1)
        rows = doc["confusion_rows_gold_cols_pred"]
        assert len(rows) == 4 and all(len(r) == 4 for r in rows)

    def test_write_roc_csv(self, eval_setup, tmp_path):
        params, vocab, testset = eval_setup
        report = evaluate(params, vocab, testset)
        path = tmp_path / "roc_news.csv"
        write_roc_csv(report.roc_curves[0], path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "fpr,tpr"
        assert lines[1] == "0.0000000000,0.0000000000"
        assert lines[-1] == "1.0000000000,1.0000000000"
        # area recomputed from the file matches the report
        pts = [tuple(map(float, ln.split(","))) for ln in lines[1:]]
        area = sum(
            (x1 - x0) * (y1 + y0) / 2 for (x0, y0), (x1, y1) in zip(pts, pts[1:])
        )
        assert math.isclose(area, report.auc[0], abs_tol=1e-9)


@pytest.fixture(scope="module")
def default_size_setup():
    """The default model size (d 128, 2 layers) and texts of every real
    length from 2 ([CLS] [SEP] alone) to max_len, in a shuffled order."""
    letters = "abcdefghijklmnopqrstuvwxyz"
    vocab = Vocabulary(SPECIAL_TOKENS + tuple(letters))
    cfg = EncoderConfig(vocab_size=len(vocab), d_model=128, n_layers=2, n_heads=4, max_len=64)
    params = init_params(cfg, seed=5, vocab_hash=vocab.content_hash())
    rng = np.random.default_rng(5)
    texts = [" ".join(rng.choice(list(letters), k)) for k in rng.permutation(np.arange(300) % 66)]
    assert {encode(vocab, t, 64).n_real for t in texts} == set(range(2, 65))
    return params, vocab, texts


def pooled(monkeypatch, workers: int) -> None:
    """Send every forward to a pool of ``workers`` threads."""
    monkeypatch.setattr(metrics, "POOL_MIN_FFN_MACS", 0)
    monkeypatch.setattr(metrics, "forward_workers", lambda: workers)


class TestForwardPool:
    """predict_batches runs forwards on a thread pool; no byte may depend on it."""

    @pytest.fixture(scope="class")
    def inline(self, default_size_setup):
        params, vocab, texts = default_size_setup
        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(metrics, "forward_workers", lambda: 1)
            return {size: predict_batches(params, vocab, texts, size) for size in (1, 7, 64, 257)}

    @pytest.mark.parametrize("workers", [2, 3, 4])
    def test_pool_gives_the_inline_bytes(self, default_size_setup, inline, monkeypatch, workers):
        params, vocab, texts = default_size_setup
        pooled(monkeypatch, workers)
        for size, expected in inline.items():
            stats: dict = {}
            got = predict_batches(params, vocab, texts, size, stats)
            assert got.tobytes() == expected.tobytes()
            assert stats == {"threads": workers}
        assert inline[1].tobytes() == inline[257].tobytes()

    def test_workers_without_sched_getaffinity(self, default_size_setup, inline, monkeypatch):
        """macOS's os has no sched_getaffinity: every CPU counts, and at
        least one when the count is unknown; the bytes stay the same."""
        params, vocab, texts = default_size_setup
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert metrics.forward_workers() == 1
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert metrics.forward_workers() == 3
        monkeypatch.setattr(metrics, "POOL_MIN_FFN_MACS", 0)
        stats: dict = {}
        assert predict_batches(params, vocab, texts, 64, stats).tobytes() == inline[64].tobytes()
        assert stats == {"threads": 3}

    def test_small_forwards_and_one_cpu_run_inline(self, default_size_setup, monkeypatch):
        params, vocab, texts = default_size_setup
        seen = set()

        def forward(*args):
            seen.add(threading.current_thread() is threading.main_thread())
            return forward_with_cache(*args)

        monkeypatch.setattr(metrics, "forward_with_cache", forward)
        monkeypatch.setattr(metrics, "forward_workers", lambda: 2)
        # just above one text of max_len real ids through 2 layers of 128 x 512
        monkeypatch.setattr(metrics, "POOL_MIN_FFN_MACS", 64 * 2 * 128 * 512 + 1)
        stats: dict = {}
        predict_batches(params, vocab, texts, 1, stats)
        assert seen == {True} and stats == {"threads": 1}
        seen.clear()
        # some bucket's last forward of a window falls below the gate
        predict_batches(params, vocab, texts, 32, stats)
        assert seen == {True, False} and stats == {"threads": 2}
        seen.clear()
        pooled(monkeypatch, 1)
        predict_batches(params, vocab, texts, 64, stats)
        assert seen == {True} and stats == {"threads": 1}

    def test_worker_error_reaches_the_caller(self, default_size_setup, monkeypatch):
        params, vocab, texts = default_size_setup
        calls = []

        class Boom(RuntimeError):
            pass

        def forward(*args):
            calls.append(threading.current_thread() is threading.main_thread())
            if len(calls) == 5:
                raise Boom("forward failed")
            return forward_with_cache(*args)

        monkeypatch.setattr(metrics, "forward_with_cache", forward)
        pooled(monkeypatch, 3)
        threads = threading.active_count()
        with pytest.raises(Boom, match="forward failed"):
            predict_batches(params, vocab, texts, 7)
        assert threading.active_count() == threads
        assert not any(calls)

    def test_at_most_two_forwards_per_worker_in_flight(self, default_size_setup, monkeypatch):
        params, vocab, texts = default_size_setup
        workers, lock = 2, threading.Lock()
        counts = {"collated": 0, "finished": 0, "most": 0}

        def collate_and_count(*args):
            # Every batch collated before this one has been submitted or run.
            with lock:
                counts["most"] = max(counts["most"], counts["collated"] - counts["finished"])
                counts["collated"] += 1
            return collate(*args)

        def slow_forward(*args):
            time.sleep(0.01)
            result = forward_with_cache(*args)
            with lock:
                counts["finished"] += 1
            return result

        monkeypatch.setattr(metrics, "collate", collate_and_count)
        monkeypatch.setattr(metrics, "forward_with_cache", slow_forward)
        pooled(monkeypatch, workers)
        predict_batches(params, vocab, texts[:120], 4)
        assert counts["finished"] == counts["collated"] > 4 * workers
        # the queue filled past the workers, and never past twice their number
        assert workers < counts["most"] <= 2 * workers


class TestFloat32Inference:
    """predict_batches runs its forwards on the float32 weights a checkpoint
    stores, and refuses rows that are not finite."""

    def test_trained_params_and_their_checkpoint_give_the_same_bytes(self, tmp_path):
        split = split_dataset(LabeledDataset(tuple(generate_labeled(per_class=10, seed=3))), 0.7, 1)
        vocab = build_vocab([t.text for t in split.train.examples], 300)
        cfg = EncoderConfig(vocab_size=len(vocab), d_model=32, n_layers=2, n_heads=4, max_len=24)
        trace = train(split, vocab, cfg, TrainConfig(learning_rate=1e-3, epochs=2, batch_size=8))
        save_checkpoint(trace.params, tmp_path / "model.ckpt")
        back = load_checkpoint(tmp_path / "model.ckpt")
        # Training moved the weights off the float32 grid, so only the cast makes them equal.
        assert not np.array_equal(trace.params.tensors.flat, back.tensors.flat)
        texts = [t.text for t in split.test.examples]
        in_memory = predict_batches(trace.params, vocab, texts, 5)
        assert in_memory.tobytes() == predict_batches(back, vocab, texts, 5).tobytes()
        assert trace.params.tensors.flat.dtype == np.float64

    def test_first_non_finite_row_is_named(self, eval_setup, monkeypatch):
        params, vocab, testset = eval_setup
        calls = []

        def nan_in_calls_5_and_7(*args):
            calls.append(None)
            logits, cache = forward_with_cache(*args)
            return (logits * np.nan if len(calls) in (5, 7) else logits), cache

        monkeypatch.setattr(metrics, "forward_with_cache", nan_in_calls_5_and_7)
        texts = [t.text for t in testset.examples]
        with pytest.raises(NumericalError, match=r"input 4 \(counting from 0\) of 8"):
            predict_batches(params, vocab, texts, 1)
        assert len(calls) == 8

    @pytest.mark.parametrize("workers", [1, 2])
    def test_float32_overflow_raises_without_a_warning(self, default_size_setup, monkeypatch, workers):
        params, vocab, texts = default_size_setup
        big = replace(params, tensors=params.tensors.astype(np.float64))
        big.tensors["emb_ln_gain"][...] = 1e30
        with np.errstate(all="ignore"):
            # float64 holds this model's activations; float32 overflows them
            assert np.isfinite(batch_logits(big, [encode(vocab, texts[0], 64)])).all()
        pooled(monkeypatch, workers)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match=r"non-finite class probabilities for input 0 "):
                predict_batches(big, vocab, texts[:20], 7)
