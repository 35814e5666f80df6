"""Acceptance suite: one test per shipping criterion.

Each test wraps its assertions in ``conftest.criterion`` so the terminal
summary prints one PASS/FAIL line per criterion. Expected values are
recomputed through routes independent of the library code under test:
an unbatched pure-Python forward pass, high-order finite differences,
brute-force pair counting, and hand-worked arithmetic.

The training and scale criteria run real workloads and take a couple of
minutes; everything else is fast.
"""

import datetime as dt
import json
import random
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
from click.testing import CliRunner

from conftest import TINY, batch_logits, criterion, padded, random_encodings
from scalar_reference import forward_scalar

from stancewatch.cli import main
from stancewatch.corpus import Category, LabeledDataset, Tweet, split_dataset
from stancewatch.encoder import (
    LAYER_NORM_EPS,
    EncoderConfig,
    forward_with_cache,
    init_params,
    predict_proba,
)
from stancewatch.manifest import RunManifest
from stancewatch.metrics import auc, confusion, evaluate, predict_batches, prf, roc_points
from stancewatch.synth import generate_corpus, generate_labeled
from stancewatch.timeline import aggregate_daily, classify_corpus, detect_peaks, share
from stancewatch.tokenizer import build_vocab, encode
from stancewatch.trainer import (
    ADAM_EPS,
    AdamState,
    TrainConfig,
    adam_step,
    cross_entropy,
    gradients,
    train,
)


def scalar_config(config: EncoderConfig) -> dict:
    return {
        "d_model": config.d_model,
        "n_heads": config.n_heads,
        "n_layers": config.n_layers,
        "layer_norm_eps": LAYER_NORM_EPS,
    }


def tensors_as_lists(params) -> dict:
    return {name: arr.tolist() for name, arr in params.tensors.items()}


def test_gradient_oracle():
    """Backpropagation agrees with finite differences on every tensor."""
    with criterion("gradients match central finite differences (rel err < 1e-5)"):
        started = time.monotonic()
        config = EncoderConfig(**TINY)
        params = init_params(config, 11)
        rng = np.random.default_rng(40)
        batch = random_encodings(rng, 4, config)
        labels = [int(x) for x in rng.integers(0, 4, len(batch))]

        def loss() -> float:
            return cross_entropy(batch_logits(params, batch), labels)

        grads = gradients(params, batch, labels)
        names = {name for name, _ in params.tensors.items()}
        assert names == set(grads), "a tensor is missing from the gradient dict"

        # Five-point central stencil: the plain (f(x+h)-f(x-h))/2h form has
        # O(h^2) truncation error, which cannot reach 1e-5 relative accuracy
        # on this loss at any h once float64 rounding is in the budget.
        h = 3e-4
        checked = 0
        for name, tensor in params.tensors.items():
            flat = tensor.reshape(-1)
            for idx in rng.choice(flat.size, size=min(10, flat.size), replace=False):
                orig = flat[idx]
                evals = {}
                for mult in (1, -1, 2, -2):
                    flat[idx] = orig + mult * h
                    evals[mult] = loss()
                flat[idx] = orig
                fd = (8.0 * (evals[1] - evals[-1]) - (evals[2] - evals[-2])) / (12.0 * h)
                an = float(grads[name].reshape(-1)[idx])
                rel = abs(fd - an) / max(abs(fd), abs(an), 1e-6)
                assert rel < 1e-5, f"{name}[{idx}]: analytic {an:.3e} vs numeric {fd:.3e} (rel {rel:.2e})"
                checked += 1
        assert checked >= 200
        assert time.monotonic() - started < 60.0


def test_forward_oracle():
    """The vectorized forward pass agrees with the unbatched scalar one."""
    with criterion("forward pass matches scalar reference to 1e-10 on 100 fuzz cases"):
        config = EncoderConfig(**TINY)
        cases = 0
        for seed in range(10):
            params = init_params(config, seed)
            tensors = tensors_as_lists(params)
            rng = np.random.default_rng(1000 + seed)
            batch = random_encodings(rng, 10, config)
            logits = batch_logits(params, batch)
            for row, enc in enumerate(batch):
                ids, mask = padded(enc, config.max_len)
                want = forward_scalar(tensors, scalar_config(config), list(ids), list(mask))
                np.testing.assert_allclose(logits[row], want, rtol=0, atol=1e-10)

                # padding invariance: garbage token ids past the real length must not
                # move the logits
                tail = rng.integers(4, config.vocab_size, config.max_len - enc.n_real)
                twin_ids = np.array([enc.ids + tuple(int(x) for x in tail)])
                twin, _ = forward_with_cache(params, twin_ids, np.array([enc.n_real]))
                np.testing.assert_allclose(twin[0], logits[row], rtol=0, atol=1e-6)
                cases += 1
        assert cases >= 100


# Float32 inference's bound on a class probability's distance from float64.
F32_PROBA_BOUND = 1e-5


def float64_proba(params, vocab, texts) -> np.ndarray:
    """Probabilities from float64 forwards on ``params`` as they are, 64 texts a batch."""
    encs = [encode(vocab, text, params.config.max_len) for text in texts]
    return np.vstack([predict_proba(batch_logits(params, encs[i : i + 64])) for i in range(0, len(encs), 64)])


def test_float32_inference_oracle():
    """Inference runs in float32 on the weights a checkpoint stores; its
    probabilities stay within F32_PROBA_BOUND of float64 arithmetic, and it
    predicts the same classes on the acceptance corpora."""
    with criterion("float32 probabilities match the scalar reference to 1e-5 on 100 fuzz cases"):
        config = EncoderConfig(vocab_size=40, d_model=32, n_layers=2, n_heads=4, max_len=24)
        worst = 0.0
        for seed in range(10):
            params = init_params(config, seed)
            rng = np.random.default_rng(2000 + seed)
            # noise moves the logits apart, so the probabilities are not all near 1/4
            params.tensors.flat[:] += rng.normal(scale=0.3, size=params.tensors.flat.size)
            f32 = replace(params, tensors=params.tensors.astype(np.float32))
            stored = {name: arr.astype(np.float64).tolist() for name, arr in f32.tensors.items()}
            batch = random_encodings(rng, 10, config)
            got = predict_proba(batch_logits(f32, batch))
            for row, enc in enumerate(batch):
                ids, mask = padded(enc, config.max_len)
                want = predict_proba(np.array([forward_scalar(stored, scalar_config(config),
                                                              list(ids), list(mask))]))[0]
                worst = max(worst, float(np.abs(got[row] - want).max()))
                assert got[row].argmax() == want.argmax()
        assert worst <= F32_PROBA_BOUND, worst  # about 5e-7 on OpenBLAS

    with criterion("float32 inference predicts the float64 classes on the acceptance corpora"):
        labeled = LabeledDataset(tuple(generate_labeled(per_class=100, seed=31)))
        split = split_dataset(labeled, 0.8, seed=5)
        vocab = build_vocab([t.text for t in split.train.examples], max_size=256)
        trace = train(split, vocab, EncoderConfig(vocab_size=len(vocab)),
                      TrainConfig(learning_rate=1e-3, epochs=25, batch_size=16))
        corpus = generate_corpus(days=30, per_day=500, seed=77, spike_days=(20, 28))
        for texts in ([t.text for t in split.test.examples], [t.text for t in corpus]):
            got = predict_batches(trace.params, vocab, texts, 64)
            want = float64_proba(trace.params, vocab, texts)
            np.testing.assert_array_equal(got.argmax(axis=1), want.argmax(axis=1))
            assert np.abs(got - want).max() <= F32_PROBA_BOUND


def pairwise_auc(scores, golds) -> float:
    """Fraction of (positive, negative) pairs ranked correctly, ties half."""
    s = np.asarray(scores, dtype=np.float64)
    g = np.asarray(golds)
    pos = s[g == 1][:, None]
    neg = s[g == 0][None, :]
    wins = (pos > neg).sum() + 0.5 * (pos == neg).sum()
    return float(wins) / (pos.shape[0] * neg.shape[1])


def test_auc_oracle():
    """Trapezoidal AUC is the Mann-Whitney pair statistic."""
    with criterion("AUC equals brute-force pair counting to 1e-9 on 1000 instances"):
        rng = np.random.default_rng(7)
        for i in range(1000):
            n = int(rng.integers(2, 201))
            golds = rng.integers(0, 2, n)
            if golds.min() == golds.max():
                golds[int(rng.integers(0, n))] ^= 1
            if i % 2 == 0:
                # heavy ties: scores drawn from a handful of distinct values
                levels = rng.random(int(rng.integers(1, 6)))
                scores = rng.choice(levels, n)
            else:
                scores = rng.random(n)
            got = auc(roc_points(scores.tolist(), golds.tolist()))
            want = pairwise_auc(scores, golds)
            assert abs(got - want) <= 1e-9, f"instance {i}: {got} vs {want}"

    with criterion("AUC hand cases (1.0 / 0.75 / 0.5) are exact"):
        assert auc(roc_points([0.9, 0.8, 0.3, 0.1], [1, 1, 0, 0])) == 1.0
        assert auc(roc_points([0.9, 0.8, 0.3, 0.1], [1, 0, 1, 0])) == 0.75
        assert auc(roc_points([0.4, 0.4, 0.4, 0.4], [1, 0, 1, 0])) == 0.5


def test_metrics_hand_cases():
    """Spot values a reviewer can recompute by hand."""
    with criterion("cross-entropy at uniform logits is ln 4 (1e-12)"):
        logits = np.zeros((5, 4))
        assert abs(cross_entropy(logits, [0, 1, 2, 3, 0]) - np.log(4.0)) < 1e-12

    with criterion("confusion cell case gives P = R = F1 = 2/3 exactly"):
        # class 2: TP=2, FP=1, FN=1; the other classes only add diagonal mass
        golds = [2, 2, 2, 1, 0, 1, 3]
        preds = [2, 2, 0, 2, 0, 1, 3]
        result = prf(confusion(preds, golds))
        assert result.precision[2] == 2 / 3
        assert result.recall[2] == 2 / 3
        assert result.f1[2] == 2 / 3

    with criterion("Adam first step matches the closed form (1e-12)"):
        config = EncoderConfig(**TINY)
        params = init_params(config, 5)
        train_config = TrainConfig(learning_rate=0.01, epochs=1, batch_size=1)
        rng = np.random.default_rng(8)
        grads = params.tensors.zeros_like()
        for name, t in params.tensors.items():
            grads[name][...] = rng.normal(size=t.shape)
        before = {name: t.copy() for name, t in params.tensors.items()}
        adam_step(params, grads, AdamState(grads), train_config)
        # at t=1 the bias corrections cancel: step = lr * g / (|g| + eps)
        for name, tensor in params.tensors.items():
            g = grads[name]
            want = before[name] - 0.01 * g / (np.abs(g) + ADAM_EPS)
            np.testing.assert_allclose(tensor, want, rtol=0, atol=1e-12)


def test_split_fidelity():
    """Class counts 93/406/583/424 split 80/20 the way the floor rule says."""
    with criterion("93/406/583/424 at 0.8 split to 74+19/324+82/466+117/339+85"):
        counts = {Category.NEWS: 93, Category.IRRELEVANT: 406,
                  Category.ANTI_VACCINE: 583, Category.PRO_VACCINE: 424}
        when = dt.datetime(2021, 7, 22, 12, 0, tzinfo=dt.timezone.utc)
        examples = tuple(
            Tweet(f"t{int(cat)}-{i}", when, f"aşı görüş {int(cat)} {i}", cat)
            for cat, n in counts.items()
            for i in range(n)
        )
        data = LabeledDataset(examples)

        split = split_dataset(data, 0.8, seed=123)
        assert len(split.train.examples) == 1203
        assert len(split.test.examples) == 303

        def per_class(ds):
            out = [0, 0, 0, 0]
            for t in ds.examples:
                out[int(t.gold_label)] += 1
            return out

        assert per_class(split.train) == [74, 324, 466, 339]
        assert per_class(split.test) == [19, 82, 117, 85]

        again = split_dataset(data, 0.8, seed=123)
        assert [t.id for t in again.test.examples] == [t.id for t in split.test.examples]
        other = split_dataset(data, 0.8, seed=124)
        assert {t.id for t in other.test.examples} != {t.id for t in split.test.examples}


def test_synthetic_training():
    """A real training run separates the keyword classes."""
    labeled = LabeledDataset(tuple(generate_labeled(per_class=100, seed=31)))
    split = split_dataset(labeled, 0.8, seed=5)
    vocab = build_vocab([t.text for t in split.train.examples], max_size=256)
    config = EncoderConfig(vocab_size=len(vocab))  # d=128, L=2, H=4 defaults

    with criterion("training 400 synthetic examples reaches macro F1 >= 0.9 in < 5 min"):
        started = time.monotonic()
        # the default lr 5e-6 suits fine-tuning a pretrained encoder; from a
        # random init that budget moves the logits by ~0.003 total, so this
        # run uses 1e-3
        trace = train(split, vocab, config,
                      TrainConfig(learning_rate=1e-3, epochs=25, batch_size=16))
        elapsed = time.monotonic() - started
        report = evaluate(trace.params, vocab, split.test)
        assert report.macro_f1 >= 0.9, f"macro F1 {report.macro_f1:.4f}"
        assert elapsed < 300.0, f"training took {elapsed:.0f}s"

    with criterion("at lr 5e-6 the final epoch loss is below the first"):
        slow = train(split, vocab, config,
                     TrainConfig(learning_rate=5e-6, epochs=25, batch_size=16))
        assert slow.epoch_losses[-1] < slow.epoch_losses[0]


def test_surge_recovery():
    """Train, classify a month of traffic, and find the injected spikes."""
    with criterion("end-to-end pipeline reports the two injected surge dates in < 10 min"):
        started = time.monotonic()
        labeled = LabeledDataset(tuple(generate_labeled(per_class=100, seed=31)))
        split = split_dataset(labeled, 0.8, seed=5)
        vocab = build_vocab([t.text for t in split.train.examples], max_size=256)
        config = EncoderConfig(vocab_size=len(vocab))
        trace = train(split, vocab, config,
                      TrainConfig(learning_rate=1e-3, epochs=25, batch_size=16))

        corpus = generate_corpus(days=30, per_day=500, seed=77, spike_days=(20, 28))
        classified = classify_corpus(trace.params, vocab, corpus, batch_size=256)
        series = aggregate_daily(classified, utc_offset_minutes=180)
        anti = share(series, Category.ANTI_VACCINE)
        report = detect_peaks(anti, Category.ANTI_VACCINE, top_k=2)

        got = {p.date for p in report.local_maxima}
        assert got == {dt.date(2021, 8, 11), dt.date(2021, 8, 19)}, got
        assert len(report.local_maxima) == 2
        assert time.monotonic() - started < 600.0


SMALL_RUN = [
    "--set", "d_model=16", "--set", "n_layers=1", "--set", "n_heads=2",
    "--set", "max_len=16", "--set", "epochs=2", "--set", "batch_size=8",
    "--set", "learning_rate=1e-3", "--set", "vocab_max_size=400",
]


def test_rerun_byte_identity(tmp_path):
    """Wiping the output directory and rerunning reproduces every byte."""
    with criterion("rerunning every command gives byte-identical outputs"):
        runner = CliRunner()
        out = tmp_path / "run"

        def pipeline():
            for cmd in (
                ["gen-synthetic", "--per-class", "10", "--days", "4",
                 "--per-day", "20", "--spike-days", "2"],
                ["build-vocab", "--labeled", str(out / "synthetic_labeled.jsonl")],
                ["train", "--labeled", str(out / "synthetic_labeled.jsonl")],
                ["evaluate", "--labeled", str(out / "synthetic_labeled.jsonl")],
                ["classify", "--corpus", str(out / "synthetic_corpus.jsonl")],
                ["timeline", "--corpus", str(out / "synthetic_corpus.jsonl")],
            ):
                result = runner.invoke(
                    main, [*cmd, "--out", str(out), "--quiet", *SMALL_RUN],
                    catch_exceptions=False,
                )
                assert result.exit_code == 0, result.output

        pipeline()
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        for p in out.iterdir():
            p.unlink()
        pipeline()
        second = {p.name: p.read_bytes() for p in out.iterdir()}

        for must in ("vocab.txt", "model.ckpt", "eval_report.json",
                     "classified.jsonl", "timeline.csv", "peaks.json"):
            assert must in first
        assert sorted(first) == sorted(second)
        for name, blob in first.items():
            if name.startswith("manifest_"):
                # stage wall-clock times are the one intentionally
                # non-reproducible field
                d1, d2 = json.loads(blob), json.loads(second[name])
                d1.pop("timings_s")
                d2.pop("timings_s")
                assert d1 == d2, name
            else:
                assert blob == second[name], name


def test_scale_check(tmp_path):
    """Inference stays correct and bounded at corpus scale."""
    vocab = build_vocab([t.text for t in generate_labeled(per_class=25, seed=9)], max_size=256)
    config = EncoderConfig(vocab_size=len(vocab), d_model=8, n_layers=1, n_heads=2, max_len=8)
    params = init_params(config, 13, vocab.content_hash())

    with criterion("classify handles 650k+ tweets and logs wall-clock in the manifest"):
        corpus = generate_corpus(days=30, per_day=21700, seed=3, spike_days=(20, 28))
        assert len(corpus) >= 650_000
        manifest = RunManifest("scale-check", {"n_tweets": len(corpus)})
        with manifest.stage("classify"):
            classified = classify_corpus(params, vocab, corpus, batch_size=1024)
        path = tmp_path / "manifest_scale.json"
        manifest.write(path)
        assert len(classified) == len(corpus)
        assert classified[0].tweet_id == corpus[0].id
        assert classified[-1].tweet_id == corpus[-1].id
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert doc["timings_s"]["classify"] > 0.0

    with criterion("batch size does not change predictions on a 1000-tweet sample"):
        idx = sorted(random.Random(99).sample(range(len(corpus)), 1000))
        subset = [corpus[i] for i in idx]
        a = classify_corpus(params, vocab, subset, batch_size=64)
        b = classify_corpus(params, vocab, subset, batch_size=257)
        for x, y in zip(a, b):
            assert x.predicted == y.predicted
            assert x.proba == y.proba
