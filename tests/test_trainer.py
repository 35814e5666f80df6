import datetime as dt
import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import TINY, random_encodings, tail_spec
from stancewatch.corpus import Category, DatasetSplit, LabeledDataset, Tweet
from stancewatch.encoder import EncoderConfig, TensorBuffer, init_params
from stancewatch.errors import DataValidationError, NumericalError
from stancewatch.tokenizer import build_vocab
from stancewatch.trainer import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    AdamState,
    TrainConfig,
    adam_step,
    cross_entropy,
    gradients,
    train,
    write_trace,
)

UTC = dt.timezone.utc


class TestCrossEntropy:
    def test_uniform_logits_give_ln4(self):
        loss = cross_entropy(np.zeros((3, 4)), [0, 1, 3])
        assert abs(loss - math.log(4.0)) < 1e-12

    def test_shifted_uniform_logits_give_ln4(self):
        logits = np.full((2, 4), 17.5)
        assert abs(cross_entropy(logits, [2, 0]) - math.log(4.0)) < 1e-12

    def test_two_way_tie_gives_ln2(self):
        big = -1e9
        logits = np.array([[3.0, 3.0, big, big]])
        assert abs(cross_entropy(logits, [0]) - math.log(2.0)) < 1e-12

    def test_class_weights_scale_terms(self):
        logits = np.zeros((2, 4))
        base = cross_entropy(logits, [0, 1])
        weighted = cross_entropy(logits, [0, 1], weights=(2.0, 4.0, 1.0, 1.0))
        # mean of 2*ln4 and 4*ln4 = 3*ln4
        assert abs(weighted - 3 * base) < 1e-12

    def test_mean_divides_by_batch_size(self):
        logits = np.zeros((4, 4))
        # weights 2,0,0,0 with labels 0,1,1,1: only one term contributes
        loss = cross_entropy(logits, [0, 1, 1, 1], weights=(2.0, 0.0, 0.0, 0.0))
        assert abs(loss - 2 * math.log(4.0) / 4) < 1e-12

    def test_extreme_logits_finite(self):
        logits = np.array([[1000.0, -1000.0, 0.0, 0.0]])
        assert math.isfinite(cross_entropy(logits, [1]))

    def test_label_count_mismatch(self):
        with pytest.raises(DataValidationError):
            cross_entropy(np.zeros((2, 4)), [0])


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.learning_rate == 5e-6
        assert cfg.epochs == 25
        assert cfg.batch_size == 16
        assert (ADAM_BETA1, ADAM_BETA2, ADAM_EPS) == (0.9, 0.999, 1e-8)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(learning_rate=-1.0),
            dict(epochs=0),
            dict(batch_size=0),
            dict(class_weights=(0.0, 0.0, 0.0, 0.0)),
            dict(class_weights=(0, -0.0, 0, 0)),
            dict(learning_rate=float("-inf")),
            dict(class_weights=(1.0, 1.0, 1.0)),
            dict(class_weights=(1.0, -1.0, 1.0, 1.0)),
            dict(learning_rate=float("nan")),
            dict(learning_rate=float("inf")),
            dict(class_weights=(1.0, 1.0, 1.0, 1.0, 1.0)),
            dict(class_weights=(1.0, float("nan"), 1.0, 1.0)),
            dict(class_weights=(1.0, 1.0, float("inf"), 1.0)),
            dict(init_seed=-1),
            dict(shuffle_seed=-1),
            dict(dropout_seed=-1),
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(DataValidationError):
            TrainConfig(**kwargs)

    def test_all_zero_class_weights_named(self):
        """Zero weight on every class makes every loss and gradient exactly
        0, so Adam would move nothing and training would save the init."""
        with pytest.raises(DataValidationError, match="class_weights must not all be zero"):
            TrainConfig(class_weights=(0.0, 0.0, 0.0, 0.0))
        assert TrainConfig(class_weights=(0.0, 0.0, 1.0, 0.0)).class_weights == (0.0, 0.0, 1.0, 0.0)


def head_grads(params, value):
    """A gradient buffer of the parameters' layout, zero except classifier_b,
    which is filled with ``value``."""
    grads = params.tensors.zeros_like()
    grads["classifier_b"][...] = value
    return grads


class TestAdam:
    def test_hand_worked_first_step(self, tiny_params):
        # with m=v=0 and g constant, the first update is exactly
        # -lr * g / (|g| + eps); for g=0.5, lr=5e-6: -5e-6 * 0.5/(0.5 + 1e-8)
        cfg = TrainConfig(learning_rate=5e-6)
        grads = head_grads(tiny_params, 0.5)
        state = AdamState(grads)
        before = tiny_params.tensors["classifier_b"].copy()
        adam_step(tiny_params, grads, state, cfg)
        want = before - 5e-6 * 0.5 / (0.5 + 1e-8)
        np.testing.assert_allclose(tiny_params.tensors["classifier_b"], want, rtol=0, atol=1e-12)

    def test_eps_outside_sqrt(self, tiny_params):
        # tiny gradient separates the two eps placements by orders of magnitude
        cfg = TrainConfig(learning_rate=1.0)
        g = 1e-12
        grads = head_grads(tiny_params, g)
        state = AdamState(grads)
        before = tiny_params.tensors["classifier_b"].copy()
        adam_step(tiny_params, grads, state, cfg)
        step = before[0] - tiny_params.tensors["classifier_b"][0]
        outside = 1.0 * g / (g + 1e-8)  # sqrt(g^2) = g
        inside = 1.0 * g / math.sqrt(g * g + 1e-8)
        assert abs(step - outside) < 1e-15
        assert abs(step - inside) > 1e-6

    def test_bias_correction_sequence(self, tiny_params):
        cfg = TrainConfig(learning_rate=0.1)
        state = AdamState(head_grads(tiny_params, 0.0))
        theta = float(tiny_params.tensors["classifier_b"][0])
        m = v = 0.0
        for t, g in enumerate([0.3, -0.2, 0.7], start=1):
            adam_step(tiny_params, head_grads(tiny_params, g), state, cfg)
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            mhat = m / (1 - 0.9**t)
            vhat = v / (1 - 0.999**t)
            theta -= 0.1 * mhat / (math.sqrt(vhat) + 1e-8)
        assert abs(float(tiny_params.tensors["classifier_b"][0]) - theta) < 1e-12

    def test_absent_grads_leave_tensor_alone(self, tiny_params):
        """A zero gradient leaves its tensor's bytes unchanged: every tensor
        before classifier_b keeps its bytes, and its moments stay zero."""
        cfg = TrainConfig(learning_rate=0.5)
        grads = head_grads(tiny_params, 1.0)
        state = AdamState(grads)
        before = tiny_params.tensors.flat.copy()
        adam_step(tiny_params, grads, state, cfg)
        k = before.size - 4
        assert tiny_params.tensors.flat[:k].tobytes() == before[:k].tobytes()
        assert state.m.spec == state.v.spec == grads.spec == tiny_params.tensors.spec
        assert not state.m.flat[:k].any() and not state.v.flat[:k].any()
        assert state.m["classifier_b"].all() and state.v["classifier_b"].all()
        assert (tiny_params.tensors["classifier_b"] != before[k:]).all()

    @pytest.mark.parametrize("first", ["classifier_w", "classifier_b", "pooler_w"],
                             ids=["one-tensor-more", "classifier-b", "head"])
    def test_moments_of_another_layout_rejected(self, tiny_params, first):
        state = AdamState(TensorBuffer(tail_spec(tiny_params, first)))
        grads = head_grads(tiny_params, 1.0)
        before = tiny_params.tensors.flat.copy()
        with pytest.raises(DataValidationError, match="moments"):
            adam_step(tiny_params, grads, state, TrainConfig(learning_rate=0.5))
        assert state.t == 0
        assert not state.m.flat.any() and not state.v.flat.any()
        assert tiny_params.tensors.flat.tobytes() == before.tobytes()

    def test_shape_mismatch_rejected(self, tiny_params):
        wider = init_params(replace(tiny_params.config, d_model=10), seed=0)
        for spec in (tail_spec(wider, "classifier_w"), wider.tensors.spec, tail_spec(tiny_params, "pooler_w")):
            grads = TensorBuffer(spec)
            before = tiny_params.tensors.flat.copy()
            with pytest.raises(DataValidationError, match="shape"):
                adam_step(tiny_params, grads, AdamState(grads), TrainConfig())
            assert tiny_params.tensors.flat.tobytes() == before.tobytes()


class TestGradients:
    def test_covers_every_tensor(self, tiny_config, tiny_params):
        rng = np.random.default_rng(0)
        batch = random_encodings(rng, 3, tiny_config)
        grads = gradients(tiny_params, batch, [0, 1, 2])
        assert set(grads) == {name for name, _ in tiny_params.tensors.items()}
        for name, g in grads.items():
            assert g.shape == dict((n, a.shape) for n, a in tiny_params.tensors.items())[name]

    def test_nonfinite_raises(self, tiny_config, tiny_params):
        rng = np.random.default_rng(0)
        batch = random_encodings(rng, 2, tiny_config)
        tiny_params.tensors["pooler_w"][0, 0] = np.nan
        with pytest.raises(NumericalError, match="non-finite"):
            gradients(tiny_params, batch, [0, 1])


def make_split(texts_by_class: dict[Category, list[str]], test_per_class: int = 1) -> DatasetSplit:
    train, test = [], []
    i = 0
    for cat, texts in texts_by_class.items():
        for j, text in enumerate(texts):
            t = Tweet(
                id=f"t{i}",
                created_at=dt.datetime(2021, 7, 22, tzinfo=UTC) + dt.timedelta(minutes=i),
                text=text,
                gold_label=cat,
            )
            (test if j < test_per_class else train).append(t)
            i += 1
    return DatasetSplit(LabeledDataset(tuple(train)), LabeledDataset(tuple(test)), seed=0)


def toy_split() -> DatasetSplit:
    texts = {
        Category.NEWS: ["haber ajans bülten aşı"] * 4,
        Category.IRRELEVANT: ["magazin dizi futbol aşı"] * 4,
        Category.ANTI_VACCINE: ["aşı karşıyım reddet komplo"] * 4,
        Category.PRO_VACCINE: ["aşı yaptırdım randevu bilim"] * 4,
    }
    return make_split(texts)


def toy_vocab(split: DatasetSplit):
    return build_vocab([t.text for t in split.train.examples], max_size=300)


class TestTrain:
    def setup_method(self):
        self.split = toy_split()
        self.vocab = toy_vocab(self.split)
        self.model_cfg = EncoderConfig(
            vocab_size=len(self.vocab), d_model=16, n_layers=1, n_heads=2, max_len=12
        )

    def test_trace_shape_and_finiteness(self):
        tc = TrainConfig(learning_rate=1e-3, epochs=3, batch_size=4, shuffle_seed=1)
        trace = train(self.split, self.vocab, self.model_cfg, tc)
        assert len(trace.epoch_losses) == 3
        assert len(trace.epoch_accuracies) == 3
        assert all(math.isfinite(x) for x in trace.epoch_losses)
        assert all(0.0 <= a <= 1.0 for a in trace.epoch_accuracies)

    def test_deterministic(self):
        tc = TrainConfig(learning_rate=1e-3, epochs=2, batch_size=4)
        a = train(self.split, self.vocab, self.model_cfg, tc)
        b = train(self.split, self.vocab, self.model_cfg, tc)
        assert a.epoch_losses == b.epoch_losses
        for (na, ta), (nb, tb) in zip(a.params.tensors.items(), b.params.tensors.items()):
            np.testing.assert_array_equal(ta, tb)

    def test_shuffle_seed_changes_course(self):
        a = train(self.split, self.vocab, self.model_cfg, TrainConfig(learning_rate=1e-3, epochs=2, batch_size=4, shuffle_seed=1))
        b = train(self.split, self.vocab, self.model_cfg, TrainConfig(learning_rate=1e-3, epochs=2, batch_size=4, shuffle_seed=2))
        assert a.epoch_losses != b.epoch_losses

    def test_zero_lr_keeps_init(self):
        tc = TrainConfig(learning_rate=0.0, epochs=1, batch_size=4, init_seed=5)
        trace = train(self.split, self.vocab, self.model_cfg, tc)
        fresh = init_params(self.model_cfg, 5, self.vocab.content_hash())
        for (_, ta), (_, tb) in zip(trace.params.tensors.items(), fresh.tensors.items()):
            np.testing.assert_array_equal(ta, tb)

    def test_loss_decreases_on_separable_data(self):
        """From each of init seeds 0-11, 75 Adam steps at a deliberately hot
        learning rate take the best epoch's mean loss below 3/4 of ln 4, a
        uniform guess's loss; at learning rate 0 every epoch stays above it.
        Many seeds settle near ln 2, each tweet shared by two classes, so the
        final accuracy hinges on the init draws and is not the criterion."""
        def best_loss(learning_rate, init_seed):
            tc = TrainConfig(learning_rate=learning_rate, epochs=25, batch_size=4, init_seed=init_seed)
            return min(train(self.split, self.vocab, self.model_cfg, tc).epoch_losses)

        bound = 0.75 * math.log(4.0)
        assert [seed for seed in range(12) if not best_loss(1e-2, seed) < bound] == []
        assert [seed for seed in range(12) if not best_loss(0.0, seed) > bound] == []

    def test_diverging_run_raises_numerical_error(self):
        """lr 1e308 overflows the weights in the first Adam step, so the
        second step's loss is not finite: a NumericalError that names the
        step, not a RuntimeWarning from the overflowing arithmetic."""
        tc = TrainConfig(learning_rate=1e308, epochs=1, batch_size=4)
        with pytest.raises(NumericalError, match=r"^non-finite loss at epoch 0 batch 1$"):
            train(self.split, self.vocab, self.model_cfg, tc)

    def test_params_carry_vocab_hash_and_seed(self):
        tc = TrainConfig(learning_rate=1e-3, epochs=1, batch_size=4, init_seed=9)
        trace = train(self.split, self.vocab, self.model_cfg, tc)
        assert trace.params.vocab_hash == self.vocab.content_hash()
        assert trace.params.init_seed == 9

    def test_empty_train_set_fatal(self):
        split = DatasetSplit(LabeledDataset(()), self.split.test, seed=0)
        with pytest.raises(DataValidationError, match="empty"):
            train(split, self.vocab, self.model_cfg, TrainConfig(epochs=1))

    def test_write_trace(self, tmp_path):
        tc = TrainConfig(learning_rate=1e-3, epochs=2, batch_size=4)
        trace = train(self.split, self.vocab, self.model_cfg, tc)
        p = tmp_path / "trace.txt"
        write_trace(trace, p)
        lines = p.read_text(encoding="utf-8").splitlines()
        assert lines[0].split() == ["epoch", "mean_loss", "train_accuracy"]
        assert len(lines) == 3
        assert lines[1].split()[0] == "1"
        float(lines[1].split()[1])  # parses as a number
