"""Memory guards: what training, a training forward and backward, GELU and
the classified writer and reader hold at once.

tracemalloc counts numpy's data allocations, and those counts repeat
exactly from run to run, so these tests compare traced peaks and take no
timings.
"""

import datetime as dt
import tracemalloc

import numpy as np

import stancewatch.timeline as sw_timeline
import stancewatch.trainer as sw_trainer
from stancewatch.encoder import (
    GELU_BLOCK,
    EncoderConfig,
    collate,
    forward_with_cache,
    gelu_and_cdf,
    init_params,
    tensor_shapes,
)
from stancewatch.timeline import EPOCH, ONE_US, Classified, read_classified, write_classified
from stancewatch.tokenizer import Encoding, encode
from stancewatch.trainer import TrainConfig, gradients, train
from test_trainer import toy_split, toy_vocab

UTC = dt.timezone.utc


def traced_peak(fn, *args) -> int:
    """Bytes allocated at the peak of ``fn(*args)``, above what was live before it."""
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - before


def classified_rows(n: int) -> Classified:
    rng = np.random.default_rng(n)
    proba = rng.dirichlet(np.ones(4), size=n)
    start = (dt.datetime(2021, 8, 1, tzinfo=UTC) - EPOCH) // ONE_US
    return Classified(tuple(f"tweet-{i:07d}" for i in range(n)), start + 1000 * np.arange(n),
                      proba.argmax(axis=1), proba)


def test_write_classified_peak_does_not_grow_with_blocks(tmp_path, monkeypatch):
    """Writing 32 blocks takes no more memory than writing 4: only one
    block's columns are Python lists at a time."""
    rows = 64
    monkeypatch.setattr(sw_timeline, "CLASSIFIED_BLOCK_ROWS", rows)
    traced_peak(write_classified, classified_rows(rows), tmp_path / "warm-up.jsonl")
    few, many = classified_rows(4 * rows), classified_rows(32 * rows)
    peak_few = traced_peak(write_classified, few, tmp_path / "few.jsonl")
    peak_many = traced_peak(write_classified, many, tmp_path / "many.jsonl")
    # One block's rows as Python lists take about 15 KB; writing every row
    # from whole-column lists would add 28 of those.
    assert peak_many < peak_few + 15_000, (peak_few, peak_many)


def test_read_classified_holds_each_column_once(tmp_path, monkeypatch):
    """Until ``Classified`` is built, the reader never holds more than it
    hands over: each column grows in place, with no block of Python rows
    and no second copy joined from blocks (which held 24 bytes a row more
    at these 20,000 rows)."""
    rows = 20_000
    path = tmp_path / "classified.jsonl"
    write_classified(classified_rows(rows), path)
    handed_over = []

    def build(*columns):
        handed_over.append(tracemalloc.get_traced_memory())
        return Classified(*columns)

    monkeypatch.setattr(sw_timeline, "Classified", build)
    traced_peak(read_classified, path)
    (current, peak), = handed_over
    # Less than an int8 column: a byte a row.
    assert peak - current < rows, (current, peak)


def test_head_only_training_holds_no_whole_gradient_buffer(monkeypatch):
    """At every Adam step, head-only training holds the parameters, of the
    whole layout, and gradients and Adam's two moments for the head alone; a
    large vocabulary makes any other whole-layout buffer show. Whole-layout
    moments held 3.01 buffers here."""
    split = toy_split()
    vocab = toy_vocab(split)
    cfg = EncoderConfig(vocab_size=20_000, d_model=16, n_layers=1, n_heads=2, max_len=12)
    buffer_bytes = 8 * sum(int(np.prod(shape)) for _, shape in tensor_shapes(cfg))
    tc = TrainConfig(learning_rate=1e-3, epochs=2, batch_size=4, head_only=True)
    train(split, vocab, cfg, tc)  # fills the vocabulary's memos
    held = []
    adam_step = sw_trainer.adam_step

    def traced_adam_step(*args):
        held.append(tracemalloc.get_traced_memory()[0])
        adam_step(*args)

    monkeypatch.setattr(sw_trainer, "adam_step", traced_adam_step)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        train(split, vocab, cfg, tc)
    finally:
        tracemalloc.stop()
    assert max(held) - before < buffer_bytes + buffer_bytes // 2, (max(held) - before, buffer_bytes)


def test_training_holds_one_gradient_buffer():
    """With one step per epoch, a later step could hold the previous step's
    gradients as well as its own; one buffer reused by every step makes the
    peak of three epochs that of one."""
    split = toy_split()
    vocab = toy_vocab(split)
    cfg = EncoderConfig(vocab_size=len(vocab), d_model=16, n_layers=1, n_heads=2, max_len=12)
    buffer_bytes = 8 * sum(int(np.prod(shape)) for _, shape in tensor_shapes(cfg))

    def peak(epochs: int) -> int:
        tc = TrainConfig(learning_rate=1e-3, epochs=epochs, batch_size=len(split.train.examples))
        return traced_peak(train, split, vocab, cfg, tc)

    peak(1)  # fills the vocabulary's memos
    one, three = peak(1), peak(3)
    assert three - one < buffer_bytes // 2, (one, three, buffer_bytes)


def test_training_forward_keeps_three_ffn_arrays():
    """The feed-forward's cache is (h, u, cdf): its backward recomputes the
    GELU output u * cdf instead of keeping a fourth hidden-width array."""
    split = toy_split()
    vocab = toy_vocab(split)
    cfg = EncoderConfig(vocab_size=len(vocab), d_model=16, n_layers=2, n_heads=2, max_len=12)
    ids, lengths = collate([encode(vocab, t.text, cfg.max_len) for t in split.train.examples], cfg)
    _, (_, layers, _) = forward_with_cache(init_params(cfg, 0), ids, lengths, True, 1, need_cache=True)
    for _, _, ffn, _ in layers:
        assert len(ffn) == 3
        h, u, cdf = ffn
        assert u.shape == cdf.shape == (len(h), cfg.d_ff)


def test_gelu_adds_its_two_outputs_and_a_few_blocks():
    """GELU runs over blocks of ``GELU_BLOCK`` values, so its temporaries
    take a few blocks, not arrays of the input's size: the float64 erf over
    the whole array took 3.2 such arrays on top of the two outputs."""
    for dtype in (np.float64, np.float32):
        x = np.random.default_rng(1).normal(size=(4096, 512)).astype(dtype)
        outputs, block = 2 * x.nbytes, GELU_BLOCK * x.itemsize
        peak = traced_peak(gelu_and_cdf, x)
        assert peak < outputs + 8 * block, (dtype, peak, outputs, block)


def test_full_width_backward_adds_at_most_two_hidden_arrays_to_the_cache():
    """A training step on 16 rows of 64 ids with the default model (d 128,
    2 layers) peaks below what its forward's cache holds, plus the gradient
    buffer and two hidden-width (rows x d_ff) arrays: the backward drops
    each layer's arrays after their last read, its feed-forward reuses one
    hidden-width array and runs the GELU derivative in blocks. Keeping the
    cache whole, with whole-array GELU passes, peaked 4.0 hidden-width
    arrays above it."""
    cfg = EncoderConfig(vocab_size=100)
    params = init_params(cfg, 0)
    rng = np.random.default_rng(0)
    batch = [Encoding((2, *(int(i) for i in rng.integers(4, 100, 62)), 3)) for _ in range(16)]
    labels = [i % 4 for i in range(16)]
    ids, lengths = collate(batch, cfg)
    assert ids.shape == (16, cfg.max_len)
    gradients(params, batch, labels, None, True, 1)  # first-call allocations
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        cache = forward_with_cache(params, ids, lengths, True, 1, need_cache=True)
        cache_bytes = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    del cache
    peak = traced_peak(gradients, params, batch, labels, None, True, 1)
    hidden = ids.size * cfg.d_ff * 8
    over = peak - cache_bytes - params.tensors.flat.nbytes
    assert over < 2 * hidden, (over / hidden, cache_bytes, peak)
