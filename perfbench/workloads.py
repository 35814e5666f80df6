"""The three workloads: set-up, one measured pass, and output checks.

Each workload is a closed-loop batch job from a single caller: the next
pass starts when the previous one has finished. A pass calls the pipeline
modules the way the `stancewatch` commands do, through `t.call` so the
traced run can put a span around each call.
"""

from __future__ import annotations

import math
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from stancewatch.config import PipelineConfig, encoder_config, train_config
from stancewatch.corpus import Category, LabeledDataset, ingest_jsonl, labeled_subset, split_dataset, write_jsonl
from stancewatch.encoder import init_params, load_checkpoint, save_checkpoint
from stancewatch.metrics import evaluate
from stancewatch.timeline import (
    DEFAULT_MIN_PROMINENCE,
    DEFAULT_TOP_K,
    PROBA_SUM_TOL,
    aggregate_daily,
    classify_corpus,
    detect_peaks,
    read_classified,
    share,
    write_classified,
    write_peak_report,
    write_timeline_csv,
)
from stancewatch.tokenizer import UNK_TOKEN, Vocabulary, build_vocab, encode, tokenize
from stancewatch.trainer import gradients, train

import inputs

CLASSIFY_BATCH = PipelineConfig().classify_batch_size
CHECK_BATCH = 257
CHECK_SAMPLE = 1000
MIN_MACRO_F1 = 0.9
SMALL_MODEL = {"d_model": 8, "n_layers": 1, "n_heads": 2, "max_len": 64}
# classify-short's model: the train-short recipe at batch 8 for 2 epochs,
# the cheapest run that separates the classes on every seed tried.
CS_MODEL = {"learning_rate": 1e-3, "epochs": 2, "batch_size": 8}
# 3 epochs left one labeled draw in ten below MIN_MACRO_F1; 5 cleared all tried.
TR_TRAIN = {"learning_rate": 1e-3, "epochs": 5}


@dataclass
class PassResult:
    ops: int  # tweets (classify) or train examples x epochs (train)
    wall: float  # seconds of the timed end-to-end path
    window: float  # seconds of the whole pass phase, reread included
    attempted: int
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    reread_per_s: float = 0.0
    days: int = 0
    macro_f1: float = 0.0
    ingested: int = 0
    rejects: int = 0

    def fail(self, count: int, problem: str) -> None:
        if count:
            self.failed += count
            self.problems.append(problem)


class Workload:
    name: str
    planned_ops: int  # operations in one pass, counted as failed if the run crashes
    vocab: Vocabulary
    max_len: int

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work

    def texts(self) -> list[str]:
        raise NotImplementedError

    def token_stats(self) -> dict:
        """Piece counts of the workload's texts under its vocabulary, with
        the real-length histogram ([CLS] and [SEP] included, 8-wide bins)."""
        cap = self.max_len - 2
        pieces = [tokenize(self.vocab, text) for text in self.texts()]
        lengths = [min(len(p), cap) + 2 for p in pieces]
        counts, edges = np.histogram(lengths, bins=range(1, self.max_len + 2, 8))
        total = sum(len(p) for p in pieces)
        return {
            "real_pieces_mean": float(np.mean(lengths)) - 2,
            "truncated_share": sum(len(p) > cap for p in pieces) / len(pieces),
            "unk_share": sum(p.count(UNK_TOKEN) for p in pieces) / total if total else 0.0,
            "real_length_histogram": {
                f"{lo}-{hi - 1}": int(c) for lo, hi, c in zip(edges[:-1], edges[1:], counts) if c
            },
        }


class ClassifyWorkload(Workload):
    """corpus JSONL -> classified.jsonl, timeline.csv, peaks.json, then the
    same two reports again from classified.jsonl (`timeline --classified`)."""

    surges: set = frozenset()

    def write_corpus(self, tweets) -> None:
        self.corpus_path = self.work / "corpus.jsonl"
        write_jsonl(tweets, self.corpus_path)
        self.tweets = tweets
        self.expected_ids = [tw.id for tw in tweets]

    def store_model(self, t, params, vocab) -> None:
        """Round-trip vocabulary and checkpoint through disk, as a run does."""
        vocab_path, ckpt_path = self.work / "vocab.txt", self.work / "model.ckpt"
        vocab.save(vocab_path)
        t.call("encoder.save_checkpoint", save_checkpoint, params, ckpt_path)
        self.vocab = Vocabulary.load(vocab_path)
        self.params = t.call("encoder.load_checkpoint", load_checkpoint, ckpt_path)
        if self.params.vocab_hash != self.vocab.content_hash():
            raise RuntimeError("checkpoint and vocabulary do not match")
        self.max_len = self.params.config.max_len
        classify_corpus(self.params, self.vocab, self.tweets[:CLASSIFY_BATCH], CLASSIFY_BATCH)

    def texts(self) -> list[str]:
        return [tw.text for tw in self.tweets]

    def _reports(self, t, classified, out: Path):
        series = t.call("timeline.aggregate_daily", aggregate_daily, classified, inputs.UTC_OFFSET_MINUTES)
        anti = t.call("timeline.share", share, series, Category.ANTI_VACCINE)
        peaks = t.call("timeline.detect_peaks", detect_peaks, anti, Category.ANTI_VACCINE,
                       min_prominence=DEFAULT_MIN_PROMINENCE, top_k=DEFAULT_TOP_K)
        out.mkdir(parents=True, exist_ok=True)
        t.call("timeline.write_timeline_csv", write_timeline_csv, series, out / "timeline.csv")
        t.call("timeline.write_peak_report", write_peak_report, peaks, out / "peaks.json")
        return series, peaks

    def run_pass(self, t) -> PassResult:
        out, again = self.work / "out", self.work / "out" / "reread"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        classified_path = out / "classified.jsonl"
        with t.phase("pass"):
            start = perf_counter()
            ingest = t.call("corpus.ingest_jsonl", ingest_jsonl, self.corpus_path)
            classified = t.call("timeline.classify_corpus", classify_corpus,
                                self.params, self.vocab, ingest.tweets, CLASSIFY_BATCH)
            t.call("timeline.write_classified", write_classified, classified, classified_path)
            series, peaks = self._reports(t, classified, out)
            wall = perf_counter() - start
            reread_start = perf_counter()
            reread = t.call("timeline.read_classified", read_classified, classified_path)
            self._reports(t, reread, again)
            reread_wall = perf_counter() - reread_start
            window = perf_counter() - start

        n = len(self.expected_ids)
        res = PassResult(ops=n, wall=wall, window=window, attempted=n,
                         reread_per_s=len(reread) / reread_wall, days=len(series.bins),
                         ingested=len(ingest.tweets), rejects=len(ingest.rejects))
        got = [c.tweet_id for c in classified]
        res.fail(sum(a != b for a, b in zip(got, self.expected_ids)) + abs(len(got) - n),
                 "classified ids differ from input ids or order")
        proba = np.array([c.proba for c in classified], dtype=np.float64).reshape(-1, 4)
        ok = np.isfinite(proba).all(axis=1) & (np.abs(proba.sum(axis=1) - 1.0) <= PROBA_SUM_TOL)
        res.fail(int((~ok).sum()), "probabilities not finite or not summing to 1")
        for name in ("timeline.csv", "peaks.json"):
            res.fail(int((out / name).read_bytes() != (again / name).read_bytes()),
                     f"{name} from classified.jsonl differs from the first pass")
        if self.surges:
            top = {p.date for p in peaks.local_maxima[: len(self.surges)]}
            res.fail(len(self.surges - top), f"surge dates {sorted(map(str, self.surges - top))} not recovered")
        self.last = (ingest.tweets, classified)
        return res

    def final_check(self) -> PassResult:
        """Predictions at batch size CHECK_BATCH match the measured pass on a sample."""
        tweets, classified = self.last
        idx = sorted(random.Random(self.seed).sample(range(len(tweets)), min(CHECK_SAMPLE, len(tweets))))
        other = classify_corpus(self.params, self.vocab, [tweets[i] for i in idx], CHECK_BATCH)
        res = PassResult(ops=0, wall=0.0, window=0.0, attempted=len(idx))
        res.fail(sum(classified[i].predicted != o.predicted or classified[i].proba != o.proba
                     for i, o in zip(idx, other)),
                 f"predictions differ between batch sizes {CLASSIFY_BATCH} and {CHECK_BATCH}")
        return res


class ClassifyShort(ClassifyWorkload):
    name = "classify-short"
    planned_ops = inputs.CS_DAYS * inputs.CS_PER_DAY

    def setup(self, t) -> None:
        tweets, self.surges = inputs.classify_short_corpus(self.seed)
        self.write_corpus(tweets)
        config = PipelineConfig(**CS_MODEL)
        data = LabeledDataset(tuple(inputs.labeled_set(inputs.MODEL_LABELED_SEED)))
        split = split_dataset(data, config.train_fraction, config.seed_split)
        vocab = t.call("tokenizer.build_vocab", build_vocab, [x.text for x in split.train.examples],
                       config.vocab_max_size, config.min_pair_freq)
        trace = t.call("trainer.train", train, split, vocab,
                       encoder_config(config, len(vocab)), train_config(config))
        self.store_model(t, trace.params, vocab)


class TimelineScale(ClassifyWorkload):
    name = "timeline-scale"
    planned_ops = inputs.TS_TWEETS

    def setup(self, t) -> None:
        self.write_corpus(inputs.long_corpus(self.seed))
        config = PipelineConfig(**SMALL_MODEL)
        vocab = t.call("tokenizer.build_vocab", build_vocab, inputs.long_vocab_texts(),
                       config.vocab_max_size, config.min_pair_freq)
        params = init_params(encoder_config(config, len(vocab)), config.seed_init, vocab.content_hash())
        self.store_model(t, params, vocab)


class TrainShort(Workload):
    """build_vocab -> train -> save_checkpoint -> evaluate on the held-out split."""

    name = "train-short"
    planned_ops = math.ceil(4 * inputs.LABELED_PER_CLASS * PipelineConfig().train_fraction
                            / PipelineConfig().batch_size) * TR_TRAIN["epochs"]

    def setup(self, t) -> None:
        self.config = PipelineConfig(**TR_TRAIN)
        path = self.work / "labeled.jsonl"
        write_jsonl(inputs.labeled_set(self.seed), path)
        data = labeled_subset(t.call("corpus.ingest_jsonl", ingest_jsonl, path).tweets)
        self.split = split_dataset(data, self.config.train_fraction, self.config.seed_split)
        self.max_len = self.config.max_len
        # warm-up: one forward and backward through a throwaway model
        texts = [x.text for x in self.split.train.examples[:16]]
        vocab = build_vocab(texts, self.config.vocab_max_size, self.config.min_pair_freq)
        params = init_params(encoder_config(self.config, len(vocab)), 0)
        gradients(params, [encode(vocab, x, self.max_len) for x in texts], [0] * len(texts))

    def texts(self) -> list[str]:
        return [x.text for x in self.split.train.examples + self.split.test.examples]

    def run_pass(self, t) -> PassResult:
        cfg = self.config
        train_set = self.split.train.examples
        with t.phase("pass"):
            start = perf_counter()
            self.vocab = t.call("tokenizer.build_vocab", build_vocab, [x.text for x in train_set],
                                cfg.vocab_max_size, cfg.min_pair_freq)
            trace = t.call("trainer.train", train, self.split, self.vocab,
                           encoder_config(cfg, len(self.vocab)), train_config(cfg))
            t.call("encoder.save_checkpoint", save_checkpoint, trace.params, self.work / "model.ckpt")
            report = t.call("metrics.evaluate", evaluate, trace.params, self.vocab, self.split.test,
                            cfg.eval_batch_size)
            wall = perf_counter() - start
        steps = math.ceil(len(train_set) / cfg.batch_size) * cfg.epochs
        res = PassResult(ops=len(train_set) * cfg.epochs, wall=wall, window=wall, attempted=steps,
                         macro_f1=report.macro_f1)
        res.fail(int(not all(math.isfinite(x) for x in trace.epoch_losses)), "non-finite epoch loss")
        res.fail(int(report.macro_f1 < MIN_MACRO_F1), f"macro F1 {report.macro_f1:.4f} < {MIN_MACRO_F1}")
        return res

    def final_check(self) -> PassResult:
        return PassResult(ops=0, wall=0.0, window=0.0, attempted=0)


WORKLOADS = {w.name: w for w in (ClassifyShort, TimelineScale, TrainShort)}
