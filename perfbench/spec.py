"""What the benchmark measures: workloads, metrics, bounds and the layer map.

`BENCHMARK.json` at the repository root is generated from this module
(`python3 perfbench/run.py --write-spec`), so the runner and the file
cannot disagree about metric names.

The pipeline runs in one process with no queues and no concurrency beyond
BLAS, so no layer waits on another: a layer can save at most its self-time
share of a workload's wall time. LAYER_MAP names, for every per-layer
metric, the end-to-end metric and the workloads it should move.
"""

from __future__ import annotations

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 10

# Set-up runs at least SETUP_REPEATS times and until SETUP_MIN_SECONDS have
# gone by; setup_s is the median.
SETUP_REPEATS = 3
SETUP_MIN_SECONDS = 2.0

WORKLOADS = {
    "classify-short": (
        "synthetic tweets fill ~8 of 64 positions, so padding dominates the "
        "default-model forward; length bucketing should gain here"
    ),
    "timeline-scale": (
        "long Zipf-lexicon tweets fill all 64 positions through a small model; "
        "tokenizer, ingest, write and binning carry the time, bucketing is bypassed"
    ),
    "train-short": (
        "build_vocab, default-model training and evaluation on 400 synthetic "
        "examples; the only workload that runs backward and Adam"
    ),
}

# name -> (unit, better, bound)
END_TO_END = {
    "tweets_per_s": ("1/s", "higher", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.15),
    "setup_s": ("s", "lower", 0.25),
}

# What tweets_per_s counts on each workload.
THROUGHPUT_PATH = {
    "classify-short": "tweets from corpus JSONL to classified.jsonl, timeline.csv and peaks.json",
    "timeline-scale": "tweets from corpus JSONL to classified.jsonl, timeline.csv and peaks.json",
    "train-short": "train examples x epochs through build_vocab, train, save_checkpoint, evaluate",
}

# name -> unit. Every run with --trace 1 reports all of them; a layer that
# does not run on a workload reports 0.
PER_LAYER = {
    "corpus.ingest_s": "s",
    "corpus.tweets": "count",
    "corpus.rejects": "count",
    "tokenizer.encode_s": "s",
    "tokenizer.encode_calls": "count",
    "tokenizer.real_pieces_mean": "count",
    "tokenizer.truncated_share": "ratio",
    "tokenizer.unk_share": "ratio",
    "tokenizer.vocab_size": "count",
    "tokenizer.build_vocab_s": "s",
    "encoder.forward_s": "s",
    "encoder.forward_calls": "count",
    "encoder.forward_ms_p50": "ms",
    "encoder.forward_ms_p99": "ms",
    "encoder.forward_samples": "count",
    "encoder.real_token_share": "ratio",
    "encoder.gflop.qkv": "GFLOP-computed",
    "encoder.gflop.attn": "GFLOP-computed",
    "encoder.gflop.out_proj": "GFLOP-computed",
    "encoder.gflop.ffn": "GFLOP-computed",
    "encoder.backward_s": "s",
    "encoder.backward_calls": "count",
    "encoder.collate_s": "s",
    "encoder.checkpoint_s": "s",
    "trainer.adam_s": "s",
    "trainer.adam_calls": "count",
    "trainer.step_ms_p50": "ms",
    "trainer.step_ms_p99": "ms",
    "trainer.steps": "count",
    "trainer.self_s": "s",
    "metrics.evaluate_s": "s",
    "metrics.predict_batches_self_s": "s",
    "metrics.macro_f1": "ratio",
    "timeline.classify_self_s": "s",
    "timeline.write_classified_s": "s",
    "timeline.read_classified_s": "s",
    "timeline.aggregate_s": "s",
    "timeline.peaks_s": "s",
    "timeline.write_reports_s": "s",
    "timeline.days": "count",
    "timeline.reread_tweets_per_s": "1/s",
    "layer_self_s.corpus": "s",
    "layer_self_s.tokenizer": "s",
    "layer_self_s.encoder": "s",
    "layer_self_s.trainer": "s",
    "layer_self_s.metrics": "s",
    "layer_self_s.timeline": "s",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_share": "ratio",
    "trace.setup_s": "s",
}

HIGHER_IS_BETTER = {
    "tokenizer.real_pieces_mean", "encoder.real_token_share", "metrics.macro_f1",
    "timeline.reread_tweets_per_s", "corpus.tweets", "tokenizer.vocab_size",
}

CS, TS, TR = "classify-short", "timeline-scale", "train-short"
SETUP = "setup_s"
TPS = "tweets_per_s"

# per-layer metric -> (end-to-end metric it should move, workloads where it does)
LAYER_MAP = {
    "corpus.ingest_s": (TPS, [TS]),
    "corpus.tweets": ("failed/attempted", [CS, TS]),
    "corpus.rejects": ("failed/attempted", [CS, TS]),
    "tokenizer.encode_s": (TPS, [TS, CS]),
    "tokenizer.encode_calls": (TPS, [TS]),
    "tokenizer.build_vocab_s": (TPS, [TR]),
    "encoder.forward_s": (TPS, [CS, TR]),
    "encoder.forward_ms_p50": (TPS, [CS, TR]),
    "encoder.forward_ms_p99": (TPS, [CS, TR]),
    "encoder.real_token_share": (TPS, [CS]),
    "encoder.backward_s": (TPS, [TR]),
    "encoder.collate_s": (TPS, [CS, TS, TR]),
    "encoder.checkpoint_s": (SETUP, [CS, TS, TR]),
    "trainer.adam_s": (TPS, [TR]),
    "trainer.step_ms_p50": (TPS, [TR]),
    "trainer.self_s": (TPS, [TR]),
    "metrics.evaluate_s": (TPS, [TR]),
    "metrics.predict_batches_self_s": (TPS, [CS, TS]),
    "timeline.classify_self_s": (TPS, [TS]),
    "timeline.write_classified_s": (TPS, [TS]),
    "timeline.read_classified_s": ("timeline.reread_tweets_per_s", [TS]),
    "timeline.aggregate_s": (TPS, [TS]),
    "timeline.peaks_s": (TPS, [TS]),
    "timeline.write_reports_s": (TPS, [TS]),
    "trace.setup_s": (SETUP, [CS, TS, TR]),
}

# Spans that must record at least one call in the traced set-up and pass
# of each workload, so a refactor that routes around a wrapped name fails
# the run instead of quietly folding the time into the parent span.
_CLASSIFY_PASS = [
    "corpus.ingest_jsonl", "timeline.classify_corpus", "metrics.predict_batches",
    "tokenizer.encode", "encoder.collate", "encoder.forward_with_cache",
    "timeline.write_classified", "timeline.read_classified", "timeline.aggregate_daily",
    "timeline.share", "timeline.detect_peaks", "timeline.write_timeline_csv",
    "timeline.write_peak_report",
]
_CHECKPOINT = ["encoder.save_checkpoint", "encoder.load_checkpoint"]
EXPECTED_SPANS = {
    CS: {
        "setup": ["tokenizer.build_vocab", "trainer.train", "encoder.backward_from_logits",
                  "trainer.adam_step", *_CHECKPOINT],
        "pass": _CLASSIFY_PASS,
    },
    TS: {"setup": ["tokenizer.build_vocab", *_CHECKPOINT], "pass": _CLASSIFY_PASS},
    TR: {
        "setup": ["corpus.ingest_jsonl"],
        "pass": [
            "tokenizer.build_vocab", "trainer.train", "tokenizer.encode", "encoder.collate",
            "encoder.forward_with_cache", "encoder.backward_from_logits", "trainer.adam_step",
            "encoder.save_checkpoint", "metrics.evaluate", "metrics.predict_batches",
        ],
    },
}


def benchmark_json() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, (u, b, bound) in END_TO_END.items()
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": "higher" if n in HIGHER_IS_BETTER else "lower"}
            for n, u in PER_LAYER.items()
        ],
    }
