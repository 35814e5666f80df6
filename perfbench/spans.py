"""Span tracing for the benchmark's traced run.

Spans are recorded only from the benchmark's own files: around each call
the benchmark makes into a pipeline module (`Tracer.call`), and, while a
traced phase is open, around the calls modules make into one another. For
the latter the tracer swaps a timing wrapper in for each name listed in
PATCHES in the calling module's namespace, and puts the original back
when the phase closes. No file of the program changes, and the untraced
runs that give the end-to-end metrics call the originals.

A span's self time is its duration minus the durations of its direct
children. The pipeline is single-threaded, so children never overlap and
the self times of a phase plus its unattributed time (benchmark glue
outside every span) add up to the phase's wall time.
"""

from __future__ import annotations

import contextlib
import functools
from collections import defaultdict
from time import perf_counter

import numpy as np

import stancewatch.metrics as sw_metrics
import stancewatch.timeline as sw_timeline
import stancewatch.trainer as sw_trainer

# (module, name in that module's namespace, span name)
PATCHES = [
    (sw_metrics, "encode", "tokenizer.encode"),
    (sw_metrics, "collate", "encoder.collate"),
    (sw_metrics, "forward_with_cache", "encoder.forward_with_cache"),
    (sw_metrics, "predict_batches", "metrics.predict_batches"),
    (sw_timeline, "predict_batches", "metrics.predict_batches"),
    (sw_trainer, "encode", "tokenizer.encode"),
    (sw_trainer, "collate", "encoder.collate"),
    (sw_trainer, "forward_with_cache", "encoder.forward_with_cache"),
    (sw_trainer, "backward_from_logits", "encoder.backward_from_logits"),
    (sw_trainer, "adam_step", "trainer.adam_step"),
]

LAYERS = ("corpus", "tokenizer", "encoder", "trainer", "metrics", "timeline")


class NullTracer:
    """Stand-in for untraced runs: calls go straight through."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    @contextlib.contextmanager
    def phase(self, name):
        yield


class Span:
    __slots__ = ("name", "start", "end", "parent", "phase")

    def __init__(self, name, start, parent, phase):
        self.name, self.start, self.end, self.parent, self.phase = name, start, start, parent, phase

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.walls: dict[str, float] = defaultdict(float)
        self.encoded: dict[str, list[int]] = defaultdict(list)  # phase -> n_real per encode
        self.forwards: dict[str, list[tuple]] = defaultdict(list)  # phase -> (B, T, real, config)
        self._stack: list[int] = []
        self._phase: str | None = None

    def call(self, name, fn, *args, **kwargs):
        idx = len(self.spans)
        self.spans.append(Span(name, perf_counter(), self._stack[-1] if self._stack else -1, self._phase))
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self.spans[idx].end = perf_counter()

    def _note(self, span: str, args, result) -> None:
        if span == "tokenizer.encode":
            self.encoded[self._phase].append(result.n_real)
        elif span == "encoder.forward_with_cache":
            params, ids, mask = args[:3]
            self.forwards[self._phase].append((*ids.shape, float(mask.sum()), params.config))

    def _wrapper(self, span: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.call(span, fn, *args, **kwargs)
            self._note(span, args, result)
            return result
        return traced

    @contextlib.contextmanager
    def phase(self, name: str):
        """Record spans under `name` with every PATCHES name wrapped."""
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in PATCHES]
        for mod, attr, span in PATCHES:
            setattr(mod, attr, self._wrapper(span, getattr(mod, attr)))
        self._phase = name
        start = perf_counter()
        try:
            yield
        finally:
            self.walls[name] += perf_counter() - start
            self._phase = None
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    def summary(self, phase: str) -> "PhaseSummary":
        return PhaseSummary(self, phase)


def _pct(values, q) -> float:
    return float(np.percentile(values, q)) if values else 0.0


class PhaseSummary:
    """Totals, self times and call counts per span name for one phase."""

    def __init__(self, tracer: Tracer, phase: str):
        spans = tracer.spans
        child_time = [0.0] * len(spans)
        self.children: dict[int, list[int]] = defaultdict(list)
        for i, s in enumerate(spans):
            if s.parent >= 0:
                child_time[s.parent] += s.dur
                self.children[s.parent].append(i)
        self.spans = spans
        self.idx = [i for i, s in enumerate(spans) if s.phase == phase]
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.durations: dict[str, list[float]] = defaultdict(list)
        for i in self.idx:
            s = spans[i]
            self.total[s.name] += s.dur
            self.self_time[s.name] += s.dur - child_time[i]
            self.calls[s.name] += 1
            self.durations[s.name].append(s.dur)
        self.wall = tracer.walls[phase]
        top = sum(spans[i].dur for i in self.idx if spans[i].parent < 0)
        self.unattributed = self.wall - top
        self.encoded = tracer.encoded[phase]
        self.forwards = tracer.forwards[phase]

    def layer_self(self, layer: str) -> float:
        return sum(t for name, t in self.self_time.items() if name.split(".")[0] == layer)

    def reconciles(self) -> bool:
        """Self times plus unattributed time give back the wall time."""
        parts = sum(self.layer_self(layer) for layer in LAYERS) + self.unattributed
        return abs(parts - self.wall) <= 1e-6 * max(1.0, self.wall) and set(
            name.split(".")[0] for name in self.calls
        ) <= set(LAYERS)

    def train_steps_ms(self) -> list[float]:
        """One step runs from a collate call inside train() to the end of
        the adam_step that follows it."""
        steps = []
        for i in self.idx:
            if self.spans[i].name != "trainer.train":
                continue
            start = None
            for c in self.children[i]:
                child = self.spans[c]
                if child.name == "encoder.collate" and start is None:
                    start = child.start
                elif child.name == "trainer.adam_step" and start is not None:
                    steps.append(1e3 * (child.end - start))
                    start = None
        return steps

    def gflop(self) -> dict[str, float]:
        """Forward FLOPs computed from (B, T, d, L, H, d_ff), two per multiply-add."""
        out = {"qkv": 0.0, "attn": 0.0, "out_proj": 0.0, "ffn": 0.0}
        for b, t, _, cfg in self.forwards:
            rows, d, layers = b * t, cfg.d_model, cfg.n_layers
            out["qkv"] += layers * 3 * 2 * rows * d * d
            out["attn"] += layers * 2 * 2 * b * cfg.n_heads * t * t * cfg.d_head
            out["out_proj"] += layers * 2 * rows * d * d
            out["ffn"] += layers * 2 * 2 * rows * d * cfg.d_ff
        return {k: v / 1e9 for k, v in out.items()}

    def metrics(self) -> dict[str, float]:
        """The span-derived per-layer metrics of spec.PER_LAYER."""
        tot, slf, calls = self.total, self.self_time, self.calls
        fwd_ms = [1e3 * d for d in self.durations["encoder.forward_with_cache"]]
        steps = self.train_steps_ms()
        padded = sum(b * t for b, t, _, _ in self.forwards)
        m = {
            "corpus.ingest_s": tot["corpus.ingest_jsonl"],
            "tokenizer.encode_s": tot["tokenizer.encode"],
            "tokenizer.encode_calls": calls["tokenizer.encode"],
            "tokenizer.build_vocab_s": tot["tokenizer.build_vocab"],
            "encoder.forward_s": tot["encoder.forward_with_cache"],
            "encoder.forward_calls": calls["encoder.forward_with_cache"],
            "encoder.forward_ms_p50": _pct(fwd_ms, 50),
            "encoder.forward_ms_p99": _pct(fwd_ms, 99),
            "encoder.forward_samples": len(fwd_ms),
            "encoder.real_token_share": sum(r for _, _, r, _ in self.forwards) / padded if padded else 0.0,
            "encoder.backward_s": tot["encoder.backward_from_logits"],
            "encoder.backward_calls": calls["encoder.backward_from_logits"],
            "encoder.collate_s": tot["encoder.collate"],
            "trainer.adam_s": tot["trainer.adam_step"],
            "trainer.adam_calls": calls["trainer.adam_step"],
            "trainer.step_ms_p50": _pct(steps, 50),
            "trainer.step_ms_p99": _pct(steps, 99),
            "trainer.steps": len(steps),
            "trainer.self_s": slf["trainer.train"],
            "metrics.evaluate_s": tot["metrics.evaluate"],
            "metrics.predict_batches_self_s": slf["metrics.predict_batches"],
            "timeline.classify_self_s": slf["timeline.classify_corpus"],
            "timeline.write_classified_s": tot["timeline.write_classified"],
            "timeline.read_classified_s": tot["timeline.read_classified"],
            "timeline.aggregate_s": tot["timeline.aggregate_daily"] + tot["timeline.share"],
            "timeline.peaks_s": tot["timeline.detect_peaks"],
            "timeline.write_reports_s": tot["timeline.write_timeline_csv"] + tot["timeline.write_peak_report"],
            "trace.wall_s": self.wall,
            "trace.unattributed_s": self.unattributed,
        }
        m.update({f"encoder.gflop.{k}": v for k, v in self.gflop().items()})
        m.update({f"layer_self_s.{layer}": self.layer_self(layer) for layer in LAYERS})
        return m
