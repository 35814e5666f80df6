"""Command-line entry point wiring all pipeline stages.

Commands and their outputs (all under --out, default ./out):

    build-vocab    vocab.txt, rejects_labeled.jsonl, manifest_build_vocab.json
    train          model.ckpt, train_trace.txt, split_manifest.json,
                   rejects_labeled.jsonl, manifest_train.json
    evaluate       eval_report.json, roc_<category>.csv (x4),
                   fig_confusion.svg, fig_roc.svg, fig_prf.svg,
                   rejects_labeled.jsonl, manifest_evaluate.json
    classify       classified.jsonl, rejects_corpus.jsonl, manifest_classify.json
    timeline       timeline.csv, peaks.json, fig_timeline.svg,
                   classified.jsonl and rejects_corpus.jsonl (unless a
                   classified file is reused), manifest_timeline.json
    gen-synthetic  synthetic_labeled.jsonl, synthetic_corpus.jsonl,
                   manifest_gen_synthetic.json

A rejects file is written on every ingest, empty when no record was rejected.

Every command runs one lifecycle (`pipeline_command`): resolve the config,
lock the output directory, run the body, then move its outputs, each written
under a temporary name, into place and write the RunManifest last, so a
failed run leaves earlier outputs as they were. Any config key can be
forced with --set KEY=VALUE, repeated as needed.

Exit codes: 0 success, 2 usage or path problems, 3 data validation
failures, 4 numerical failures.
"""

from __future__ import annotations

import datetime as dt
import functools
import os
import resource
import sys
from pathlib import Path

import click

from . import __version__
from .config import CONFIG_KEYS, PipelineConfig, config_snapshot, encoder_config
from .config import resolve_config, train_config
from .corpus import (
    CATEGORY_SLUGS,
    Category,
    DatasetSplit,
    IngestResult,
    check_train_fraction,
    ingest_jsonl,
    labeled_subset,
    split_dataset,
    write_jsonl,
    write_rejects,
    write_split_manifest,
)
from .encoder import ModelParams, load_checkpoint, save_checkpoint
from .errors import DataValidationError, InputPathError, StancewatchError
from .manifest import RunManifest, output_lock, partial_path
from .metrics import check_batch_size, evaluate, write_report, write_roc_csv
from .svg import confusion_svg, prf_bars_svg, roc_svg, timeline_svg
from .synth import (
    DEFAULT_BASE_SHARES,
    DEFAULT_SPIKE_ANTI_SHARE,
    DEFAULT_SPIKE_DAYS,
    DEFAULT_START_DATE,
    generate_corpus,
    generate_labeled,
)
from .timeline import (
    Classified,
    aggregate_daily,
    check_peak_parameters,
    check_utc_offset,
    classify_corpus,
    detect_peaks,
    read_classified,
    share,
    smooth_shares,
    write_classified,
    write_peak_report,
    write_timeline_csv,
)
from .tokenizer import Vocabulary, build_vocab, check_vocab_settings
from .trainer import train as run_training
from .trainer import write_trace

COMMON_OPTIONS = (
    click.option("--config", "config_path", type=click.Path(), default=None,
                 help="INI config file."),
    click.option("--out", "out_dir", default=None, help="Output directory."),
    click.option("--set", "set_kv", multiple=True, metavar="KEY=VALUE",
                 help="Override any config key."),
    click.option("--seed-split", type=int, default=None),
    click.option("--seed-init", type=int, default=None),
    click.option("--seed-shuffle", type=int, default=None),
    click.option("--seed-dropout", type=int, default=None),
    click.option("--quiet", is_flag=True, default=False, help="Suppress progress output."),
)


def peak_rss_mb() -> float:
    """Peak RSS in MB, from ``ru_maxrss``: kilobytes on Linux, bytes on macOS."""
    unit = 1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0
    return round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / unit, 1)


class Run:
    """One command's run: resolved config, output directory, manifest, and
    the outputs written under temporary names until the command succeeds."""

    def __init__(self, command: str, config: PipelineConfig, quiet: bool):
        self.config = config
        self.out = Path(config.out_dir)
        self.manifest = RunManifest(command, config_snapshot(config))
        self.quiet = quiet
        self.final: dict[Path, Path] = {}  # temporary path -> final path

    def say(self, msg: str) -> None:
        if not self.quiet:
            click.echo(msg)

    def input(self, name: str, path: str | Path, what: str, flag: str) -> Path:
        """Check that an input file exists and record its hash in the manifest."""
        if not path:
            raise InputPathError(f"no {what} given (use {flag} or set it in the config file)")
        p = Path(path)
        if not p.is_file():
            raise InputPathError(f"{what} not found: {p}")
        self.manifest.add_input(name, p)
        return p

    def output(self, explicit: str, filename: str) -> Path:
        """Register an output (the explicit path, else out/filename) and
        return the temporary path to write it to."""
        final = Path(explicit) if explicit else self.out / filename
        if not final.parent.is_dir():
            raise InputPathError(f"output directory not found: {final.parent}")
        if final.is_dir():
            raise InputPathError(f"output path is a directory: {final}")
        self.manifest.add_output(final)
        tmp = partial_path(final)
        self.final[tmp] = final
        return tmp

    def commit(self, manifest_path: Path) -> None:
        """Move every output into place, then write the manifest last."""
        for tmp, final in self.final.items():
            os.replace(tmp, final)
        self.manifest.write(manifest_path)

    def discard(self) -> None:
        for tmp in self.final:
            tmp.unlink(missing_ok=True)

    def ingest(self, path: Path, tag: str) -> IngestResult:
        result = ingest_jsonl(path)
        # Written even when empty, so no earlier run's rejects outlive this run's manifest
        reject_path = self.output("", f"rejects_{tag}.jsonl")
        write_rejects(result.rejects, reject_path)
        if result.rejects:
            self.say(f"rejected {len(result.rejects)} records -> {self.final[reject_path]}")
        return result

    def labeled_split(self) -> DatasetSplit:
        """Ingest the labeled file and split it with the configured seed."""
        labeled = self.input("labeled", self.config.labeled_path, "labeled file", "--labeled")
        with self.manifest.stage("ingest"):
            data = labeled_subset(self.ingest(labeled, "labeled").tweets)
        with self.manifest.stage("split"):
            return split_dataset(data, self.config.train_fraction, self.config.seed_split)

    def vocab(self) -> Vocabulary:
        path = self.config.vocab_path or self.out / "vocab.txt"
        return Vocabulary.load(self.input("vocab", path, "vocabulary file", "--vocab"))

    def model_and_vocab(self) -> tuple[ModelParams, Vocabulary]:
        vocab = self.vocab()
        path = self.config.checkpoint_path or self.out / "model.ckpt"
        return load_checkpoint(self.input("checkpoint", path, "checkpoint", "--checkpoint")), vocab

    def classify_to_file(self) -> tuple[Classified, Path]:
        """Classify the corpus with the trained model and write classified.jsonl."""
        check_batch_size(self.config.classify_batch_size, "classify_batch_size")
        corpus = self.input("corpus", self.config.corpus_path, "corpus file", "--corpus")
        path = self.output(self.config.classified_path, "classified.jsonl")
        params, vocab = self.model_and_vocab()
        with self.manifest.stage("ingest"):
            tweets = self.ingest(corpus, "corpus").tweets
        stats: dict = {}
        with self.manifest.stage("classify"):
            classified = classify_corpus(params, vocab, tweets, self.config.classify_batch_size, stats)
        with self.manifest.stage("write_classified"):
            write_classified(classified, path)
        # Run facts that vary with the machine: kept out of the manifest body.
        self.manifest.timings_s["classify_threads"] = stats["threads"]
        self.manifest.timings_s["peak_rss_mb"] = peak_rss_mb()
        return classified, self.final[path]


@click.group()
@click.version_option(version=__version__, prog_name="stancewatch")
def main() -> None:
    """Tweet stance classification and surge-date detection pipeline."""


def pipeline_command(name: str, *options):
    """Register `body(run, **extra)` as command `name` with the common
    options plus `options`. Options that are config keys go into the
    config; the others reach the body as keyword arguments."""

    def register(body):
        @functools.wraps(body)
        def command(config_path, set_kv, quiet, **kwargs):
            flags = {key: kwargs.pop(key) for key in CONFIG_KEYS & kwargs.keys()}
            try:
                run = Run(name, resolve_config(config_path, set_kv, flags), quiet)
                with output_lock(run.out) as stale_pid:
                    if stale_pid is not None:
                        click.echo(f"took over the stale lock of process {stale_pid}", err=True)
                    try:
                        body(run, **kwargs)
                        run.commit(run.out / f"manifest_{name.replace('-', '_')}.json")
                    finally:
                        run.discard()
            except StancewatchError as exc:
                click.echo(f"error: {exc}", err=True)
                sys.exit(exc.exit_code)

        for option in reversed(COMMON_OPTIONS + options):
            command = option(command)
        return main.command(name)(command)

    return register


@pipeline_command(
    "build-vocab",
    click.option("--labeled", "labeled_path", default=None, help="Labeled JSONL file."),
    click.option("--vocab-max-size", type=int, default=None),
    click.option("--min-pair-freq", type=int, default=None),
)
def cmd_build_vocab(run: Run) -> None:
    """Learn a WordPiece vocabulary from the training split only."""
    check_train_fraction(run.config.train_fraction)
    check_vocab_settings(run.config.vocab_max_size, run.config.min_pair_freq)
    vocab_path = run.output(run.config.vocab_path, "vocab.txt")
    split = run.labeled_split()
    stats: dict = {}
    with run.manifest.stage("build_vocab"):
        texts = [t.text for t in split.train.examples]
        vocab = build_vocab(texts, run.config.vocab_max_size, run.config.min_pair_freq, stats)
    run.manifest.results["vocab"] = {"tokens": len(vocab), **stats}
    vocab.save(vocab_path)
    run.say(f"vocabulary: {len(vocab)} tokens (from {len(split.train)} train texts) "
            f"-> {run.final[vocab_path]}")


@pipeline_command(
    "train",
    click.option("--labeled", "labeled_path", default=None, help="Labeled JSONL file."),
    click.option("--vocab", "vocab_path", default=None, help="Vocabulary file."),
    click.option("--checkpoint", "checkpoint_path", default=None, help="Checkpoint output path."),
    click.option("--lr", "learning_rate", type=float, default=None),
    click.option("--epochs", type=int, default=None),
    click.option("--batch-size", type=int, default=None),
    click.option("--max-len", type=int, default=None),
    click.option("--d-model", type=int, default=None),
    click.option("--n-layers", type=int, default=None),
    click.option("--n-heads", type=int, default=None),
    click.option("--train-fraction", type=float, default=None),
    click.option("--head-only", is_flag=True, default=None,
                 help="Freeze everything except the pooler and classifier."),
)
def cmd_train(run: Run) -> None:
    """Split the labeled set and fine-tune the encoder on the train half."""
    config = run.config
    training = train_config(config)
    check_train_fraction(config.train_fraction)
    vocab = run.vocab()
    model_config = encoder_config(config, len(vocab))
    ckpt_path = run.output(config.checkpoint_path, "model.ckpt")
    trace_path = run.output("", "train_trace.txt")
    split_path = run.output("", "split_manifest.json")
    split = run.labeled_split()
    write_split_manifest(split, split_path)
    run.say(f"training on {len(split.train)} examples, testing on {len(split.test)}")
    with run.manifest.stage("train"):
        trace = run_training(split, vocab, model_config, training)
    with run.manifest.stage("save"):
        save_checkpoint(trace.params, ckpt_path)
        write_trace(trace, trace_path)
    run.say(f"epoch 1 loss {trace.epoch_losses[0]:.6f} -> epoch {len(trace.epoch_losses)} "
            f"loss {trace.epoch_losses[-1]:.6f}, final train accuracy "
            f"{trace.epoch_accuracies[-1]:.4f}")
    run.say(f"checkpoint -> {run.final[ckpt_path]}")


@pipeline_command(
    "evaluate",
    click.option("--labeled", "labeled_path", default=None, help="Labeled JSONL file."),
    click.option("--vocab", "vocab_path", default=None),
    click.option("--checkpoint", "checkpoint_path", default=None),
    click.option("--eval-batch-size", type=int, default=None),
    click.option("--train-fraction", type=float, default=None),
)
def cmd_evaluate(run: Run) -> None:
    """Score the held-out split: metrics document, ROC CSVs, figures."""
    check_batch_size(run.config.eval_batch_size, "eval_batch_size")
    check_train_fraction(run.config.train_fraction)
    params, vocab = run.model_and_vocab()
    split = run.labeled_split()
    with run.manifest.stage("evaluate"):
        report = evaluate(params, vocab, split.test, run.config.eval_batch_size)
    report_path = run.output("", "eval_report.json")
    write_report(report, report_path)
    for slug, curve in zip(CATEGORY_SLUGS, report.roc_curves):
        write_roc_csv(curve, run.output("", f"roc_{slug}.csv"))
    with run.manifest.stage("figures"):
        for name, svg_text in (
            ("fig_confusion.svg", confusion_svg(report.confusion)),
            ("fig_roc.svg", roc_svg(report)),
            ("fig_prf.svg", prf_bars_svg(report)),
        ):
            run.output("", name).write_text(svg_text, encoding="utf-8")
    run.say(f"n={report.n_examples}  macro F1 {report.macro_f1:.4f}  "
            f"weighted F1 {report.weighted_f1:.4f}  accuracy {report.accuracy:.4f}")
    run.say(f"report -> {run.final[report_path]}")


@pipeline_command(
    "classify",
    click.option("--corpus", "corpus_path", default=None, help="Unlabeled corpus JSONL file."),
    click.option("--vocab", "vocab_path", default=None),
    click.option("--checkpoint", "checkpoint_path", default=None),
    click.option("--classify-batch-size", type=int, default=None),
)
def cmd_classify(run: Run) -> None:
    """Run inference over a corpus and write per-tweet predictions."""
    classified, classified_path = run.classify_to_file()
    run.say(f"classified {len(classified)} tweets -> {classified_path}")


@pipeline_command(
    "timeline",
    click.option("--corpus", "corpus_path", default=None, help="Unlabeled corpus JSONL file."),
    click.option("--vocab", "vocab_path", default=None),
    click.option("--checkpoint", "checkpoint_path", default=None),
    click.option("--classified", "classified_path", default=None,
                 help="Reuse an existing classified.jsonl instead of reclassifying."),
    click.option("--utc-offset-minutes", type=int, default=None),
    click.option("--min-prominence", type=float, default=None),
    click.option("--top-k", type=int, default=None),
    click.option("--smoothing-window", type=int, default=None,
                 help="Odd moving-average window; 0 keeps raw shares."),
)
def cmd_timeline(run: Run) -> None:
    """Classify the corpus, bin per day, and report anti-vaccine surge dates."""
    config = run.config
    window = config.smoothing_window or None  # 0 keeps raw shares
    check_peak_parameters(config.min_prominence, config.top_k, window)
    check_utc_offset(config.utc_offset_minutes)
    if config.classified_path:
        reused = run.input("classified", config.classified_path, "classified file", "--classified")
        with run.manifest.stage("read_classified"):
            classified = read_classified(reused)
        run.say(f"reusing {len(classified)} classified tweets from {reused}")
    else:
        classified, _ = run.classify_to_file()
    with run.manifest.stage("aggregate"):
        series = aggregate_daily(classified, config.utc_offset_minutes)
        anti_shares = share(series, Category.ANTI_VACCINE)
    with run.manifest.stage("peaks"):
        peaks = detect_peaks(
            anti_shares, Category.ANTI_VACCINE, min_prominence=config.min_prominence,
            top_k=config.top_k, smoothing_window=window,
        )
    write_timeline_csv(series, run.output("", "timeline.csv"))
    write_peak_report(peaks, run.output("", "peaks.json"))
    with run.manifest.stage("figures"):
        fig_shares = smooth_shares(anti_shares, window) if window else anti_shares
        label = f"smoothed, window {window}" if window else "raw"
        fig_svg = timeline_svg(series, fig_shares, peaks, label)
        run.output("", "fig_timeline.svg").write_text(fig_svg, encoding="utf-8")
    top = ", ".join(f"{p.date.isoformat()} ({p.share:.1f}%)" for p in peaks.local_maxima)
    run.say(f"{len(series.bins)} days, global max {peaks.global_max_date.isoformat()}")
    run.say(f"peaks: {top if top else 'none'}")


@pipeline_command(
    "gen-synthetic",
    click.option("--per-class", type=int, default=100, show_default=True,
                 help="Labeled examples per category."),
    click.option("--days", type=int, default=30, show_default=True),
    click.option("--per-day", type=int, default=500, show_default=True),
    click.option("--start-date", default=DEFAULT_START_DATE.isoformat(), show_default=True),
    click.option("--base-shares", default=",".join(str(s) for s in DEFAULT_BASE_SHARES),
                 show_default=True, help="Comma-separated category shares, sum 1."),
    click.option("--spike-days", default=",".join(str(d) for d in DEFAULT_SPIKE_DAYS),
                 show_default=True, help="0-based day offsets that get the anti-share spike."),
    click.option("--spike-share", type=float, default=DEFAULT_SPIKE_ANTI_SHARE, show_default=True),
    click.option("--labeled-seed", type=int, default=101, show_default=True),
    click.option("--corpus-seed", type=int, default=202, show_default=True),
)
def cmd_gen_synthetic(run: Run, per_class, days, per_day, start_date, base_shares,
                      spike_days, spike_share, labeled_seed, corpus_seed) -> None:
    """Generate the bundled synthetic labeled set and spiked corpus."""
    check_utc_offset(run.config.utc_offset_minutes)
    try:
        start = dt.date.fromisoformat(start_date)
        shares_vec = tuple(float(s) for s in base_shares.split(","))
        spikes = tuple(int(s) for s in spike_days.split(",")) if spike_days.strip() else ()
    except ValueError as exc:
        raise DataValidationError(f"bad generator option: {exc}")
    run.manifest.config["generator"] = {
        "per_class": per_class, "days": days, "per_day": per_day,
        "start_date": start.isoformat(), "base_shares": list(shares_vec),
        "spike_days": list(spikes), "spike_share": spike_share,
        "labeled_seed": labeled_seed, "corpus_seed": corpus_seed,
    }
    labeled_path = run.output("", "synthetic_labeled.jsonl")
    corpus_path = run.output("", "synthetic_corpus.jsonl")
    offset = run.config.utc_offset_minutes
    with run.manifest.stage("labeled"):
        labeled = generate_labeled(
            per_class=per_class, seed=labeled_seed, start_date=start, utc_offset_minutes=offset,
        )
        write_jsonl(labeled, labeled_path)
    with run.manifest.stage("corpus"):
        corpus = generate_corpus(
            days=days, per_day=per_day, seed=corpus_seed, start_date=start,
            base_shares=shares_vec, spike_days=spikes, spike_anti_share=spike_share,
            utc_offset_minutes=offset,
        )
        write_jsonl(corpus, corpus_path)
    run.say(f"{len(labeled)} labeled examples -> {run.final[labeled_path]}")
    run.say(f"{len(corpus)} corpus tweets over {days} days -> {run.final[corpus_path]}")


if __name__ == "__main__":
    main()
