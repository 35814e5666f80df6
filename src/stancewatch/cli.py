"""Command-line entry point wiring all pipeline stages.

Commands and their outputs (all under --out, default ./out):

    build-vocab    vocab.txt, manifest_build_vocab.json
    train          model.ckpt, train_trace.txt, split_manifest.json,
                   manifest_train.json
    evaluate       eval_report.json, roc_<category>.csv (x4),
                   fig_confusion.svg, fig_roc.svg, fig_prf.svg,
                   manifest_evaluate.json
    classify       classified.jsonl, manifest_classify.json
    timeline       timeline.csv, peaks.json, fig_timeline.svg,
                   classified.jsonl (unless one is reused),
                   manifest_timeline.json
    gen-synthetic  synthetic_labeled.jsonl, synthetic_corpus.jsonl,
                   manifest_gen_synthetic.json

Exit codes: 0 success, 2 usage or path problems, 3 data validation
failures, 4 numerical failures. Every command writes a RunManifest and
holds a lock file in the output directory while it runs. Any config key
can be forced with --set KEY=VALUE, repeated as needed.
"""

from __future__ import annotations

import datetime as dt
import functools
import sys
from pathlib import Path

import click

from . import __version__
from .config import (
    PipelineConfig,
    apply_overrides,
    config_snapshot,
    encoder_config,
    load_config,
    parse_kv,
    train_config,
)
from .corpus import (
    Category,
    IngestResult,
    ingest_jsonl,
    labeled_subset,
    split_dataset,
    write_jsonl,
    write_rejects,
    write_split_manifest,
)
from .encoder import load_checkpoint, save_checkpoint
from .errors import DataValidationError, InputPathError, StancewatchError
from .manifest import RunManifest, output_lock
from .metrics import evaluate, write_report, write_roc_csvs
from .svg import confusion_svg, prf_bars_svg, roc_svg, timeline_svg
from .synth import (
    DEFAULT_BASE_SHARES,
    DEFAULT_SPIKE_ANTI_SHARE,
    DEFAULT_START_DATE,
    generate_corpus,
    generate_labeled,
)
from .timeline import (
    Classified,
    aggregate_daily,
    classify_corpus,
    detect_peaks,
    read_classified,
    share,
    smooth_shares,
    write_classified,
    write_peak_report,
    write_timeline_csv,
)
from .tokenizer import Vocabulary, build_vocab
from .trainer import train as run_training
from .trainer import write_trace


def _fail(exc: StancewatchError) -> None:
    click.echo(f"error: {exc}", err=True)
    sys.exit(exc.exit_code)


def pipeline_command(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except StancewatchError as exc:
            _fail(exc)

    return wrapper


def common_options(fn):
    decorators = [
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
    ]
    for dec in reversed(decorators):
        fn = dec(fn)
    return fn


def resolve_config(config_path, set_kv, out_dir, **flags) -> PipelineConfig:
    config = load_config(config_path)
    pairs = {}
    for item in set_kv:
        if "=" not in item:
            raise DataValidationError(f"--set expects KEY=VALUE, got {item!r}")
        key, raw = item.split("=", 1)
        key = key.strip().replace("-", "_")
        pairs[key] = parse_kv(key, raw)
    apply_overrides(config, pairs)
    flags["out_dir"] = out_dir
    apply_overrides(config, flags)
    return config


def _say(quiet: bool, msg: str) -> None:
    if not quiet:
        click.echo(msg)


def _require(path: str, what: str, flag: str) -> Path:
    if not path:
        raise InputPathError(f"no {what} given (use {flag} or set it in the config file)")
    p = Path(path)
    if not p.is_file():
        raise InputPathError(f"{what} not found: {p}")
    return p


def _default_path(explicit: str, out: Path, filename: str) -> Path:
    return Path(explicit) if explicit else out / filename


def _ingest(path: Path, out: Path, tag: str, manifest: RunManifest, quiet: bool) -> IngestResult:
    result = ingest_jsonl(path)
    if result.rejects:
        reject_path = out / f"rejects_{tag}.jsonl"
        write_rejects(result.rejects, reject_path)
        manifest.add_output(reject_path)
        _say(quiet, f"rejected {len(result.rejects)} records -> {reject_path}")
    return result


def _load_model_and_vocab(config: PipelineConfig, out: Path, manifest: RunManifest):
    vocab_path = _require(
        str(_default_path(config.vocab_path, out, "vocab.txt")), "vocabulary file", "--vocab"
    )
    ckpt_path = _require(
        str(_default_path(config.checkpoint_path, out, "model.ckpt")), "checkpoint", "--checkpoint"
    )
    manifest.add_input("vocab", vocab_path)
    manifest.add_input("checkpoint", ckpt_path)
    return load_checkpoint(ckpt_path), Vocabulary.load(vocab_path)


def _classify_to_file(
    config: PipelineConfig, corpus: Path, out: Path, manifest: RunManifest, quiet: bool
) -> tuple[Classified, Path]:
    """Load model and vocabulary, classify the corpus, write classified.jsonl."""
    manifest.add_input("corpus", corpus)
    params, vocab = _load_model_and_vocab(config, out, manifest)
    with manifest.stage("ingest"):
        tweets = _ingest(corpus, out, "corpus", manifest, quiet).tweets
    with manifest.stage("classify"):
        classified = classify_corpus(params, vocab, tweets, config.classify_batch_size)
    path = _default_path(config.classified_path, out, "classified.jsonl")
    with manifest.stage("write_classified"):
        write_classified(classified, path)
    manifest.add_output(path)
    return classified, path


@click.group()
@click.version_option(version=__version__, prog_name="stancewatch")
def main() -> None:
    """Tweet stance classification and surge-date detection pipeline."""


@main.command("build-vocab")
@common_options
@click.option("--labeled", "labeled_path", default=None, help="Labeled JSONL file.")
@click.option("--vocab-max-size", type=int, default=None)
@click.option("--min-pair-freq", type=int, default=None)
@pipeline_command
def cmd_build_vocab(config_path, set_kv, out_dir, quiet, **flags):
    """Learn a WordPiece vocabulary from the training split only."""
    config = resolve_config(config_path, set_kv, out_dir, **flags)
    labeled = _require(config.labeled_path, "labeled file", "--labeled")
    out = Path(config.out_dir)
    with output_lock(out):
        manifest = RunManifest("build-vocab", config_snapshot(config))
        manifest.add_input("labeled", labeled)
        with manifest.stage("ingest"):
            data = labeled_subset(_ingest(labeled, out, "labeled", manifest, quiet).tweets)
        with manifest.stage("split"):
            split = split_dataset(data, config.train_fraction, config.seed_split)
        with manifest.stage("build_vocab"):
            vocab = build_vocab(
                [t.text for t in split.train.examples],
                config.vocab_max_size,
                config.min_pair_freq,
            )
        vocab_path = _default_path(config.vocab_path, out, "vocab.txt")
        vocab.save(vocab_path)
        manifest.add_output(vocab_path)
        manifest.write(out / "manifest_build_vocab.json")
    _say(quiet, f"vocabulary: {len(vocab)} tokens (from {len(split.train)} train texts) -> {vocab_path}")


@main.command("train")
@common_options
@click.option("--labeled", "labeled_path", default=None, help="Labeled JSONL file.")
@click.option("--vocab", "vocab_path", default=None, help="Vocabulary file.")
@click.option("--checkpoint", "checkpoint_path", default=None, help="Checkpoint output path.")
@click.option("--lr", "learning_rate", type=float, default=None)
@click.option("--epochs", type=int, default=None)
@click.option("--batch-size", type=int, default=None)
@click.option("--max-len", type=int, default=None)
@click.option("--d-model", type=int, default=None)
@click.option("--n-layers", type=int, default=None)
@click.option("--n-heads", type=int, default=None)
@click.option("--train-fraction", type=float, default=None)
@click.option("--head-only", is_flag=True, default=False,
              help="Freeze everything except the pooler and classifier.")
@pipeline_command
def cmd_train(config_path, set_kv, out_dir, quiet, head_only, **flags):
    """Split the labeled set and fine-tune the encoder on the train half."""
    flags["head_only"] = True if head_only else None
    config = resolve_config(config_path, set_kv, out_dir, **flags)
    labeled = _require(config.labeled_path, "labeled file", "--labeled")
    vocab_path = _require(
        str(_default_path(config.vocab_path, out := Path(config.out_dir), "vocab.txt")),
        "vocabulary file", "--vocab",
    )
    with output_lock(out):
        manifest = RunManifest("train", config_snapshot(config))
        manifest.add_input("labeled", labeled)
        manifest.add_input("vocab", vocab_path)
        vocab = Vocabulary.load(vocab_path)
        with manifest.stage("ingest"):
            data = labeled_subset(_ingest(labeled, out, "labeled", manifest, quiet).tweets)
        with manifest.stage("split"):
            split = split_dataset(data, config.train_fraction, config.seed_split)
            split_path = out / "split_manifest.json"
            write_split_manifest(split, split_path)
            manifest.add_output(split_path)
        _say(quiet, f"training on {len(split.train)} examples, testing on {len(split.test)}")
        with manifest.stage("train"):
            trace = run_training(split, vocab, encoder_config(config, len(vocab)), train_config(config))
        ckpt_path = _default_path(config.checkpoint_path, out, "model.ckpt")
        trace_path = out / "train_trace.txt"
        with manifest.stage("save"):
            save_checkpoint(trace.params, ckpt_path)
            write_trace(trace, trace_path)
        manifest.add_output(ckpt_path)
        manifest.add_output(trace_path)
        manifest.write(out / "manifest_train.json")
    _say(quiet, f"epoch 1 loss {trace.epoch_losses[0]:.6f} -> epoch {len(trace.epoch_losses)} "
                f"loss {trace.epoch_losses[-1]:.6f}, final train accuracy "
                f"{trace.epoch_accuracies[-1]:.4f}")
    _say(quiet, f"checkpoint -> {ckpt_path}")


@main.command("evaluate")
@common_options
@click.option("--labeled", "labeled_path", default=None, help="Labeled JSONL file.")
@click.option("--vocab", "vocab_path", default=None)
@click.option("--checkpoint", "checkpoint_path", default=None)
@click.option("--eval-batch-size", type=int, default=None)
@click.option("--train-fraction", type=float, default=None)
@pipeline_command
def cmd_evaluate(config_path, set_kv, out_dir, quiet, **flags):
    """Score the held-out split: metrics document, ROC CSVs, figures."""
    config = resolve_config(config_path, set_kv, out_dir, **flags)
    labeled = _require(config.labeled_path, "labeled file", "--labeled")
    out = Path(config.out_dir)
    with output_lock(out):
        manifest = RunManifest("evaluate", config_snapshot(config))
        manifest.add_input("labeled", labeled)
        params, vocab = _load_model_and_vocab(config, out, manifest)
        with manifest.stage("ingest"):
            data = labeled_subset(_ingest(labeled, out, "labeled", manifest, quiet).tweets)
        with manifest.stage("split"):
            split = split_dataset(data, config.train_fraction, config.seed_split)
        with manifest.stage("evaluate"):
            report = evaluate(params, vocab, split.test, config.eval_batch_size)
        report_path = out / "eval_report.json"
        write_report(report, report_path)
        manifest.add_output(report_path)
        for p in write_roc_csvs(report, out):
            manifest.add_output(p)
        with manifest.stage("figures"):
            for name, svg_text in (
                ("fig_confusion.svg", confusion_svg(report.confusion)),
                ("fig_roc.svg", roc_svg(report)),
                ("fig_prf.svg", prf_bars_svg(report)),
            ):
                (out / name).write_text(svg_text, encoding="utf-8")
                manifest.add_output(out / name)
        manifest.write(out / "manifest_evaluate.json")
    _say(quiet, f"n={report.n_examples}  macro F1 {report.macro_f1:.4f}  "
                f"weighted F1 {report.weighted_f1:.4f}  accuracy {report.accuracy:.4f}")
    _say(quiet, f"report -> {report_path}")


@main.command("classify")
@common_options
@click.option("--corpus", "corpus_path", default=None, help="Unlabeled corpus JSONL file.")
@click.option("--vocab", "vocab_path", default=None)
@click.option("--checkpoint", "checkpoint_path", default=None)
@click.option("--classify-batch-size", type=int, default=None)
@pipeline_command
def cmd_classify(config_path, set_kv, out_dir, quiet, **flags):
    """Run inference over a corpus and write per-tweet predictions."""
    config = resolve_config(config_path, set_kv, out_dir, **flags)
    corpus = _require(config.corpus_path, "corpus file", "--corpus")
    out = Path(config.out_dir)
    with output_lock(out):
        manifest = RunManifest("classify", config_snapshot(config))
        classified, classified_path = _classify_to_file(config, corpus, out, manifest, quiet)
        manifest.write(out / "manifest_classify.json")
    _say(quiet, f"classified {len(classified)} tweets -> {classified_path}")


@main.command("timeline")
@common_options
@click.option("--corpus", "corpus_path", default=None, help="Unlabeled corpus JSONL file.")
@click.option("--vocab", "vocab_path", default=None)
@click.option("--checkpoint", "checkpoint_path", default=None)
@click.option("--classified", "classified_path", default=None,
              help="Reuse an existing classified.jsonl instead of reclassifying.")
@click.option("--utc-offset-minutes", type=int, default=None)
@click.option("--min-prominence", type=float, default=None)
@click.option("--top-k", type=int, default=None)
@click.option("--smoothing-window", type=int, default=None,
              help="Odd moving-average window; 0 keeps raw shares.")
@pipeline_command
def cmd_timeline(config_path, set_kv, out_dir, quiet, **flags):
    """Classify the corpus, bin per day, and report anti-vaccine surge dates."""
    config = resolve_config(config_path, set_kv, out_dir, **flags)
    out = Path(config.out_dir)
    with output_lock(out):
        manifest = RunManifest("timeline", config_snapshot(config))
        if config.classified_path:
            reused = _require(config.classified_path, "classified file", "--classified")
            manifest.add_input("classified", reused)
            with manifest.stage("read_classified"):
                classified = read_classified(reused)
            _say(quiet, f"reusing {len(classified)} classified tweets from {reused}")
        else:
            corpus = _require(config.corpus_path, "corpus file", "--corpus")
            classified, _ = _classify_to_file(config, corpus, out, manifest, quiet)
        with manifest.stage("aggregate"):
            series = aggregate_daily(classified, config.utc_offset_minutes)
            anti_shares = share(series, Category.ANTI_VACCINE)
        window = config.smoothing_window if config.smoothing_window > 0 else None
        with manifest.stage("peaks"):
            peaks = detect_peaks(
                anti_shares,
                Category.ANTI_VACCINE,
                min_prominence=config.min_prominence,
                top_k=config.top_k,
                smoothing_window=window,
            )
        csv_path = out / "timeline.csv"
        peaks_path = out / "peaks.json"
        write_timeline_csv(series, csv_path)
        write_peak_report(peaks, peaks_path)
        manifest.add_output(csv_path)
        manifest.add_output(peaks_path)
        with manifest.stage("figures"):
            if window:
                fig_shares = smooth_shares(anti_shares, window)
                label = f"smoothed, window {window}"
            else:
                fig_shares = anti_shares
                label = "raw"
            fig_path = out / "fig_timeline.svg"
            fig_path.write_text(timeline_svg(series, fig_shares, peaks, label), encoding="utf-8")
            manifest.add_output(fig_path)
        manifest.write(out / "manifest_timeline.json")
    top = ", ".join(f"{p.date.isoformat()} ({p.share:.1f}%)" for p in peaks.local_maxima)
    _say(quiet, f"{len(series.bins)} days, global max {peaks.global_max_date.isoformat()}")
    _say(quiet, f"peaks: {top if top else 'none'}")


@main.command("gen-synthetic")
@common_options
@click.option("--per-class", type=int, default=100, show_default=True,
              help="Labeled examples per category.")
@click.option("--days", type=int, default=30, show_default=True)
@click.option("--per-day", type=int, default=500, show_default=True)
@click.option("--start-date", default=DEFAULT_START_DATE.isoformat(), show_default=True)
@click.option("--base-shares", default=",".join(str(s) for s in DEFAULT_BASE_SHARES),
              show_default=True, help="Comma-separated category shares, sum 1.")
@click.option("--spike-days", default="20,28", show_default=True,
              help="0-based day offsets that get the anti-share spike.")
@click.option("--spike-share", type=float, default=DEFAULT_SPIKE_ANTI_SHARE, show_default=True)
@click.option("--labeled-seed", type=int, default=101, show_default=True)
@click.option("--corpus-seed", type=int, default=202, show_default=True)
@pipeline_command
def cmd_gen_synthetic(config_path, set_kv, out_dir, quiet, per_class, days, per_day,
                      start_date, base_shares, spike_days, spike_share,
                      labeled_seed, corpus_seed, **flags):
    """Generate the bundled synthetic labeled set and spiked corpus."""
    config = resolve_config(config_path, set_kv, out_dir, **flags)
    try:
        start = dt.date.fromisoformat(start_date)
        shares_vec = tuple(float(s) for s in base_shares.split(","))
        spikes = tuple(int(s) for s in spike_days.split(",")) if spike_days.strip() else ()
    except ValueError as exc:
        raise DataValidationError(f"bad generator option: {exc}")
    out = Path(config.out_dir)
    with output_lock(out):
        snapshot = config_snapshot(config)
        snapshot["generator"] = {
            "per_class": per_class, "days": days, "per_day": per_day,
            "start_date": start.isoformat(), "base_shares": list(shares_vec),
            "spike_days": list(spikes), "spike_share": spike_share,
            "labeled_seed": labeled_seed, "corpus_seed": corpus_seed,
        }
        manifest = RunManifest("gen-synthetic", snapshot)
        with manifest.stage("labeled"):
            labeled = generate_labeled(
                per_class=per_class, seed=labeled_seed, start_date=start,
                utc_offset_minutes=config.utc_offset_minutes,
            )
            labeled_path = out / "synthetic_labeled.jsonl"
            write_jsonl(labeled, labeled_path)
        with manifest.stage("corpus"):
            corpus = generate_corpus(
                days=days, per_day=per_day, seed=corpus_seed, start_date=start,
                base_shares=shares_vec, spike_days=spikes, spike_anti_share=spike_share,
                utc_offset_minutes=config.utc_offset_minutes,
            )
            corpus_path = out / "synthetic_corpus.jsonl"
            write_jsonl(corpus, corpus_path)
        manifest.add_output(labeled_path)
        manifest.add_output(corpus_path)
        manifest.write(out / "manifest_gen_synthetic.json")
    _say(quiet, f"{len(labeled)} labeled examples -> {labeled_path}")
    _say(quiet, f"{len(corpus)} corpus tweets over {days} days -> {corpus_path}")


if __name__ == "__main__":
    main()
