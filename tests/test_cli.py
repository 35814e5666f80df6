import fcntl
import gzip
import json
import os
import struct
import warnings
import xml.etree.ElementTree as ET
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import pytest
from click.testing import CliRunner

from stancewatch import cli
from stancewatch.cli import main
from stancewatch.corpus import Category, ingest_jsonl, labeled_subset, split_dataset, write_jsonl
from stancewatch.encoder import CHECKPOINT_VERSION, init_params, load_checkpoint, save_checkpoint
from stancewatch.manifest import LOCK_NAME
from stancewatch.synth import generate_corpus, generate_labeled
from stancewatch.tokenizer import Vocabulary
from conftest import HOSTILE_JSON
from test_tokenizer_golden import corpus as golden_corpus


@pytest.fixture
def runner():
    return CliRunner()


def run_ok(runner, args):
    result = runner.invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return result


@contextmanager
def lock_held_elsewhere(out):
    """Hold the output lock of ``out`` as another running command would: an
    exclusive flock on its (here empty) lock file, through a descriptor of
    its own."""
    fd = os.open(out / LOCK_NAME, os.O_RDWR | os.O_CREAT)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        yield
    finally:
        os.close(fd)


# Small-but-trainable settings shared by the pipeline tests.
FAST_TRAIN = [
    "--set", "d_model=16", "--set", "n_layers=1", "--set", "n_heads=2",
    "--set", "max_len=16", "--set", "epochs=2", "--set", "batch_size=8",
    "--set", "learning_rate=1e-3", "--set", "vocab_max_size=400",
]


@pytest.fixture
def workspace(tmp_path, runner):
    """Synthetic labeled + corpus files plus vocab/checkpoint in out/."""
    labeled = tmp_path / "labeled.jsonl"
    corpus = tmp_path / "corpus.jsonl"
    write_jsonl(generate_labeled(per_class=12, seed=7), labeled)
    write_jsonl(generate_corpus(days=6, per_day=30, seed=8, spike_days=(3,)), corpus)
    out = tmp_path / "out"
    run_ok(runner, ["build-vocab", "--labeled", str(labeled), "--out", str(out), "--quiet", *FAST_TRAIN])
    run_ok(runner, ["train", "--labeled", str(labeled), "--out", str(out), "--quiet", *FAST_TRAIN])
    return {"labeled": labeled, "corpus": corpus, "out": out}


class TestExitCodes:
    def test_missing_input_is_2(self, runner, tmp_path):
        result = runner.invoke(main, ["build-vocab", "--labeled", str(tmp_path / "nope.jsonl"),
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert "not found" in result.output

    def test_no_input_given_is_2(self, runner, tmp_path):
        result = runner.invoke(main, ["build-vocab", "--out", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert "--labeled" in result.output

    def test_validation_failure_is_3(self, runner, tmp_path):
        labeled = tmp_path / "labeled.jsonl"
        # one example per class is too few to stratify
        write_jsonl(generate_labeled(per_class=1, seed=1), labeled)
        result = runner.invoke(main, ["build-vocab", "--labeled", str(labeled),
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 3
        assert "stratify" in result.output

    def test_duplicate_ids_are_3(self, runner, tmp_path):
        labeled = tmp_path / "labeled.jsonl"
        rec = json.dumps({"id": "a", "created_at": "2021-07-22T10:00:00Z", "text": "aşı", "label": 0})
        labeled.write_text(rec + "\n" + rec + "\n", encoding="utf-8")
        result = runner.invoke(main, ["build-vocab", "--labeled", str(labeled),
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 3
        assert "duplicate" in result.output

    def test_bad_set_pair_is_3(self, runner, tmp_path):
        result = runner.invoke(main, ["build-vocab", "--labeled", "x", "--set", "epochs",
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 3

    def test_unknown_set_key_is_3(self, runner, tmp_path):
        result = runner.invoke(main, ["build-vocab", "--labeled", "x", "--set", "epoks=3",
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 3
        assert "unknown config key" in result.output

    def test_lock_contention_is_2(self, runner, workspace):
        out = workspace["out"]
        with lock_held_elsewhere(out):
            result = runner.invoke(main, ["build-vocab", "--labeled", str(workspace["labeled"]),
                                          "--out", str(out), *FAST_TRAIN])
        assert result.exit_code == 2
        assert "locked" in result.output

    def test_stale_lock_is_taken_over(self, runner, workspace, dead_pid):
        """No live run holds the lock, so it is taken over whatever the file
        says; a PID in it is reported."""
        out = workspace["out"]
        args = ["build-vocab", "--labeled", str(workspace["labeled"]), "--out", str(out), *FAST_TRAIN]
        for content in ("", "not a pid", str(os.getpid())):
            (out / LOCK_NAME).write_text(content, encoding="utf-8")
            result = runner.invoke(main, args)
            assert result.exit_code == 0, result.output
            assert ("stale lock of process" in result.output) == (content == str(os.getpid()))
            assert not (out / LOCK_NAME).exists()
        (out / LOCK_NAME).write_text(str(dead_pid), encoding="utf-8")
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        assert f"stale lock of process {dead_pid}" in result.output
        assert not (out / LOCK_NAME).exists()

    def test_negative_smoothing_window_is_3(self, runner, workspace):
        out = workspace["out"]
        result = runner.invoke(main, ["timeline", "--corpus", str(workspace["corpus"]),
                                      "--out", str(out), "--smoothing-window", "-3",
                                      "--quiet", *FAST_TRAIN])
        assert result.exit_code == 3, result.output
        assert "smoothing window" in result.output
        assert not (out / "timeline.csv").exists()

    def test_bad_timeline_parameter_is_3_before_any_stage(self, runner, tmp_path):
        """An even window is rejected before the model, vocabulary or corpus is read."""
        corpus = tmp_path / "corpus.jsonl"
        write_jsonl(generate_corpus(days=2, per_day=5, seed=1, spike_days=()), corpus)
        out = tmp_path / "out"
        out.mkdir()
        result = runner.invoke(main, ["timeline", "--corpus", str(corpus), "--out", str(out),
                                      "--smoothing-window", "2"])
        assert result.exit_code == 3, result.output
        assert "smoothing window must be odd and >= 1, got 2" in result.output
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("args, message", [
        (["classify", "--corpus", "MISSING", "--classify-batch-size", "0"],
         "classify_batch_size must be >= 1, got 0"),
        (["timeline", "--corpus", "MISSING", "--set", "classify_batch_size=-2"],
         "classify_batch_size must be >= 1, got -2"),
        (["evaluate", "--labeled", "MISSING", "--eval-batch-size", "0"],
         "eval_batch_size must be >= 1, got 0"),
        (["evaluate", "--labeled", "MISSING", "--train-fraction", "1.5"],
         "train_fraction must be in (0, 1), got 1.5"),
        (["train", "--labeled", "MISSING", "--train-fraction", "1.5"],
         "train_fraction must be in (0, 1), got 1.5"),
        (["build-vocab", "--labeled", "MISSING", "--set", "train_fraction=0"],
         "train_fraction must be in (0, 1), got 0"),
    ], ids=["classify", "timeline", "evaluate-batch", "evaluate-split", "train", "build-vocab"])
    def test_bad_batch_size_or_split_is_3_before_any_input(self, runner, tmp_path, args, message):
        """A setting no run could use is named before any input is read, so
        even a missing input file is not what the run reports."""
        out = tmp_path / "out"
        out.mkdir()
        args = [str(tmp_path / "missing.jsonl") if a == "MISSING" else a for a in args]
        result = runner.invoke(main, [*args, "--out", str(out)])
        assert result.exit_code == 3, result.output
        assert message in result.output
        assert "Traceback" not in result.output
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("labeled_exists", [False, True], ids=["missing-input", "real-input"])
    @pytest.mark.parametrize("args, message", [
        (["--set", "min_pair_freq=-5"], "min_pair_freq must be >= 1, got -5"),
        (["--min-pair-freq", "0"], "min_pair_freq must be >= 1, got 0"),
        (["--set", "vocab_max_size=0"], "vocab_max_size must be > 4 (the special tokens), got 0"),
        (["--vocab-max-size", "4"], "vocab_max_size must be > 4 (the special tokens), got 4"),
    ], ids=["min-pair-freq-negative", "min-pair-freq-zero", "max-size-zero", "max-size-specials-only"])
    def test_bad_vocab_setting_is_3_before_any_input(self, runner, tmp_path, args, message,
                                                     labeled_exists):
        """A vocabulary budget with no room past the special tokens, or a
        merge threshold below 1, is named before the labeled file is read,
        whether or not that file exists, and nothing is written."""
        labeled = tmp_path / "labeled.jsonl"
        if labeled_exists:
            write_jsonl(generate_labeled(per_class=8, seed=3), labeled)
        out = tmp_path / "out"
        out.mkdir()
        result = runner.invoke(main, ["build-vocab", "--labeled", str(labeled), "--out", str(out), *args])
        assert result.exit_code == 3, result.output
        assert message in result.output
        assert "Traceback" not in result.output
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("offset", ["100000000000000", "153722867280", "6000000", "-1441"])
    def test_utc_offset_beyond_a_day_is_3_before_any_stage(self, runner, tmp_path, offset):
        """An offset no timezone has is rejected before anything is read, not as a traceback."""
        corpus = tmp_path / "corpus.jsonl"
        write_jsonl(generate_corpus(days=2, per_day=5, seed=1, spike_days=()), corpus)
        out = tmp_path / "out"
        out.mkdir()
        result = runner.invoke(main, ["timeline", "--corpus", str(corpus), "--out", str(out),
                                      "--utc-offset-minutes", offset])
        assert result.exit_code == 3, result.output
        assert f"utc_offset_minutes must be within ±1440, got {offset}" in result.output
        assert list(out.iterdir()) == []


    @pytest.mark.parametrize("damage, cause", [
        ("truncated", "end-of-stream marker"),  # EOFError
        ("corrupt", "while decompressing data"),  # zlib.error
    ], ids=["truncated", "corrupt"])
    def test_damaged_gzip_input_is_2(self, runner, tmp_path, damage, cause):
        """A gzip stream cut in half, or with a flipped byte in its first
        deflate block's header, exits 2 naming the file, and leaves no output
        behind."""
        plain = tmp_path / "labeled.jsonl"
        write_jsonl(generate_labeled(per_class=12, seed=7), plain)
        blob = bytearray(gzip.compress(plain.read_bytes(), mtime=0))
        if damage == "truncated":
            del blob[len(blob) // 2 :]
        else:
            blob[20] ^= 0xFF
        labeled = tmp_path / "labeled.jsonl.gz"
        labeled.write_bytes(bytes(blob))
        out = tmp_path / "out"
        result = runner.invoke(main, ["build-vocab", "--labeled", str(labeled), "--out", str(out),
                                      *FAST_TRAIN])
        assert result.exit_code == 2, result.output
        assert f"cannot read corpus file: {labeled}" in result.output
        assert cause in result.output
        assert list(out.iterdir()) == []

class TestOutputPaths:
    def test_out_naming_a_file_is_2(self, runner, tmp_path):
        labeled = tmp_path / "labeled.jsonl"
        write_jsonl(generate_labeled(per_class=8, seed=3), labeled)
        result = runner.invoke(main, ["build-vocab", "--labeled", str(labeled),
                                      "--out", str(labeled), *FAST_TRAIN])
        assert result.exit_code == 2, result.output
        assert "output directory" in result.output

    @pytest.mark.parametrize("command, data, output_flag", [
        ("build-vocab", "labeled", ["--set", "vocab_path={}"]),
        ("train", "labeled", ["--checkpoint", "{}"]),
        ("classify", "corpus", ["--set", "classified_path={}"]),
    ])
    def test_output_in_missing_directory_is_2(self, runner, workspace, tmp_path,
                                              command, data, output_flag):
        """The path is checked when it is named, before any stage runs."""
        target = tmp_path / "no_such_dir" / "file.out"
        result = runner.invoke(main, [command, f"--{data}", str(workspace[data]),
                                      "--out", str(workspace["out"]),
                                      *[a.format(target) for a in output_flag], *FAST_TRAIN])
        assert result.exit_code == 2, result.output
        assert f"output directory not found: {target.parent}" in result.output
        assert "training on" not in result.output


class TestAtomicOutputs:
    def snapshot(self, out):
        return {p.name: p.read_bytes() for p in out.iterdir()}

    def test_failed_run_leaves_earlier_outputs_unchanged(self, runner, workspace, tmp_path):
        """timeline writes classified.jsonl and the rejects of a corpus whose
        every record is bad, then fails binning the empty result; the earlier
        classify outputs must survive."""
        out = workspace["out"]
        run_ok(runner, ["classify", "--corpus", str(workspace["corpus"]), "--out", str(out),
                        "--quiet", *FAST_TRAIN])
        before = self.snapshot(out)
        other = tmp_path / "other_corpus.jsonl"
        other.write_text("{bad json\n[1, 2]\n", encoding="utf-8")
        result = runner.invoke(main, ["timeline", "--corpus", str(other), "--out", str(out),
                                      "--quiet", *FAST_TRAIN])
        assert result.exit_code == 3, result.output
        assert "empty classification result" in result.output
        assert self.snapshot(out) == before

    def test_crash_while_saving_keeps_the_old_checkpoint(self, runner, workspace, monkeypatch):
        out = workspace["out"]
        before = self.snapshot(out)

        def crash(trace, path):
            raise RuntimeError("disk full")

        monkeypatch.setattr(cli, "write_trace", crash)
        result = runner.invoke(main, ["train", "--labeled", str(workspace["labeled"]),
                                      "--out", str(out), "--seed-init", "5", "--quiet",
                                      *FAST_TRAIN])
        assert isinstance(result.exception, RuntimeError)
        assert self.snapshot(out) == before


class TestBuildVocab:
    def test_outputs_and_manifest(self, runner, tmp_path):
        labeled = tmp_path / "labeled.jsonl"
        write_jsonl(generate_labeled(per_class=8, seed=3), labeled)
        out = tmp_path / "out"
        run_ok(runner, ["build-vocab", "--labeled", str(labeled), "--out", str(out), *FAST_TRAIN])
        assert (out / "vocab.txt").is_file()
        doc = json.loads((out / "manifest_build_vocab.json").read_text(encoding="utf-8"))
        assert doc["command"] == "build-vocab"
        assert doc["inputs"]["labeled"].startswith("sha256:")
        assert "vocab.txt" in doc["outputs"]
        assert not (out / LOCK_NAME).exists()

    def test_manifest_reports_the_early_stop(self, runner, tmp_path):
        """The train split holds exactly the golden tokenizer texts. At the
        default min_pair_freq 2 the first best pair below it ends learning at
        96 of 400 tokens (the ROADMAP item on vocabulary learning that fills
        its budget), and the manifest body says so."""
        texts = golden_corpus()[0]
        # One class: int(0.8 * 188) = 150 train positions, one per text.
        rows = [replace(t, gold_label=Category(0))
                for t in generate_labeled(per_class=47, seed=3)]
        split = split_dataset(labeled_subset(rows), 0.8, seed=13)
        text_of = dict(zip((t.id for t in split.train.examples), texts, strict=True))
        labeled = tmp_path / "labeled.jsonl"
        write_jsonl([replace(t, text=text_of.get(t.id, t.text)) for t in rows], labeled)
        out = tmp_path / "out"
        run_ok(runner, ["build-vocab", "--labeled", str(labeled), "--out", str(out),
                        "--set", "vocab_max_size=400"])
        doc = json.loads((out / "manifest_build_vocab.json").read_text(encoding="utf-8"))
        assert doc["results"]["vocab"] == {"tokens": 96, "merges": 2, "stop": "below_min_pair_freq"}
        assert len(Vocabulary.load(out / "vocab.txt")) == 96

    def test_vocab_uses_train_split_only(self, runner, tmp_path):
        """A marker character present only in a test-split text never reaches
        the vocabulary; one in a train-split text does. The synthetic word
        pools contain neither 'q' nor 'w', so chars are clean markers."""
        tweets = generate_labeled(per_class=12, seed=9)
        # same seed and fraction the command will use; membership depends on
        # positions only, so rewriting texts cannot move examples across
        split = split_dataset(labeled_subset(tweets), 0.8, seed=13)
        test_id = split.test.examples[0].id
        train_id = split.train.examples[0].id
        rows = []
        for t in tweets:
            text = t.text
            if t.id == test_id:
                text += " qqq"
            if t.id == train_id:
                text += " www"
            rows.append(replace(t, text=text))
        labeled = tmp_path / "labeled.jsonl"
        write_jsonl(rows, labeled)
        out = tmp_path / "out"
        run_ok(runner, ["build-vocab", "--labeled", str(labeled), "--out", str(out),
                        "--set", "vocab_max_size=4000"])
        vocab = Vocabulary.load(out / "vocab.txt")
        assert not any("q" in tok for tok in vocab.tokens if not tok.startswith("["))
        assert any("w" in tok for tok in vocab.tokens if not tok.startswith("["))

    def test_rejects_written(self, runner, tmp_path):
        labeled = tmp_path / "labeled.jsonl"
        rows = generate_labeled(per_class=8, seed=3)
        write_jsonl(rows, labeled)
        with open(labeled, "a", encoding="utf-8") as fh:
            fh.write("{bad json\n")
        out = tmp_path / "out"
        result = run_ok(runner, ["build-vocab", "--labeled", str(labeled), "--out", str(out), *FAST_TRAIN])
        assert "rejected 1 records" in result.output
        assert (out / "rejects_labeled.jsonl").is_file()
        doc = json.loads((out / "manifest_build_vocab.json").read_text(encoding="utf-8"))
        assert "rejects_labeled.jsonl" in doc["outputs"]

    def test_clean_rerun_empties_rejects(self, runner, tmp_path):
        """A rerun on clean input leaves an empty rejects file that its manifest lists,
        not the rejects of the earlier run."""
        clean = tmp_path / "clean.jsonl"
        write_jsonl(generate_labeled(per_class=8, seed=3), clean)
        dirty = tmp_path / "dirty.jsonl"
        dirty.write_text(clean.read_text(encoding="utf-8") + "{bad json\n", encoding="utf-8")
        out = tmp_path / "out"
        run_ok(runner, ["build-vocab", "--labeled", str(dirty), "--out", str(out), *FAST_TRAIN])
        assert (out / "rejects_labeled.jsonl").stat().st_size > 0
        result = run_ok(runner, ["build-vocab", "--labeled", str(clean), "--out", str(out),
                                 *FAST_TRAIN])
        assert "rejected" not in result.output
        assert (out / "rejects_labeled.jsonl").read_bytes() == b""
        doc = json.loads((out / "manifest_build_vocab.json").read_text(encoding="utf-8"))
        assert "rejects_labeled.jsonl" in doc["outputs"]

    @pytest.mark.parametrize("stamp", ["9999-12-31T23:59:59-01:00", "0001-01-01T00:30:00+01:00"])
    def test_timestamp_beyond_the_calendar_is_rejected(self, runner, tmp_path, stamp):
        labeled = tmp_path / "labeled.jsonl"
        write_jsonl(generate_labeled(per_class=8, seed=3), labeled)
        with labeled.open("a", encoding="utf-8") as fh:
            fh.write(json.dumps({"id": "edge", "created_at": stamp, "text": "aşı", "label": 0}) + "\n")
        out = tmp_path / "out"
        run_ok(runner, ["build-vocab", "--labeled", str(labeled), "--out", str(out), *FAST_TRAIN])
        rejects = [json.loads(line) for line in
                   (out / "rejects_labeled.jsonl").read_text(encoding="utf-8").splitlines()]
        assert [(r["id"], r["line"]) for r in rejects] == [("edge", 33)]
        assert stamp in rejects[0]["reason"]


    def test_lone_surrogate_escapes_are_rejected_as_written(self, runner, tmp_path):
        """A lone surrogate fits no UTF-8 output, so its record is rejected
        whatever else it holds and reported by its raw line; a paired escape
        is a character like any other."""
        labeled = tmp_path / "labeled.jsonl"
        write_jsonl(generate_labeled(per_class=8, seed=3), labeled)
        stamp = '"created_at": "2021-08-01T00:00:00Z"'
        lines = [f'{{"id": "s1", {stamp}, "text": "aşı \\udc00", "label": 0}}',
                 f'{{"id": "s2", {stamp}, "text": "aşı \\uDC00", "label": 9}}',
                 f'{{"id": "s3", {stamp}, "text": "aşı \\ud83d\\ude00", "label": 1}}']
        with labeled.open("a", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        out = tmp_path / "out"
        run_ok(runner, ["build-vocab", "--labeled", str(labeled), "--out", str(out), *FAST_TRAIN])
        rejects = [json.loads(line) for line in
                   (out / "rejects_labeled.jsonl").read_text(encoding="utf-8").splitlines()]
        reason = "record holds a lone UTF-16 surrogate escape"
        assert rejects == [{"line": 33, "raw": lines[0], "reason": reason},
                           {"line": 34, "raw": lines[1], "reason": reason}]


class TestTrain:
    def test_outputs(self, workspace):
        out = workspace["out"]
        for name in ("model.ckpt", "train_trace.txt", "split_manifest.json", "manifest_train.json"):
            assert (out / name).is_file(), name
        params = load_checkpoint(out / "model.ckpt")
        assert params.config.d_model == 16
        vocab = Vocabulary.load(out / "vocab.txt")
        assert params.vocab_hash == vocab.content_hash()
        trace = (out / "train_trace.txt").read_text(encoding="utf-8").splitlines()
        assert len(trace) == 3  # header + 2 epochs

    def test_zero_lr_checkpoint_equals_init(self, runner, tmp_path):
        labeled = tmp_path / "labeled.jsonl"
        write_jsonl(generate_labeled(per_class=8, seed=5), labeled)
        out = tmp_path / "out"
        args = FAST_TRAIN + ["--set", "learning_rate=0", "--set", "epochs=1", "--seed-init", "21"]
        run_ok(runner, ["build-vocab", "--labeled", str(labeled), "--out", str(out), *args])
        run_ok(runner, ["train", "--labeled", str(labeled), "--out", str(out), *args])
        got = load_checkpoint(out / "model.ckpt")
        vocab = Vocabulary.load(out / "vocab.txt")
        fresh = init_params(got.config, 21, vocab.content_hash())
        ref = tmp_path / "ref.ckpt"
        save_checkpoint(fresh, ref)
        assert ref.read_bytes() == (out / "model.ckpt").read_bytes()

    def test_head_only_flag(self, runner, tmp_path):
        labeled = tmp_path / "labeled.jsonl"
        write_jsonl(generate_labeled(per_class=8, seed=5), labeled)
        out = tmp_path / "out"
        run_ok(runner, ["build-vocab", "--labeled", str(labeled), "--out", str(out), *FAST_TRAIN])
        run_ok(runner, ["train", "--labeled", str(labeled), "--out", str(out),
                        "--head-only", *FAST_TRAIN])
        got = load_checkpoint(out / "model.ckpt")
        vocab = Vocabulary.load(out / "vocab.txt")
        fresh = init_params(got.config, 17, vocab.content_hash())  # default seed_init
        fresh32 = {n: a.astype("float32") for n, a in fresh.tensors.items()}
        for name, arr in got.tensors.items():
            same = (arr.astype("float32") == fresh32[name]).all()
            if name in ("pooler_w", "pooler_b", "classifier_w", "classifier_b"):
                assert not same, name
            else:
                assert same, name


    def test_head_only_from_config_file(self, runner, tmp_path):
        """INI head_only = true with no --head-only flag still freezes the
        encoder: the flag's absence must not override the file."""
        labeled = tmp_path / "labeled.jsonl"
        write_jsonl(generate_labeled(per_class=8, seed=5), labeled)
        ini = tmp_path / "pipeline.ini"
        ini.write_text("[train]\nhead_only = true\n", encoding="utf-8")
        out = tmp_path / "out"
        run_ok(runner, ["build-vocab", "--labeled", str(labeled), "--out", str(out), *FAST_TRAIN])
        run_ok(runner, ["train", "--config", str(ini), "--labeled", str(labeled),
                        "--out", str(out), *FAST_TRAIN])
        got = load_checkpoint(out / "model.ckpt")
        fresh = init_params(got.config, 17, Vocabulary.load(out / "vocab.txt").content_hash())
        assert (got.tensors["tok_emb"] == fresh.tensors["tok_emb"].astype("float32")).all()
        assert not (got.tensors["classifier_w"]
                    == fresh.tensors["classifier_w"].astype("float32")).all()

    @pytest.mark.parametrize("flag, value", [
        ("--lr", "nan"), ("--lr", "inf"),
        ("--set", "learning_rate=nan"), ("--set", "class_weights=1,nan,1,1"),
    ])
    def test_nonfinite_setting_is_3_before_any_stage(self, runner, tmp_path, flag, value):
        """Rejected before the vocabulary or the (missing) labeled file is read."""
        out = tmp_path / "out"
        out.mkdir()
        result = runner.invoke(main, ["train", "--labeled", str(tmp_path / "nope.jsonl"),
                                      "--out", str(out), flag, value])
        assert result.exit_code == 3, result.output
        assert "finite" in result.output
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("flag, key", [
        ("--seed-init", "init_seed"), ("--seed-shuffle", "shuffle_seed"),
        ("--seed-dropout", "dropout_seed"),
    ])
    def test_negative_seed_is_3_before_any_stage(self, runner, tmp_path, flag, key):
        """numpy's generators refuse a negative seed; the run stops before
        the vocabulary or the labeled file is read, with no traceback."""
        labeled = tmp_path / "labeled.jsonl"
        write_jsonl(generate_labeled(per_class=8, seed=5), labeled)
        out = tmp_path / "out"
        out.mkdir()
        result = runner.invoke(main, ["train", "--labeled", str(labeled), "--out", str(out),
                                      *FAST_TRAIN, flag, "-1"])
        assert result.exit_code == 3, result.output
        assert f"{key} must be >= 0, got -1" in result.output
        assert "Traceback" not in result.output
        assert list(out.iterdir()) == []

    def test_weights_beyond_float32_are_4_and_leave_no_checkpoint(self, runner, tmp_path):
        """lr 1e300 leaves float64 weights near 1e300 after one step; stored
        as float32 they would be infinite."""
        labeled = tmp_path / "labeled.jsonl"
        write_jsonl(generate_labeled(per_class=8, seed=5), labeled)
        out = tmp_path / "out"
        run_ok(runner, ["build-vocab", "--labeled", str(labeled), "--out", str(out), *FAST_TRAIN])
        result = runner.invoke(main, ["train", "--labeled", str(labeled), "--out", str(out),
                                      *FAST_TRAIN, "--lr", "1e300", "--epochs", "1",
                                      "--batch-size", "1000"])
        assert result.exit_code == 4, result.output
        assert "float32" in result.output
        assert not (out / "model.ckpt").exists()
        assert not (out / "manifest_train.json").exists()

    def test_diverging_run_is_4_in_one_line_and_leaves_no_checkpoint(self, runner, tmp_path):
        """lr 1e308 makes the weights infinite after one step; the next
        step's loss ends the run with one error line, no warnings."""
        labeled = tmp_path / "labeled.jsonl"
        write_jsonl(generate_labeled(per_class=8, seed=5), labeled)
        out = tmp_path / "out"
        run_ok(runner, ["build-vocab", "--labeled", str(labeled), "--out", str(out), *FAST_TRAIN])
        result = runner.invoke(main, ["train", "--labeled", str(labeled), "--out", str(out),
                                      *FAST_TRAIN, "--lr", "1e308", "--epochs", "1", "--quiet"])
        assert result.exit_code == 4, result.output
        assert result.output.startswith("error: non-finite loss at epoch 0 batch ")
        assert result.output.count("\n") == 1
        assert not (out / "model.ckpt").exists()

    def test_all_zero_class_weights_is_3_before_any_stage(self, runner, tmp_path):
        """Zero weight on every class would make every gradient 0 and save
        the initial weights as a trained model; the run stops before the
        vocabulary or the labeled file is read."""
        out = tmp_path / "out"
        out.mkdir()
        result = runner.invoke(main, ["train", "--labeled", str(tmp_path / "nope.jsonl"),
                                      "--out", str(out), "--set", "class_weights=0,0,0,0"])
        assert result.exit_code == 3, result.output
        assert result.stderr.startswith("error: class_weights must not all be zero")
        assert result.stderr.count("\n") == 1
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("source, key", [("set", "beta1"), ("ini", "adam_eps")])
    def test_constant_as_setting_is_3_in_one_line(self, runner, workspace, source, key):
        """Adam's b1, b2 and eps are constants (test_config has every removed
        key): setting one is an unknown key, with no checkpoint written."""
        out = workspace["out"]
        (out / "model.ckpt").unlink()
        if source == "set":
            extra = ["--set", f"{key}=0.9"]
        else:
            ini = out.parent / "pipeline.ini"
            ini.write_text(f"[train]\n{key} = 0.9\n", encoding="utf-8")
            extra = ["--config", str(ini)]
        result = runner.invoke(main, ["train", "--labeled", str(workspace["labeled"]),
                                      "--out", str(out), "--quiet", *FAST_TRAIN, *extra])
        assert result.exit_code == 3, result.output
        assert result.stdout == ""
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: unknown config key") and key in lines[0]
        assert not (out / "model.ckpt").exists()


class TestEvaluate:
    def test_outputs(self, runner, workspace):
        out = workspace["out"]
        run_ok(runner, ["evaluate", "--labeled", str(workspace["labeled"]), "--out", str(out),
                        "--quiet", *FAST_TRAIN])
        report = json.loads((out / "eval_report.json").read_text(encoding="utf-8"))
        assert set(report["per_class"]) == {"news", "irrelevant", "anti_vaccine", "pro_vaccine"}
        for name in ("roc_news.csv", "roc_irrelevant.csv", "roc_anti_vaccine.csv", "roc_pro_vaccine.csv"):
            assert (out / name).is_file()
        for name in ("fig_confusion.svg", "fig_roc.svg", "fig_prf.svg"):
            ET.fromstring((out / name).read_text(encoding="utf-8"))

    def test_missing_checkpoint_is_2(self, runner, tmp_path):
        labeled = tmp_path / "labeled.jsonl"
        write_jsonl(generate_labeled(per_class=8, seed=5), labeled)
        result = CliRunner().invoke(main, ["evaluate", "--labeled", str(labeled),
                                           "--out", str(tmp_path / "empty_out")])
        assert result.exit_code == 2


class TestClassifyAndTimeline:
    def test_classify_outputs(self, runner, workspace):
        out = workspace["out"]
        run_ok(runner, ["classify", "--corpus", str(workspace["corpus"]), "--out", str(out),
                        "--quiet", *FAST_TRAIN])
        rows = (out / "classified.jsonl").read_text(encoding="utf-8").splitlines()
        assert len(rows) == 180  # 6 days x 30
        rec = json.loads(rows[0])
        assert set(rec) == {"id", "created_at", "predicted", "proba"}

    @pytest.mark.parametrize("platform, maxrss, mb", [("linux", 81920, 80.0), ("darwin", 81920 * 1024, 80.0)])
    def test_peak_rss_mb_by_platform(self, monkeypatch, platform, maxrss, mb):
        """ru_maxrss counts kilobytes on Linux and bytes on macOS."""
        usage = type("Usage", (), {"ru_maxrss": maxrss})
        monkeypatch.setattr(cli.resource, "getrusage", lambda who: usage)
        monkeypatch.setattr(cli.sys, "platform", platform)
        assert cli.peak_rss_mb() == mb

    def test_classify_on_macos(self, runner, workspace, monkeypatch):
        """Without sched_getaffinity, as on macOS, classify runs and its
        peak RSS is read as bytes."""
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(cli.sys, "platform", "darwin")
        run_ok(runner, ["classify", "--corpus", str(workspace["corpus"]), "--out", str(workspace["out"]),
                        "--quiet", *FAST_TRAIN])
        timings = json.loads((workspace["out"] / "manifest_classify.json").read_text())["timings_s"]
        assert timings["classify_threads"] >= 1
        assert 0 < timings["peak_rss_mb"] < 1.0  # Linux's kilobytes read as bytes

    def test_timeline_outputs(self, runner, workspace):
        out = workspace["out"]
        result = run_ok(runner, ["timeline", "--corpus", str(workspace["corpus"]),
                                 "--out", str(out), *FAST_TRAIN])
        assert "peaks:" in result.output
        csv_lines = (out / "timeline.csv").read_text(encoding="utf-8").splitlines()
        assert csv_lines[0].startswith("date,count_news")
        assert len(csv_lines) == 7  # header + 6 days
        peaks = json.loads((out / "peaks.json").read_text(encoding="utf-8"))
        assert peaks["category"] == "anti_vaccine"
        assert "global_max_date" in peaks
        ET.fromstring((out / "fig_timeline.svg").read_text(encoding="utf-8"))

    def test_timeline_reuses_classified(self, runner, workspace, tmp_path):
        out = workspace["out"]
        run_ok(runner, ["classify", "--corpus", str(workspace["corpus"]), "--out", str(out),
                        "--quiet", *FAST_TRAIN])
        out2 = tmp_path / "out2"
        result = run_ok(runner, ["timeline", "--classified", str(out / "classified.jsonl"),
                                 "--out", str(out2), *FAST_TRAIN])
        assert "reusing" in result.output
        assert (out2 / "timeline.csv").is_file()
        doc = json.loads((out2 / "manifest_timeline.json").read_text(encoding="utf-8"))
        assert "classified" in doc["inputs"]

    def test_lone_surrogate_id_is_rejected(self, runner, workspace, tmp_path):
        """An id no UTF-8 classified.jsonl could hold goes to the rejects
        file as its raw line, and the other records are classified."""
        corpus = tmp_path / "surrogate.jsonl"
        bad = '{"id": "a\\ud800", "created_at": "2021-08-01T00:00:00Z", "text": "aşı haber"}'
        corpus.write_text(workspace["corpus"].read_text(encoding="utf-8") + bad + "\n", encoding="utf-8")
        out = workspace["out"]
        run_ok(runner, ["classify", "--corpus", str(corpus), "--out", str(out), "--quiet", *FAST_TRAIN])
        rejects = (out / "rejects_corpus.jsonl").read_text(encoding="utf-8").splitlines()
        assert [json.loads(line) for line in rejects] == [
            {"line": 181, "raw": bad, "reason": "record holds a lone UTF-16 surrogate escape"}]
        assert len((out / "classified.jsonl").read_text(encoding="utf-8").splitlines()) == 180

    def test_json_refused_without_a_decode_error_is_rejected(self, runner, workspace, tmp_path):
        corpus = tmp_path / "hostile.jsonl"
        corpus.write_text(workspace["corpus"].read_text(encoding="utf-8")
                          + HOSTILE_JSON["deep"] + "\n" + HOSTILE_JSON["long_int"] + "\n", encoding="utf-8")
        out = workspace["out"]
        run_ok(runner, ["classify", "--corpus", str(corpus), "--out", str(out), "--quiet", *FAST_TRAIN])
        rejects = [json.loads(line) for line in
                   (out / "rejects_corpus.jsonl").read_text(encoding="utf-8").splitlines()]
        assert [(r["line"], r["raw"]) for r in rejects] == [
            (181, HOSTILE_JSON["deep"]), (182, HOSTILE_JSON["long_int"])]
        assert all(r["reason"].startswith("invalid JSON: ") for r in rejects)
        assert len((out / "classified.jsonl").read_text(encoding="utf-8").splitlines()) == 180

    def test_single_day_corpus_degenerate(self, runner, workspace, tmp_path):
        corpus = tmp_path / "one_day.jsonl"
        write_jsonl(generate_corpus(days=1, per_day=25, seed=3, spike_days=()), corpus)
        out = workspace["out"]
        result = run_ok(runner, ["timeline", "--corpus", str(corpus), "--out", str(out), *FAST_TRAIN])
        peaks = json.loads((out / "peaks.json").read_text(encoding="utf-8"))
        assert peaks["degenerate"] is True
        assert "global max" in result.output

    def test_smoothing_window_labelled(self, runner, workspace):
        out = workspace["out"]
        run_ok(runner, ["timeline", "--corpus", str(workspace["corpus"]), "--out", str(out),
                        "--smoothing-window", "3", "--quiet", *FAST_TRAIN])
        fig = (out / "fig_timeline.svg").read_text(encoding="utf-8")
        assert "smoothed, window 3" in fig
        peaks = json.loads((out / "peaks.json").read_text(encoding="utf-8"))
        assert peaks["parameters"]["smoothing_window"] == 3


class TestBadModelInputs:
    def classify(self, runner, workspace):
        return runner.invoke(main, ["classify", "--corpus", str(workspace["corpus"]),
                                    "--out", str(workspace["out"]), "--quiet", *FAST_TRAIN])

    def test_version_1_checkpoint_is_3(self, runner, workspace):
        """A checkpoint from before the Adam, LayerNorm and feed-forward
        settings became constants is version 1: refused by its version in
        one error line, with nothing classified. Retraining is the remedy."""
        ckpt = workspace["out"] / "model.ckpt"
        blob = ckpt.read_bytes()
        hlen = struct.unpack_from("<I", blob, 10)[0]
        header = json.loads(blob[14 : 14 + hlen])
        header["config"].update(d_ff=64, n_classes=4, layer_norm_eps=1e-12)
        raw = json.dumps(header, sort_keys=True).encode("utf-8")
        ckpt.write_bytes(b"SWCKPT" + struct.pack("<II", 1, len(raw)) + raw + blob[14 + hlen :])
        result = self.classify(runner, workspace)
        assert result.exit_code == 3, result.output
        assert result.stderr == "error: unsupported checkpoint version 1\n"
        assert not (workspace["out"] / "classified.jsonl").exists()

    def test_nonfinite_weight_is_4(self, runner, workspace):
        ckpt = workspace["out"] / "model.ckpt"
        # the last float32 of the file is the last classifier bias
        ckpt.write_bytes(ckpt.read_bytes()[:-4] + struct.pack("<f", float("nan")))
        result = self.classify(runner, workspace)
        assert result.exit_code == 4, result.output
        assert "classifier_b" in result.output
        assert not (workspace["out"] / "classified.jsonl").exists()

    @pytest.mark.parametrize("command, output", [("classify", "classified.jsonl"),
                                                 ("evaluate", "eval_report.json")])
    def test_float32_overflow_in_inference_is_4(self, runner, workspace, command, output):
        """Layer-norm gains of 1e30 are finite weights whose activations
        overflow float32: the run ends with exit 4, without a warning or a
        traceback, and writes no results."""
        ckpt = workspace["out"] / "model.ckpt"
        params = load_checkpoint(ckpt)
        for name, arr in params.tensors.items():
            if name.endswith("_gain"):
                arr[...] = 1e30
        save_checkpoint(params, ckpt)
        inputs = ["--corpus", str(workspace["corpus"])] if command == "classify" else [
            "--labeled", str(workspace["labeled"])]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = runner.invoke(main, [command, *inputs, "--out", str(workspace["out"]),
                                          "--quiet", *FAST_TRAIN])
        assert result.exit_code == 4, result.output
        assert result.output.startswith("error: inference gave non-finite class probabilities "
                                        "for input 0 (counting from 0)"), result.output
        assert "Traceback" not in result.output and "Warning" not in result.output
        assert not (workspace["out"] / output).exists()
        assert not list(workspace["out"].glob(f"manifest_{command}.json"))

    def test_short_checkpoint_is_3(self, runner, workspace):
        (workspace["out"] / "model.ckpt").write_bytes(b"SWCKPT\x01\x00")
        result = self.classify(runner, workspace)
        assert result.exit_code == 3, result.output
        assert "truncated" in result.output

    def test_checkpoint_claiming_many_layers_is_3(self, runner, workspace):
        ckpt = workspace["out"] / "model.ckpt"
        blob = ckpt.read_bytes()
        hlen = struct.unpack_from("<I", blob, 10)[0]
        header = json.loads(blob[14 : 14 + hlen])
        header["config"]["n_layers"] = 10**9
        raw = json.dumps(header).encode("utf-8")
        ckpt.write_bytes(b"SWCKPT" + struct.pack("<II", CHECKPOINT_VERSION, len(raw)) + raw + bytes(200))
        result = self.classify(runner, workspace)
        assert result.exit_code == 3, result.output
        assert "truncated" in result.output

    def test_header_without_config_is_3(self, runner, workspace):
        header = json.dumps({"vocab_hash": None, "init_seed": 0}).encode("utf-8")
        blob = b"SWCKPT" + struct.pack("<II", CHECKPOINT_VERSION, len(header)) + header
        (workspace["out"] / "model.ckpt").write_bytes(blob)
        result = self.classify(runner, workspace)
        assert result.exit_code == 3, result.output
        assert "config" in result.output

    @pytest.mark.parametrize("kind", sorted(HOSTILE_JSON))
    def test_header_json_refuses_without_a_decode_error_is_3(self, runner, workspace, kind):
        header = HOSTILE_JSON[kind].encode("utf-8")
        (workspace["out"] / "model.ckpt").write_bytes(b"SWCKPT" + struct.pack("<II", CHECKPOINT_VERSION, len(header)) + header)
        result = self.classify(runner, workspace)
        assert result.exit_code == 3, result.output
        assert "corrupt checkpoint header" in result.output
        assert not (workspace["out"] / "classified.jsonl").exists()

    def test_evaluate_with_other_vocabulary_is_3(self, runner, workspace, tmp_path):
        vocab = Vocabulary.load(workspace["out"] / "vocab.txt")
        other = tmp_path / "other_vocab.txt"
        Vocabulary(vocab.tokens[:-1] + ("zzzzz",)).save(other)
        result = runner.invoke(main, ["evaluate", "--labeled", str(workspace["labeled"]),
                                      "--vocab", str(other), "--out", str(workspace["out"]),
                                      "--quiet", *FAST_TRAIN])
        assert result.exit_code == 3, result.output
        assert "hash mismatch" in result.output

    def test_timeline_missing_classified_is_2(self, runner, workspace, tmp_path):
        out = workspace["out"]
        result = runner.invoke(main, ["timeline", "--classified", str(tmp_path / "none.jsonl"),
                                      "--corpus", str(workspace["corpus"]), "--out", str(out),
                                      "--quiet", *FAST_TRAIN])
        assert result.exit_code == 2, result.output
        assert "classified file not found" in result.output
        assert not (out / "classified.jsonl").exists()
        assert not (out / "timeline.csv").exists()


class TestBadClassified:
    def test_nonfinite_proba_is_3(self, runner, tmp_path):
        good = {"id": "a", "created_at": "2021-08-01T10:00:00Z", "predicted": 0,
                "proba": [0.7, 0.1, 0.1, 0.1]}
        bad = dict(good, id="b", proba=[float("nan")] * 4)
        classified = tmp_path / "classified.jsonl"
        classified.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n", encoding="utf-8")
        out = tmp_path / "out"
        result = runner.invoke(main, ["timeline", "--classified", str(classified),
                                      "--out", str(out), "--quiet"])
        assert result.exit_code == 3, result.output
        assert "finite" in result.output
        assert not (out / "timeline.csv").exists()


    def test_duplicate_ids_are_3(self, runner, tmp_path):
        rec = {"id": "a", "created_at": "2021-08-01T10:00:00Z", "predicted": 2,
               "proba": [0.1, 0.1, 0.7, 0.1]}
        other = dict(rec, id="b", predicted=0, proba=[0.7, 0.1, 0.1, 0.1])
        classified = tmp_path / "classified.jsonl"
        classified.write_text("".join(json.dumps(r) + "\n" for r in (rec, other, rec)), encoding="utf-8")
        out = tmp_path / "out"
        result = runner.invoke(main, ["timeline", "--classified", str(classified),
                                      "--out", str(out), "--quiet"])
        assert result.exit_code == 3, result.output
        assert f"{classified}:3: bad classified record: duplicate id 'a'" in result.output
        assert not (out / "timeline.csv").exists()

    @pytest.mark.parametrize("kind", sorted(HOSTILE_JSON))
    def test_json_refused_without_a_decode_error_is_3(self, runner, tmp_path, kind):
        rec = {"id": "a", "created_at": "2021-08-01T10:00:00Z", "predicted": 2,
               "proba": [0.1, 0.1, 0.7, 0.1]}
        classified = tmp_path / "classified.jsonl"
        classified.write_text(json.dumps(rec) + "\n" + HOSTILE_JSON[kind] + "\n", encoding="utf-8")
        out = tmp_path / "out"
        result = runner.invoke(main, ["timeline", "--classified", str(classified),
                                      "--out", str(out), "--quiet"])
        assert result.exit_code == 3, result.output
        assert f"{classified}:2: bad classified record: " in result.output
        assert not (out / "timeline.csv").exists()

    def test_local_day_beyond_the_calendar_is_3(self, runner, tmp_path):
        rec = {"id": "a", "created_at": "9999-12-31T23:00:00Z", "predicted": 2,
               "proba": [0.1, 0.1, 0.7, 0.1]}
        classified = tmp_path / "classified.jsonl"
        classified.write_text(json.dumps(rec) + "\n", encoding="utf-8")
        out = tmp_path / "out"
        result = runner.invoke(main, ["timeline", "--classified", str(classified), "--out", str(out),
                                      "--utc-offset-minutes", "180", "--quiet"])
        assert result.exit_code == 3, result.output
        assert "outside the years 1-9999" in result.output
        assert not (out / "timeline.csv").exists()


class TestUndecodableInputs:
    @pytest.mark.parametrize("kind", ["classified", "vocabulary", "config"])
    def test_non_utf8_file_is_2(self, runner, tmp_path, kind):
        bad = tmp_path / f"bad_{kind}"
        bad.write_bytes(b"[PAD]\n\xff\xfe\n")
        labeled = tmp_path / "labeled.jsonl"
        write_jsonl(generate_labeled(per_class=2, seed=1), labeled)
        out = ["--out", str(tmp_path / "out"), "--quiet"]
        args = {
            "classified": ["timeline", "--classified", str(bad), *out],
            "vocabulary": ["train", "--labeled", str(labeled), "--vocab", str(bad), *out],
            "config": ["build-vocab", "--config", str(bad), "--labeled", str(labeled), *out],
        }[kind]
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert f"cannot read {kind} file: {bad}" in result.output


class TestGenSynthetic:
    def test_outputs(self, runner, tmp_path):
        out = tmp_path / "out"
        run_ok(runner, ["gen-synthetic", "--per-class", "5", "--days", "3", "--per-day", "10",
                        "--spike-days", "1", "--out", str(out), "--quiet"])
        labeled = ingest_jsonl(out / "synthetic_labeled.jsonl")
        corpus = ingest_jsonl(out / "synthetic_corpus.jsonl")
        assert len(labeled.tweets) == 20
        assert len(corpus.tweets) == 30
        assert all(t.gold_label is not None for t in labeled.tweets)
        assert all(t.gold_label is None for t in corpus.tweets)
        doc = json.loads((out / "manifest_gen_synthetic.json").read_text(encoding="utf-8"))
        assert doc["config"]["generator"]["per_class"] == 5

    def test_bad_spike_day_is_3(self, runner, tmp_path):
        result = runner.invoke(main, ["gen-synthetic", "--days", "3", "--spike-days", "9",
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 3

    @pytest.mark.parametrize("shares, message", [
        ("0.3,0.3,0.4,nan", "base_shares must be 4 non-negative values summing to 1"),
        ("0,0,1,0", "base anti-vaccine share 1.0 leaves no other category"),
    ], ids=["nan", "anti-share-1"])
    def test_share_vector_the_draw_cannot_take_is_3(self, runner, tmp_path, shares, message):
        out = tmp_path / "out"
        result = runner.invoke(main, ["gen-synthetic", "--days", "3", "--per-day", "5", "--spike-days",
                                      "1", "--base-shares", shares, "--out", str(out)])
        assert result.exit_code == 3, result.output
        assert result.output.startswith(f"error: {message}") and result.output.count("\n") == 1
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("offset", ["100000000000000", "6000000"])
    def test_utc_offset_beyond_a_day_is_3(self, runner, tmp_path, offset):
        out = tmp_path / "out"
        result = runner.invoke(main, ["gen-synthetic", "--per-class", "2", "--days", "2",
                                      "--per-day", "2", "--spike-days", "1", "--out", str(out),
                                      "--set", f"utc_offset_minutes={offset}"])
        assert result.exit_code == 3, result.output
        assert f"utc_offset_minutes must be within ±1440, got {offset}" in result.output
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("start", ["9999-12-20", "0001-01-01"])
    def test_start_date_beyond_the_calendar_is_3(self, runner, tmp_path, start):
        out = tmp_path / "out"
        result = runner.invoke(main, ["gen-synthetic", "--start-date", start, "--out", str(out)])
        assert result.exit_code == 3, result.output
        assert f"start_date {start}" in result.output
        assert list(out.iterdir()) == []

    def test_help_shows_the_default_spike_days(self, runner):
        result = run_ok(runner, ["gen-synthetic", "--help"])
        assert ("--spike-days TEXT 0-based day offsets that get the anti-share spike. "
                "[default: 20,28]") in " ".join(result.output.split())

    def test_default_spikes_match_default_days(self, runner, tmp_path):
        out = tmp_path / "out"
        run_ok(runner, ["gen-synthetic", "--per-class", "2", "--per-day", "2",
                        "--out", str(out), "--quiet"])
        doc = json.loads((out / "manifest_gen_synthetic.json").read_text(encoding="utf-8"))
        assert doc["config"]["generator"]["spike_days"] == [20, 28]


class TestReproducibility:
    def test_rerun_byte_identical(self, runner, tmp_path):
        """Same inputs and seeds give byte-identical data outputs; manifests
        may differ only in the timing block."""
        labeled = tmp_path / "labeled.jsonl"
        corpus = tmp_path / "corpus.jsonl"
        write_jsonl(generate_labeled(per_class=10, seed=4), labeled)
        write_jsonl(generate_corpus(days=4, per_day=20, seed=6, spike_days=(2,)), corpus)

        def pipeline(out: Path):
            for cmd in (
                ["build-vocab", "--labeled", str(labeled)],
                ["train", "--labeled", str(labeled)],
                ["evaluate", "--labeled", str(labeled)],
                ["timeline", "--corpus", str(corpus)],
            ):
                run_ok(runner, [*cmd, "--out", str(out), "--quiet", *FAST_TRAIN])

        out = tmp_path / "run"
        pipeline(out)
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        for p in out.iterdir():
            p.unlink()
        pipeline(out)
        second = {p.name: p.read_bytes() for p in out.iterdir()}
        assert sorted(first) == sorted(second)
        for name, b1 in first.items():
            b2 = second[name]
            if name.startswith("manifest_"):
                d1 = json.loads(b1)
                d2 = json.loads(b2)
                d1.pop("timings_s")
                d2.pop("timings_s")
                assert d1 == d2, name
            else:
                assert b1 == b2, name
