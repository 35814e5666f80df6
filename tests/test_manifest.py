import hashlib
import json
import os

import pytest

from stancewatch import __version__
from stancewatch.errors import InputPathError
from stancewatch.manifest import LOCK_NAME, RunManifest, output_lock, sha256_file


class TestSha256:
    def test_matches_hashlib(self, tmp_path):
        p = tmp_path / "blob.bin"
        data = b"stancewatch" * 1000
        p.write_bytes(data)
        assert sha256_file(p) == hashlib.sha256(data).hexdigest()

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty"
        p.write_bytes(b"")
        assert sha256_file(p) == hashlib.sha256(b"").hexdigest()


class TestRunManifest:
    def test_document_shape(self, tmp_path):
        src = tmp_path / "in.jsonl"
        src.write_text("{}\n", encoding="utf-8")
        m = RunManifest(command="train", config={"train": {"epochs": 2}})
        m.add_input("labeled", src)
        m.add_output(tmp_path / "model.ckpt")
        m.add_output(tmp_path / "a_trace.txt")
        with m.stage("training"):
            pass
        out = tmp_path / "manifest_train.json"
        m.write(out)
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["command"] == "train"
        assert doc["package_version"] == __version__
        assert doc["inputs"]["labeled"].startswith("sha256:")
        assert doc["outputs"] == ["a_trace.txt", "model.ckpt"]  # sorted basenames
        assert "training" in doc["timings_s"]
        assert doc["timings_s"]["training"] >= 0.0

    def test_stage_times_even_on_error(self, tmp_path):
        m = RunManifest(command="x", config={})
        with pytest.raises(RuntimeError):
            with m.stage("boom"):
                raise RuntimeError("no")
        assert "boom" in m.timings_s

    def test_identical_except_timings(self, tmp_path):
        """Two runs over the same inputs differ only in the timing block."""
        src = tmp_path / "in.jsonl"
        src.write_text("{}\n", encoding="utf-8")

        def run(out_name):
            m = RunManifest(command="evaluate", config={"a": 1})
            m.add_input("labeled", src)
            m.add_output("eval_report.json")
            with m.stage("eval"):
                sum(range(1000))
            p = tmp_path / out_name
            m.write(p)
            return json.loads(p.read_text(encoding="utf-8"))

        a = run("m1.json")
        b = run("m2.json")
        a.pop("timings_s")
        b.pop("timings_s")
        assert a == b


class TestOutputLock:
    def test_creates_and_removes(self, tmp_path):
        out = tmp_path / "out"
        with output_lock(out):
            assert (out / LOCK_NAME).is_file()
        assert not (out / LOCK_NAME).exists()

    def test_contention_fatal(self, tmp_path):
        out = tmp_path / "out"
        with output_lock(out):
            with pytest.raises(InputPathError, match="locked"):
                with output_lock(out):
                    pass

    def test_released_after_error(self, tmp_path):
        out = tmp_path / "out"
        with pytest.raises(RuntimeError):
            with output_lock(out):
                raise RuntimeError("boom")
        assert not (out / LOCK_NAME).exists()
        with output_lock(out):  # reacquirable
            pass

    def test_stale_lock_taken_over(self, tmp_path, dead_pid):
        out = tmp_path / "out"
        out.mkdir()
        (out / LOCK_NAME).write_text(str(dead_pid), encoding="ascii")
        with output_lock(out) as stale:
            assert stale == dead_pid
            assert (out / LOCK_NAME).read_text(encoding="ascii") == str(os.getpid())
        assert not (out / LOCK_NAME).exists()

    def test_creates_out_dir(self, tmp_path):
        out = tmp_path / "nested" / "out"
        with output_lock(out):
            assert out.is_dir()
