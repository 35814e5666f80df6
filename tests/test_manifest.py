import fcntl
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
        assert doc["results"] == {}
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

    def test_empty_lock_file_taken_over(self, tmp_path):
        """A run killed between creating the lock file and writing its PID
        leaves it empty; no process holds it."""
        out = tmp_path / "out"
        out.mkdir()
        (out / LOCK_NAME).write_bytes(b"")
        with output_lock(out) as stale:
            assert stale is None
            assert (out / LOCK_NAME).read_text(encoding="ascii") == str(os.getpid())
        assert not (out / LOCK_NAME).exists()

    def test_reused_pid_taken_over(self, tmp_path):
        """The PID of a killed run now names another live process (here the
        test's parent); the lock is still free."""
        out = tmp_path / "out"
        out.mkdir()
        (out / LOCK_NAME).write_text(str(os.getppid()), encoding="ascii")
        with output_lock(out) as stale:
            assert stale == os.getppid()
        assert not (out / LOCK_NAME).exists()

    def test_two_runs_finding_one_stale_lock(self, tmp_path, dead_pid, monkeypatch):
        """Both runs open the stale lock file; the rival locks it first, so
        this run is refused instead of taking the directory over too."""
        out = tmp_path / "out"
        out.mkdir()
        (out / LOCK_NAME).write_text(str(dead_pid), encoding="ascii")
        real_flock = fcntl.flock
        rival = output_lock(out)

        def rival_locks_first(fd, op):
            monkeypatch.setattr(fcntl, "flock", real_flock)
            assert rival.__enter__() == dead_pid
            return real_flock(fd, op)

        monkeypatch.setattr(fcntl, "flock", rival_locks_first)
        with pytest.raises(InputPathError, match="locked"):
            with output_lock(out):
                pass
        assert (out / LOCK_NAME).read_text(encoding="ascii") == str(os.getpid())
        rival.__exit__(None, None, None)
        assert not (out / LOCK_NAME).exists()

    def test_lock_file_unlinked_under_a_waiting_run(self, tmp_path, monkeypatch):
        """A rival run ends, unlinking the lock file this run has opened but
        not yet locked; this run locks the file now at the path, so a third
        run is refused."""
        out = tmp_path / "out"
        out.mkdir()
        real_flock = fcntl.flock

        def rival_runs_first(fd, op):
            monkeypatch.setattr(fcntl, "flock", real_flock)
            with output_lock(out):
                pass
            return real_flock(fd, op)

        monkeypatch.setattr(fcntl, "flock", rival_runs_first)
        (out / LOCK_NAME).write_bytes(b"")
        with output_lock(out):
            assert (out / LOCK_NAME).read_text(encoding="ascii") == str(os.getpid())
            with pytest.raises(InputPathError, match="locked"):
                with output_lock(out):
                    pass
        assert not (out / LOCK_NAME).exists()

    def test_creates_out_dir(self, tmp_path):
        out = tmp_path / "nested" / "out"
        with output_lock(out):
            assert out.is_dir()
