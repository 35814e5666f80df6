"""Run manifests and the per-output-directory lock.

Every command writes a manifest describing exactly what it consumed:
the resolved config, sha256 of each input file, the package version, and
wall-clock seconds per stage. A command may add deterministic facts about
its run under ``results``. Data outputs are pure functions of config plus
inputs; the timing block is the one part that varies between reruns.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__
from .errors import InputPathError

LOCK_NAME = ".stancewatch.lock"


def sha256_file(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def partial_path(final: Path) -> Path:
    """The temporary name a file is written under, beside its final name,
    before `os.replace` moves it into place."""
    return final.with_name(f".partial-{os.getpid()}-{final.name}")


@dataclass
class RunManifest:
    command: str
    config: dict
    inputs: dict[str, str] = field(default_factory=dict)
    outputs: list[str] = field(default_factory=list)
    package_version: str = __version__
    results: dict = field(default_factory=dict)
    timings_s: dict[str, float] = field(default_factory=dict)

    def add_input(self, name: str, path: str | Path) -> None:
        self.inputs[name] = f"sha256:{sha256_file(path)}"

    def add_output(self, path: str | Path) -> None:
        self.outputs.append(Path(path).name)

    @contextmanager
    def stage(self, name: str):
        started = time.perf_counter()
        try:
            yield
        finally:
            self.timings_s[name] = round(time.perf_counter() - started, 3)

    def write(self, path: str | Path) -> None:
        doc = {
            "command": self.command,
            "config": self.config,
            "inputs": self.inputs,
            "outputs": sorted(self.outputs),
            "package_version": self.package_version,
            "results": self.results,
            "timings_s": self.timings_s,
        }
        path = Path(path)
        tmp = partial_path(path)
        tmp.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        os.replace(tmp, path)


def _previous_holder(fd: int) -> int | None:
    """The PID a killed run left in the lock file, if it holds one."""
    try:
        pid = int(os.read(fd, 32).decode("ascii"))
    except (UnicodeDecodeError, ValueError):
        return None
    return pid if pid > 0 else None


@contextmanager
def output_lock(out_dir: str | Path):
    """One running command per output directory: an exclusive ``flock`` on
    the lock file, held until the run ends and unlinked then.

    The kernel drops the lock when its process dies, so a lock file left by
    a killed run (empty, or naming a PID that is dead or has been reused)
    is taken over; the context yields the PID such a file names, or None.
    A run that locks a file another run has just unlinked retries on the
    file now at the path, so two runs never both hold the directory.
    """
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InputPathError(f"cannot use output directory {out}: {exc}")
    lock_path = out / LOCK_NAME
    while True:
        try:
            fd = os.open(lock_path, os.O_RDWR | os.O_CREAT, 0o644)
        except OSError as exc:
            raise InputPathError(f"cannot create lock file {lock_path}: {exc}")
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError as exc:
            os.close(fd)
            if isinstance(exc, BlockingIOError):
                raise InputPathError(f"output directory is locked by another run: {lock_path}")
            raise InputPathError(f"cannot lock {lock_path}: {exc}")
        try:
            if os.path.samestat(os.fstat(fd), os.stat(lock_path)):
                break
        except FileNotFoundError:
            pass
        os.close(fd)
    try:
        stale = _previous_holder(fd)
        os.ftruncate(fd, 0)
        os.pwrite(fd, str(os.getpid()).encode("ascii"), 0)
        yield stale
    finally:
        lock_path.unlink(missing_ok=True)
        os.close(fd)
