"""Run manifests and the per-output-directory lock.

Every command writes a manifest describing exactly what it consumed:
the resolved config, sha256 of each input file, the package version, and
wall-clock seconds per stage. Data outputs are pure functions of config
plus inputs; the timing block is the one part that varies between reruns.
"""

from __future__ import annotations

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
            "timings_s": self.timings_s,
        }
        path = Path(path)
        tmp = partial_path(path)
        tmp.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        os.replace(tmp, path)


def _create_lock(lock_path: Path) -> int | None:
    try:
        return os.open(lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return None


def _dead_holder(lock_path: Path) -> int | None:
    """The PID written in the lock file if no such process exists, else None."""
    try:
        pid = int(lock_path.read_text(encoding="ascii"))
        if pid > 0:
            os.kill(pid, 0)
    except ProcessLookupError:
        return pid
    except (OSError, ValueError, OverflowError):
        pass
    return None


@contextmanager
def output_lock(out_dir: str | Path):
    """One running command per output directory; O_EXCL create, unlink on exit.

    A lock whose PID names no live process is left by a killed run and is
    taken over; the context yields that PID, or None for a fresh lock.
    """
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InputPathError(f"cannot use output directory {out}: {exc}")
    lock_path = out / LOCK_NAME
    fd = _create_lock(lock_path)
    stale = None if fd is not None else _dead_holder(lock_path)
    if stale is not None:
        lock_path.unlink(missing_ok=True)
        fd = _create_lock(lock_path)
    if fd is None:
        raise InputPathError(f"output directory is locked by another run: {lock_path}")
    try:
        os.write(fd, str(os.getpid()).encode("ascii"))
        os.close(fd)
        yield stale
    finally:
        lock_path.unlink(missing_ok=True)
