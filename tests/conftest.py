"""Shared fixtures plus the acceptance-criteria summary hook."""

from __future__ import annotations

import subprocess
import sys
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from stancewatch.encoder import EncoderConfig, ModelParams, collate, forward_with_cache, init_params
from stancewatch.tokenizer import PAD_ID, Encoding

settings.register_profile(
    "suite",
    derandomize=True,
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

# Filled by test_acceptance via the criterion() context manager; printed
# as one line per [PRIMARY] criterion after the run.
ACCEPTANCE_RESULTS: list[list[str]] = []


@contextmanager
def criterion(name: str):
    entry = [name, "FAIL"]
    ACCEPTANCE_RESULTS.append(entry)
    yield
    entry[1] = "PASS"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for name, status in ACCEPTANCE_RESULTS:
        terminalreporter.write_line(f"{status}  {name}")


@pytest.fixture
def dead_pid() -> int:
    """The PID of a process that has exited and been reaped."""
    proc = subprocess.Popen([sys.executable, "-c", "pass"])
    proc.wait()
    return proc.pid


# JSON that json.loads refuses without a JSONDecodeError: deep nesting
# raises RecursionError, and an integer past the interpreter's digit limit
# (4300 by default) a plain ValueError.
HOSTILE_JSON = {
    "deep": "[" * 100_000 + "]" * 100_000,
    "long_int": '{"id": "2", "n": ' + "9" * 5000 + "}",
}

# Any JSON value, for the file-format fuzzers; floats include NaN and the
# infinities, which json writes and reads as NaN and Infinity.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)


TINY = dict(vocab_size=16, d_model=8, n_layers=1, n_heads=2, max_len=8)


@pytest.fixture
def tiny_config() -> EncoderConfig:
    return EncoderConfig(**TINY)


@pytest.fixture
def tiny_params(tiny_config):
    return init_params(tiny_config, seed=7)


def random_encodings(rng: np.random.Generator, n: int, config: EncoderConfig) -> list[Encoding]:
    """Valid-looking encodings: CLS, random interior, SEP."""
    out = []
    for _ in range(n):
        n_real = int(rng.integers(2, config.max_len + 1))
        interior = rng.integers(4, config.vocab_size, max(0, n_real - 2))
        ids = [2, *[int(x) for x in interior], 3]
        out.append(Encoding(tuple(ids[: config.max_len])))
    return out


def batch_logits(params: ModelParams, batch, train_mode: bool = False, dropout_seed=None) -> np.ndarray:
    """Class scores of a batch of encodings: ``collate``, then ``forward_with_cache``."""
    ids, lengths = collate(batch, params.config)
    return forward_with_cache(params, ids, lengths, train_mode, dropout_seed)[0]


def tail_spec(params: ModelParams, first: str) -> list:
    """The parameters' layout from tensor ``first`` on: a layout a gradient
    buffer must not have."""
    spec = params.tensors.spec
    return spec[[name for name, _ in spec].index(first) :]


def leading_ones(lengths, width: int) -> np.ndarray:
    """The float 0/1 attention mask of rows ``width`` wide holding ``lengths``
    real positions each, the form the oracles take."""
    return (np.arange(width) < np.asarray(lengths)[:, None]).astype(np.float64)


def padded(enc: Encoding, max_len: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """``enc`` as ``max_len`` ids with a [PAD] tail, and its 0/1 attention mask."""
    pad = max_len - enc.n_real
    return enc.ids + (PAD_ID,) * pad, (1,) * enc.n_real + (0,) * pad
