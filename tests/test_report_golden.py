"""Golden bytes of the timeline reports.

A fixed, seeded classification block (about 60 days with empty days and a
run of gaps, binned at UTC+3) goes through `timeline --classified`, raw and
with smoothing window 3. The SHA-256 of timeline.csv, peaks.json and
fig_timeline.svg must match the digests below, so a refactor of binning,
shares, smoothing, peak detection or the figure cannot change a byte of the
reports unnoticed. Change a digest only together with a deliberate, stated
change of the report format or the peak definition.
"""

import datetime as dt
import hashlib
import random

import numpy as np
import pytest
from click.testing import CliRunner

from stancewatch.cli import main
from stancewatch.timeline import EPOCH, ONE_US, Classified, write_classified

UTC_OFFSET_MINUTES = 180
START = dt.datetime(2021, 7, 1, tzinfo=dt.timezone.utc)
GAP_DAYS = {5, 17, 18, 19, 20, 33, 47}
SURGE_DAYS = {12, 40, 41}

GOLDEN = {
    0: {
        "timeline.csv": "56fddbee9ee748c8796c79e8cbebc1474749b2000ff6dd70c33aa015884fc166",
        "peaks.json": "7d4eee72310af8205e2d50f53a202937c78c7c1706d720ddc403c7aa0fd7479f",
        "fig_timeline.svg": "e3d0d8dd13cc2578127b42cc2ae1980ddc3e0e4ad173472c2d30ef21c81b50c0",
    },
    3: {
        "timeline.csv": "56fddbee9ee748c8796c79e8cbebc1474749b2000ff6dd70c33aa015884fc166",
        "peaks.json": "14e95872cb96af864767232a37398501b82d614bebe23e676ffd5d1c554a6f6f",
        "fig_timeline.svg": "c1e5f7993c1715af488a5243709ae123bfb56f3f5063706b1d90d116b0b09cb3",
    },
}


def golden_block() -> Classified:
    """About 60 days of tweets with seeded volumes, classes and times of day."""
    rng = random.Random(20210701)
    created_us, predicted = [], []
    for day in range(60):
        if day in GAP_DAYS:
            continue
        anti_weight = 6 if day in SURGE_DAYS else 1
        for _ in range(rng.randrange(1, 40)):
            seconds = day * 86400 + rng.randrange(86400)
            created_us.append((START - EPOCH) // ONE_US + seconds * 1_000_000)
            predicted.append(rng.choices(range(4), weights=(3, 4, anti_weight, 2))[0])
    proba = np.full((len(predicted), 4), 0.1)
    proba[np.arange(len(predicted)), predicted] = 0.7
    return Classified(tuple(f"g{i}" for i in range(len(predicted))), created_us, predicted, proba)


@pytest.mark.parametrize("window", sorted(GOLDEN))
def test_report_bytes(tmp_path, window):
    classified = tmp_path / "classified.jsonl"
    write_classified(golden_block(), classified)
    out = tmp_path / "out"
    result = CliRunner().invoke(main, [
        "timeline", "--classified", str(classified), "--out", str(out), "--quiet",
        "--utc-offset-minutes", str(UTC_OFFSET_MINUTES), "--smoothing-window", str(window),
    ])
    assert result.exit_code == 0, result.output
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in GOLDEN[window]}
    assert digests == GOLDEN[window]
