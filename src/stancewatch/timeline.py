"""Corpus classification, daily binning, share series, and peak detection.

Days are calendar dates of (created_at + utc_offset_minutes), so the series
can be displayed in the timezone the corpus belongs to. A day with no
tweets gets share 0 and an empty flag; empty days never become peak
candidates but their zeros do participate in prominence walks.

A local maximum is a plateau (run of equal values) strictly above both
flanking values, one-sided at the series ends, reported at the plateau's
leftmost non-empty index. Prominence is topographic: height minus the
highest minimum separating the peak from higher ground, and the global
maximum's prominence is measured against the global minimum.
"""

from __future__ import annotations

import datetime as dt
import json
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .corpus import CATEGORY_SLUGS, Category, Tweet, format_timestamp, parse_timestamp
from .encoder import ModelParams
from .errors import DataValidationError, InputPathError
from .metrics import predict_batches
from .tokenizer import Vocabulary

DEFAULT_MIN_PROMINENCE = 2.0
DEFAULT_TOP_K = 5
PROBA_SUM_TOL = 1e-9
EPOCH = dt.datetime(1970, 1, 1, tzinfo=dt.timezone.utc)
ONE_US = dt.timedelta(microseconds=1)  # (t - EPOCH) // ONE_US is t in microseconds
US_PER_MINUTE = 60_000_000
US_PER_DAY = 24 * 60 * US_PER_MINUTE


class ClassifiedTweet(NamedTuple):
    tweet_id: str
    created_at: dt.datetime
    predicted: int
    proba: tuple[float, float, float, float]


class BadRow(DataValidationError):
    """A Classified check failed; ``row`` is the first row that fails it."""

    def __init__(self, row: int, message: str):
        super().__init__(message)
        self.row = row


@dataclass(frozen=True, eq=False)
class Classified(Sequence):
    """Classification results as columns in corpus order: tweet ids, UTC microseconds
    since the epoch (int64), predicted class (int8), (n, 4) probabilities. Validated
    once, on construction; ``block[i]`` makes row i, a ClassifiedTweet never stored."""

    ids: tuple[str, ...]
    created_us: np.ndarray
    predicted: np.ndarray
    proba: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.ids)
        created_us = np.asarray(self.created_us, dtype=np.int64)
        predicted = np.asarray(self.predicted)
        proba = np.asarray(self.proba, dtype=np.float64)
        if created_us.shape != (n,) or predicted.shape != (n,) or proba.shape != (n, 4):
            raise DataValidationError(
                f"{n} tweet ids need {n} timestamps, predictions and rows of 4 finite "
                f"probabilities, got shapes {created_us.shape}, {predicted.shape}, {proba.shape}"
            )
        finite = np.isfinite(proba)
        sums = proba.sum(axis=1, where=finite)
        # Sums skip non-finite entries, whose rows the first check rejects;
        # argmax takes the first maximum, so a tie goes to the lowest class id.
        for bad, problem, values in (
            (~finite.all(axis=1), "probabilities must be 4 finite numbers, got", proba),
            (np.abs(sums - 1.0) > PROBA_SUM_TOL, "probabilities sum to", sums),
            (predicted != proba.argmax(axis=1), "predicted class is not the argmax of", proba),
        ):
            if bad.any():
                row = int(bad.argmax())
                raise BadRow(row, f"tweet {self.ids[row]}: {problem} {values[row].tolist()!r}")
        object.__setattr__(self, "created_us", created_us)
        object.__setattr__(self, "predicted", predicted.astype(np.int8))
        object.__setattr__(self, "proba", proba)

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, i: int) -> ClassifiedTweet:
        created_at = EPOCH + int(self.created_us[i]) * ONE_US
        proba = tuple(self.proba[i].tolist())
        return ClassifiedTweet(self.ids[i], created_at, int(self.predicted[i]), proba)


def classify_corpus(
    params: ModelParams,
    vocab: Vocabulary,
    tweets: Sequence[Tweet],
    batch_size: int = 64,
) -> Classified:
    """Inference over the corpus, output order = input order."""
    probs = predict_batches(params, vocab, [t.text for t in tweets], batch_size)
    created_us = [(t.created_at - EPOCH) // ONE_US for t in tweets]
    return Classified(tuple(t.id for t in tweets), created_us, probs.argmax(axis=1), probs)


@dataclass(frozen=True)
class DailyBin:
    date: dt.date
    counts: tuple[int, int, int, int]

    @property
    def total(self) -> int:
        return sum(self.counts)


@dataclass(frozen=True)
class TimelineSeries:
    """Contiguous day-ordered bins, gaps zero-filled."""

    bins: tuple[DailyBin, ...]
    utc_offset_minutes: int

    def __post_init__(self) -> None:
        for a, b in zip(self.bins, self.bins[1:]):
            if (b.date - a.date).days != 1:
                raise DataValidationError(
                    f"timeline bins must advance one day at a time: {a.date} then {b.date}"
                )


def local_day(created_at: dt.datetime, utc_offset_minutes: int) -> dt.date:
    shifted = created_at + dt.timedelta(minutes=utc_offset_minutes)
    return shifted.date()


def aggregate_daily(classified: Classified, utc_offset_minutes: int) -> TimelineSeries:
    """Bin by local calendar day and zero-fill between first and last day."""
    if len(classified) == 0:
        raise DataValidationError("cannot aggregate an empty classification result")
    days = (classified.created_us + utc_offset_minutes * US_PER_MINUTE) // US_PER_DAY
    first, last = int(days.min()), int(days.max())
    slot = (days - first) * 4 + classified.predicted
    counts = np.bincount(slot, minlength=4 * (last - first + 1)).reshape(-1, 4)
    start = EPOCH.date() + dt.timedelta(days=first)
    bins = tuple(DailyBin(start + dt.timedelta(k), tuple(c)) for k, c in enumerate(counts.tolist()))
    return TimelineSeries(bins=bins, utc_offset_minutes=utc_offset_minutes)


@dataclass(frozen=True)
class DayShare:
    date: dt.date
    share: float
    empty: bool


def share(series: TimelineSeries, category: int) -> list[DayShare]:
    """Per-day percentage of the category; empty days carry share 0 and a flag."""
    if not 0 <= category < 4:
        raise DataValidationError(f"category id out of range: {category}")
    out = []
    for b in series.bins:
        if b.total == 0:
            out.append(DayShare(date=b.date, share=0.0, empty=True))
        else:
            out.append(DayShare(date=b.date, share=100.0 * b.counts[category] / b.total, empty=False))
    return out


def smooth_shares(shares: Sequence[DayShare], window: int) -> list[DayShare]:
    """Centered moving average with an odd window, shrinking at the edges.
    Empty flags pass through untouched."""
    if window < 1 or window % 2 == 0:
        raise DataValidationError(f"smoothing window must be odd and >= 1, got {window}")
    half = window // 2
    values = [s.share for s in shares]
    out = []
    for i, s in enumerate(shares):
        lo = max(0, i - half)
        hi = min(len(values), i + half + 1)
        out.append(DayShare(date=s.date, share=sum(values[lo:hi]) / (hi - lo), empty=s.empty))
    return out


@dataclass(frozen=True)
class Peak:
    date: dt.date
    share: float
    prominence: float


@dataclass(frozen=True)
class PeakReport:
    category: int
    global_max_date: dt.date
    local_maxima: tuple[Peak, ...]
    min_prominence: float
    top_k: int
    smoothing_window: int | None
    degenerate: bool


def _plateau_maxima(values: Sequence[float], empty: Sequence[bool]) -> list[int]:
    """Indices of plateau local maxima, each reported at the leftmost
    non-empty index of its run. Runs made entirely of empty days are skipped."""
    n = len(values)
    maxima = []
    i = 0
    while i < n:
        j = i
        while j + 1 < n and values[j + 1] == values[i]:
            j += 1
        left_ok = i == 0 or values[i - 1] < values[i]
        right_ok = j == n - 1 or values[j + 1] < values[i]
        if left_ok and right_ok and not (i == 0 and j == n - 1):
            for k in range(i, j + 1):
                if not empty[k]:
                    maxima.append(k)
                    break
        i = j + 1
    return maxima


def _prominence(values: Sequence[float], idx: int) -> float:
    """Topographic prominence of a local maximum at idx."""
    v = values[idx]
    side_cols = []
    for step in (-1, 1):
        low = v
        k = idx + step
        found_higher = False
        while 0 <= k < len(values):
            if values[k] > v:
                found_higher = True
                break
            low = min(low, values[k])
            k += step
        if found_higher:
            side_cols.append(low)
    if not side_cols:
        return v - min(values)
    return v - max(side_cols)


def detect_peaks(
    shares: Sequence[DayShare],
    category: int,
    min_prominence: float = DEFAULT_MIN_PROMINENCE,
    top_k: int = DEFAULT_TOP_K,
    smoothing_window: int | None = None,
) -> PeakReport:
    """Rank the category's surge dates.

    Local maxima below min_prominence are dropped, except the global
    maximum, which is always reported (it is the headline date even when
    the series is nearly flat). Survivors are sorted by share descending
    (date ascending on ties) and truncated to top_k.
    """
    if not shares:
        raise DataValidationError("cannot detect peaks on an empty share sequence")
    if top_k < 1:
        raise DataValidationError(f"top_k must be >= 1, got {top_k}")
    if min_prominence < 0:
        raise DataValidationError(f"min_prominence must be >= 0, got {min_prominence}")
    if smoothing_window is not None:
        shares = smooth_shares(shares, smoothing_window)

    values = [s.share for s in shares]
    empty = [s.empty for s in shares]

    candidates = [i for i in range(len(shares)) if not empty[i]]
    if not candidates:
        # Nothing was ever observed; report the first day as a degenerate max.
        first = shares[0]
        return PeakReport(
            category=category,
            global_max_date=first.date,
            local_maxima=(Peak(date=first.date, share=first.share, prominence=0.0),),
            min_prominence=min_prominence,
            top_k=top_k,
            smoothing_window=smoothing_window,
            degenerate=True,
        )

    gmax_idx = min(candidates, key=lambda i: (-values[i], i))
    maxima_idx = _plateau_maxima(values, empty)

    if not maxima_idx:
        # Constant series (single all-spanning plateau): degenerate report.
        return PeakReport(
            category=category,
            global_max_date=shares[gmax_idx].date,
            local_maxima=(Peak(date=shares[gmax_idx].date, share=values[gmax_idx], prominence=0.0),),
            min_prominence=min_prominence,
            top_k=top_k,
            smoothing_window=smoothing_window,
            degenerate=True,
        )

    peaks = [
        Peak(date=shares[i].date, share=values[i], prominence=_prominence(values, i))
        for i in maxima_idx
    ]
    # The global maximum survives the prominence filter unconditionally so
    # the report always names the overall highest date.
    kept = [
        p
        for p in peaks
        if p.prominence >= min_prominence or p.date == shares[gmax_idx].date
    ]
    kept.sort(key=lambda p: (-p.share, p.date))
    return PeakReport(
        category=category,
        global_max_date=shares[gmax_idx].date,
        local_maxima=tuple(kept[:top_k]),
        min_prominence=min_prominence,
        top_k=top_k,
        smoothing_window=smoothing_window,
        degenerate=False,
    )


def write_classified(classified: Classified, path: str | Path) -> int:
    """Newline-delimited classification records; returns the record count."""
    columns = (classified.ids, classified.created_us.tolist(), classified.predicted.tolist(),
               classified.proba.tolist())
    with open(path, "w", encoding="utf-8") as fh:
        for tid, us, predicted, proba in zip(*columns):
            rec = {"id": tid, "created_at": format_timestamp(EPOCH + us * ONE_US),
                   "predicted": predicted, "proba": proba}
            fh.write(json.dumps(rec, sort_keys=True, ensure_ascii=False) + "\n")
    return len(classified)


def _parse_classified_line(line: str) -> tuple[str, int, int, list[float]]:
    """(id, created_us, predicted, proba) of one record; ValueError if malformed."""
    rec = json.loads(line)
    if not isinstance(rec, dict):
        raise ValueError("record is not an object")
    tid, raw_ts, predicted, proba = (rec.get(k) for k in ("id", "created_at", "predicted", "proba"))
    if not isinstance(tid, str) or not tid:
        raise ValueError(f"id must be a non-empty string, got {tid!r}")
    if not isinstance(raw_ts, str):
        raise ValueError(f"created_at must be an ISO-8601 string, got {raw_ts!r}")
    # JSON gives exact types, so this also turns away true/false
    if type(predicted) is not int:
        raise ValueError(f"predicted must be an integer, got {predicted!r}")
    if not isinstance(proba, list) or len(proba) != 4 or {type(x) for x in proba} - {int, float}:
        raise ValueError(f"proba must be a list of 4 numbers, got {proba!r}")
    return tid, (parse_timestamp(raw_ts) - EPOCH) // ONE_US, predicted, [float(x) for x in proba]


def read_classified(path: str | Path) -> Classified:
    """Read classified.jsonl back; every rejection names ``path:line``."""
    lines: dict[str, int] = {}  # tweet id -> line number, in file order
    created_us, predicted, proba = [], [], []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    tid, us, pred, row = _parse_classified_line(line)
                    if tid in lines:
                        raise ValueError(f"duplicate id {tid!r}, first at line {lines[tid]}")
                except (ValueError, OverflowError) as exc:
                    raise DataValidationError(f"{path}:{line_no}: bad classified record: {exc}")
                lines[tid] = line_no
                created_us.append(us)
                predicted.append(pred)
                proba.append(row)
    except (OSError, UnicodeDecodeError) as exc:
        raise InputPathError(f"cannot read classified file: {path}: {exc}")
    ids = tuple(lines)
    try:
        return Classified(ids, created_us, predicted, np.reshape(proba, (-1, 4)))
    except BadRow as exc:
        raise DataValidationError(f"{path}:{lines[ids[exc.row]]}: {exc}")


def write_timeline_csv(series: TimelineSeries, path: str | Path) -> None:
    """CSV with one row per day; anti-vaccine share in percent to 6 places."""
    anti = share(series, Category.ANTI_VACCINE)
    lines = ["date,count_news,count_irrelevant,count_anti,count_pro,total,share_anti_pct,empty_flag"]
    for b, s in zip(series.bins, anti):
        lines.append(
            f"{b.date.isoformat()},{b.counts[0]},{b.counts[1]},{b.counts[2]},{b.counts[3]},"
            f"{b.total},{s.share:.6f},{1 if s.empty else 0}"
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def peak_report_to_dict(report: PeakReport) -> dict:
    return {
        "category": CATEGORY_SLUGS[report.category],
        "global_max_date": report.global_max_date.isoformat(),
        "local_maxima": [
            {
                "date": p.date.isoformat(),
                "share_pct": round(p.share, 6),
                "prominence_pct": round(p.prominence, 6),
            }
            for p in report.local_maxima
        ],
        "parameters": {
            "min_prominence": report.min_prominence,
            "top_k": report.top_k,
            "smoothing_window": report.smoothing_window,
        },
        "degenerate": report.degenerate,
    }


def write_peak_report(report: PeakReport, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(peak_report_to_dict(report), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
