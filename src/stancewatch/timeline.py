"""Corpus classification, daily binning, share series, and peak detection.

Days are calendar dates of (created_at + utc_offset_minutes), so the series
can be displayed in the timezone the corpus belongs to. A TimelineSeries is
a start date and a (days, 4) int64 count array, one row per consecutive day.
A category's shares are one DayShares block: the start date, a float64
percent array and a bool empty array. A day with no tweets gets share 0 and
an empty flag; empty days never become peak candidates but their zeros do
participate in prominence walks.

A local maximum is a plateau (run of equal values) strictly above both
flanking values, one-sided at the series ends, reported at the plateau's
leftmost non-empty index. Prominence is topographic: height minus the
highest minimum separating the peak from higher ground, and the global
maximum's prominence is measured against the global minimum.
"""

from __future__ import annotations

import datetime as dt
import json
import math
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .corpus import CATEGORY_SLUGS, Category, Tweet, format_timestamp, parse_timestamp
from .encoder import ModelParams
from .errors import DataValidationError, InputPathError
from .metrics import DEFAULT_INFERENCE_BATCH_SIZE, predict_batches
from .tokenizer import Vocabulary

DEFAULT_MIN_PROMINENCE = 2.0
DEFAULT_TOP_K = 5
PROBA_SUM_TOL = 1e-9
EPOCH = dt.datetime(1970, 1, 1, tzinfo=dt.timezone.utc)
ONE_US = dt.timedelta(microseconds=1)  # (t - EPOCH) // ONE_US is t in microseconds
US_PER_MINUTE = 60_000_000
US_PER_DAY = 24 * 60 * US_PER_MINUTE
# The days since EPOCH that datetime.date can hold: the years 1-9999.
DATE_DAYS = range((dt.date.min - EPOCH.date()).days, (dt.date.max - EPOCH.date()).days + 1)
MAX_UTC_OFFSET_MINUTES = 24 * 60
# Rows per block of write_classified: the ids aside, only one block's rows
# are ever Python objects, whatever the length of the result.
CLASSIFIED_BLOCK_ROWS = 4096
# json.dumps(id, ensure_ascii=False) from one encoder: json.dumps builds one per call.
_JSON_TEXT = json.JSONEncoder(ensure_ascii=False).encode


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
    batch_size: int = DEFAULT_INFERENCE_BATCH_SIZE,
    stats: dict | None = None,
) -> Classified:
    """Inference over the corpus, output order = input order; ``stats`` is
    ``predict_batches``'s."""
    probs = predict_batches(params, vocab, [t.text for t in tweets], batch_size, stats)
    created_us = np.fromiter(((t.created_at - EPOCH) // ONE_US for t in tweets), dtype=np.int64,
                             count=len(tweets))
    return Classified(tuple(t.id for t in tweets), created_us, probs.argmax(axis=1), probs)


@dataclass(frozen=True, eq=False)
class TimelineSeries:
    """Per-day counts: row k of the (days, 4) int64 ``bins`` holds the
    [news, irrelevant, anti, pro] counts of day ``start + k``, so days are
    consecutive by construction and a day without tweets is a row of zeros."""

    start: dt.date
    bins: np.ndarray

    def __post_init__(self) -> None:
        bins = np.asarray(self.bins, dtype=np.int64)
        if bins.ndim != 2 or bins.shape[1] != 4:
            raise DataValidationError(f"timeline bins must be (days, 4) counts, got {bins.shape}")
        object.__setattr__(self, "bins", bins)

    @property
    def dates(self) -> list[dt.date]:
        return [self.start + dt.timedelta(days=k) for k in range(len(self.bins))]


def check_utc_offset(utc_offset_minutes: int) -> None:
    """Reject an offset of more than a day either way, which no timezone has."""
    if abs(utc_offset_minutes) > MAX_UTC_OFFSET_MINUTES:
        raise DataValidationError(
            f"utc_offset_minutes must be within ±{MAX_UTC_OFFSET_MINUTES}, got {utc_offset_minutes}"
        )


def aggregate_daily(classified: Classified, utc_offset_minutes: int) -> TimelineSeries:
    """Bin by local calendar day and zero-fill between first and last day."""
    check_utc_offset(utc_offset_minutes)
    if len(classified) == 0:
        raise DataValidationError("cannot aggregate an empty classification result")
    days = (classified.created_us + utc_offset_minutes * US_PER_MINUTE) // US_PER_DAY
    first, last = int(days.min()), int(days.max())
    if first not in DATE_DAYS or last not in DATE_DAYS:
        raise DataValidationError(
            f"at UTC offset {utc_offset_minutes} min a tweet's local day falls outside the years 1-9999"
        )
    slot = (days - first) * 4 + classified.predicted
    counts = np.bincount(slot, minlength=4 * (last - first + 1)).reshape(-1, 4)
    return TimelineSeries(EPOCH.date() + dt.timedelta(days=first), counts)


@dataclass(frozen=True, eq=False)
class DayShares:
    """One category's share of each day in percent (float64), row k for day
    ``start + k``; ``empty`` (bool) flags the days without tweets."""

    start: dt.date
    percent: np.ndarray
    empty: np.ndarray

    def __len__(self) -> int:
        return len(self.percent)


def share(series: TimelineSeries, category: int) -> DayShares:
    """Per-day percentage of the category; empty days carry share 0 and a flag."""
    if not 0 <= category < 4:
        raise DataValidationError(f"category id out of range: {category}")
    totals = series.bins.sum(axis=1)
    percent = 100.0 * series.bins[:, category] / np.maximum(totals, 1)
    return DayShares(series.start, percent, totals == 0)


def check_peak_parameters(
    min_prominence: float = DEFAULT_MIN_PROMINENCE,
    top_k: int = DEFAULT_TOP_K,
    smoothing_window: int | None = None,
) -> None:
    """Reject settings of detect_peaks that no series could use; None skips smoothing."""
    if top_k < 1:
        raise DataValidationError(f"top_k must be >= 1, got {top_k}")
    if not 0 <= min_prominence < math.inf:
        raise DataValidationError(f"min_prominence must be finite and >= 0, got {min_prominence}")
    if smoothing_window is not None and (smoothing_window < 1 or smoothing_window % 2 == 0):
        raise DataValidationError(f"smoothing window must be odd and >= 1, got {smoothing_window}")


def smooth_shares(shares: DayShares, window: int) -> DayShares:
    """Centered moving average with an odd window, shrinking at the edges.
    Empty flags pass through untouched. From 2n - 1 on, every day's window
    holds all n days, so a wider window is computed as that one."""
    check_peak_parameters(smoothing_window=window)
    n = len(shares)
    half = min(window // 2, max(n - 1, 0))
    padded = np.pad(shares.percent, half)
    # Summing the shifted copies in window order adds each day's window left to
    # right, one value after another like a per-day running total; the zero
    # padding adds nothing.
    total = sum(padded[k:k + n] for k in range(2 * half + 1))
    day = np.arange(n)
    count = np.minimum(day + half + 1, n) - np.maximum(day - half, 0)
    return DayShares(shares.start, total / count, shares.empty)


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


def _plateau_maxima(values: np.ndarray, empty: np.ndarray) -> np.ndarray:
    """Indices of plateau local maxima, each reported at the leftmost
    non-empty index of its run. Runs made entirely of empty days are skipped."""
    new_run = np.r_[True, values[1:] != values[:-1]]
    height = values[new_run]
    # Both neighbouring runs lower, one-sided at the ends; a run spanning the series is no peak.
    peak = np.r_[True, height[:-1] < height[1:]] & np.r_[height[1:] < height[:-1], True]
    peak &= len(height) > 1
    filled = np.flatnonzero(~empty)
    runs, first = np.unique(np.cumsum(new_run)[filled] - 1, return_index=True)
    return filled[first[peak[runs]]]


def _prominence(values: np.ndarray, idx: int) -> float:
    """Topographic prominence of a local maximum at idx."""
    v = values[idx]
    cols = []
    for side in (values[idx::-1], values[idx:]):  # walks outward, starting at the peak
        higher = np.flatnonzero(side > v)
        if len(higher):
            cols.append(side[: higher[0]].min())
    return float(v - (max(cols) if cols else values.min()))


def detect_peaks(
    shares: DayShares,
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
    if len(shares) == 0:
        raise DataValidationError("cannot detect peaks on an empty share sequence")
    check_peak_parameters(min_prominence, top_k, smoothing_window)
    if smoothing_window is not None:
        shares = smooth_shares(shares, smoothing_window)
    values = shares.percent
    filled = np.flatnonzero(~shares.empty)
    # The highest non-empty day, the earliest on ties; the first day if none has tweets.
    gmax = int(filled[values[filled].argmax()]) if len(filled) else 0
    top = _plateau_maxima(values, shares.empty)
    degenerate = len(top) == 0
    if degenerate:
        # Nothing observed, or a constant series: the headline day alone.
        top, prominence = np.array([gmax]), np.zeros(1)
    else:
        prominence = np.array([_prominence(values, i) for i in top])
        # The global maximum survives the prominence filter unconditionally so
        # the report always names the overall highest date.
        kept = (prominence >= min_prominence) | (top == gmax)
        top, prominence = top[kept], prominence[kept]
        order = np.lexsort((top, -values[top]))[:top_k]
        top, prominence = top[order], prominence[order]
    dates = [shares.start + dt.timedelta(days=k) for k in top.tolist()]
    return PeakReport(
        category=category,
        global_max_date=shares.start + dt.timedelta(days=gmax),
        local_maxima=tuple(map(Peak, dates, values[top].tolist(), prominence.tolist())),
        min_prominence=min_prominence,
        top_k=top_k,
        smoothing_window=smoothing_window,
        degenerate=degenerate,
    )


def write_classified(classified: Classified, path: str | Path) -> int:
    """Newline-delimited classification records; returns the record count.

    Each line is byte-identical to ``json.dumps(record, sort_keys=True,
    ensure_ascii=False)``, built from the sorted key order directly: the id
    through one module-level ``json.JSONEncoder``, the finite probabilities
    through ``float.__repr__`` as json writes them, and the timestamp, which
    needs no escaping, as is.
    The columns become Python lists ``CLASSIFIED_BLOCK_ROWS`` rows at a
    time, so writing adds the memory of one block, not of the whole result.
    """
    with open(path, "w", encoding="utf-8") as fh:
        for lo in range(0, len(classified), CLASSIFIED_BLOCK_ROWS):
            rows = slice(lo, lo + CLASSIFIED_BLOCK_ROWS)
            columns = (classified.ids[rows], classified.created_us[rows].tolist(),
                       classified.predicted[rows].tolist(), classified.proba[rows].tolist())
            for tid, us, predicted, (p0, p1, p2, p3) in zip(*columns):
                fh.write(
                    f'{{"created_at": "{format_timestamp(EPOCH + us * ONE_US)}", '
                    f'"id": {_JSON_TEXT(tid)}, "predicted": {predicted}, '
                    f'"proba": [{p0!r}, {p1!r}, {p2!r}, {p3!r}]}}\n'
                )
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
    """Read classified.jsonl back; every rejection names ``path:line``.

    Each record is parsed straight into growing typed columns (``array``
    buffers of line numbers, microseconds, class ids and flattened
    probabilities), which ``Classified`` receives as numpy views of the
    same memory (``np.frombuffer``). The ids are the keys of an insertion-ordered dict, which
    is both the id column and the duplicate check; the line of an id's
    first copy is looked up only when a second turns up.
    """
    ids: dict[str, None] = {}
    lines, created_us, predicted, proba = array("q"), array("q"), array("b"), array("d")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    tid, us, pred, row = _parse_classified_line(line)
                    if tid in ids:
                        raise ValueError(f"duplicate id {tid!r}, first at line {lines[list(ids).index(tid)]}")
                except (ValueError, OverflowError, RecursionError) as exc:
                    # RecursionError: json.loads on a deeply nested line
                    raise DataValidationError(f"{path}:{line_no}: bad classified record: {exc}")
                ids[tid] = None
                lines.append(line_no)
                created_us.append(us)
                # Any class id outside 0-3 fails Classified's argmax check, as -1 does in int8.
                predicted.append(pred if 0 <= pred <= 3 else -1)
                proba.fromlist(row)
    except (OSError, UnicodeDecodeError) as exc:
        raise InputPathError(f"cannot read classified file: {path}: {exc}")
    columns = (np.frombuffer(created_us, dtype=np.int64), np.frombuffer(predicted, dtype=np.int8),
               np.frombuffer(proba, dtype=np.float64).reshape(-1, 4))
    try:
        return Classified(tuple(ids), *columns)
    except BadRow as exc:
        raise DataValidationError(f"{path}:{lines[exc.row]}: {exc}")


def write_timeline_csv(series: TimelineSeries, path: str | Path) -> None:
    """CSV with one row per day; anti-vaccine share in percent to 6 places."""
    anti = share(series, Category.ANTI_VACCINE)
    lines = ["date,count_news,count_irrelevant,count_anti,count_pro,total,share_anti_pct,empty_flag"]
    rows = zip(series.dates, series.bins.tolist(), anti.percent.tolist(), anti.empty.tolist())
    for day, counts, pct, empty in rows:  # str(date) is its ISO form
        lines.append(f"{day},{','.join(map(str, counts))},{sum(counts)},{pct:.6f},{int(empty)}")
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
