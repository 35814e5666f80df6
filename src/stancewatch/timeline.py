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
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .corpus import CATEGORY_SLUGS, Category, Tweet, format_timestamp, parse_timestamp
from .encoder import ModelParams
from .errors import DataValidationError
from .metrics import predict_batches
from .tokenizer import Vocabulary

DEFAULT_MIN_PROMINENCE = 2.0
DEFAULT_TOP_K = 5
PROBA_SUM_TOL = 1e-9


@dataclass(frozen=True)
class ClassifiedTweet:
    tweet_id: str
    created_at: dt.datetime
    predicted: int
    proba: tuple[float, float, float, float]

    def __post_init__(self) -> None:
        # A NaN sum passes the tolerance test below, so check finiteness first.
        if len(self.proba) != 4 or not np.isfinite(self.proba).all():
            raise DataValidationError(
                f"tweet {self.tweet_id}: probabilities must be 4 finite numbers, got {self.proba!r}"
            )
        if abs(sum(self.proba) - 1.0) > PROBA_SUM_TOL:
            raise DataValidationError(
                f"tweet {self.tweet_id}: probabilities sum to {sum(self.proba)!r}"
            )
        if self.predicted != max(range(4), key=lambda c: (self.proba[c], -c)):
            raise DataValidationError(
                f"tweet {self.tweet_id}: predicted class is not the argmax of proba"
            )


def classify_corpus(
    params: ModelParams,
    vocab: Vocabulary,
    tweets: Sequence[Tweet],
    batch_size: int = 64,
) -> list[ClassifiedTweet]:
    """Inference over the corpus, output order = input order."""
    probs = predict_batches(params, vocab, [t.text for t in tweets], batch_size)
    preds = probs.argmax(axis=1)
    return [
        ClassifiedTweet(
            tweet_id=t.id,
            created_at=t.created_at,
            predicted=int(p),
            proba=tuple(float(x) for x in row),
        )
        for t, p, row in zip(tweets, preds, probs)
    ]


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


def aggregate_daily(
    classified: Iterable[ClassifiedTweet], utc_offset_minutes: int
) -> TimelineSeries:
    """Bin by local calendar day and zero-fill between first and last day."""
    day_counts: dict[dt.date, list[int]] = {}
    n = 0
    for ct in classified:
        day = local_day(ct.created_at, utc_offset_minutes)
        day_counts.setdefault(day, [0, 0, 0, 0])[ct.predicted] += 1
        n += 1
    if n == 0:
        raise DataValidationError("cannot aggregate an empty classification result")
    first = min(day_counts)
    last = max(day_counts)
    bins = []
    day = first
    while day <= last:
        counts = day_counts.get(day, [0, 0, 0, 0])
        bins.append(DailyBin(date=day, counts=tuple(counts)))
        day += dt.timedelta(days=1)
    return TimelineSeries(bins=tuple(bins), utc_offset_minutes=utc_offset_minutes)


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


def classified_to_record(ct: ClassifiedTweet) -> dict:
    return {
        "id": ct.tweet_id,
        "created_at": format_timestamp(ct.created_at),
        "predicted": ct.predicted,
        "proba": list(ct.proba),
    }


def write_classified(classified: Iterable[ClassifiedTweet], path: str | Path) -> int:
    """Newline-delimited classification records; returns the record count."""
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        for ct in classified:
            fh.write(json.dumps(classified_to_record(ct), sort_keys=True, ensure_ascii=False))
            fh.write("\n")
            n += 1
    return n


def read_classified(path: str | Path) -> list[ClassifiedTweet]:
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                out.append(
                    ClassifiedTweet(
                        tweet_id=str(rec["id"]),
                        created_at=parse_timestamp(rec["created_at"]),
                        predicted=int(rec["predicted"]),
                        proba=tuple(float(x) for x in rec["proba"]),
                    )
                )
            except (KeyError, ValueError, TypeError) as exc:
                raise DataValidationError(f"{path}:{line_no}: bad classified record: {exc}")
    return out


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
