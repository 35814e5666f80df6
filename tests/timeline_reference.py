"""Independent loop reference for the timeline's share and peak stages.

Plain Python lists and loops only: no numpy, no imports from the package.
These are the per-day, per-object versions the array implementation
replaced, kept as an oracle: the array code must return exactly equal
shares, smoothed values and peak reports. Slow on purpose; used only on
small series.

A series is a start date and a list of per-day count rows [news,
irrelevant, anti, pro]. Peak and PeakReport carry the same field names as
the package's classes, so `dataclasses.asdict` of both can be compared.
`local_day` is the calendar day of one timestamp, the day the package's
binning computes for a whole column at once.
"""

import datetime as dt
from dataclasses import dataclass


@dataclass(frozen=True)
class DayShare:
    date: dt.date
    share: float
    empty: bool


@dataclass(frozen=True)
class Peak:
    date: dt.date
    share: float
    prominence: float


@dataclass(frozen=True)
class PeakReport:
    category: int
    global_max_date: dt.date
    local_maxima: tuple
    min_prominence: float
    top_k: int
    smoothing_window: object
    degenerate: bool


def local_day(created_at, utc_offset_minutes):
    """The local calendar day of an aware datetime at a fixed UTC offset."""
    return (created_at + dt.timedelta(minutes=utc_offset_minutes)).date()


def share(start, counts, category):
    """Per-day percentage of the category; empty days carry share 0 and a flag."""
    out = []
    for k, row in enumerate(counts):
        date = start + dt.timedelta(days=k)
        total = sum(row)
        if total == 0:
            out.append(DayShare(date=date, share=0.0, empty=True))
        else:
            out.append(DayShare(date=date, share=100.0 * row[category] / total, empty=False))
    return out


def smooth_shares(shares, window):
    """Centered moving average with an odd window, shrinking at the edges.
    Empty flags pass through untouched."""
    half = window // 2
    values = [s.share for s in shares]
    out = []
    for i, s in enumerate(shares):
        lo = max(0, i - half)
        hi = min(len(values), i + half + 1)
        # explicit left-to-right adds: from Python 3.12 sum() compensates
        # float rounding, so its result would depend on the Python version
        total = 0.0
        for v in values[lo:hi]:
            total += v
        out.append(DayShare(date=s.date, share=total / (hi - lo), empty=s.empty))
    return out


def plateau_maxima(values, empty):
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


def prominence(values, idx):
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


def detect_peaks(shares, category, min_prominence, top_k, smoothing_window=None):
    """Rank the category's surge dates (parameters assumed valid)."""
    if smoothing_window is not None:
        shares = smooth_shares(shares, smoothing_window)
    values = [s.share for s in shares]
    empty = [s.empty for s in shares]

    def report(global_max_date, local_maxima, degenerate):
        return PeakReport(category, global_max_date, tuple(local_maxima), min_prominence,
                          top_k, smoothing_window, degenerate)

    candidates = [i for i in range(len(shares)) if not empty[i]]
    if not candidates:
        first = shares[0]
        return report(first.date, [Peak(first.date, first.share, 0.0)], True)

    gmax_idx = min(candidates, key=lambda i: (-values[i], i))
    gmax_date = shares[gmax_idx].date
    maxima_idx = plateau_maxima(values, empty)
    if not maxima_idx:
        return report(gmax_date, [Peak(gmax_date, values[gmax_idx], 0.0)], True)

    peaks = [Peak(shares[i].date, values[i], prominence(values, i)) for i in maxima_idx]
    kept = [p for p in peaks if p.prominence >= min_prominence or p.date == gmax_date]
    kept.sort(key=lambda p: (-p.share, p.date))
    return report(gmax_date, kept[:top_k], False)
