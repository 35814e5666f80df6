"""Seeded generator for keyword-separable 4-class tweet data.

Stands in for the unavailable real corpus. Every text mentions the vaccine
topic word and carries two keywords drawn from its category's disjoint
pool plus a few shared fillers, so a small model can separate the classes
while the texts still look tweet-like.

The corpus generator draws each day's labels from a base share vector and
replaces the anti-vaccine share on chosen spike days, which injects known
surge dates a timeline run must recover.
"""

from __future__ import annotations

import datetime as dt
import random
from typing import Sequence

from .corpus import Category, Tweet
from .errors import DataValidationError

TOPIC_WORD = "aşı"

CATEGORY_KEYWORDS: dict[int, tuple[str, ...]] = {
    Category.NEWS: ("haber", "gazete", "ajans", "manşet", "bülten", "muhabir"),
    Category.IRRELEVANT: ("magazin", "dizi", "futbol", "tatil", "konser", "oyun"),
    Category.ANTI_VACCINE: ("karşıyım", "reddet", "komplo", "zararlı", "zorlama", "istemiyorum"),
    Category.PRO_VACCINE: ("yaptırdım", "randevu", "koruyucu", "bilim", "güvenli", "destek"),
}

FILLER_WORDS: tuple[str, ...] = (
    "bugün", "yarın", "çok", "gerçekten", "yine", "şimdi",
    "insanlar", "herkes", "ülkede", "gündem", "sosyal", "medya",
)

DEFAULT_START_DATE = dt.date(2021, 7, 22)
DEFAULT_BASE_SHARES = (0.30, 0.30, 0.15, 0.25)
DEFAULT_SPIKE_DAYS = (20, 28)
DEFAULT_SPIKE_ANTI_SHARE = 0.45
DEFAULT_UTC_OFFSET_MINUTES = 180


def _compose_text(rng: random.Random, category: int) -> str:
    keywords = rng.sample(CATEGORY_KEYWORDS[category], 2)
    fillers = rng.sample(FILLER_WORDS, rng.randint(2, 4))
    words = [TOPIC_WORD] + keywords + fillers
    rng.shuffle(words)
    return " ".join(words)


def _day_start_utc(day: dt.date, utc_offset_minutes: int) -> dt.datetime:
    local_midnight = dt.datetime(day.year, day.month, day.day, tzinfo=dt.timezone.utc)
    return local_midnight - dt.timedelta(minutes=utc_offset_minutes)


def _check_span(start_date: dt.date, days: int, utc_offset_minutes: int) -> None:
    """Reject local days whose UTC times fall outside datetime's years 1-9999."""
    first = (start_date.toordinal() - 1) * 1440 - utc_offset_minutes  # minutes after 0001-01-01Z
    if first < 0 or first + days * 1440 > dt.date.max.toordinal() * 1440:
        raise DataValidationError(f"start_date {start_date}: {days} days at UTC offset "
                                  f"{utc_offset_minutes} min reach outside the years 1-9999")


def generate_labeled(
    per_class: int = 100,
    seed: int = 101,
    start_date: dt.date = DEFAULT_START_DATE,
    utc_offset_minutes: int = DEFAULT_UTC_OFFSET_MINUTES,
) -> list[Tweet]:
    """Balanced labeled set, ``per_class`` examples per category."""
    if per_class < 1:
        raise DataValidationError(f"per_class must be >= 1, got {per_class}")
    _check_span(start_date, min(14, 4 * per_class), utc_offset_minutes)
    rng = random.Random(seed)
    tweets = []
    n_total = 4 * per_class
    for i in range(n_total):
        category = i % 4
        created = _day_start_utc(
            start_date + dt.timedelta(days=i % 14), utc_offset_minutes
        ) + dt.timedelta(seconds=(i * 86400) // n_total)
        tweets.append(
            Tweet(
                id=f"lab-{i + 1:07d}",
                created_at=created,
                text=_compose_text(rng, category),
                gold_label=Category(category),
            )
        )
    return tweets


def generate_corpus(
    days: int = 30,
    per_day: int = 500,
    seed: int = 202,
    start_date: dt.date = DEFAULT_START_DATE,
    base_shares: Sequence[float] = DEFAULT_BASE_SHARES,
    spike_days: Sequence[int] = DEFAULT_SPIKE_DAYS,
    spike_anti_share: float = DEFAULT_SPIKE_ANTI_SHARE,
    utc_offset_minutes: int = DEFAULT_UTC_OFFSET_MINUTES,
) -> list[Tweet]:
    """Unlabeled corpus of ``days * per_day`` tweets with injected anti spikes.

    ``spike_days`` are 0-based offsets from ``start_date``. On a spike day
    the anti-vaccine share is raised to ``spike_anti_share`` and the other
    categories shrink proportionally.
    """
    if days < 1 or per_day < 1:
        raise DataValidationError(f"days and per_day must be >= 1, got {days}/{per_day}")
    shares = tuple(float(s) for s in base_shares)
    # "not <=" rather than ">": a NaN or an infinite share makes the sum NaN or infinite, and fails
    if len(shares) != 4 or any(s < 0 for s in shares) or not abs(sum(shares) - 1.0) <= 1e-9:
        raise DataValidationError(f"base_shares must be 4 non-negative values summing to 1, got {shares}")
    if not 0.0 < spike_anti_share < 1.0:
        raise DataValidationError(f"spike_anti_share must be in (0, 1), got {spike_anti_share}")
    for d in spike_days:
        if not 0 <= d < days:
            raise DataValidationError(f"spike day {d} outside 0..{days - 1}")
    if spike_days and shares[Category.ANTI_VACCINE] >= 1.0:
        raise DataValidationError(f"base anti-vaccine share {shares[Category.ANTI_VACCINE]} leaves no "
                                  "other category to shrink on a spike day")
    _check_span(start_date, days, utc_offset_minutes)

    rng = random.Random(seed)
    spike_set = set(spike_days)
    tweets = []
    serial = 0
    for day_idx in range(days):
        day = start_date + dt.timedelta(days=day_idx)
        if day_idx in spike_set:
            rest = 1.0 - shares[Category.ANTI_VACCINE]
            scale = (1.0 - spike_anti_share) / rest
            weights = [
                spike_anti_share if c == Category.ANTI_VACCINE else shares[c] * scale
                for c in range(4)
            ]
        else:
            weights = list(shares)
        labels = rng.choices(range(4), weights=weights, k=per_day)
        day_start = _day_start_utc(day, utc_offset_minutes)
        for i, label in enumerate(labels):
            serial += 1
            tweets.append(
                Tweet(
                    id=f"syn-{serial:07d}",
                    created_at=day_start + dt.timedelta(seconds=(i * 86400) // per_day),
                    text=_compose_text(rng, label),
                    gold_label=None,
                )
            )
    return tweets
