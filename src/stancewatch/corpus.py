"""Tweet corpus ingestion, label taxonomy, and stratified train/test splitting.

Corpora arrive as newline-delimited JSON records (optionally gzip-compressed,
selected by a ``.gz`` extension). Each record carries an id, a creation
timestamp, the tweet text, and optionally a gold stance label. Scraper-style
field aliases are accepted on input (``date`` for ``created_at``, ``content``
for ``text``). Timestamps are normalized to UTC on ingest; the original
offset is discarded and the timeline stage re-localizes for display.

Records that fail validation are collected into a rejects list instead of
aborting the whole ingest, because a large scraped corpus will contain noise.
Every unique id is treated as one tweet; duplicate ids are a fatal error.
"""

from __future__ import annotations

import gzip
import json
import random
import re
import zlib
from dataclasses import dataclass
from datetime import datetime, timezone
from enum import IntEnum
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .errors import DataValidationError, InputPathError

N_CLASSES = 4


class Category(IntEnum):
    """The four stance categories, in canonical order."""

    NEWS = 0
    IRRELEVANT = 1
    ANTI_VACCINE = 2
    PRO_VACCINE = 3


#: Lowercase slugs used in file names and report keys, indexed by category id.
CATEGORY_SLUGS = ("news", "irrelevant", "anti_vaccine", "pro_vaccine")

#: Human-readable names for figures, indexed by category id.
CATEGORY_NAMES = ("News", "Irrelevant", "AntiVaccine", "ProVaccine")


@dataclass(frozen=True)
class Tweet:
    """One social-media post.

    ``created_at`` is always timezone-aware UTC. ``gold_label`` is present
    only for hand-labeled examples.
    """

    id: str
    created_at: datetime
    text: str
    gold_label: Category | None = None


@dataclass(frozen=True)
class RejectedRecord:
    """A corpus line that failed validation, with its diagnostic."""

    line_no: int
    reason: str
    record: dict | None = None
    raw: str | None = None

    def to_record(self) -> dict:
        out = dict(self.record) if self.record is not None else {"raw": self.raw}
        out["reason"] = self.reason
        out["line"] = self.line_no
        return out


@dataclass(frozen=True)
class IngestResult:
    """Valid tweets in file order plus the collected rejects."""

    tweets: tuple[Tweet, ...]
    rejects: tuple[RejectedRecord, ...]


# The accepted timestamp forms: YYYY-MM-DD, optionally [T or space]
# HH:MM[:SS[.f{1,6}]], optionally Z or +-HH:MM after a time. The pattern
# decides, because datetime.fromisoformat accepts different sets on 3.10
# and 3.11 (3.11 adds basic format, week dates, 7-digit fractions); it only
# converts what matched, with the fraction padded to the 6 digits 3.10 needs.
_TIMESTAMP = re.compile(
    r"[0-9]{4}-[0-9]{2}-[0-9]{2}"
    r"(?:[T ](?:[01][0-9]|2[0-3]):[0-9]{2}(?::[0-9]{2}(?:\.([0-9]{1,6}))?)?"
    r"([Zz]|[+-][0-9]{2}:[0-9]{2})?)?"
)


class TimestampRangeError(ValueError):
    """A timestamp of the accepted forms whose UTC time falls outside the years 1-9999."""


def parse_timestamp(raw: str) -> datetime:
    """Parse a timestamp of the `_TIMESTAMP` forms and normalize it to UTC.

    A trailing ``Z`` is accepted; naive timestamps are taken as UTC.
    Raises ValueError for any other input, and its TimestampRangeError for a
    UTC time outside the years 1-9999.
    """
    s = raw.strip()
    m = _TIMESTAMP.fullmatch(s)
    if m is None:
        raise ValueError(f"not a supported ISO-8601 timestamp: {raw!r}")
    fraction, zone = m.group(1, 2)
    if zone in ("Z", "z"):
        s = s[:-1] + "+00:00"
    if fraction:
        s = s[: m.start(1)] + fraction.ljust(6, "0") + s[m.end(1):]
    dt = datetime.fromisoformat(s)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    try:
        return dt.astimezone(timezone.utc)
    except OverflowError:
        raise TimestampRangeError(f"timestamp falls outside the years 1-9999 in UTC: {raw!r}") from None


def format_timestamp(dt: datetime) -> str:
    """Render a UTC datetime in the canonical on-disk form."""
    return dt.astimezone(timezone.utc).isoformat().replace("+00:00", "Z")


# Scraper-style field names mapped to their canonical equivalents.
_FIELD_ALIASES = {"date": "created_at", "content": "text", "gold_label": "label"}


def _canonicalize(obj: dict) -> dict:
    rec = {k: v for k, v in obj.items() if k not in _FIELD_ALIASES}
    for alias, canon in _FIELD_ALIASES.items():
        if alias in obj and canon not in rec:
            rec[canon] = obj[alias]
    return rec


def _open_text(path: Path):
    if path.suffix == ".gz":
        return gzip.open(path, "rt", encoding="utf-8")
    return open(path, "r", encoding="utf-8")


def _record_to_tweet(rec: dict) -> Tweet:
    """Validate one canonicalized record. Raises ValueError with the reason."""
    tid = rec.get("id")
    if not isinstance(tid, str) or not tid:
        raise ValueError("id must be a non-empty string")
    raw_ts = rec.get("created_at")
    if not isinstance(raw_ts, str):
        raise ValueError("created_at missing or not a string")
    try:
        created = parse_timestamp(raw_ts)
    except TimestampRangeError:
        raise ValueError(f"created_at falls outside the years 1-9999 in UTC: {raw_ts!r}") from None
    except ValueError:
        raise ValueError(f"created_at does not parse as ISO-8601: {raw_ts!r}")
    text = rec.get("text")
    if not isinstance(text, str) or not text.strip():
        raise ValueError("text must be non-empty after whitespace trimming")
    label = rec.get("label")
    gold: Category | None = None
    if label is not None:
        if isinstance(label, bool) or not isinstance(label, int) or not 0 <= label <= 3:
            raise ValueError(f"label must be an integer in 0..3, got {label!r}")
        gold = Category(label)
    return Tweet(id=tid, created_at=created, text=text, gold_label=gold)


def ingest_jsonl(path: str | Path) -> IngestResult:
    """Read a newline-delimited tweet file, validating every record.

    Returns the valid tweets in file order. Malformed lines are collected
    as :class:`RejectedRecord` with their line number and reason, never
    silently dropped. A duplicate id or an unreadable file is fatal.
    """
    p = Path(path)
    if not p.is_file():
        raise InputPathError(f"cannot read corpus file: {p}")
    tweets: list[Tweet] = []
    rejects: list[RejectedRecord] = []
    seen: dict[str, int] = {}
    try:
        with _open_text(p) as fh:
            for line_no, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as exc:
                    rejects.append(
                        RejectedRecord(line_no, f"invalid JSON: {exc.msg}", raw=line.rstrip("\n"))
                    )
                    continue
                if not isinstance(obj, dict):
                    rejects.append(
                        RejectedRecord(line_no, "record is not an object", raw=line.rstrip("\n"))
                    )
                    continue
                rec = _canonicalize(obj)
                try:
                    tweet = _record_to_tweet(rec)
                except ValueError as exc:
                    rejects.append(RejectedRecord(line_no, str(exc), record=rec))
                    continue
                if tweet.id in seen:
                    raise DataValidationError(
                        f"duplicate id {tweet.id!r} at lines {seen[tweet.id]} and {line_no} in {p}"
                    )
                seen[tweet.id] = line_no
                tweets.append(tweet)
    except (OSError, UnicodeDecodeError, EOFError, zlib.error) as exc:
        # EOFError: a gzip stream cut short; zlib.error: a corrupt deflate block.
        raise InputPathError(f"cannot read corpus file: {p}: {exc}")
    return IngestResult(tuple(tweets), tuple(rejects))


def tweet_to_record(tweet: Tweet) -> dict:
    rec = {
        "id": tweet.id,
        "created_at": format_timestamp(tweet.created_at),
        "text": tweet.text,
    }
    if tweet.gold_label is not None:
        rec["label"] = int(tweet.gold_label)
    return rec


def write_jsonl(tweets: Iterable[Tweet], path: str | Path) -> None:
    """Write tweets in the canonical line format (gzip if path ends in .gz)."""
    p = Path(path)
    opener = gzip.open if p.suffix == ".gz" else open
    with opener(p, "wt", encoding="utf-8") as fh:
        for t in tweets:
            fh.write(json.dumps(tweet_to_record(t), ensure_ascii=False, sort_keys=True) + "\n")


def write_rejects(rejects: Iterable[RejectedRecord], path: str | Path) -> None:
    """Write the rejects report: original fields plus reason and line number."""
    with open(path, "w", encoding="utf-8") as fh:
        for r in rejects:
            fh.write(json.dumps(r.to_record(), ensure_ascii=False, sort_keys=True) + "\n")


@dataclass(frozen=True)
class LabeledDataset:
    """A set of tweets that all carry gold labels."""

    examples: tuple[Tweet, ...]

    def __post_init__(self) -> None:
        for t in self.examples:
            if t.gold_label is None:
                raise DataValidationError(f"tweet {t.id!r} has no gold label")

    def __len__(self) -> int:
        return len(self.examples)


def labeled_subset(tweets: Iterable[Tweet]) -> LabeledDataset:
    """Keep only tweets with gold labels, preserving order."""
    return LabeledDataset(tuple(t for t in tweets if t.gold_label is not None))


@dataclass(frozen=True)
class DatasetSplit:
    """Disjoint stratified train/test partition of a labeled dataset."""

    train: LabeledDataset
    test: LabeledDataset
    seed: int


def split_dataset(data: LabeledDataset, train_fraction: float, seed: int) -> DatasetSplit:
    """Stratified split: per class, seeded shuffle then floor(fraction * n) to train.

    Deterministic for a given seed. Classes are processed in canonical id
    order with a single seeded generator, so membership is a pure function
    of (dataset, fraction, seed).
    """
    if not 0.0 < train_fraction < 1.0:
        raise DataValidationError(f"train_fraction must be in (0, 1), got {train_fraction}")
    by_class: dict[Category, list[int]] = {c: [] for c in Category}
    for pos, t in enumerate(data.examples):
        by_class[t.gold_label].append(pos)
    rng = random.Random(seed)
    train_pos: set[int] = set()
    for cat in Category:
        positions = by_class[cat]
        if not positions:
            continue
        if len(positions) < 2:
            raise DataValidationError(
                f"cannot stratify: class {CATEGORY_SLUGS[cat]} has {len(positions)} example(s), need at least 2"
            )
        shuffled = list(positions)
        rng.shuffle(shuffled)
        n_train = int(train_fraction * len(positions))
        train_pos.update(shuffled[:n_train])
    train = tuple(t for i, t in enumerate(data.examples) if i in train_pos)
    test = tuple(t for i, t in enumerate(data.examples) if i not in train_pos)
    return DatasetSplit(LabeledDataset(train), LabeledDataset(test), seed)


def write_split_manifest(split: DatasetSplit, path: str | Path) -> None:
    """Record the split seed and test-set membership for reproducibility."""
    doc = {
        "seed": split.seed,
        "n_train": len(split.train),
        "n_test": len(split.test),
        "test_ids": [t.id for t in split.test.examples],
    }
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
