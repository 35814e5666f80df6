import datetime as dt
import gzip
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from stancewatch.corpus import (
    Category,
    LabeledDataset,
    Tweet,
    format_timestamp,
    ingest_jsonl,
    labeled_subset,
    parse_timestamp,
    split_dataset,
    tweet_to_record,
    write_jsonl,
    write_rejects,
    write_split_manifest,
)
from stancewatch.errors import DataValidationError, InputPathError

UTC = dt.timezone.utc


def make_tweet(i: int, label=None, text="aşı haberleri bugün") -> Tweet:
    return Tweet(
        id=f"t{i}",
        created_at=dt.datetime(2021, 7, 22, 12, 0, tzinfo=UTC) + dt.timedelta(hours=i),
        text=text,
        gold_label=label,
    )


def class_counts(data):
    """Examples per gold label, every category present."""
    counts = {c: 0 for c in Category}
    for t in data.examples:
        counts[t.gold_label] += 1
    return counts


class TestTimestamps:
    def test_z_suffix(self):
        ts = parse_timestamp("2021-07-28T23:30:00Z")
        assert ts == dt.datetime(2021, 7, 28, 23, 30, tzinfo=UTC)

    def test_naive_taken_as_utc(self):
        assert parse_timestamp("2021-07-28T01:00:00").tzinfo == UTC

    def test_offset_normalized(self):
        ts = parse_timestamp("2021-07-29T02:30:00+03:00")
        assert ts == dt.datetime(2021, 7, 28, 23, 30, tzinfo=UTC)

    def test_format_round_trip(self):
        ts = dt.datetime(2021, 8, 11, 5, 6, 7, tzinfo=UTC)
        assert parse_timestamp(format_timestamp(ts)) == ts
        assert format_timestamp(ts).endswith("Z")

    def test_garbage_raises(self):
        with pytest.raises(ValueError):
            parse_timestamp("not a date")

    @pytest.mark.parametrize("raw", ["9999-12-31T23:59:59-01:00", "0001-01-01T00:30:00+01:00"])
    def test_utc_beyond_the_calendar_raises_value_error(self, raw):
        with pytest.raises(ValueError, match="outside the years 1-9999"):
            parse_timestamp(raw)

    def test_calendar_ends_in_utc_parse(self):
        assert parse_timestamp("9999-12-31T23:59:59Z") == dt.datetime(9999, 12, 31, 23, 59, 59, tzinfo=UTC)
        assert parse_timestamp("0001-01-01T01:00:00+01:00") == dt.datetime(1, 1, 1, tzinfo=UTC)

    def test_accepted_forms_do_not_depend_on_the_interpreter(self):
        """Exactly YYYY-MM-DD[(T| )HH:MM[:SS[.f{1,6}]][Z|z|+-HH:MM]].
        datetime.fromisoformat accepts most of the rejected strings on 3.10
        or on 3.11, so they show the parser does not lean on it."""
        accepted = {
            "2021-07-22": dt.datetime(2021, 7, 22, tzinfo=UTC),
            "2021-07-22T10:00": dt.datetime(2021, 7, 22, 10, 0, tzinfo=UTC),
            "2021-07-22 10:00:05": dt.datetime(2021, 7, 22, 10, 0, 5, tzinfo=UTC),
            "2021-07-22T10:00z": dt.datetime(2021, 7, 22, 10, 0, tzinfo=UTC),
            "2021-07-22T10:00:05.5Z": dt.datetime(2021, 7, 22, 10, 0, 5, 500000, tzinfo=UTC),
            "2021-07-22T10:00:05.123+03:00": dt.datetime(2021, 7, 22, 7, 0, 5, 123000, tzinfo=UTC),
            "2021-07-22T23:59:59.000001-05:30": dt.datetime(2021, 7, 23, 5, 29, 59, 1, tzinfo=UTC),
        }
        for raw, expected in accepted.items():
            assert parse_timestamp(raw) == expected, raw
        rejected = [
            "20210722T100000Z",  # basic format
            "2021-W29-4T10:00Z",  # week date
            "2021-07-22T10:00+0300",  # offset without colon
            "2021-07-22T10:00:00,5Z",  # comma fraction
            "2021-07-22T10:00:00.1234567Z",  # 7-digit fraction
            "2021-07-22T10",  # hour only
            "2021-07-22Z",  # zone without a time
            "2021-07-22T10:00:00+03:00:00",  # offset with seconds
            "2021-07-22t10:00",  # lowercase separator
            "2021-07-22T24:00",  # hour 24
            "2021-02-30",  # no such day
        ]
        for raw in rejected:
            with pytest.raises(ValueError):
                parse_timestamp(raw)


class TestIngest:
    def write(self, tmp_path, lines, name="corpus.jsonl"):
        p = tmp_path / name
        p.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return p

    def test_basic_and_order(self, tmp_path):
        lines = [
            json.dumps({"id": "a", "created_at": "2021-07-22T10:00:00Z", "text": "aşı bir"}),
            json.dumps({"id": "b", "created_at": "2021-07-22T11:00:00Z", "text": "aşı iki", "label": 2}),
        ]
        result = ingest_jsonl(self.write(tmp_path, lines))
        assert [t.id for t in result.tweets] == ["a", "b"]
        assert result.tweets[1].gold_label == Category.ANTI_VACCINE
        assert result.rejects == ()

    def test_scraper_aliases(self, tmp_path):
        lines = [json.dumps({"id": "a", "date": "2021-07-22T10:00:00Z", "content": "aşı", "gold_label": 1})]
        result = ingest_jsonl(self.write(tmp_path, lines))
        assert result.tweets[0].text == "aşı"
        assert result.tweets[0].gold_label == Category.IRRELEVANT

    def test_rejects_carry_line_and_reason(self, tmp_path):
        lines = [
            "{broken json",
            json.dumps({"id": "a", "created_at": "2021-07-22T10:00:00Z", "text": "  "}),
            json.dumps({"id": "b", "created_at": "nope", "text": "aşı"}),
            json.dumps({"id": "c", "created_at": "2021-07-22T10:00:00Z", "text": "aşı", "label": 9}),
            json.dumps(["not", "an", "object"]),
            json.dumps({"id": "ok", "created_at": "2021-07-22T10:00:00Z", "text": "aşı"}),
        ]
        result = ingest_jsonl(self.write(tmp_path, lines))
        assert [t.id for t in result.tweets] == ["ok"]
        assert [r.line_no for r in result.rejects] == [1, 2, 3, 4, 5]
        assert "JSON" in result.rejects[0].reason
        assert "text" in result.rejects[1].reason
        assert "ISO-8601" in result.rejects[2].reason
        assert "label" in result.rejects[3].reason

    def test_timestamp_beyond_the_calendar_has_its_own_reason(self, tmp_path):
        lines = [
            json.dumps({"id": "a", "created_at": "9999-12-31T23:59:59-01:00", "text": "aşı"}),
            json.dumps({"id": "b", "created_at": "0001-01-01T00:30:00+01:00", "text": "aşı"}),
            json.dumps({"id": "c", "created_at": "2021-13-01T10:00:00Z", "text": "aşı"}),
            json.dumps({"id": "d", "created_at": "2021-07-22T10:00:00+2:00", "text": "aşı"}),
        ]
        rejects = ingest_jsonl(self.write(tmp_path, lines)).rejects
        assert [r.reason for r in rejects] == [
            "created_at falls outside the years 1-9999 in UTC: '9999-12-31T23:59:59-01:00'",
            "created_at falls outside the years 1-9999 in UTC: '0001-01-01T00:30:00+01:00'",
            "created_at does not parse as ISO-8601: '2021-13-01T10:00:00Z'",
            "created_at does not parse as ISO-8601: '2021-07-22T10:00:00+2:00'",
        ]

    def test_duplicate_id_fatal_with_both_lines(self, tmp_path):
        rec = {"id": "dup", "created_at": "2021-07-22T10:00:00Z", "text": "aşı"}
        p = self.write(tmp_path, [json.dumps(rec), json.dumps(rec)])
        with pytest.raises(DataValidationError, match=r"lines 1 and 2"):
            ingest_jsonl(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputPathError, match="nowhere.jsonl"):
            ingest_jsonl(tmp_path / "nowhere.jsonl")

    def test_blank_lines_skipped(self, tmp_path):
        rec = json.dumps({"id": "a", "created_at": "2021-07-22T10:00:00Z", "text": "aşı"})
        result = ingest_jsonl(self.write(tmp_path, [rec, "", "   ", rec.replace('"a"', '"b"')]))
        assert len(result.tweets) == 2

    def test_gzip_round_trip(self, tmp_path):
        tweets = [make_tweet(i, Category(i % 4)) for i in range(6)]
        p = tmp_path / "corpus.jsonl.gz"
        write_jsonl(tweets, p)
        with gzip.open(p, "rt", encoding="utf-8") as fh:
            assert len(fh.readlines()) == 6
        back = ingest_jsonl(p)
        assert back.tweets == tuple(tweets)

    def test_write_rejects_report(self, tmp_path):
        lines = [json.dumps({"id": "a", "created_at": "bad", "text": "aşı"})]
        result = ingest_jsonl(self.write(tmp_path, lines))
        out = tmp_path / "rejects.jsonl"
        write_rejects(result.rejects, out)
        rec = json.loads(out.read_text(encoding="utf-8"))
        assert rec["line"] == 1 and "reason" in rec and rec["id"] == "a"


class TestRoundTrip:
    def test_record_shape(self):
        t = make_tweet(0, Category.PRO_VACCINE)
        rec = tweet_to_record(t)
        assert rec["label"] == 3 and rec["created_at"].endswith("Z")
        assert "label" not in tweet_to_record(make_tweet(1))

    def test_jsonl_round_trip(self, tmp_path):
        tweets = [make_tweet(i, Category(i % 4), text=f"aşı örnek {i}") for i in range(8)]
        p = tmp_path / "x.jsonl"
        write_jsonl(tweets, p)
        assert ingest_jsonl(p).tweets == tuple(tweets)


class TestLabeledDataset:
    def test_rejects_unlabeled(self):
        with pytest.raises(DataValidationError, match="t0"):
            LabeledDataset((make_tweet(0),))

    def test_labeled_subset_filters(self):
        data = labeled_subset([make_tweet(0), make_tweet(1, Category.NEWS)])
        assert len(data) == 1

    def test_class_counts(self):
        data = labeled_subset([make_tweet(i, Category(i % 2)) for i in range(6)])
        assert class_counts(data)[Category.NEWS] == 3
        assert class_counts(data)[Category.ANTI_VACCINE] == 0


def dataset_with_counts(counts):
    tweets = []
    i = 0
    for cat, n in zip(Category, counts):
        for _ in range(n):
            tweets.append(make_tweet(i, cat))
            i += 1
    return LabeledDataset(tuple(tweets))


class TestSplit:
    def test_per_class_floor(self):
        data = dataset_with_counts([10, 7, 5, 3])
        split = split_dataset(data, 0.8, seed=1)
        got = class_counts(split.train)
        assert [got[c] for c in Category] == [8, 5, 4, 2]

    def test_disjoint_union_preserves_order(self):
        data = dataset_with_counts([6, 6, 6, 6])
        split = split_dataset(data, 0.75, seed=3)
        train_ids = {t.id for t in split.train.examples}
        test_ids = {t.id for t in split.test.examples}
        assert not train_ids & test_ids
        merged = sorted(
            list(split.train.examples) + list(split.test.examples),
            key=lambda t: int(t.id[1:]),
        )
        assert tuple(merged) == data.examples
        # each half independently preserves input order
        positions = {t.id: i for i, t in enumerate(data.examples)}
        got = [positions[t.id] for t in split.train.examples]
        assert got == sorted(got)

    def test_deterministic_and_seed_sensitive(self):
        data = dataset_with_counts([12, 12, 12, 12])
        a = split_dataset(data, 0.8, seed=5)
        b = split_dataset(data, 0.8, seed=5)
        c = split_dataset(data, 0.8, seed=6)
        assert [t.id for t in a.test.examples] == [t.id for t in b.test.examples]
        assert [t.id for t in a.test.examples] != [t.id for t in c.test.examples]

    def test_tiny_class_fatal(self):
        data = dataset_with_counts([2, 2, 2, 1])
        with pytest.raises(DataValidationError, match="pro_vaccine"):
            split_dataset(data, 0.8, seed=1)

    def test_fraction_bounds(self):
        data = dataset_with_counts([3, 3, 3, 3])
        for bad in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(DataValidationError):
                split_dataset(data, bad, seed=1)

    @given(st.integers(0, 2**32 - 1))
    def test_membership_is_pure_function_of_seed(self, seed):
        data = dataset_with_counts([5, 4, 6, 3])
        a = split_dataset(data, 0.6, seed)
        b = split_dataset(data, 0.6, seed)
        assert [t.id for t in a.train.examples] == [t.id for t in b.train.examples]

    def test_split_manifest(self, tmp_path):
        split = split_dataset(dataset_with_counts([4, 4, 4, 4]), 0.75, seed=9)
        p = tmp_path / "split.json"
        write_split_manifest(split, p)
        doc = json.loads(p.read_text(encoding="utf-8"))
        assert doc["seed"] == 9
        assert doc["n_train"] == 12 and doc["n_test"] == 4
        assert len(doc["test_ids"]) == 4
