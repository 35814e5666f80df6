import datetime as dt
import json
import re
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import stancewatch.timeline as sw_timeline
import timeline_reference as reference
from conftest import HOSTILE_JSON, JSON_VALUES, random_encodings
from stancewatch.corpus import Category, Tweet, format_timestamp
from stancewatch.encoder import EncoderConfig, init_params
from stancewatch.errors import DataValidationError, InputPathError
from stancewatch.timeline import (
    EPOCH,
    ONE_US,
    US_PER_DAY,
    Classified,
    ClassifiedTweet,
    DayShares,
    TimelineSeries,
    aggregate_daily,
    classify_corpus,
    detect_peaks,
    read_classified,
    share,
    smooth_shares,
    write_classified,
    write_timeline_csv,
)
from stancewatch.tokenizer import Vocabulary

UTC = dt.timezone.utc
D = dt.date


def ct(i, day, predicted=2, hour=12):
    proba = [0.0, 0.0, 0.0, 0.0]
    proba[predicted] = 1.0
    return ClassifiedTweet(
        tweet_id=f"c{i}",
        created_at=dt.datetime(day.year, day.month, day.day, hour, tzinfo=UTC),
        predicted=predicted,
        proba=tuple(proba),
    )


def block(rows):
    """A Classified block holding the given ClassifiedTweet rows."""
    return Classified(
        ids=tuple(r.tweet_id for r in rows),
        created_us=[(r.created_at - EPOCH) // ONE_US for r in rows],
        predicted=[r.predicted for r in rows],
        proba=np.reshape([r.proba for r in rows], (-1, 4)),
    )


def one(predicted, proba, tweet_id="x"):
    """A one-row block from columns, timestamped 2021-08-01 00:00 UTC."""
    us = (dt.datetime(2021, 8, 1, tzinfo=UTC) - EPOCH) // ONE_US
    return Classified((tweet_id,), [us], [predicted], [proba])


def shares_from(values, start=D(2021, 8, 1), empty_at=()):
    empty = np.zeros(len(values), dtype=bool)
    empty[list(empty_at)] = True
    return DayShares(start, np.asarray(values, dtype=np.float64), empty)


class TestClassifiedTweet:
    def test_proba_must_sum_to_one(self):
        with pytest.raises(DataValidationError, match="sum"):
            one(0, (0.5, 0.2, 0.2, 0.2))

    @pytest.mark.parametrize("proba", [(float("nan"),) * 4, (float("inf"),) * 4, (0.5, 0.5)])
    def test_proba_must_be_four_finite_numbers(self, proba):
        with pytest.raises(DataValidationError, match="4 finite"):
            one(0, proba)

    def test_predicted_must_be_argmax(self):
        with pytest.raises(DataValidationError, match="argmax"):
            one(0, (0.1, 0.7, 0.1, 0.1))

    def test_argmax_tie_goes_to_lowest_id(self):
        # classes 1 and 2 tied: predicted must be 1
        one(1, (0.1, 0.4, 0.4, 0.1))
        with pytest.raises(DataValidationError, match="argmax"):
            one(2, (0.1, 0.4, 0.4, 0.1))


class TestClassified:
    def rows(self, probas):
        probas = np.asarray(probas, dtype=np.float64)
        ids = tuple(f"r{i}" for i in range(len(probas)))
        return ids, list(range(len(probas))), probas.argmax(axis=1), probas

    def test_columns_are_typed_once(self):
        ids, us, predicted, proba = self.rows([(0.1, 0.2, 0.3, 0.4), (0.7, 0.1, 0.1, 0.1)])
        result = Classified(ids, us, predicted, proba)
        assert result.created_us.dtype == np.int64
        assert result.predicted.dtype == np.int8
        assert result.proba.dtype == np.float64 and result.proba.shape == (2, 4)

    def test_first_bad_row_is_named(self):
        ids, us, predicted, proba = self.rows(
            [(0.7, 0.1, 0.1, 0.1), (0.7, 0.2, 0.2, 0.1), (0.7, 0.3, 0.3, 0.1)]
        )
        with pytest.raises(DataValidationError, match="tweet r1: probabilities sum") as err:
            Classified(ids, us, predicted, proba)
        assert err.value.row == 1

    def test_predicted_checked_before_int8(self):
        # 258 wraps to 2 in int8, which is the argmax
        with pytest.raises(DataValidationError, match="argmax"):
            one(258, (0.1, 0.2, 0.6, 0.1))

    def test_column_lengths_must_agree(self):
        ids, us, predicted, proba = self.rows([(0.1, 0.2, 0.3, 0.4), (0.7, 0.1, 0.1, 0.1)])
        with pytest.raises(DataValidationError, match="timestamps"):
            Classified(ids, us[:1], predicted, proba)
        with pytest.raises(DataValidationError, match="timestamps"):
            Classified(ids[:1], us, predicted, proba)

    def test_rows_made_on_access(self):
        created = dt.datetime(1969, 12, 31, 23, 59, 59, 500, tzinfo=UTC)
        result = Classified(("a", "b"), [0, (created - EPOCH) // ONE_US], [3, 0],
                            [(0.1, 0.2, 0.3, 0.4), (1.0, 0.0, 0.0, 0.0)])
        assert len(result) == 2
        assert result[-1] == ClassifiedTweet("b", created, 0, (1.0, 0.0, 0.0, 0.0))
        assert result[0] == ClassifiedTweet("a", EPOCH, 3, (0.1, 0.2, 0.3, 0.4))
        assert type(result[0].predicted) is int and type(result[0].proba[0]) is float
        assert [r.tweet_id for r in result] == ["a", "b"]
        with pytest.raises(IndexError):
            result[2]


class TestClassifyCorpus:
    def make_model(self, tiny_config):
        vocab_tokens = ["[PAD]", "[UNK]", "[CLS]", "[SEP]"] + [f"w{i}" for i in range(12)]
        vocab = Vocabulary(tuple(vocab_tokens))
        params = init_params(tiny_config, seed=5, vocab_hash=vocab.content_hash())
        return params, vocab

    def tweets(self, n):
        return [
            Tweet(
                id=f"t{i}",
                created_at=dt.datetime(2021, 8, 1, tzinfo=UTC) + dt.timedelta(hours=i),
                text=f"w{i % 12} w{(i + 3) % 12}",
                gold_label=None,
            )
            for i in range(n)
        ]

    def test_order_and_fields(self, tiny_config):
        params, vocab = self.make_model(tiny_config)
        tweets = self.tweets(5)
        out = classify_corpus(params, vocab, tweets)
        assert [c.tweet_id for c in out] == [t.id for t in tweets]
        for c in out:
            assert 0 <= c.predicted < 4
            assert abs(sum(c.proba) - 1.0) < 1e-9

    def test_vocab_hash_mismatch_fatal(self, tiny_config):
        params, vocab = self.make_model(tiny_config)
        other = Vocabulary(tuple(["[PAD]", "[UNK]", "[CLS]", "[SEP]"] + [f"q{i}" for i in range(12)]))
        with pytest.raises(DataValidationError, match="hash mismatch"):
            classify_corpus(params, other, self.tweets(2))

    def test_batch_size_invariance(self):
        # d_model 32: wide enough that a one-row head product takes another
        # BLAS kernel than a many-row one
        config = EncoderConfig(vocab_size=16, d_model=32, n_layers=1, n_heads=2, max_len=16)
        params, vocab = self.make_model(config)
        tweets = self.tweets(40)
        a = classify_corpus(params, vocab, tweets, batch_size=1)
        b = classify_corpus(params, vocab, tweets, batch_size=64)
        assert [c.predicted for c in a] == [c.predicted for c in b]
        assert [c.proba for c in a] == [c.proba for c in b]

    def test_empty_corpus(self, tiny_config):
        params, vocab = self.make_model(tiny_config)
        assert len(classify_corpus(params, vocab, [])) == 0


class TestAggregateDaily:
    def test_bins_by_local_day(self):
        # 23:00 UTC on Aug 1 is 02:00 Aug 2 at +180 minutes
        late = ct(0, D(2021, 8, 1), predicted=2, hour=23)
        early = ct(1, D(2021, 8, 1), predicted=0, hour=10)
        series = aggregate_daily(block([late, early]), utc_offset_minutes=180)
        assert series.dates == [D(2021, 8, 1), D(2021, 8, 2)]
        assert series.bins.tolist() == [[1, 0, 0, 0], [0, 0, 1, 0]]

    def test_gap_days_zero_filled(self):
        a = ct(0, D(2021, 8, 1))
        b = ct(1, D(2021, 8, 4))
        series = aggregate_daily(block([a, b]), utc_offset_minutes=0)
        assert len(series.bins) == 4
        assert series.bins.dtype == np.int64
        assert series.bins.sum(axis=1).tolist() == [1, 0, 0, 1]

    def test_empty_fatal(self):
        with pytest.raises(DataValidationError, match="empty"):
            aggregate_daily(block([]), utc_offset_minutes=0)

    @pytest.mark.parametrize("offset", [24 * 60 + 1, -24 * 60 - 1, 6_000_000, 153722867280, 10**14])
    def test_offset_beyond_a_day_fatal(self, offset):
        with pytest.raises(DataValidationError, match="utc_offset_minutes must be within"):
            aggregate_daily(block([ct(0, D(2021, 8, 1))]), utc_offset_minutes=offset)

    @pytest.mark.parametrize("when, offset", [(D(9999, 12, 31), 180), (D(1, 1, 1), -180)])
    def test_local_day_beyond_the_calendar_fatal(self, when, offset):
        rows = block([ct(0, D(2021, 8, 1)), ct(1, when, hour=23 if offset > 0 else 0)])
        with pytest.raises(DataValidationError, match="outside the years 1-9999"):
            aggregate_daily(rows, utc_offset_minutes=offset)

    def test_calendar_ends_in_local_time_allowed(self):
        rows = block([ct(0, D(9999, 12, 31), hour=20), ct(1, D(1, 1, 1), hour=4)])
        series = aggregate_daily(rows, utc_offset_minutes=180)
        assert (series.start, len(series.bins)) == (D(1, 1, 1), (D(9999, 12, 31) - D(1, 1, 1)).days + 1)

    def test_offset_of_a_day_either_way_allowed(self):
        rows = block([ct(0, D(2021, 8, 1))])
        assert aggregate_daily(rows, utc_offset_minutes=24 * 60).start == D(2021, 8, 2)
        assert aggregate_daily(rows, utc_offset_minutes=-24 * 60).start == D(2021, 7, 31)

    def test_local_day_helper(self):
        t = dt.datetime(2021, 8, 1, 22, 30, tzinfo=UTC)
        assert reference.local_day(t, 0) == D(2021, 8, 1)
        assert reference.local_day(t, 180) == D(2021, 8, 2)
        assert reference.local_day(t, -24 * 60) == D(2021, 7, 31)

    @given(
        st.integers((dt.datetime(1900, 1, 1, tzinfo=UTC) - EPOCH) // ONE_US,
                    (dt.datetime(2100, 12, 1, tzinfo=UTC) - EPOCH) // ONE_US),
        st.lists(st.integers(0, 30 * US_PER_DAY), min_size=1, max_size=40),
        st.integers(-24 * 60, 24 * 60),
    )
    def test_day_index_matches_local_day(self, base, deltas, offset):
        # every row lands on local_day(created_at) with its own class
        stamps = [base + d for d in deltas]
        predicted = [i % 4 for i in range(len(stamps))]
        rows = Classified(tuple(f"c{i}" for i in range(len(stamps))), stamps, predicted,
                          np.eye(4)[predicted])
        series = aggregate_daily(rows, utc_offset_minutes=offset)
        want = {}
        for us, p in zip(stamps, predicted):
            want.setdefault(reference.local_day(EPOCH + us * ONE_US, offset), [0, 0, 0, 0])[p] += 1
        got = {d: row for d, row in zip(series.dates, series.bins.tolist()) if sum(row)}
        assert got == want
        assert (series.dates[0], series.dates[-1]) == (min(want), max(want))

    def test_bins_must_be_four_wide(self):
        with pytest.raises(DataValidationError, match="days, 4"):
            TimelineSeries(D(2021, 8, 1), np.zeros((3, 5), dtype=np.int64))


class TestShare:
    def test_percent_of_day_total(self):
        series = aggregate_daily(
            block([ct(0, D(2021, 8, 1), 2), ct(1, D(2021, 8, 1), 2), ct(2, D(2021, 8, 1), 0),
                   ct(3, D(2021, 8, 1), 1)]),
            utc_offset_minutes=0,
        )
        s = share(series, Category.ANTI_VACCINE)
        assert s.percent.tolist() == [50.0]
        assert s.empty.tolist() == [False]

    def test_empty_day_flagged_zero(self):
        series = aggregate_daily(block([ct(0, D(2021, 8, 1)), ct(1, D(2021, 8, 3))]), utc_offset_minutes=0)
        s = share(series, Category.ANTI_VACCINE)
        assert s.start == D(2021, 8, 1)
        assert s.percent.tolist() == [100.0, 0.0, 100.0]
        assert s.empty.tolist() == [False, True, False]

    def test_category_range(self):
        series = aggregate_daily(block([ct(0, D(2021, 8, 1))]), utc_offset_minutes=0)
        with pytest.raises(DataValidationError):
            share(series, 4)


class TestSmooth:
    def test_window_one_is_identity(self):
        s = shares_from([1, 5, 3])
        assert smooth_shares(s, 1).percent.tolist() == [1.0, 5.0, 3.0]

    def test_centered_average(self):
        s = shares_from([0, 6, 0])
        sm = smooth_shares(s, 3)
        assert sm.percent[1] == pytest.approx(2.0)

    def test_edges_shrink(self):
        s = shares_from([3, 6, 9, 12])
        sm = smooth_shares(s, 3)
        assert sm.percent[0] == pytest.approx(4.5)  # mean of first two
        assert sm.percent[-1] == pytest.approx(10.5)

    def test_even_window_rejected(self):
        with pytest.raises(DataValidationError, match="odd"):
            smooth_shares(shares_from([1, 2, 3]), 2)

    def test_empty_flags_pass_through(self):
        s = shares_from([1, 0, 3], empty_at=(1,))
        sm = smooth_shares(s, 3)
        assert sm.empty.tolist() == [False, True, False]

    def test_window_wider_than_twice_the_series_is_its_mean(self):
        """From 2n - 1 on, every day's window holds all n days, so a window
        of 10**9 + 1 costs what 2n - 1 does and gives its bytes."""
        s = shares_from([3, 1, 4, 1, 5, 9, 2, 6])
        want = smooth_shares(s, 2 * len(s) - 1).percent
        tracemalloc.start()
        try:
            got = smooth_shares(s, 10**9 + 1).percent
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got.tobytes() == want.tobytes()
        assert got.tobytes() == np.full(len(s), s.percent.mean()).tobytes()
        assert peak < 1 << 16, peak


class TestDetectPeaks:
    def test_hand_worked_prominences(self):
        # 10 50 20 40 30 45 10: peaks at 50 (prom 40), 40 (prom 10, key col 30),
        # 45 (prom 25, left walk bottoms at 20 before reaching 50)
        s = shares_from([10, 50, 20, 40, 30, 45, 10])
        report = detect_peaks(s, category=2, min_prominence=2.0, top_k=5)
        got = {p.date: (p.share, p.prominence) for p in report.local_maxima}
        assert got[D(2021, 8, 2)] == (50.0, 40.0)
        assert got[D(2021, 8, 4)] == (40.0, 10.0)
        assert got[D(2021, 8, 6)] == (45.0, 25.0)
        assert report.global_max_date == D(2021, 8, 2)
        assert not report.degenerate

    def test_spec_style_two_spikes(self):
        # [10,40,10,35,10] with threshold 20: both bumps survive
        s = shares_from([10, 40, 10, 35, 10])
        report = detect_peaks(s, category=2, min_prominence=20.0)
        got = {p.share: p.prominence for p in report.local_maxima}
        assert got == {40.0: 30.0, 35.0: 25.0}

    def test_single_peak_series(self):
        s = shares_from([10, 20, 50, 20, 10])
        report = detect_peaks(s, category=2)
        assert report.global_max_date == D(2021, 8, 3)
        assert len(report.local_maxima) == 1
        assert report.local_maxima[0].prominence == pytest.approx(40.0)

    def test_constant_offset_invariance(self):
        base = [10, 50, 20, 40, 30, 45, 10]
        a = detect_peaks(shares_from(base), category=2, min_prominence=0.0)
        b = detect_peaks(shares_from([v + 7 for v in base]), category=2, min_prominence=0.0)
        assert [p.date for p in a.local_maxima] == [p.date for p in b.local_maxima]

    def test_ranked_by_share_then_date(self):
        s = shares_from([10, 40, 10, 40, 10, 50, 10])
        report = detect_peaks(s, category=2)
        dates = [p.date for p in report.local_maxima]
        assert dates == [D(2021, 8, 6), D(2021, 8, 2), D(2021, 8, 4)]

    def test_top_k_truncates(self):
        s = shares_from([10, 40, 10, 41, 10, 42, 10, 43, 10])
        report = detect_peaks(s, category=2, top_k=2)
        assert len(report.local_maxima) == 2
        assert report.local_maxima[0].share == 43.0

    def test_min_prominence_filters_but_not_global_max(self):
        # small bump (prom 1) dropped; global max always kept
        s = shares_from([10, 11, 10, 50, 10])
        report = detect_peaks(s, category=2, min_prominence=2.0)
        assert [p.share for p in report.local_maxima] == [50.0]

    def test_global_max_kept_even_below_threshold(self):
        s = shares_from([10, 11, 10])
        report = detect_peaks(s, category=2, min_prominence=5.0)
        assert [p.share for p in report.local_maxima] == [11.0]
        assert report.local_maxima[0].prominence == pytest.approx(1.0)

    def test_plateau_reported_once_at_left_edge(self):
        s = shares_from([10, 30, 30, 30, 10])
        report = detect_peaks(s, category=2)
        assert len(report.local_maxima) == 1
        assert report.local_maxima[0].date == D(2021, 8, 2)

    def test_plateau_left_edge_skips_empty_days(self):
        s = shares_from([10, 30, 30, 10], empty_at=(1,))
        report = detect_peaks(s, category=2)
        assert report.local_maxima[0].date == D(2021, 8, 3)

    def test_endpoints_one_sided(self):
        s = shares_from([50, 10, 40])
        report = detect_peaks(s, category=2, min_prominence=0.0)
        dates = [p.date for p in report.local_maxima]
        assert D(2021, 8, 1) in dates and D(2021, 8, 3) in dates

    def test_constant_series_degenerate(self):
        s = shares_from([7, 7, 7, 7])
        report = detect_peaks(s, category=2)
        assert report.degenerate
        assert report.global_max_date == D(2021, 8, 1)
        assert report.local_maxima[0].prominence == 0.0

    def test_all_empty_degenerate(self):
        s = shares_from([0, 0, 0], empty_at=(0, 1, 2))
        report = detect_peaks(s, category=2)
        assert report.degenerate
        assert report.global_max_date == D(2021, 8, 1)

    def test_global_max_prominence_vs_global_min(self):
        # single peak: prominence = height - global min = 50 - 5
        s = shares_from([5, 50, 20])
        report = detect_peaks(s, category=2)
        assert report.local_maxima[0].prominence == pytest.approx(45.0)

    def test_key_col_is_max_of_side_minima(self):
        # peak 40: left walk to 50 bottoms at 20, right walk to 60 bottoms at 30
        # key col = max(20, 30) = 30, prominence 10
        s = shares_from([50, 20, 40, 30, 60])
        report = detect_peaks(s, category=2, min_prominence=0.0)
        by_share = {p.share: p.prominence for p in report.local_maxima}
        assert by_share[40.0] == pytest.approx(10.0)

    def test_smoothing_applied_before_detection(self):
        # raw series peaks on the two spike days; the window-3 average
        # [15,10,20,10,15] moves the summit to the middle day instead
        s = shares_from([0, 30, 0, 30, 0])
        raw = detect_peaks(s, category=2, min_prominence=0.0)
        smoothed = detect_peaks(s, category=2, min_prominence=5.0, smoothing_window=3)
        assert [p.date for p in raw.local_maxima] == [D(2021, 8, 2), D(2021, 8, 4)]
        assert smoothed.global_max_date == D(2021, 8, 3)
        assert smoothed.local_maxima[0].share == pytest.approx(20.0)
        assert smoothed.smoothing_window == 3

    def test_validation(self):
        with pytest.raises(DataValidationError):
            detect_peaks(shares_from([]), category=2)
        s = shares_from([1, 2, 1])
        with pytest.raises(DataValidationError):
            detect_peaks(s, category=2, top_k=0)
        with pytest.raises(DataValidationError):
            detect_peaks(s, category=2, min_prominence=-1.0)
        with pytest.raises(DataValidationError, match="finite"):
            detect_peaks(s, category=2, min_prominence=float("nan"))


EMPTY_DAY = [0, 0, 0, 0]
# Small counts make equal shares on different days (plateaus); an empty day is all zeros.
day_counts = st.one_of(
    st.just(EMPTY_DAY),
    st.lists(st.integers(0, 3), min_size=4, max_size=4),
    st.lists(st.integers(0, 60), min_size=4, max_size=4),
)
# Runs of one repeated day give plateaus, runs of empty days and constant series.
count_rows = st.one_of(
    st.lists(day_counts, min_size=1, max_size=40),
    st.lists(st.tuples(day_counts, st.integers(1, 6)), min_size=1, max_size=8).map(
        lambda runs: [row for row, repeat in runs for _ in range(repeat)]
    ),
)


class TestAgainstLoopReference:
    """The array stages return exactly what the per-day loops return."""

    @settings(max_examples=400)
    @given(
        rows=count_rows,
        category=st.integers(0, 3),
        window=st.one_of(st.none(), st.sampled_from([1, 3, 5, 7, 9, 11])),
        min_prominence=st.one_of(st.integers(0, 20).map(float), st.floats(0, 20)),
        top_k=st.integers(1, 50),
    )
    @example(rows=[EMPTY_DAY] * 5, category=2, window=3, min_prominence=2.0, top_k=5)
    @example(rows=[[1, 2, 3, 4]] * 5, category=2, window=None, min_prominence=2.0, top_k=5)
    @example(rows=[[0, 0, 5, 5], EMPTY_DAY, [0, 0, 5, 5]], category=2, window=3,
             min_prominence=0.0, top_k=5)
    @example(rows=[EMPTY_DAY, [1, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 1]], category=0,
             window=5, min_prominence=11.0, top_k=1)  # no local maximum
    def test_shares_smoothing_and_peaks_equal(self, rows, category, window, min_prominence, top_k):
        start = D(2021, 8, 1)
        series = TimelineSeries(start, np.reshape(rows, (-1, 4)))
        got = share(series, category)
        want = reference.share(start, rows, category)
        assert got.percent.tolist() == [s.share for s in want]
        assert got.empty.tolist() == [s.empty for s in want]
        if window is not None:
            smoothed = reference.smooth_shares(want, window)
            assert smooth_shares(got, window).percent.tolist() == [s.share for s in smoothed]
        report = detect_peaks(got, category, min_prominence, top_k, window)
        assert asdict(report) == asdict(
            reference.detect_peaks(want, category, min_prominence, top_k, window)
        )
        # Python floats, so peaks.json rounds them the way round() does
        for p in report.local_maxima:
            assert type(p.share) is float and type(p.prominence) is float


BLOCK = 4  # CLASSIFIED_BLOCK_ROWS in TestClassifiedBlocks


class TestClassifiedBlocks:
    """classified.jsonl written BLOCK rows at a time, at and around block
    boundaries, and read back into typed columns; the reader names the
    line of an error wherever the writer's blocks fall."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(sw_timeline, "CLASSIFIED_BLOCK_ROWS", BLOCK)

    def rows(self, n):
        proba = np.random.default_rng(n).dirichlet(np.ones(4), size=n)
        ids = tuple(f"ş{i}" if i % 3 else f'"{i}"' for i in range(n))
        return Classified(ids, -10**9 + 86_400_000_000 // 7 * np.arange(n), proba.argmax(axis=1), proba)

    def records(self, rows):
        return [{"id": tid, "created_at": format_timestamp(EPOCH + int(us) * ONE_US),
                 "predicted": int(pred), "proba": row.tolist()}
                for tid, us, pred, row in zip(rows.ids, rows.created_us, rows.predicted, rows.proba)]

    @pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
    def test_write_and_read_back(self, tmp_path, n):
        rows = self.rows(n)
        p = tmp_path / "classified.jsonl"
        assert write_classified(rows, p) == n
        want = "".join(json.dumps(rec, sort_keys=True, ensure_ascii=False) + "\n" for rec in self.records(rows))
        assert p.read_bytes() == want.encode("utf-8")
        back = read_classified(p)
        assert back.ids == rows.ids
        for column in ("created_us", "predicted", "proba"):
            got, expected = getattr(back, column), getattr(rows, column)
            assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes(), column

    @pytest.mark.parametrize("change, message", [
        (lambda rec: dict(rec, id=5), "bad classified record: id must be a non-empty string"),
        (lambda rec: dict(rec, id="ş1"), "bad classified record: duplicate id 'ş1', first at line 3"),
        (lambda rec: dict(rec, id="ş8"), "bad classified record: duplicate id 'ş8', first at line 10"),
        (lambda rec: dict(rec, predicted=(rec["predicted"] + 1) % 4),
         "tweet ş10: predicted class is not the argmax of"),
        # 256 more wraps to the argmax in int8; 2**70 fits no numpy integer
        (lambda rec: dict(rec, predicted=rec["predicted"] + 256),
         "tweet ş10: predicted class is not the argmax of"),
        (lambda rec: dict(rec, predicted=2**70), "tweet ş10: predicted class is not the argmax of"),
    ], ids=["malformed", "duplicate-of-earlier-block", "duplicate-in-same-block", "not-argmax",
            "wraps-to-argmax", "beyond-int64"])
    def test_error_in_a_later_block_names_its_line(self, tmp_path, change, message):
        """Row 10 sits in the third block, with row 8; a blank line before
        row 1 puts them on lines 12 and 10, and row 1, in the first block,
        on line 3."""
        recs = self.records(self.rows(2 * BLOCK + 3))
        recs[10] = change(recs[10])
        lines = [json.dumps(rec, sort_keys=True, ensure_ascii=False) for rec in recs]
        p = tmp_path / "classified.jsonl"
        p.write_text("\n".join(lines[:1] + [""] + lines[1:]) + "\n", encoding="utf-8")
        with pytest.raises(DataValidationError, match=f"^{re.escape(str(p))}:12: {re.escape(message)}"):
            read_classified(p)


# classified.jsonl records that read back (ids unique within a file), and
# records whose fields are each a plausible value or any JSON value.
CLASSIFIED_TIMESTAMPS = st.sampled_from([
    "2021-08-01T00:00:00Z", "2021-08-02T23:59:59.500000+03:00", "1969-12-31T23:59:59.999999Z",
    "0001-01-01T00:00:00Z", "9999-12-31T23:59:59.999999Z",
])
CLASSIFIED_PROBA = st.sampled_from([
    [1.0, 0.0, 0.0, 0.0], [0.1, 0.2, 0.3, 0.4], [0.25] * 4, [0, 0, 1, 0], [0.5, 0.5, 0.0, -0.0],
])
CLASSIFIED_RECORDS = st.builds(
    lambda tid, ts, proba: {"id": tid, "created_at": ts, "predicted": int(np.argmax(proba)), "proba": proba},
    st.text(min_size=1, max_size=3), CLASSIFIED_TIMESTAMPS, CLASSIFIED_PROBA,
)
CLASSIFIED_FIELDS = st.fixed_dictionaries({}, optional={
    "id": st.text(max_size=3) | JSON_VALUES,
    "created_at": CLASSIFIED_TIMESTAMPS | st.sampled_from(["2021-08-01", "0001-01-01T00:00:00+01:00"]) | JSON_VALUES,
    "predicted": st.integers(-1, 4) | JSON_VALUES,
    "proba": CLASSIFIED_PROBA | st.lists(st.floats() | st.integers(), max_size=5) | JSON_VALUES,
})
CLASSIFIED_LINES = st.one_of(
    st.lists(CLASSIFIED_RECORDS, max_size=5, unique_by=lambda r: r["id"]).map(
        lambda records: [json.dumps(r, ensure_ascii=False) for r in records]),
    st.lists(st.one_of(
        (CLASSIFIED_RECORDS | CLASSIFIED_FIELDS).map(json.dumps), JSON_VALUES.map(json.dumps),
        st.text(max_size=12), st.sampled_from(["\ud800", *sorted(HOSTILE_JSON.values())]),
    ), max_size=5),
)


class TestPersistence:
    @settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(lines=CLASSIFIED_LINES, end=st.sampled_from(["", "\n", "\r\n"]), raw=st.none() | st.binary(max_size=24))
    def test_any_file_loads_or_is_refused(self, tmp_path, lines, end, raw):
        """Whatever classified.jsonl holds, read_classified returns results
        that write and read back unchanged, or raises one of the errors the
        CLI turns into an exit code."""
        p = tmp_path / "classified.jsonl"
        p.write_bytes(("\n".join(lines) + end).encode("utf-8", "surrogatepass") if raw is None else raw)
        try:
            classified = read_classified(p)
        except (DataValidationError, InputPathError):
            return
        again = tmp_path / "again.jsonl"
        write_classified(classified, again)
        assert list(read_classified(again)) == list(classified)
    def test_classified_round_trip(self, tmp_path):
        rows = block([ct(i, D(2021, 8, 1), predicted=i % 4) for i in range(6)])
        p = tmp_path / "classified.jsonl"
        n = write_classified(rows, p)
        assert n == 6
        back = read_classified(p)
        assert list(back) == list(rows)

    def test_read_classified_rejects_bad_record(self, tmp_path):
        p = tmp_path / "classified.jsonl"
        p.write_text('{"id": "a", "created_at": "2021-08-01T00:00:00Z"}\n', encoding="utf-8")
        with pytest.raises(DataValidationError, match="bad classified record"):
            read_classified(p)

    def test_write_read_write_byte_identical(self, tmp_path):
        stamps = [
            dt.datetime(1969, 12, 31, 23, 59, 59, 999999, tzinfo=UTC),
            dt.datetime(1900, 1, 1, tzinfo=UTC),
            dt.datetime(2021, 8, 1, 12, 0, 0, 250000, tzinfo=UTC),
            dt.datetime(2021, 8, 1, 12, tzinfo=UTC),
        ]
        proba = np.random.default_rng(0).dirichlet(np.ones(4), size=len(stamps))
        rows = Classified(("a", "ş", "c", "d"), [(t - EPOCH) // ONE_US for t in stamps],
                          proba.argmax(axis=1), proba)
        first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
        write_classified(rows, first)
        back = read_classified(first)
        write_classified(back, second)
        assert first.read_bytes() == second.read_bytes()
        assert list(back) == list(rows)
        text = first.read_text(encoding="utf-8")
        assert '"1969-12-31T23:59:59.999999Z"' in text and '"2021-08-01T12:00:00.250000Z"' in text

    @given(st.lists(st.text(min_size=1), min_size=1, max_size=8, unique=True),
           st.lists(st.integers((dt.datetime(1, 1, 1, tzinfo=UTC) - EPOCH) // ONE_US,
                                (dt.datetime(9999, 12, 31, tzinfo=UTC) - EPOCH) // ONE_US),
                    min_size=8, max_size=8))
    @example(ids=["ş日😀", 'say "no"', "a\\b\\", "\x00\x1f\x7f\n\t", "\u2028\u2029\ufeff", "x"],
             stamps=[(dt.datetime(1969, 12, 31, 23, 59, 59, 999999, tzinfo=UTC) - EPOCH) // ONE_US,
                     (dt.datetime(1900, 1, 1, 0, 0, 0, 1, tzinfo=UTC) - EPOCH) // ONE_US,
                     (dt.datetime(2021, 8, 1, 12, 0, 0, 250000, tzinfo=UTC) - EPOCH) // ONE_US,
                     0, -1, 1, 0, 0])
    def test_lines_equal_sorted_json_dumps(self, tmp_path_factory, ids, stamps):
        rng = np.random.default_rng(len(ids))
        proba = rng.dirichlet(np.ones(4), size=len(ids))
        proba[0] = [1.0, 0.0, -0.0, 1e-300]
        rows = Classified(tuple(ids), stamps[:len(ids)], proba.argmax(axis=1), proba)
        p = tmp_path_factory.mktemp("classified") / "classified.jsonl"
        write_classified(rows, p)
        want = "".join(
            json.dumps({"id": tid, "created_at": format_timestamp(EPOCH + int(us) * ONE_US),
                        "predicted": int(pred), "proba": row.tolist()},
                       sort_keys=True, ensure_ascii=False) + "\n"
            for tid, us, pred, row in zip(rows.ids, rows.created_us, rows.predicted, rows.proba)
        )
        assert p.read_bytes() == want.encode("utf-8")

    def test_reader_names_line_of_bad_row(self, tmp_path):
        good = {"id": "a", "created_at": "2021-08-01T00:00:00Z", "predicted": 0,
                "proba": [0.7, 0.1, 0.1, 0.1]}
        bad = dict(good, id="b", proba=[0.8, 0.1, 0.1, 0.1])
        p = tmp_path / "classified.jsonl"
        p.write_text(json.dumps(good) + "\n\n" + json.dumps(bad) + "\n", encoding="utf-8")
        with pytest.raises(DataValidationError, match=f"^{re.escape(str(p))}:3: tweet b: probabilities sum"):
            read_classified(p)

    @pytest.mark.parametrize("field, value, reason", [
        ("id", 5, "id must be a non-empty string"),
        ("id", "", "id must be a non-empty string"),
        ("created_at", 1627776000, "created_at must be an ISO-8601 string"),
        ("predicted", 0.7, "predicted must be an integer"),
        ("predicted", False, "predicted must be an integer"),
        ("proba", "1000", "proba must be a list of 4 numbers"),
        ("proba", [0.7, 0.1, 0.1, "0.1"], "proba must be a list of 4 numbers"),
        ("proba", [0.7, 0.1, 0.1, 0.1, 0.0], "proba must be a list of 4 numbers"),
    ])
    def test_reader_rejects_loose_fields(self, tmp_path, field, value, reason):
        good = {"id": "a", "created_at": "2021-08-01T00:00:00Z", "predicted": 0,
                "proba": [1.0, 0.0, 0.0, 0.0]}
        bad = dict(good, **{"id": "b", field: value})
        p = tmp_path / "classified.jsonl"
        p.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n", encoding="utf-8")
        with pytest.raises(DataValidationError, match=f"^{re.escape(str(p))}:2: bad classified record: {reason}"):
            read_classified(p)

    @pytest.mark.parametrize("kind", sorted(HOSTILE_JSON))
    def test_reader_names_the_line_json_refuses_without_a_decode_error(self, tmp_path, kind):
        good = {"id": "a", "created_at": "2021-08-01T00:00:00Z", "predicted": 0,
                "proba": [1.0, 0.0, 0.0, 0.0]}
        p = tmp_path / "classified.jsonl"
        p.write_text(json.dumps(good) + "\n" + HOSTILE_JSON[kind] + "\n", encoding="utf-8")
        with pytest.raises(DataValidationError, match=f"^{re.escape(str(p))}:2: bad classified record: "):
            read_classified(p)

    def test_reader_rejects_duplicate_ids(self, tmp_path):
        rec = {"id": "a", "created_at": "2021-08-01T00:00:00Z", "predicted": 2,
               "proba": [0.0, 0.0, 1.0, 0.0]}
        p = tmp_path / "classified.jsonl"
        p.write_text((json.dumps(rec) + "\n") * 2, encoding="utf-8")
        with pytest.raises(DataValidationError, match=":2: bad classified record: duplicate id 'a', first at line 1"):
            read_classified(p)

    def test_undecodable_file_is_a_path_error(self, tmp_path):
        p = tmp_path / "classified.jsonl"
        p.write_bytes(b'{"id": "\xff"}\n')
        with pytest.raises(InputPathError, match="cannot read classified file"):
            read_classified(p)

    def test_timeline_csv_format(self, tmp_path):
        rows = block([ct(0, D(2021, 8, 1), 2), ct(1, D(2021, 8, 1), 0), ct(2, D(2021, 8, 3), 1)])
        series = aggregate_daily(rows, utc_offset_minutes=0)
        p = tmp_path / "timeline.csv"
        write_timeline_csv(series, p)
        lines = p.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "date,count_news,count_irrelevant,count_anti,count_pro,total,share_anti_pct,empty_flag"
        assert lines[1] == "2021-08-01,1,0,1,0,2,50.000000,0"
        assert lines[2] == "2021-08-02,0,0,0,0,0,0.000000,1"
        assert lines[3] == "2021-08-03,0,1,0,0,1,0.000000,0"
