import datetime as dt
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stancewatch.corpus import Category
from stancewatch.errors import DataValidationError
from stancewatch.synth import (
    CATEGORY_KEYWORDS,
    FILLER_WORDS,
    TOPIC_WORD,
    generate_corpus,
    generate_labeled,
)
from timeline_reference import local_day


def keyword_category(text: str) -> int:
    """Recover the category from the disjoint keyword pools."""
    words = set(text.split())
    hits = [c for c, pool in CATEGORY_KEYWORDS.items() if words & set(pool)]
    assert len(hits) == 1, text
    return hits[0]


class TestPools:
    def test_keyword_pools_disjoint(self):
        seen = set()
        for pool in CATEGORY_KEYWORDS.values():
            assert not (set(pool) & seen)
            seen |= set(pool)
        assert TOPIC_WORD not in seen
        assert not (set(FILLER_WORDS) & seen)


class TestLabeled:
    def test_balanced_and_labeled(self):
        tweets = generate_labeled(per_class=25, seed=1)
        assert len(tweets) == 100
        counts = {c: 0 for c in Category}
        for t in tweets:
            counts[t.gold_label] += 1
        assert all(n == 25 for n in counts.values())

    def test_texts_match_their_labels(self):
        for t in generate_labeled(per_class=10, seed=2):
            assert keyword_category(t.text) == int(t.gold_label)
            assert TOPIC_WORD in t.text.split()

    def test_deterministic(self):
        a = generate_labeled(per_class=5, seed=3)
        b = generate_labeled(per_class=5, seed=3)
        c = generate_labeled(per_class=5, seed=4)
        assert a == b
        assert [t.text for t in a] != [t.text for t in c]

    def test_unique_ids(self):
        tweets = generate_labeled(per_class=30, seed=5)
        assert len({t.id for t in tweets}) == len(tweets)

    def test_per_class_floor(self):
        with pytest.raises(DataValidationError):
            generate_labeled(per_class=0)


class TestCorpus:
    def test_size_and_ids(self):
        tweets = generate_corpus(days=3, per_day=40, seed=1, spike_days=(1,))
        assert len(tweets) == 120
        assert len({t.id for t in tweets}) == 120
        assert all(t.gold_label is None for t in tweets)

    def test_days_covered_in_local_time(self):
        start = dt.date(2021, 7, 22)
        tweets = generate_corpus(
            days=3, per_day=30, seed=2, start_date=start, spike_days=(), utc_offset_minutes=180
        )
        days = {local_day(t.created_at, 180) for t in tweets}
        assert days == {start + dt.timedelta(days=i) for i in range(3)}

    def test_timestamps_sorted(self):
        tweets = generate_corpus(days=2, per_day=25, seed=3, spike_days=())
        stamps = [t.created_at for t in tweets]
        assert stamps == sorted(stamps)

    def test_spike_day_has_elevated_anti_share(self):
        tweets = generate_corpus(
            days=8, per_day=400, seed=4, spike_days=(5,), base_shares=(0.3, 0.3, 0.15, 0.25),
            spike_anti_share=0.45,
        )
        start = dt.date(2021, 7, 22)
        by_day: dict[dt.date, list[int]] = {}
        for t in tweets:
            by_day.setdefault(local_day(t.created_at, 180), []).append(keyword_category(t.text))
        anti_share = {
            d: sum(1 for c in cats if c == Category.ANTI_VACCINE) / len(cats)
            for d, cats in by_day.items()
        }
        spike = anti_share[start + dt.timedelta(days=5)]
        others = [v for d, v in anti_share.items() if d != start + dt.timedelta(days=5)]
        assert spike > 0.38
        assert all(v < 0.25 for v in others)
        assert spike > max(others) + 0.15

    def test_two_spikes_recoverable(self):
        tweets = generate_corpus(days=10, per_day=300, seed=5, spike_days=(4, 8))
        start = dt.date(2021, 7, 22)
        by_day: dict[dt.date, int] = {}
        totals: dict[dt.date, int] = {}
        for t in tweets:
            d = local_day(t.created_at, 180)
            totals[d] = totals.get(d, 0) + 1
            if keyword_category(t.text) == Category.ANTI_VACCINE:
                by_day[d] = by_day.get(d, 0) + 1
        shares = {d: by_day.get(d, 0) / totals[d] for d in totals}
        ranked = sorted(shares, key=lambda d: -shares[d])
        assert set(ranked[:2]) == {start + dt.timedelta(days=4), start + dt.timedelta(days=8)}

    def test_deterministic(self):
        a = generate_corpus(days=2, per_day=20, seed=6, spike_days=(0,))
        b = generate_corpus(days=2, per_day=20, seed=6, spike_days=(0,))
        assert a == b

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(days=0),
            dict(per_day=0),
            dict(base_shares=(0.5, 0.5, 0.0, 0.1)),
            dict(base_shares=(0.25, 0.25, 0.25)),
            dict(spike_anti_share=0.0),
            dict(spike_days=(30,)),
            dict(spike_days=(-1,)),
            dict(base_shares=(0.3, 0.3, 0.4, math.nan)),
            dict(base_shares=(0.0, 0.0, 1.0, 0.0)),  # a spike day has no other share to shrink
        ],
    )
    def test_rejects_bad_arguments(self, kwargs):
        with pytest.raises(DataValidationError):
            generate_corpus(days=kwargs.pop("days", 30), **kwargs)

    def test_anti_share_1_without_spikes_allowed(self):
        tweets = generate_corpus(days=3, per_day=5, spike_days=(), base_shares=(0, 0, 1, 0))
        assert {keyword_category(t.text) for t in tweets} == {Category.ANTI_VACCINE}

    @pytest.mark.parametrize("start, offset", [(dt.date(9999, 12, 20), 180), (dt.date(1, 1, 1), 180),
                                               (dt.date(9999, 12, 31), -1)])
    def test_days_beyond_the_calendar_rejected(self, start, offset):
        with pytest.raises(DataValidationError, match="start_date"):
            generate_corpus(days=14, per_day=2, spike_days=(), start_date=start, utc_offset_minutes=offset)
        with pytest.raises(DataValidationError, match="start_date"):
            generate_labeled(per_class=4, start_date=start, utc_offset_minutes=offset)

    def test_days_at_the_calendar_ends_allowed(self):
        last = generate_corpus(days=3, per_day=2, spike_days=(), start_date=dt.date(9999, 12, 29),
                               utc_offset_minutes=0)
        first = generate_labeled(per_class=1, start_date=dt.date(1, 1, 1), utc_offset_minutes=-60)
        assert last[-1].created_at.date() == dt.date(9999, 12, 31)
        assert first[0].created_at == dt.datetime(1, 1, 1, 1, tzinfo=dt.timezone.utc)


numbers = st.one_of(st.sampled_from([0.0, 1.0, -1.0, math.nan, math.inf, -math.inf]), st.floats())


def shares_with(weights: list[int], change: tuple[int, float] | None) -> list[float]:
    """``weights`` normalised to sum to 1, with one share set to an arbitrary number if ``change``."""
    shares = [w / sum(weights) for w in weights]
    if change is not None:
        shares[change[0]] = change[1]
    return shares


# Each argument is either one the generator should take or arbitrary, so examples
# reach the draw as well as the checks: 0/1 weights give zeros and a lone 1, and one
# share set to a NaN keeps the rest summing to 1. 1000 examples, not the suite's 50:
# fewer do not reliably draw a NaN share, or an anti-vaccine share of 1 with a spike day.
@settings(max_examples=1000)
@given(
    days=st.integers(1, 4),
    per_day=st.integers(1, 4),
    base_shares=st.builds(shares_with, st.lists(st.integers(0, 1), min_size=4, max_size=4).filter(any),
                          st.none() | st.tuples(st.integers(0, 3), numbers)),
    data=st.data(),
)
def test_any_numbers_give_tweets_or_a_validation_error(days, per_day, base_shares, data):
    spike_days = data.draw(st.lists(st.integers(0, days - 1), min_size=1, max_size=2)
                           | st.lists(st.integers(), max_size=2))
    spike_anti_share = data.draw(st.floats(0, 1, exclude_min=True, exclude_max=True) | numbers)
    try:
        tweets = generate_corpus(days=days, per_day=per_day, base_shares=base_shares,
                                 spike_days=spike_days, spike_anti_share=spike_anti_share)
    except DataValidationError:
        return
    assert len(tweets) == days * per_day
