"""Seeded input generators. Each takes the workload seed; the pipeline under
test only ever sees the files written from what they return."""

from __future__ import annotations

import datetime as dt
import itertools
import random

from stancewatch.corpus import Tweet
from stancewatch.synth import DEFAULT_START_DATE, generate_corpus, generate_labeled

UTC_OFFSET_MINUTES = 180

# classify-short: 10 days of 100 tweets, anti-vaccine surges on two days.
CS_DAYS, CS_PER_DAY, CS_SPIKE_DAYS = 10, 100, (3, 7)

# The classify-short model is a fixed part of the set-up, like a shipped
# checkpoint: it is trained on this labeled seed whatever the workload seed,
# so a slow-converging draw cannot make the surge check flaky.
MODEL_LABELED_SEED = 101
LABELED_PER_CLASS = 100

# timeline-scale: long tweets spread over 40 days. The lexicon and the texts
# the vocabulary is built from are fixed, like classify-short's model: how
# many merges build_vocab makes before it stops varies several-fold from
# one draw to the next, and would swamp setup_s. The seed draws the corpus.
TS_TWEETS, TS_DAYS, TS_VOCAB_TEXTS = 2000, 40, 1000
LANGUAGE_SEED = 7


def _derive(seed: int, stream: str) -> int:
    return random.Random(f"{seed}:{stream}").getrandbits(32)


def classify_short_corpus(seed: int) -> tuple[list[Tweet], set[dt.date]]:
    """Synthetic corpus with injected surges, and the local dates of the surges."""
    tweets = generate_corpus(
        days=CS_DAYS, per_day=CS_PER_DAY, seed=_derive(seed, "corpus"),
        spike_days=CS_SPIKE_DAYS, utc_offset_minutes=UTC_OFFSET_MINUTES,
    )
    surges = {DEFAULT_START_DATE + dt.timedelta(days=d) for d in CS_SPIKE_DAYS}
    return tweets, surges


def labeled_set(seed: int) -> list[Tweet]:
    """The 400-example keyword-separable labeled set."""
    return generate_labeled(per_class=LABELED_PER_CLASS, seed=seed, utc_offset_minutes=UTC_OFFSET_MINUTES)


_ONSETS = "bcçdfgğhklmnprsştvyz"
_VOWELS = "aeıioöuü"
_CODAS = "klmnrst"
_PUNCT = ",.!?:;…"


def _lexicon(rng: random.Random, size: int = 5000) -> list[str]:
    words: set[str] = set()
    while len(words) < size:
        syllables = rng.choice((1, 2, 2, 2, 3))
        words.add("".join(
            rng.choice(_ONSETS) + rng.choice(_VOWELS) + (rng.choice(_CODAS) if rng.random() < 0.3 else "")
            for _ in range(syllables)
        ))
    ordered = sorted(words)
    rng.shuffle(ordered)
    return ordered


class LongTweets:
    """Turkish-like tweets of 20-45 Zipf-drawn words with punctuation,
    hashtags and mentions, about 200 characters each."""

    def __init__(self):
        self.words = _lexicon(random.Random(_derive(LANGUAGE_SEED, "lexicon")))
        self.cum = list(itertools.accumulate(1.0 / (r + 1) ** 1.05 for r in range(len(self.words))))

    def text(self, rng: random.Random) -> str:
        out = []
        for w in rng.choices(self.words, cum_weights=self.cum, k=rng.randint(20, 45)):
            r = rng.random()
            if r < 0.05:
                w = "#" + w
            elif r < 0.07:
                w = "@" + w
            elif r < 0.12:
                w = w.capitalize()
            if rng.random() < 0.1:
                w += rng.choice(_PUNCT)
            out.append(w)
        return " ".join(out)


def long_corpus(seed: int) -> list[Tweet]:
    gen, rng = LongTweets(), random.Random(_derive(seed, "long-corpus"))
    start = dt.datetime(2021, 7, 1, tzinfo=dt.timezone.utc)
    span = TS_DAYS * 86400
    return [
        Tweet(id=f"ts-{i + 1:07d}", created_at=start + dt.timedelta(seconds=i * span // TS_TWEETS),
              text=gen.text(rng))
        for i in range(TS_TWEETS)
    ]


def long_vocab_texts() -> list[str]:
    """Texts for the timeline-scale vocabulary: same lexicon, fixed stream."""
    gen, rng = LongTweets(), random.Random(_derive(LANGUAGE_SEED, "long-vocab"))
    return [gen.text(rng) for _ in range(TS_VOCAB_TEXTS)]
