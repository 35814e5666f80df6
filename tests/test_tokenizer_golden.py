"""Golden digests of the encodings of a seeded long-tweet corpus.

A vocabulary is built from seeded Turkish-like texts, then 400 long tweets
(20-45 Zipf-drawn words with punctuation, hashtags, capitals and a few
characters the vocabulary never saw) are encoded at max_len 64, where every
tweet is truncated, and at 16. The SHA-256 of the ids padded to max_len and
their masks, the fixed-length form ``encode`` returned before ``collate``
took over the padding, must match the digests below, so a change to pre-tokenization, vocabulary building,
greedy matching, truncation or padding cannot move an encoding unnoticed.
Change a digest only together with a deliberate, stated change of the
tokenizer's output.
"""

import hashlib
import itertools
import json
import random

import pytest

from conftest import padded
from stancewatch.tokenizer import build_vocab, encode

GOLDEN = {
    64: "07882a7579bd94f586d08615503967eedc7a259cc65f870b371c41081749a1f3",
    16: "d135157c3fd98e759a3683afcaf72e5f5b13b6a8f1234b60cd022550cb008bf0",
}

ONSETS = ("b", "c", "ç", "d", "g", "ğ", "k", "l", "m", "n", "ş", "t", "v", "y", "z")
VOWELS = ("a", "e", "ı", "i", "o", "ö", "u", "ü")
PUNCT = (",", ".", "!", "?", ":", "…")
UNSEEN = ("✓", "€", "Ω")


def long_texts(rng: random.Random, lexicon: list[str], n: int, unseen: bool) -> list[str]:
    cum = list(itertools.accumulate(1.0 / (r + 1) ** 1.05 for r in range(len(lexicon))))
    texts = []
    for _ in range(n):
        out = []
        for w in rng.choices(lexicon, cum_weights=cum, k=rng.randint(20, 45)):
            r = rng.random()
            if r < 0.05:
                w = "#" + w
            elif r < 0.1:
                w = w.capitalize()
            elif unseen and r < 0.12:
                w += rng.choice(UNSEEN) + w
            if rng.random() < 0.1:
                w += rng.choice(PUNCT)
            out.append(w)
        texts.append(" ".join(out))
    return texts


def corpus() -> tuple[list[str], list[str]]:
    rng = random.Random(20220201)
    words = set()
    while len(words) < 600:
        words.add("".join(rng.choice(ONSETS) + rng.choice(VOWELS) for _ in range(rng.randint(1, 3))))
    lexicon = sorted(words)
    rng.shuffle(lexicon)
    return long_texts(rng, lexicon, 150, unseen=False), long_texts(rng, lexicon, 400, unseen=True)


@pytest.fixture(scope="module")
def vocab_and_texts():
    vocab_texts, texts = corpus()
    return build_vocab(vocab_texts, max_size=400, min_pair_freq=1), texts


@pytest.mark.parametrize("max_len", sorted(GOLDEN))
def test_encoding_digest(vocab_and_texts, max_len):
    vocab, texts = vocab_and_texts
    encodings = [encode(vocab, text, max_len) for text in texts]
    payload = json.dumps([padded(e, max_len) for e in encodings], separators=(",", ":"))
    assert hashlib.sha256(payload.encode("ascii")).hexdigest() == GOLDEN[max_len]
