"""WordPiece-style subword vocabulary building and encoding.

The vocabulary is trained from scratch on the training-split texts. Training
is the classic pair-merge procedure: start from single characters (word
internal characters carry the ``##`` continuation prefix), then repeatedly
merge the adjacent symbol pair with the best likelihood-ratio score

    score(a, b) = freq(a b) / (freq(a) * freq(b))

until the size budget is reached or the best pair is too rare. Ties are
broken by lexicographic pair order so builds are fully deterministic, and
word frequencies are aggregated up front so the result is invariant to the
order of the input texts.

Encoding is greedy longest-match from the left within each pre-token. Case
is preserved; text is NFC-normalized before pre-tokenization. Pre-tokens
come from one regex: runs of alphanumeric characters (``str.isalnum``) are
words, whitespace separates them, and any other character is a word of its
own. ``encode`` returns only the real ids, ``[CLS]`` through ``[SEP]``: it
adds no ``[PAD]``: ``encoder.collate`` pads a whole batch and returns its
rows' lengths, from which the encoder builds its attention mask.

``encode`` and ``tokenize`` work by whitespace chunk: the NFC text is cut
with ``str.split()``, and each chunk, the text between two runs of
whitespace, is looked up in a per-vocabulary memo, ``chunk_ids``, that maps
it to the piece ids of all its pre-tokens. A chunk that misses the memo
and is all alphanumeric is one word; any other runs the regex on the chunk
alone. Chunking cannot change a pre-token: ``str.split()`` and the regex's
``\\S`` both take whitespace to be ``str.isspace()``, so no pre-token spans
whitespace, and a chunk's pre-tokens are exactly its share of the whole
text's. ``encode`` stops once it holds more than ``max_len - 2`` pieces and
cuts the rest. It splits the text a few chunks at a time: every chunk gives
at least one piece and most give several, so each step splits off
``open // SPLIT_STEP_DIVISOR + 1`` chunks, ``open`` being the pieces still
free, and leaves the rest unsplit; a long tweet splits little past the
chunks it keeps.

Behind the chunk memo, a word memo, ``word_ids``, maps each word to its
piece ids, so an unseen chunk of seen words costs no matching. Both memos
are bounded by ``WORD_CACHE_ENTRIES`` and hold only results of pure
functions of the vocabulary, so they cannot change a result, and they take
no part in equality, hashing or ``content_hash``. A chunk longer than
``MEMO_MAX_CHARS`` is matched outside both memos, so no entry is longer
than that, and ``encode`` matches such a chunk only until its budget is
full.

Matching is linear in the word's length: no piece is longer than the
vocabulary's longest token, so each match tries at most that many ends.

Every character seen during building is seeded into the vocabulary in both
its word-initial and its continuation form, which guarantees the greedy
matcher can always fall back to single characters before emitting ``[UNK]``.
"""

from __future__ import annotations

import hashlib
import heapq
import re
import unicodedata
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache, partial
from pathlib import Path
from typing import Callable, Iterable

from .errors import DataValidationError, InputPathError

PAD_TOKEN, UNK_TOKEN, CLS_TOKEN, SEP_TOKEN = "[PAD]", "[UNK]", "[CLS]", "[SEP]"
SPECIAL_TOKENS = (PAD_TOKEN, UNK_TOKEN, CLS_TOKEN, SEP_TOKEN)
PAD_ID, UNK_ID, CLS_ID, SEP_ID = 0, 1, 2, 3
CONTINUATION_PREFIX = "##"
WORD_CACHE_ENTRIES = 1 << 16
# Chunks longer than this bypass both memos: a tweet's chunks are rarely
# longer, and it bounds what one memo entry can hold.
MEMO_MAX_CHARS = 32
# encode splits open // SPLIT_STEP_DIVISOR + 1 chunks per step, ``open``
# being the pieces its budget has free. Any value gives the same ids; 4 was
# the fastest of 1-8 on long tweets, whose chunks give about 4.7 pieces.
SPLIT_STEP_DIVISOR = 4
DEFAULT_MIN_PAIR_FREQ = 2
# In CPython's re, \w is str.isalnum() plus "_" and \S is "not str.isspace()".
_PRE_TOKEN = re.compile(r"[^\W_]+|\S")


@dataclass(frozen=True)
class Vocabulary:
    """Immutable token inventory with the four specials at fixed ids 0..3."""

    tokens: tuple[str, ...]
    token_to_id: dict[str, int] = field(init=False, repr=False, compare=False)
    longest: int = field(init=False, repr=False, compare=False)
    word_ids: Callable[[str], tuple[int, ...]] = field(init=False, repr=False, compare=False)
    chunk_ids: Callable[[str], tuple[int, ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if tuple(self.tokens[:4]) != SPECIAL_TOKENS:
            raise DataValidationError(
                f"vocabulary must start with {SPECIAL_TOKENS}, got {self.tokens[:4]}"
            )
        mapping: dict[str, int] = {}
        for i, tok in enumerate(self.tokens):
            if not tok:
                raise DataValidationError(f"empty token at id {i}")
            if tok in mapping:
                raise DataValidationError(f"duplicate token {tok!r} at ids {mapping[tok]} and {i}")
            mapping[tok] = i
        object.__setattr__(self, "token_to_id", mapping)
        # A word holds "#" only as the one-character word "#", so a token
        # that starts with "##" can match only as a continuation piece.
        longest = max(len(tok.removeprefix(CONTINUATION_PREFIX)) for tok in self.tokens)
        object.__setattr__(self, "longest", longest)
        memo = lru_cache(maxsize=WORD_CACHE_ENTRIES)
        word_ids = memo(partial(_greedy_ids, mapping, longest))
        object.__setattr__(self, "word_ids", word_ids)
        object.__setattr__(self, "chunk_ids", memo(partial(_chunk_ids, word_ids)))

    def __len__(self) -> int:
        return len(self.tokens)

    def __contains__(self, token: str) -> bool:
        return token in self.token_to_id

    def serialized(self) -> bytes:
        """The canonical file form: one token per line, line number = id."""
        return "".join(tok + "\n" for tok in self.tokens).encode("utf-8")

    def content_hash(self) -> str:
        return hashlib.sha256(self.serialized()).hexdigest()

    def save(self, path: str | Path) -> None:
        Path(path).write_bytes(self.serialized())

    @classmethod
    def load(cls, path: str | Path) -> "Vocabulary":
        p = Path(path)
        if not p.is_file():
            raise InputPathError(f"cannot read vocabulary file: {p}")
        try:
            text = p.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise InputPathError(f"cannot read vocabulary file: {p}: {exc}")
        lines = text.split("\n")
        if lines and lines[-1] == "":
            lines.pop()
        return cls(tuple(lines))


@dataclass(frozen=True)
class Encoding:
    """The real ids of one text: ``[CLS]``, its pieces, then ``[SEP]``."""

    ids: tuple[int, ...]

    @property
    def n_real(self) -> int:
        return len(self.ids)


def pre_tokenize(text: str) -> list[str]:
    """NFC-normalize and split into words; punctuation is its own word."""
    return _PRE_TOKEN.findall(unicodedata.normalize("NFC", text))


def _word_symbols(word: str) -> tuple[str, ...]:
    return (word[0],) + tuple(CONTINUATION_PREFIX + c for c in word[1:])


def _merge_sequence(seq: tuple[str, ...], pair: tuple[str, str], merged: str) -> tuple[str, ...]:
    # Left-to-right, non-overlapping replacement.
    out: list[str] = []
    i = 0
    while i < len(seq):
        if i + 1 < len(seq) and seq[i] == pair[0] and seq[i + 1] == pair[1]:
            out.append(merged)
            i += 2
        else:
            out.append(seq[i])
            i += 1
    return tuple(out)


def check_vocab_settings(max_size: int, min_pair_freq: int) -> None:
    """Reject a budget with no room past the special tokens and a merge
    threshold below 1, naming the config keys; the floor that depends on the
    corpus's characters is ``build_vocab``'s own check."""
    if max_size <= len(SPECIAL_TOKENS):
        raise DataValidationError(
            f"vocab_max_size must be > {len(SPECIAL_TOKENS)} (the special tokens), got {max_size}"
        )
    if min_pair_freq < 1:
        raise DataValidationError(f"min_pair_freq must be >= 1, got {min_pair_freq}")


def build_vocab(texts: Iterable[str], max_size: int, min_pair_freq: int = DEFAULT_MIN_PAIR_FREQ,
                stats: dict | None = None) -> Vocabulary:
    """Train a WordPiece vocabulary of at most ``max_size`` tokens.

    The seed inventory is every character seen in the corpus, in both plain
    and ``##``-prefixed form, after the four specials. Merges then extend
    the inventory while the budget allows and the best pair occurs at least
    ``min_pair_freq`` times. A merge whose token is already present adds
    none, but still merges.

    The symbol and pair counts are taken in one pass over the distinct
    words and then kept across merges: a pair -> words index finds the words
    that hold the merged pair, and only those are re-merged, each applying
    the difference between its old and new sequence's counts; a pair whose
    count reaches 0 is dropped. The best pair comes from a heap keyed by
    ``(-score, a, b)``. A merge changes the score of every pair that shares
    a symbol whose count changed, so those are pushed again (through a
    symbol -> pairs index) and an entry whose key is no longer its pair's
    key is discarded when it surfaces. Every build gives the same tokens as
    recounting every pair after every merge.

    The stop rule is unchanged: learning ends at the first best pair below
    ``min_pair_freq``. A pair of rare symbols often scores highest, so this
    is known to stop well short of the budget (see the ROADMAP item on
    vocabulary learning that fills its budget).

    ``stats``, if given, gets ``"merges"``, the merges made, and ``"stop"``:
    ``"budget"``, ``"no_pairs"`` or ``"below_min_pair_freq"``.
    """
    check_vocab_settings(max_size, min_pair_freq)
    word_freq: Counter[str] = Counter()
    for text in texts:
        word_freq.update(pre_tokenize(text))
    if not word_freq:
        raise DataValidationError("cannot build vocabulary from an empty corpus")

    chars = sorted({c for w in word_freq for c in w})
    seed = sorted(set(chars) | {CONTINUATION_PREFIX + c for c in chars})
    if len(SPECIAL_TOKENS) + len(seed) > max_size:
        raise DataValidationError(
            f"max_size {max_size} too small: {len(seed)} character tokens plus "
            f"{len(SPECIAL_TOKENS)} specials already exceed it"
        )

    tokens: list[str] = list(SPECIAL_TOKENS) + seed
    present = set(tokens)
    seqs = [_word_symbols(w) for w in word_freq]
    freqs = list(word_freq.values())
    sym_freq: Counter[str] = Counter()
    pair_freq: Counter[tuple[str, str]] = Counter()
    pair_words: dict[tuple[str, str], set[int]] = {}
    for i, seq in enumerate(seqs):
        for s in seq:
            sym_freq[s] += freqs[i]
        for pair in zip(seq, seq[1:]):
            pair_freq[pair] += freqs[i]
            pair_words.setdefault(pair, set()).add(i)
    sym_pairs: dict[str, set[tuple[str, str]]] = {}
    for pair in pair_freq:
        sym_pairs.setdefault(pair[0], set()).add(pair)
        sym_pairs.setdefault(pair[1], set()).add(pair)

    def key(pair: tuple[str, str]) -> tuple[float, str, str]:
        a, b = pair
        return (-(pair_freq[pair] / (sym_freq[a] * sym_freq[b])), a, b)

    heap = [key(pair) for pair in pair_freq]
    heapq.heapify(heap)
    merges = 0
    stop = "budget"
    while len(tokens) < max_size:
        while heap and (heap[0][1:] not in pair_freq or key(heap[0][1:]) != heap[0]):
            heapq.heappop(heap)
        if not heap:
            stop = "no_pairs"
            break
        best = heap[0][1:]
        if pair_freq[best] < min_pair_freq:
            stop = "below_min_pair_freq"
            break
        a, b = best
        merged = a + b[len(CONTINUATION_PREFIX):]
        if merged not in present:
            tokens.append(merged)
            present.add(merged)
        merges += 1

        merged_freq = 0
        pair_delta: Counter[tuple[str, str]] = Counter()
        for i in pair_words.pop(best):
            old = seqs[i]
            new = seqs[i] = _merge_sequence(old, best, merged)
            f = freqs[i]
            merged_freq += (len(old) - len(new)) * f
            old_pairs = list(zip(old, old[1:]))
            new_pairs = list(zip(new, new[1:]))
            for pair in old_pairs:
                pair_delta[pair] -= f
            for pair in new_pairs:
                pair_delta[pair] += f
            for pair in set(new_pairs).difference(old_pairs):
                pair_words.setdefault(pair, set()).add(i)
            for pair in set(old_pairs).difference(new_pairs):
                if pair != best:
                    pair_words[pair].discard(i)

        sym_freq[a] -= merged_freq
        sym_freq[b] -= merged_freq
        sym_freq[merged] += merged_freq
        rekey: set[tuple[str, str]] = set()
        for pair, d in pair_delta.items():
            if not d:
                continue
            if pair not in pair_freq:
                sym_pairs.setdefault(pair[0], set()).add(pair)
                sym_pairs.setdefault(pair[1], set()).add(pair)
            pair_freq[pair] += d
            if pair_freq[pair]:
                rekey.add(pair)
            else:
                del pair_freq[pair]
                pair_words.pop(pair, None)
                sym_pairs[pair[0]].discard(pair)
                sym_pairs[pair[1]].discard(pair)
        for s in (a, b, merged):
            rekey.update(sym_pairs.get(s, ()))
        for pair in rekey:
            heapq.heappush(heap, key(pair))
        if len(heap) > 2 * len(pair_freq) + 1024:
            # Drop the stale entries: one key per live pair.
            heap = [key(pair) for pair in pair_freq]
            heapq.heapify(heap)

    if stats is not None:
        stats["merges"] = merges
        stats["stop"] = stop
    return Vocabulary(tuple(tokens))


def _greedy_ids(
    token_to_id: dict[str, int], longest: int, word: str, limit: int | None = None
) -> tuple[int, ...]:
    """Greedy longest-match piece ids for one pre-token, or (UNK_ID,) on failure.

    No piece is longer than ``longest`` characters, ``##`` not counted, so a
    match tries no end past that. With a ``limit`` the match stops after
    that many pieces, a prefix of the full result, when no position can
    fail: when every character of the word has its one-character piece.
    """
    if limit is not None and (
        word[0] not in token_to_id
        or any(CONTINUATION_PREFIX + c not in token_to_id for c in set(word[1:]))
    ):
        limit = None
    ids: list[int] = []
    start = 0
    while start < len(word) and len(ids) != limit:
        end = min(len(word), start + longest)
        found: int | None = None
        while start < end:
            cand = word[start:end]
            if start > 0:
                cand = CONTINUATION_PREFIX + cand
            found = token_to_id.get(cand)
            if found is not None:
                break
            end -= 1
        if found is None:
            return (UNK_ID,)
        ids.append(found)
        start = end
    return tuple(ids)


def _chunk_ids(word_ids: Callable[[str], tuple[int, ...]], chunk: str) -> tuple[int, ...]:
    """Piece ids of every pre-token of one whitespace-free chunk."""
    if chunk.isalnum():
        return word_ids(chunk)
    ids: list[int] = []
    for word in _PRE_TOKEN.findall(chunk):
        ids += word_ids(word)
    return tuple(ids)


def _long_chunk_ids(vocab: Vocabulary, chunk: str, limit: int | None = None) -> list[int]:
    """Piece ids of a chunk longer than ``MEMO_MAX_CHARS``, matched outside
    both memos; with a ``limit``, only until that many ids are held."""
    ids: list[int] = []
    for match in _PRE_TOKEN.finditer(chunk):
        if limit is None:
            ids += _greedy_ids(vocab.token_to_id, vocab.longest, match.group())
        elif len(ids) < limit:
            ids += _greedy_ids(vocab.token_to_id, vocab.longest, match.group(), limit - len(ids))
        else:
            break
    return ids


def tokenize(vocab: Vocabulary, text: str) -> list[str]:
    """Full piece sequence for a text, without specials or truncation."""
    ids: list[int] = []
    for chunk in unicodedata.normalize("NFC", text).split():
        ids += vocab.chunk_ids(chunk) if len(chunk) <= MEMO_MAX_CHARS else _long_chunk_ids(vocab, chunk)
    return [vocab.tokens[i] for i in ids]


def encode(vocab: Vocabulary, text: str, max_len: int) -> Encoding:
    """Encode a text into at most ``max_len`` ids.

    Chunks are matched only until more than ``max_len - 2`` pieces are
    held, a long chunk only up to that count; pieces beyond it are dropped,
    then the sequence is wrapped in ``[CLS]`` / ``[SEP]``. The text is
    split a step of chunks at a time, each step sized by the pieces still
    free, so the chunks past the budget are mostly never split off.
    """
    if max_len < 2:
        raise DataValidationError(f"max_len must be at least 2, got {max_len}")
    budget = max_len - 2
    ids = [CLS_ID]
    chunk_ids = vocab.chunk_ids
    rest = unicodedata.normalize("NFC", text)
    while len(ids) <= budget:
        step = (budget + 1 - len(ids)) // SPLIT_STEP_DIVISOR + 1
        chunks = rest.split(None, step)
        # More than ``step`` parts means the last is the unsplit rest.
        rest = chunks.pop() if len(chunks) > step else None
        for chunk in chunks:
            if len(ids) > budget:
                break
            if len(chunk) > MEMO_MAX_CHARS:
                ids += _long_chunk_ids(vocab, chunk, budget + 1 - len(ids))
            else:
                ids += chunk_ids(chunk)
        if rest is None:
            break
    del ids[budget + 1:]
    ids.append(SEP_ID)
    return Encoding(tuple(ids))
