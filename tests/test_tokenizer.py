import re
import sys
import unicodedata

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import stancewatch.tokenizer as tokenizer
import tokenizer_reference as reference
from conftest import padded
from stancewatch.errors import DataValidationError, InputPathError
from stancewatch.tokenizer import (
    CLS_ID,
    PAD_ID,
    SEP_ID,
    UNK_ID,
    UNK_TOKEN,
    MEMO_MAX_CHARS,
    SPECIAL_TOKENS,
    WORD_CACHE_ENTRIES,
    Encoding,
    Vocabulary,
    build_vocab,
    encode,
    pre_tokenize,
    tokenize,
)
from test_tokenizer_golden import corpus as golden_corpus


class TestPreTokenize:
    def test_whitespace_split(self):
        assert pre_tokenize("aşı  oldum\tbugün") == ["aşı", "oldum", "bugün"]

    def test_punctuation_isolated(self):
        assert pre_tokenize("aşı, olmam!") == ["aşı", ",", "olmam", "!"]

    def test_nfc_normalization(self):
        # decomposed s-cedilla collapses to the single composed code point
        decomposed = "aşı"
        assert pre_tokenize(decomposed) == ["aşı"]

    def test_case_preserved(self):
        assert pre_tokenize("Aşı AŞI aşı") == ["Aşı", "AŞI", "aşı"]

    def test_empty(self):
        assert pre_tokenize("   ") == []


class TestBuildVocab:
    def test_hand_worked_merge(self):
        # 'aa' repeated: chars a/##a, then the single merge a+##a -> aa
        vocab = build_vocab(["aa aa aa"], max_size=7)
        assert vocab.tokens == ("[PAD]", "[UNK]", "[CLS]", "[SEP]", "##a", "a", "aa")

    def test_budget_stops_merges(self):
        # budget of 6 leaves room for specials + both char forms only
        vocab = build_vocab(["aa aa aa"], max_size=6)
        assert vocab.tokens == ("[PAD]", "[UNK]", "[CLS]", "[SEP]", "##a", "a")

    def test_budget_smaller_than_chars_fatal(self):
        with pytest.raises(DataValidationError, match="max_size"):
            build_vocab(["abc"], max_size=7)

    def test_min_pair_freq_stops_merges(self):
        vocab = build_vocab(["ab"], max_size=20, min_pair_freq=2)
        assert "ab" not in vocab
        vocab2 = build_vocab(["ab"], max_size=20, min_pair_freq=1)
        assert "ab" in vocab2

    @pytest.mark.parametrize("max_size, min_pair_freq, message", [
        (4, 2, "vocab_max_size must be > 4 (the special tokens), got 4"),
        (20, 0, "min_pair_freq must be >= 1, got 0"),
    ])
    def test_settings_checked_before_the_corpus(self, max_size, min_pair_freq, message):
        # An empty corpus would fail too, after them.
        with pytest.raises(DataValidationError, match=re.escape(message)):
            build_vocab([], max_size=max_size, min_pair_freq=min_pair_freq)

    def test_order_invariant(self):
        texts = ["aşı karşıyım", "aşı oldum bugün", "haberler kötü"]
        a = build_vocab(texts, max_size=60)
        b = build_vocab(list(reversed(texts)), max_size=60)
        assert a.tokens == b.tokens

    def test_empty_corpus_fatal(self):
        with pytest.raises(DataValidationError, match="empty"):
            build_vocab([], max_size=100)
        with pytest.raises(DataValidationError, match="empty"):
            build_vocab(["   "], max_size=100)

    def test_every_char_has_both_forms(self):
        vocab = build_vocab(["xyz zyx"], max_size=30)
        for c in "xyz":
            assert c in vocab and "##" + c in vocab

    def test_score_prefers_exclusive_pair(self):
        # 'ab' appears only as a pair (score 4/(4*4)); 'cd' pairs 4 times but
        # c and d also occur alone, in 'ce' and 'fd', lowering their score.
        # With equal pair frequencies the likelihood ratio picks ab first.
        texts = ["ab cd ce fd"] * 4
        vocab = build_vocab(texts, max_size=4 + 12 + 1)
        assert vocab.tokens[-1] == "ab"

    @pytest.mark.parametrize("texts, max_size, min_pair_freq, merges, stop", [
        (["aa aa aa"], 6, 2, 0, "budget"),
        (["aa aa aa"], 7, 2, 1, "budget"),
        (["ab"], 20, 1, 1, "no_pairs"),
        (["ab"], 20, 2, 0, "below_min_pair_freq"),
    ])
    def test_stats_report_merges_and_stop(self, texts, max_size, min_pair_freq, merges, stop):
        stats = {}
        build_vocab(texts, max_size, min_pair_freq, stats)
        assert stats == {"merges": merges, "stop": stop}


# Small alphabets, so that words repeat, pairs overlap (##a ##a ##a) and
# punctuation and one-character words occur.
vocab_corpora = st.sampled_from(("ab", "abc", "ab,.#", "aşı!")).flatmap(
    lambda alphabet: st.lists(st.text(alphabet=alphabet + " ", max_size=24), min_size=1, max_size=6)
)


class TestIncrementalPairCounts:
    """``build_vocab`` keeps its pair counts across merges; it must give
    exactly the tokens of the learner that recounts every pair after every
    merge (tests/tokenizer_reference.py)."""

    @settings(max_examples=200)
    @given(vocab_corpora, st.integers(0, 150), st.integers(1, 3))
    @example(["aaaa aaa aa a"], 150, 1)
    @example(["a , b . #"], 0, 1)
    @example(["abab abab ab ba"], 3, 2)
    def test_matches_recount_reference(self, texts, extra, min_pair_freq):
        # From the seed floor (no merge fits) to past exhaustion.
        chars = {c for text in texts for word in reference.pre_tokenize(text) for c in word}
        assume(chars)
        max_size = len(SPECIAL_TOKENS) + 2 * len(chars) + extra
        assert (build_vocab(texts, max_size, min_pair_freq).tokens
                == reference.build_vocab(texts, max_size, min_pair_freq))

    @pytest.mark.parametrize("min_pair_freq, size, stop", [(1, 400, "budget"),
                                                           (2, 96, "below_min_pair_freq")])
    def test_golden_texts_match_reference(self, min_pair_freq, size, stop):
        texts = golden_corpus()[0]
        stats = {}
        tokens = build_vocab(texts, 400, min_pair_freq, stats).tokens
        assert tokens == reference.build_vocab(texts, 400, min_pair_freq)
        assert (len(tokens), stats["stop"]) == (size, stop)

    def test_a_merge_rewrites_only_the_words_that_hold_its_pair(self, monkeypatch):
        # Recounting the whole corpus rewrites every distinct word at every
        # merge: 306 merges x 607 words = 185,742 calls here.
        calls = []

        def counted(*args):
            calls.append(None)
            return merge(*args)

        merge = tokenizer._merge_sequence
        monkeypatch.setattr(tokenizer, "_merge_sequence", counted)
        texts = golden_corpus()[0]
        build_vocab(texts, 400, 1)
        distinct = len({word for text in texts for word in pre_tokenize(text)})
        assert distinct == 607
        assert len(calls) < 2 * distinct


# vocab.txt lines: tokens like build_vocab's, the specials, "#" pieces,
# separators read as line ends, or any text.
VOCAB_LINES = st.one_of(
    st.sampled_from(["a", "##a", "aş", "##ş", "#", "##", "###", "", " ", "[UNK]", "\r", "\u2028", "\x85"]),
    st.text(max_size=5),
)


class TestVocabularyIO:
    def test_serialized_round_trip(self, tmp_path):
        vocab = build_vocab(["aşı haberleri çok kötü"], max_size=60)
        p = tmp_path / "vocab.txt"
        vocab.save(p)
        back = Vocabulary.load(p)
        assert back.tokens == vocab.tokens
        assert back.content_hash() == vocab.content_hash()

    def test_line_number_is_id(self, tmp_path):
        vocab = build_vocab(["ab ab"], max_size=10)
        p = tmp_path / "vocab.txt"
        vocab.save(p)
        lines = p.read_text(encoding="utf-8").splitlines()
        assert lines.index("[PAD]") == 0
        assert lines.index("a") == vocab.token_to_id["a"]

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputPathError):
            Vocabulary.load(tmp_path / "absent.txt")

    def test_bad_specials_rejected(self):
        with pytest.raises(DataValidationError, match="must start with"):
            Vocabulary(("[PAD]", "[UNK]", "[SEP]", "[CLS]", "a"))

    def test_duplicate_token_rejected(self):
        with pytest.raises(DataValidationError, match="duplicate"):
            Vocabulary(("[PAD]", "[UNK]", "[CLS]", "[SEP]", "a", "a"))

    def test_hash_changes_with_content(self):
        a = Vocabulary(("[PAD]", "[UNK]", "[CLS]", "[SEP]", "a"))
        b = Vocabulary(("[PAD]", "[UNK]", "[CLS]", "[SEP]", "b"))
        assert a.content_hash() != b.content_hash()

    @settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        head=st.sampled_from([SPECIAL_TOKENS] * 3 + [(), SPECIAL_TOKENS[:3], SPECIAL_TOKENS[::-1]]),
        lines=st.lists(VOCAB_LINES, max_size=8, unique=True) | st.lists(VOCAB_LINES, max_size=8),
        end=st.sampled_from(["", "\n", "\r\n", "\n\n"]),
        raw=st.none() | st.binary(max_size=24),
    )
    def test_any_file_loads_or_is_refused(self, tmp_path, head, lines, end, raw):
        """Whatever vocab.txt holds, Vocabulary.load returns a vocabulary
        that encodes text into its own ids and saves to a file that loads
        back the same, or raises one of the errors the CLI turns into an
        exit code. Lone surrogates make the file invalid UTF-8."""
        p = tmp_path / "vocab.txt"
        text = "\n".join([*head, *lines]) + end
        p.write_bytes(text.encode("utf-8", "surrogatepass") if raw is None else raw)
        try:
            vocab = Vocabulary.load(p)
        except (DataValidationError, InputPathError):
            return
        for sample in ["aşı ## #a [UNK] ab", " ".join(vocab.tokens), "".join(vocab.tokens)]:
            ids = encode(vocab, sample, 16).ids
            assert ids[0] == CLS_ID and ids[-1] == SEP_ID and all(0 <= i < len(vocab) for i in ids)
        again = tmp_path / "again.txt"
        vocab.save(again)
        assert Vocabulary.load(again).tokens == vocab.tokens


def toy_vocab(*extra: str) -> Vocabulary:
    return Vocabulary(("[PAD]", "[UNK]", "[CLS]", "[SEP]") + extra)


class TestEncode:
    def test_hand_worked_encode(self):
        vocab = toy_vocab("aşı", "##lar")
        enc = encode(vocab, "aşılar", max_len=8)
        assert enc.ids == (2, 4, 5, 3)
        assert padded(enc, 8) == ((2, 4, 5, 3, 0, 0, 0, 0), (1, 1, 1, 1, 0, 0, 0, 0))
        assert enc.n_real == 4

    def test_greedy_longest_match(self):
        vocab = toy_vocab("a", "##b", "ab", "##c")
        assert tokenize(vocab, "abc") == ["ab", "##c"]

    def test_unk_swallows_whole_word(self):
        vocab = toy_vocab("a", "##b")
        assert tokenize(vocab, "abq") == [UNK_TOKEN]
        assert tokenize(vocab, "ab abq ab") == ["a", "##b", UNK_TOKEN, "a", "##b"]

    def test_truncation_keeps_cls_sep(self):
        vocab = toy_vocab("a", "##a")
        enc = encode(vocab, "aaaaaaaaaa", max_len=5)
        assert enc.ids[0] == CLS_ID
        assert enc.ids[4] == SEP_ID
        assert enc.n_real == len(enc.ids) == 5
        assert padded(enc, 5)[1] == (1,) * 5

    def test_empty_text(self):
        enc = encode(toy_vocab("a"), "", max_len=4)
        assert enc.ids == (CLS_ID, SEP_ID)
        assert padded(enc, 4)[0] == (CLS_ID, SEP_ID, PAD_ID, PAD_ID)
        assert enc.n_real == 2

    def test_max_len_floor(self):
        with pytest.raises(DataValidationError):
            encode(toy_vocab("a"), "a", max_len=1)

    def test_unk_id_used_for_unknown(self):
        enc = encode(toy_vocab("z"), "q", max_len=4)
        assert enc.ids[1] == UNK_ID


# texts over a small Turkish-flavored alphabet, plus specials-free punctuation
corpus_texts = st.lists(
    st.text(alphabet="aşbcıdeğf .,!", min_size=1, max_size=30).filter(str.strip),
    min_size=1,
    max_size=12,
)


class TestEncodeProperties:
    @given(corpus_texts, st.integers(8, 24))
    def test_encode_shape_invariants(self, texts, max_len):
        vocab = build_vocab(texts, max_size=200)
        for text in texts:
            enc = encode(vocab, text, max_len)
            assert 2 <= len(enc.ids) == enc.n_real <= max_len
            assert enc.ids[0] == CLS_ID
            assert enc.ids[-1] == SEP_ID
            assert PAD_ID not in enc.ids

    @given(corpus_texts)
    def test_in_corpus_text_never_unk(self, texts):
        # every char was seeded in both forms, so greedy matching cannot fail
        vocab = build_vocab(texts, max_size=500)
        for text in texts:
            assert UNK_TOKEN not in tokenize(vocab, text)

    @given(corpus_texts)
    def test_detokenization_recovers_words(self, texts):
        vocab = build_vocab(texts, max_size=500)
        for text in texts:
            words = pre_tokenize(text)
            pieces = tokenize(vocab, text)
            rebuilt = "".join(p[2:] if p.startswith("##") else " " + p for p in pieces).split()
            assert rebuilt == words

    @given(st.text(alphabet="aşbcı ", min_size=0, max_size=40))
    def test_tokenize_handles_any_text(self, text):
        vocab = build_vocab(["aşı bcı"], max_size=40)
        pieces = tokenize(vocab, text)
        assert len(pieces) >= 0  # no crash; pieces all known or UNK
        for p in pieces:
            assert p in vocab or p == UNK_TOKEN


# A vocabulary with multi-piece words, built once; most of st.text()'s
# characters are unknown to it and become [UNK] words.
ORACLE_VOCAB = build_vocab(["aşı aşılar karşı, bcı! aşılar abc"] * 3, max_size=40)
oracle_texts = st.one_of(st.text(), st.text(alphabet="aşbcıklr ,!\t\n"))


def assert_matches_reference(vocab: Vocabulary, text: str, max_len: int) -> None:
    enc = encode(vocab, text, max_len)
    assert (*padded(enc, max_len), enc.n_real) == reference.encode(vocab.token_to_id, text, max_len)
    assert len(enc.ids) == enc.n_real


class TestReferenceOracle:
    """The regex pre-tokenizer and the early-stopping, memoised encoder
    against the loop versions they replaced (tests/tokenizer_reference.py)."""

    @given(oracle_texts)
    @example("aşı_oldum #tag @user 3.5 x² ½ Ⅻ ٣ e\u0301 \u00a0\u2028")
    def test_pre_tokenize_matches_reference(self, text):
        assert pre_tokenize(text) == reference.pre_tokenize(text)

    @given(oracle_texts)
    def test_encode_matches_reference(self, text):
        assert tokenize(ORACLE_VOCAB, text) == reference.tokenize(ORACLE_VOCAB.token_to_id, text)
        for max_len in (2, 3, 8, 64):
            assert_matches_reference(ORACLE_VOCAB, text, max_len)

    def test_cut_inside_multi_piece_word(self):
        vocab = toy_vocab("a", "##b", "##c")
        for max_len in range(2, 10):
            assert_matches_reference(vocab, "ab abc ab", max_len)
        # budget 3: a ##b | a ##b ##c -> the second word is cut after its first piece
        assert encode(vocab, "ab abc ab", max_len=5).ids == (CLS_ID, 4, 5, 4, SEP_ID)

    def test_unk_words(self):
        vocab = toy_vocab("a", "##b")
        for max_len in range(2, 8):
            assert_matches_reference(vocab, "q ab abq ✓ ab", max_len)
        assert encode(vocab, "q ab", max_len=4).ids == (CLS_ID, UNK_ID, 4, SEP_ID)

    @pytest.mark.parametrize("text", ["", " ", "  \t\n", "　 ", "\r\n\x1c"])
    def test_empty_or_whitespace_only(self, text):
        for max_len in (2, 3, 8):
            assert_matches_reference(ORACLE_VOCAB, text, max_len)
            assert encode(ORACLE_VOCAB, text, max_len).n_real == 2

    def test_every_single_code_point(self):
        mismatches = [
            c for c in range(0x110000)
            if not 0xD800 <= c <= 0xDFFF and pre_tokenize(chr(c)) != reference.pre_tokenize(chr(c))
        ]
        assert mismatches == []


# Every character str.isspace() takes for whitespace, then punctuation, "_",
# digits and other numerics, combining marks (the cedilla composes with s
# and c under NFC) and letters.
WHITESPACE = "".join(c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace())
chunk_texts = st.text(
    alphabet=WHITESPACE + ".,!?#@'\"-…" + "_" + "0123٣²½Ⅻ" + "\u0301\u0308\u0327" + "aşsçcıbIİé",
    max_size=60,
)


class TestChunking:
    """``encode`` and ``tokenize`` cut the text at whitespace and memoise each
    chunk; the cut must not move a pre-token boundary."""

    def test_every_code_point_alone_and_between_letters(self, monkeypatch):
        # The reference encodes each text three times; it tokenizes it once.
        tokenize_once, last = reference.tokenize, {}

        def memo(token_to_id, text):
            if text not in last:
                last.clear()
                last[text] = tokenize_once(token_to_id, text)
            return last[text]

        monkeypatch.setattr(reference, "tokenize", memo)
        vocab, token_to_id = ORACLE_VOCAB, ORACLE_VOCAB.token_to_id
        mismatches = []
        for c in range(sys.maxunicode + 1):
            if 0xD800 <= c <= 0xDFFF:
                continue
            ch = chr(c)
            for text in (ch, "a" + ch + "b", "a" + ch * 2 + "b"):
                for max_len in (2, 3, 8):
                    ids, _, n_real = reference.encode(token_to_id, text, max_len)
                    if encode(vocab, text, max_len).ids != ids[:n_real]:
                        mismatches.append((hex(c), text, max_len))
        assert mismatches == []

    @settings(max_examples=300)
    @given(chunk_texts, st.integers(2, 64))
    @example("a\tb\u00a0c\u3000d\x1ce", 3)
    @example("a,b a_b 3.5 e\u0301", 64)
    def test_encode_matches_reference(self, text, max_len):
        assert tokenize(ORACLE_VOCAB, text) == reference.tokenize(ORACLE_VOCAB.token_to_id, text)
        assert_matches_reference(ORACLE_VOCAB, text, max_len)


def digit_vocab() -> Vocabulary:
    return toy_vocab("w", "w1", *("##" + d for d in "0123456789"))


class TestWordMemo:
    def test_memo_stays_bounded_and_exact(self):
        vocab = digit_vocab()
        words = [f"w{i}" for i in range(WORD_CACHE_ENTRIES + 100)]
        for i in range(0, len(words), 500):
            tokenize(vocab, " ".join(words[i:i + 500]))
        info = vocab.word_ids.cache_info()
        assert info.misses == len(words)
        assert info.currsize <= WORD_CACHE_ENTRIES
        # the earliest words were evicted; they and the latest still encode exactly
        for text in (" ".join(words[:40]), " ".join(words[-40:])):
            assert tokenize(vocab, text) == reference.tokenize(vocab.token_to_id, text)
            for max_len in (2, 3, 8, 64):
                assert_matches_reference(vocab, text, max_len)

    def test_memo_takes_no_part_in_equality(self):
        warm, cold = toy_vocab("a", "##b"), toy_vocab("a", "##b")
        encode(warm, "ab ab q", max_len=8)
        assert warm.word_ids.cache_info().currsize == 2
        assert warm == cold and hash(warm) == hash(cold)
        assert warm.content_hash() == cold.content_hash()
        assert warm != toy_vocab("a", "##c")

    # Chunks of three words each, so that no chunk is a word, separated by
    # each whitespace character in turn.
    def chunks(self, n: int) -> list[str]:
        return [f"w{i},w{i + 1}" for i in range(n)]

    def joined(self, chunks: list[str]) -> str:
        return "".join(c + WHITESPACE[i % len(WHITESPACE)] for i, c in enumerate(chunks))

    def test_chunk_memo_stays_bounded_and_exact(self):
        vocab = digit_vocab()
        chunks = self.chunks(WORD_CACHE_ENTRIES + 100)
        for i in range(0, len(chunks), 500):
            tokenize(vocab, self.joined(chunks[i:i + 500]))
        info = vocab.chunk_ids.cache_info()
        # one miss per chunk: every whitespace character cuts
        assert info.misses == len(chunks)
        assert info.currsize <= WORD_CACHE_ENTRIES
        # the earliest chunks were evicted; they and the latest still encode exactly
        for text in (self.joined(chunks[:40]), self.joined(chunks[-40:])):
            assert tokenize(vocab, text) == reference.tokenize(vocab.token_to_id, text)
            for max_len in (2, 3, 8, 64):
                assert_matches_reference(vocab, text, max_len)

    def test_encode_looks_up_only_the_chunks_it_needs(self):
        vocab = digit_vocab()
        # four pieces a chunk (w, ##0, [UNK], w1): the budget of 6 is passed after two
        encode(vocab, self.joined(self.chunks(50)), max_len=8)
        assert vocab.chunk_ids.cache_info().misses == 2

    def test_chunk_memo_takes_no_part_in_equality(self):
        warm, cold = toy_vocab("a", "##b"), toy_vocab("a", "##b")
        encode(warm, "ab,ab\tq ab,ab", max_len=8)
        assert warm.chunk_ids.cache_info().currsize == 2
        assert warm == cold and hash(warm) == hash(cold)
        assert warm.content_hash() == cold.content_hash()
        assert warm != toy_vocab("a", "##c")


# Letters ORACLE_VOCAB knows in both forms ("a" and "ı" twice, for its
# longer pieces) and "z", which it does not know: a long word of them is
# [UNK] as a whole if a "z" falls anywhere in it.
long_words = st.text(alphabet="aşbcıklr" + "aız", min_size=MEMO_MAX_CHARS + 1, max_size=160)


class TestLongWords:
    """Long words and chunks: matched in linear time, outside the memos, and
    by ``encode`` only up to its budget, with the reference's ids."""

    @settings(max_examples=150)
    @given(long_words, st.sampled_from(["", " ab", ",", "!k,"]))
    @example("aşı" * 40, "")
    @example("aşı" * 40 + "z", "")
    @example("z" + "aşı" * 40, "")
    @example("ab" * 30, ",ab" * 20)
    def test_matches_reference(self, word, tail):
        for text in (word, word + tail, tail + word, f"ab {word}{tail} ab"):
            assert tokenize(ORACLE_VOCAB, text) == reference.tokenize(ORACLE_VOCAB.token_to_id, text)
            for max_len in (2, 3, 8, 64):
                assert_matches_reference(ORACLE_VOCAB, text, max_len)

    def test_piece_missing_only_where_the_match_never_stops(self):
        # "##b" is missing, but every b follows an a and "ab" is a piece
        vocab = toy_vocab("a", "##a", "ab", "##ab")
        for text in ("ab" * 40, "ab" * 40 + "b"):
            for max_len in (2, 3, 8, 64):
                assert_matches_reference(vocab, text, max_len)
        assert encode(vocab, "ab" * 40, max_len=5).ids == (CLS_ID, 6, 7, 7, SEP_ID)
        assert encode(vocab, "ab" * 40 + "b", max_len=5).ids == (CLS_ID, UNK_ID, SEP_ID)

    @pytest.mark.parametrize("chunk", ["ab" * 30, "ab," * 20])
    def test_long_chunk_leaves_the_memos_alone(self, chunk):
        vocab = toy_vocab("a", "##b", ",")
        encode(vocab, "ab , ab", max_len=64)  # the short chunks around the long one
        before = (vocab.chunk_ids.cache_info().currsize, vocab.word_ids.cache_info().currsize)
        for max_len in (3, 64):
            encode(vocab, f"ab {chunk} ab", max_len)
        tokenize(vocab, chunk)
        assert (vocab.chunk_ids.cache_info().currsize, vocab.word_ids.cache_info().currsize) == before

    def test_very_long_word(self):
        vocab = toy_vocab("a", "##a")
        word = "a" * 20_000
        assert encode(vocab, word, max_len=64).ids == (CLS_ID, 4) + (5,) * 61 + (SEP_ID,)
        assert encode(vocab, word + "q", max_len=64).ids == (CLS_ID, UNK_ID, SEP_ID)
        assert tokenize(vocab, word) == ["a"] + ["##a"] * 19_999
