"""Independent loop reference for pre-tokenization and encoding.

Plain Python only: no imports from the package. These are the per-character
pre-tokenizer and the tokenize-every-word-then-truncate encoder that the
regex pre-tokenizer and the early-stopping, memoised encoder replaced, and
the vocabulary learner that recounts every pair after every merge, which
the incremental pair counts replaced, kept as an oracle: the package must
return exactly equal words, ids, masks, real lengths and vocabularies.
Slow on purpose.

A vocabulary is given as its token-to-id mapping; the special ids are the
package's fixed 0..3.
"""

import unicodedata

PAD_ID, UNK_ID, CLS_ID, SEP_ID = 0, 1, 2, 3
UNK_TOKEN = "[UNK]"


def pre_tokenize(text):
    text = unicodedata.normalize("NFC", text)
    words = []
    buf = []
    for ch in text:
        if ch.isspace():
            if buf:
                words.append("".join(buf))
                buf = []
        elif not ch.isalnum():
            if buf:
                words.append("".join(buf))
                buf = []
            words.append(ch)
        else:
            buf.append(ch)
    if buf:
        words.append("".join(buf))
    return words


def greedy_pieces(token_to_id, word):
    pieces = []
    start = 0
    while start < len(word):
        end = len(word)
        found = None
        while start < end:
            cand = word[start:end]
            if start > 0:
                cand = "##" + cand
            if cand in token_to_id:
                found = cand
                break
            end -= 1
        if found is None:
            return [UNK_TOKEN]
        pieces.append(found)
        start = end
    return pieces


def tokenize(token_to_id, text):
    pieces = []
    for word in pre_tokenize(text):
        pieces.extend(greedy_pieces(token_to_id, word))
    return pieces


def encode(token_to_id, text, max_len):
    """(ids, mask, n_real) as tuples of ints, like the package's Encoding."""
    piece_ids = [token_to_id[p] for p in tokenize(token_to_id, text)]
    piece_ids = piece_ids[: max_len - 2]
    ids = [CLS_ID] + piece_ids + [SEP_ID]
    n_real = len(ids)
    ids.extend([PAD_ID] * (max_len - n_real))
    mask = [1] * n_real + [0] * (max_len - n_real)
    return tuple(ids), tuple(mask), n_real



def merge_sequence(seq, pair, merged):
    out = []
    i = 0
    while i < len(seq):
        if i + 1 < len(seq) and seq[i] == pair[0] and seq[i + 1] == pair[1]:
            out.append(merged)
            i += 2
        else:
            out.append(seq[i])
            i += 1
    return out


def build_vocab(texts, max_size, min_pair_freq):
    """The tokens, as a tuple, of the learner that recounts every pair of
    every word after every merge, for valid settings and a non-empty corpus.

    Start from every character in plain and "##" form after the specials;
    while the budget allows, merge the pair with the least
    (-freq(ab) / (freq(a) * freq(b)), a, b) in every word, left to right,
    unless it occurs fewer than min_pair_freq times. A merged token already
    present is not added again.
    """
    word_freq = {}
    for text in texts:
        for word in pre_tokenize(text):
            word_freq[word] = word_freq.get(word, 0) + 1
    chars = sorted({c for word in word_freq for c in word})
    tokens = ["[PAD]", UNK_TOKEN, "[CLS]", "[SEP]"] + sorted(set(chars) | {"##" + c for c in chars})
    seqs = {word: [word[0]] + ["##" + c for c in word[1:]] for word in word_freq}
    while len(tokens) < max_size:
        sym_freq = {}
        pair_freq = {}
        for word, f in word_freq.items():
            seq = seqs[word]
            for s in seq:
                sym_freq[s] = sym_freq.get(s, 0) + f
            for i in range(len(seq) - 1):
                pair = (seq[i], seq[i + 1])
                pair_freq[pair] = pair_freq.get(pair, 0) + f
        if not pair_freq:
            break
        best = None
        for pair, n in pair_freq.items():
            rank = (-(n / (sym_freq[pair[0]] * sym_freq[pair[1]])), pair[0], pair[1])
            if best is None or rank < best[0]:
                best = (rank, pair)
        pair = best[1]
        if pair_freq[pair] < min_pair_freq:
            break
        merged = pair[0] + pair[1][2:]
        if merged not in tokens:
            tokens.append(merged)
        seqs = {word: merge_sequence(seq, pair, merged) for word, seq in seqs.items()}
    return tuple(tokens)
