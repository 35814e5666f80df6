"""Independent loop reference for pre-tokenization and encoding.

Plain Python only: no imports from the package. These are the per-character
pre-tokenizer and the tokenize-every-word-then-truncate encoder that the
regex pre-tokenizer and the early-stopping, memoised encoder replaced, kept
as an oracle: the package must return exactly equal words, ids, masks and
real lengths. Slow on purpose.

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
