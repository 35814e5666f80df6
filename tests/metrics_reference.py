"""Independent loop reference for the evaluation scores.

No imports from the package. These are the per-example confusion count,
the per-class precision/recall/F1 and the block-by-block ROC sweep that the
array implementation replaced, kept as an oracle: the package must return
exactly equal counts, scores, curve points and areas. numpy is used only
where the replaced code used it (argsort for the sweep order, mean and dot
for the macro and weighted F1), so the reference makes the same float
operations in the same order. Slow on purpose; used only on small inputs.

Results are plain tuples: `confusion` returns the 4x4 counts as nested
lists, `prf` a dict with the package's field names, `roc_points` the
(fprs, tprs) pair. Invalid input raises ValueError with the package's
message.
"""

import numpy as np

N_CLASSES = 4


def confusion(preds, golds):
    """counts[gold][predicted] over the 4 categories."""
    if len(preds) != len(golds):
        raise ValueError(f"got {len(preds)} predictions for {len(golds)} gold labels")
    if len(preds) == 0:
        raise ValueError("cannot build a confusion matrix from zero examples")
    counts = [[0] * N_CLASSES for _ in range(N_CLASSES)]
    for p, g in zip(preds, golds):
        if not (0 <= p < N_CLASSES and 0 <= g < N_CLASSES):
            raise ValueError(f"label out of range: pred={p} gold={g}")
        counts[g][p] += 1
    return counts


def _safe_div(num, den):
    return num / den if den > 0 else 0.0


def prf(counts):
    """Per-class precision/recall/F1 plus macro, support-weighted, accuracy."""
    counts = np.asarray(counts, dtype=np.int64)
    tp = np.diag(counts).astype(np.float64)
    support = counts.sum(axis=1).astype(np.float64)
    predicted = counts.sum(axis=0).astype(np.float64)
    precision = [_safe_div(tp[c], predicted[c]) for c in range(N_CLASSES)]
    recall = [_safe_div(tp[c], support[c]) for c in range(N_CLASSES)]
    f1 = [_safe_div(2 * p * r, p + r) for p, r in zip(precision, recall)]
    total = counts.sum()
    return {
        "precision": tuple(precision),
        "recall": tuple(recall),
        "f1": tuple(f1),
        "macro_f1": float(np.mean(f1)),
        "weighted_f1": float(np.dot(f1, support) / total),
        "accuracy": float(tp.sum() / total),
    }


def roc_points(scores, binary_golds):
    """Threshold sweep over distinct scores descending, tied scores as one block.
    The golds must hold both classes."""
    s = np.asarray(scores, dtype=np.float64)
    y = [int(g) for g in binary_golds]
    n_pos = sum(y)
    n_neg = len(y) - n_pos
    order = np.argsort(-s, kind="stable")
    fprs = [0.0]
    tprs = [0.0]
    tp = 0
    fp = 0
    i = 0
    while i < len(order):
        j = i
        t = s[order[i]]
        while j < len(order) and s[order[j]] == t:
            j += 1
        block_pos = sum(y[k] for k in order[i:j])
        tp += block_pos
        fp += (j - i) - block_pos
        fprs.append(fp / n_neg)
        tprs.append(tp / n_pos)
        i = j
    return tuple(fprs), tuple(tprs)


def auc(fprs, tprs):
    """Trapezoidal area, accumulated left to right."""
    area = 0.0
    for k in range(1, len(fprs)):
        dx = fprs[k] - fprs[k - 1]
        area += dx * (tprs[k] + tprs[k - 1]) / 2.0
    return area
