"""The property of the BLAS library that the encoder's 8-row tiles rely on.

``encoder._rows`` computes ``x @ w`` as a stack of BUCKET-row products, and
numpy calls BLAS once per tile. A row's logits then stay the same bytes
whatever batch it is in only if the library gives a row the same bytes
whichever tile it is in and wherever it sits in that tile. This holds for
the OpenBLAS kernels the suite is run with; these tests check it for every
row-wise product shape of the default model (d_model 128, d_ff 512), the
forward's and the backward's, whose weights come transposed, in float64,
the dtype training runs in, and in float32, the dtype inference runs in
(sgemm is a kernel of its own). They check the forward shapes of the small
model that ``perfbench``'s timeline-scale workload runs (d_model 8, d_ff
32) in both dtypes too. A failure names the product, so a run on another
BLAS library shows which shape rounds by position.
"""

import numpy as np
import pytest

from stancewatch.encoder import BUCKET, _rows

D_MODEL, D_FF = 128, 512
SMALL_D_MODEL, SMALL_D_FF = 8, 32

# (product, id, rows' width k, output width m, weight stored transposed)
SHAPES = [
    ("forward q/k/v/out projection (8,128)@(128,128)", "fwd-128x128", D_MODEL, D_MODEL, False),
    ("forward FFN up-projection (8,128)@(128,512)", "fwd-128x512", D_MODEL, D_FF, False),
    ("forward FFN down-projection (8,512)@(512,128)", "fwd-512x128", D_FF, D_MODEL, False),
    ("backward projection (8,128)@(128,128).T", "bwd-128x128T", D_MODEL, D_MODEL, True),
    ("backward FFN down-projection (8,128)@(512,128).T", "bwd-128x512T", D_MODEL, D_FF, True),
    ("backward FFN up-projection (8,512)@(128,512).T", "bwd-512x128T", D_FF, D_MODEL, True),
    ("small model's projection (8,8)@(8,8)", "fwd-8x8", SMALL_D_MODEL, SMALL_D_MODEL, False),
    ("small model's FFN up-projection (8,8)@(8,32)", "fwd-8x32", SMALL_D_MODEL, SMALL_D_FF, False),
    ("small model's FFN down-projection (8,32)@(32,8)", "fwd-32x8", SMALL_D_FF, SMALL_D_MODEL, False),
]

# float64 keeps the bare id; float32 adds "-f32".
PRODUCTS = [
    pytest.param(f"{product} in {np.dtype(dtype).name}", k, m, transposed, dtype, id=name + suffix)
    for dtype, suffix in ((np.float64, ""), (np.float32, "-f32"))
    for product, name, k, m, transposed in SHAPES
]


@pytest.mark.parametrize("product, k, m, transposed, dtype", PRODUCTS)
def test_row_bytes_do_not_depend_on_tile_or_position(product, k, m, transposed, dtype):
    rng = np.random.default_rng(k * 1000 + m)
    w = rng.normal(size=(m, k)).astype(dtype).T if transposed else rng.normal(size=(k, m)).astype(dtype)
    assert w.flags.f_contiguous == transposed
    x = rng.normal(size=(8 * BUCKET, k)).astype(dtype)
    base = _rows(x, w)
    assert base.dtype == dtype
    for shift in range(1, 2 * BUCKET + 1):
        moved = np.roll(_rows(np.roll(x, shift, axis=0), w), -shift, axis=0)
        rows = np.flatnonzero((moved != base).any(axis=1))
        assert not rows.size, f"{product}: row {rows[0]} changes bytes when moved {shift} rows on"
    for tiles in (1, 2, 3):
        alone = _rows(x[: tiles * BUCKET], w)
        assert alone.tobytes() == base[: tiles * BUCKET].tobytes(), (
            f"{product}: rows change bytes in a stack of {tiles} tile(s) instead of 8"
        )
