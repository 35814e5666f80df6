"""The property of the BLAS library that the encoder's 8-row tiles rely on.

``encoder._rows`` computes ``x @ w`` as a stack of BUCKET-row products, and
numpy calls BLAS once per tile. A row's logits then stay the same bytes
whatever batch it is in only if the library gives a row the same bytes
whichever tile it is in and wherever it sits in that tile. This holds for
the OpenBLAS kernels the suite is run with; these tests check it for every
row-wise product shape of the default model (d_model 128, d_ff 512), the
forward's and the backward's, whose weights come transposed. A failure
names the product, so a run on another BLAS library shows which shape
rounds by position.
"""

import numpy as np
import pytest

from stancewatch.encoder import BUCKET, _rows

D_MODEL, D_FF = 128, 512

# (product, rows' width k, output width m, weight stored transposed)
PRODUCTS = [
    pytest.param("forward q/k/v/out projection (8,128)@(128,128)", D_MODEL, D_MODEL, False, id="fwd-128x128"),
    pytest.param("forward FFN up-projection (8,128)@(128,512)", D_MODEL, D_FF, False, id="fwd-128x512"),
    pytest.param("forward FFN down-projection (8,512)@(512,128)", D_FF, D_MODEL, False, id="fwd-512x128"),
    pytest.param("backward projection (8,128)@(128,128).T", D_MODEL, D_MODEL, True, id="bwd-128x128T"),
    pytest.param("backward FFN down-projection (8,128)@(512,128).T", D_MODEL, D_FF, True, id="bwd-128x512T"),
    pytest.param("backward FFN up-projection (8,512)@(128,512).T", D_FF, D_MODEL, True, id="bwd-512x128T"),
]


@pytest.mark.parametrize("product, k, m, transposed", PRODUCTS)
def test_row_bytes_do_not_depend_on_tile_or_position(product, k, m, transposed):
    rng = np.random.default_rng(k * 1000 + m)
    w = rng.normal(size=(m, k)).T if transposed else rng.normal(size=(k, m))
    assert w.flags.f_contiguous == transposed
    x = rng.normal(size=(8 * BUCKET, k))
    base = _rows(x, w)
    for shift in range(1, 2 * BUCKET + 1):
        moved = np.roll(_rows(np.roll(x, shift, axis=0), w), -shift, axis=0)
        rows = np.flatnonzero((moved != base).any(axis=1))
        assert not rows.size, f"{product}: row {rows[0]} changes bytes when moved {shift} rows on"
    for tiles in (1, 2, 3):
        alone = _rows(x[: tiles * BUCKET], w)
        assert alone.tobytes() == base[: tiles * BUCKET].tobytes(), (
            f"{product}: rows change bytes in a stack of {tiles} tile(s) instead of 8"
        )
