"""The global-negative tile, filled column by column.

``_TileSets.distances`` adds the squared feature differences one column at
a time over a block of anchors, in the order numpy's pairwise sum takes over
one row. Every cell must have the bits of ``np.linalg.norm(f_anchor[s] -
f_tgt, axis=1)`` in each of the three regimes of that sum: fewer than 8
columns, 8 to 128, and more than 128. Each block checks its own sets.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hireg.errors import ValidationError
from hireg.training import _TILE_SLOTS, _TileSets

WIDTHS = {"below-8": (1, 7), "8-accumulators": (8, 128), "halves": (129, 300)}


@st.composite
def feature_pairs(draw, low: int, high: int):
    """Anchor and target features of one width; some anchors may sit on a
    target (distance 0), and scales range over six orders of magnitude."""
    dim = draw(st.integers(low, high))
    n_anchor = draw(st.integers(1, 3 * _TILE_SLOTS))
    n_tgt = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    f_anchor = rng.normal(size=(n_anchor, dim)) * scale
    f_tgt = rng.normal(size=(n_tgt, dim)) * scale
    for s in draw(st.lists(st.integers(0, n_anchor - 1), max_size=3)):
        f_anchor[s] = f_tgt[rng.integers(n_tgt)]
    return f_anchor, f_tgt


@pytest.mark.parametrize("low, high", WIDTHS.values(), ids=WIDTHS)
@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_cells_have_the_bits_of_norm(low, high, data):
    f_anchor, f_tgt = data.draw(feature_pairs(low, high))
    every = np.arange(len(f_tgt))
    tile = _TileSets.of([every] * len(f_anchor), len(f_tgt)).distances(f_anchor, f_tgt)
    assert tile.shape == (len(f_anchor), len(f_tgt))
    for s in range(len(f_anchor)):
        assert np.array_equal(tile[s], np.linalg.norm(f_anchor[s] - f_tgt, axis=1)), s


@pytest.mark.parametrize("bad", [-1, 40, -41])
def test_each_block_checks_its_sets(bad):
    """``of`` takes any index; the block holding the bad one rejects it."""
    rng = np.random.default_rng(3)
    f_anchor, f_tgt = rng.normal(size=(2 * _TILE_SLOTS + 1, 5)), rng.normal(size=(40, 5))
    sets = [np.arange(40)] * len(f_anchor)
    sets[-1] = np.array([0, bad, 39])
    tiles = _TileSets.of(sets, 40)
    with pytest.raises(ValidationError, match=r"sample indices must lie in \[0, 40\)"):
        tiles.distances(f_anchor, f_tgt)
