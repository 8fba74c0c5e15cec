"""The global-negative tile at every feature width from 1 to 300.

``_add_squares`` takes a different path for fewer than 8 terms, for 8 to
128 and above 128, and within the middle path for each remainder modulo 8.
The property test in ``test_tile_distances.py`` samples widths; this one
walks all of them, over several anchor blocks with an uneven last block, a
target count that is not a multiple of 8, scales from 1e-3 to 1e3, and
anchors that sit on a target (distance 0).
"""

from __future__ import annotations

import numpy as np

from hireg.training import _TILE_SLOTS, _TileSets

SCALES = (1e-3, 1e-1, 1.0, 1e1, 1e3)


def test_every_width_has_the_bits_of_norm():
    rng = np.random.default_rng(24)
    n_anchor, n_tgt = 2 * _TILE_SLOTS + 3, 43
    every = np.arange(n_tgt)
    for dim in range(1, 301):
        scale = SCALES[dim % len(SCALES)]
        f_anchor = rng.normal(size=(n_anchor, dim)) * scale
        f_tgt = rng.normal(size=(n_tgt, dim)) * scale
        f_anchor[[0, _TILE_SLOTS, n_anchor - 1]] = f_tgt[[5, 0, n_tgt - 1]]
        tile = _TileSets.of([every] * n_anchor, n_tgt).distances(f_anchor, f_tgt)
        assert tile.shape == (n_anchor, n_tgt)
        assert tile[0, 5] == tile[_TILE_SLOTS, 0] == tile[-1, -1] == 0.0
        for s in range(n_anchor):
            assert np.array_equal(tile[s], np.linalg.norm(f_anchor[s] - f_tgt, axis=1)), (dim, s)
