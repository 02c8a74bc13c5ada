"""Pair layer: neighbour search under a cutoff and bonded-exclusion masks.

An unordered atom pair (i, j) with i < j < n is encoded as the int64 code
i*n + j, so sorting by code lists pairs in row-major upper-triangle order,
the order ``np.triu_indices(n, k=1)`` produces.  Callers keep that order, so
every sum and every first-argmin over pairs runs exactly as over the dense
upper triangle.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

# Widens the neighbour-search radius so that rounding in the tree's own
# distance arithmetic cannot drop a pair the caller's strict test would keep.
_RADIUS_SLACK = 1e-9


def exclusion_codes(exclusions, n: int) -> np.ndarray:
    """Sorted int64 codes of the exclusion pairs (i, j) with 0 <= i < j < n.

    Entries outside that range (reversed, out-of-range or non-integer
    indices) are dropped: they name no pair of the upper triangle, so they
    exclude nothing.
    """
    if not exclusions:
        return np.zeros(0, dtype=np.int64)
    ij = np.array(list(exclusions), dtype=float).reshape(-1, 2)
    i, j = ij[:, 0], ij[:, 1]
    keep = (0 <= i) & (i < j) & (j < n) & (i == np.floor(i)) & (j == np.floor(j))
    return np.unique(i[keep].astype(np.int64) * n + j[keep].astype(np.int64))


def not_excluded(ii, jj, n: int, exclusions) -> np.ndarray:
    """Boolean mask over the pairs (ii[k], jj[k]): True where not excluded."""
    return not_in_codes(ii, jj, n, exclusion_codes(exclusions, n))


def not_in_codes(ii, jj, n: int, codes: np.ndarray) -> np.ndarray:
    """Boolean mask over the pairs (ii[k], jj[k]): True where the pair's code
    is not in ``codes``, as built once by :func:`exclusion_codes`."""
    return np.isin(np.asarray(ii, dtype=np.int64) * n + jj, codes, invert=True)


def cutoff_pairs(positions, max_cutoff: float):
    """Pairs i < j that may lie closer than ``max_cutoff``, in upper-triangle order.

    Returns (ii, jj, dist).  The neighbour search keeps every pair within
    ``max_cutoff * (1 + 1e-9)``, a superset of the pairs strictly closer than
    any per-pair cutoff up to ``max_cutoff``; callers apply their own strict
    test to ``dist``.  Distances use the per-pair formula
    ``sqrt(((p_i - p_j)**2).sum())``, bit-identical to a dense n x n block.
    """
    positions = np.asarray(positions, dtype=float)
    n = positions.shape[0]
    radius = max_cutoff * (1.0 + _RADIUS_SLACK)
    if n < 2 or not radius >= 0.0:
        empty = np.zeros(0, dtype=np.intp)
        return empty, empty, np.zeros(0)
    found = cKDTree(positions).query_pairs(radius, output_type="ndarray")
    found = found[np.argsort(found[:, 0].astype(np.int64) * n + found[:, 1])]
    ii, jj = found[:, 0], found[:, 1]
    dist = np.sqrt(((positions[ii] - positions[jj]) ** 2).sum(axis=1))
    return ii, jj, dist
