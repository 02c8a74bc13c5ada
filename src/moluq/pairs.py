"""Pair layer: neighbour search under a cutoff and bonded-exclusion masks.

An unordered atom pair (i, j) with i < j < n is encoded as the int64 code
i*n + j, so sorting by code lists pairs in row-major upper-triangle order,
the order ``np.triu_indices(n, k=1)`` produces.  Callers keep that order, so
every sum and every first-argmin over pairs runs exactly as over the dense
upper triangle.
"""

from __future__ import annotations

import itertools

import numpy as np

# Widens the neighbour-search radius, so that a per-pair cutoff at the
# largest one keeps every pair the caller's strict test keeps.
_RADIUS_SLACK = 1e-9

# Cells are this much wider than the search radius: two atoms within the
# radius along an axis then land in the same or adjacent cells even after the
# rounding of (p - lo) / side, which is below 1e-11 cell widths when a box
# spans at most 2**16 cells.
_CELL_MARGIN = 1.0 + 1e-6

# The self cell and the 13 neighbour cells that come after it in (x, y, z)
# order: each unordered pair of adjacent cells is searched once.
_FORWARD_OFFSETS = [o for o in itertools.product((-1, 0, 1), repeat=3) if o >= (0, 0, 0)]


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

    Returns (ii, jj, dist): every pair within ``max_cutoff * (1 + 1e-9)``, a
    superset of the pairs strictly closer than any per-pair cutoff up to
    ``max_cutoff``; callers apply their own strict test to ``dist``.
    Distances use the per-pair formula ``sqrt(((p_i - p_j)**2).sum())``,
    bit-identical to a dense n x n block.  Non-finite positions raise
    ``ValueError``.

    The search is a cell list: cubic cells of side max(radius, span / 2**16)
    (the floor keeps int64 cell keys small on wide, sparse inputs), atoms
    sorted by cell key, and each cell's candidates found by ``searchsorted``
    in itself and its 13 forward neighbours.
    """
    positions = np.asarray(positions, dtype=float)
    n = positions.shape[0]
    radius = max_cutoff * (1.0 + _RADIUS_SLACK)
    if n < 2 or not radius >= 0.0:
        empty = np.zeros(0, dtype=np.intp)
        return empty, empty, np.zeros(0)
    if not np.isfinite(positions).all():
        raise ValueError("positions must be finite, check for nan or inf values")
    lo = positions.min(axis=0)
    span = float((positions.max(axis=0) - lo).max())
    # a zero side (radius 0, every atom at one point) may be any positive one
    side = max(radius, span / 2**16) * _CELL_MARGIN or 1.0
    # cell coordinates start at 1, so a neighbour offset of -1 never wraps
    cell = np.floor((positions - lo) / side).astype(np.int64) + 1
    dims = cell.max(axis=0) + 2
    key = (cell[:, 0] * dims[1] + cell[:, 1]) * dims[2] + cell[:, 2]
    order = np.argsort(key, kind="stable")
    key = key[order]
    xs, ys, zs = positions[order].T.copy()
    slots = np.arange(n)
    found_i, found_j = [], []
    for dx, dy, dz in _FORWARD_OFFSETS:
        offset = (dx * dims[1] + dy) * dims[2] + dz
        # each sorted slot s pairs with the slots [first[s], last[s])
        last = np.searchsorted(key, key + offset, side="right")
        first = slots + 1 if offset == 0 else np.searchsorted(key, key + offset, side="left")
        count = np.maximum(last - first, 0)
        slot_j = np.repeat(first - np.cumsum(count) + count, count) + np.arange(count.sum())
        # (dx**2 + dy**2) + dz**2 is the order of the final .sum(axis=1)
        d2 = ((np.repeat(xs, count) - xs[slot_j]) ** 2 + (np.repeat(ys, count) - ys[slot_j]) ** 2
              + (np.repeat(zs, count) - zs[slot_j]) ** 2)
        near = np.sqrt(d2) <= radius
        found_i.append(order[np.repeat(slots, count)[near]])
        found_j.append(order[slot_j[near]])
    i, j = np.concatenate(found_i), np.concatenate(found_j)
    ii, jj = np.minimum(i, j), np.maximum(i, j)
    by_code = np.argsort(ii.astype(np.int64) * n + jj)
    ii, jj = ii[by_code], jj[by_code]
    dist = np.sqrt(((positions[ii] - positions[jj]) ** 2).sum(axis=1))
    return ii, jj, dist
