"""Pair layer: neighbour search under a cutoff, bonded-exclusion masks and
all-pairs sums in bounded memory.

An unordered atom pair (i, j) with i < j < n is encoded as the int64 code
i*n + j, so sorting by code lists pairs in row-major upper-triangle order,
the order ``np.triu_indices(n, k=1)`` produces.  Callers keep that order, so
every sum and every first-argmin over pairs runs exactly as over the dense
upper triangle.  :func:`tree_sum` adds a sequence of terms with the bits of
one ``np.sum`` while building only a bounded range of it at a time.
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

# numpy sums a contiguous float64 array pairwise (Higham 1993): a range of
# m > 128 values splits at m//2 - (m//2) % 8 and the sums of the two halves
# are added.  tree_sum splits the same way down to ranges of at most this
# many values (256 KiB of float64) and sums each with np.sum.
_TREE_LEAF = 2**15

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
    ``ValueError``.  The one-draw case of :func:`stack_cutoff_pairs`.
    """
    positions = np.asarray(positions, dtype=float)
    _starts, ii, jj, dist = stack_cutoff_pairs(positions[None], max_cutoff)
    return ii, jj, dist


def stack_cutoff_pairs(stack, max_cutoff: float):
    """:func:`cutoff_pairs` of each draw of an (m, n, 3) stack, in one search.

    Returns (starts, ii, jj, dist): draw k's pairs are the entries
    starts[k]:starts[k + 1], with ii, jj its atom indices; each draw's
    slice equals ``cutoff_pairs(stack[k], max_cutoff)`` bit for bit, because
    a pair is kept exactly when its own distance is within the radius,
    whatever cells the atoms land in.

    The search is a cell list: cubic cells of side max(radius, span / 2**16)
    (the floor keeps int64 cell keys small on wide, sparse inputs; span is
    the widest draw's), each draw's cells counted from its own lower corner,
    atoms sorted by (draw, cell) key, and each cell's candidates found by
    ``searchsorted`` in itself and its 13 forward neighbours.  The draw is
    the key's leading digit and no neighbour offset leaves a draw's own
    cells, so no two draws pair.  Callers bound m * n: the key holds
    m * (2**16 + 3)**3 values at most.
    """
    stack = np.asarray(stack, dtype=float)
    m, n = stack.shape[:2]
    radius = max_cutoff * (1.0 + _RADIUS_SLACK)
    if m == 0 or n < 2 or not radius >= 0.0:
        empty = np.zeros(0, dtype=np.intp)
        return np.zeros(m + 1, dtype=np.intp), empty, empty, np.zeros(0)
    if not np.isfinite(stack).all():
        raise ValueError("positions must be finite, check for nan or inf values")
    lo = stack.min(axis=1, keepdims=True)
    span = float((stack.max(axis=1, keepdims=True) - lo).max())
    # a zero side (radius 0, every atom at one point) may be any positive one
    side = max(radius, span / 2**16) * _CELL_MARGIN or 1.0
    # cell coordinates start at 1, so a neighbour offset of -1 never wraps
    cell = (np.floor((stack - lo) / side).astype(np.int64) + 1).reshape(-1, 3)
    dims = cell.max(axis=0) + 2
    draw = np.repeat(np.arange(m, dtype=np.int64), n)
    key = ((draw * dims[0] + cell[:, 0]) * dims[1] + cell[:, 1]) * dims[2] + cell[:, 2]
    order = np.argsort(key, kind="stable")
    key = key[order]
    xs, ys, zs = stack.reshape(-1, 3)[order].T.copy()
    slots = np.arange(m * n)
    found_i, found_j, found_d = [], [], []
    for dx, dy, dz in _FORWARD_OFFSETS:
        offset = (dx * dims[1] + dy) * dims[2] + dz
        # each sorted slot s pairs with the slots [first[s], last[s])
        last = np.searchsorted(key, key + offset, side="right")
        first = slots + 1 if offset == 0 else np.searchsorted(key, key + offset, side="left")
        count = np.maximum(last - first, 0)
        slot_j = np.repeat(first - np.cumsum(count) + count, count) + np.arange(count.sum())
        # (dx**2 + dy**2) + dz**2 is the order of ((p_i - p_j)**2).sum(), and
        # a pair's squares do not depend on which atom comes first
        d2 = ((np.repeat(xs, count) - xs[slot_j]) ** 2 + (np.repeat(ys, count) - ys[slot_j]) ** 2
              + (np.repeat(zs, count) - zs[slot_j]) ** 2)
        dist = np.sqrt(d2)
        near = dist <= radius
        found_i.append(order[np.repeat(slots, count)[near]])
        found_j.append(order[slot_j[near]])
        found_d.append(dist[near])
    i, j = np.concatenate(found_i), np.concatenate(found_j)
    # flat indices: one draw's atoms are contiguous, so sorting by the flat
    # pair code sorts by (draw, code)
    gi, gj = np.minimum(i, j), np.maximum(i, j)
    by_code = np.argsort(gi.astype(np.int64) * (m * n) + gj)
    gi, gj, dist = gi[by_code], gj[by_code], np.concatenate(found_d)[by_code]
    base = gi // n * n
    starts = np.searchsorted(gi, np.arange(m + 1) * n)
    return starts, gi - base, gj - base, dist


def tree_sum(count: int, terms) -> float:
    """``float(np.sum(x))`` for a float64 array x of ``count`` terms, built in ranges.

    ``terms(lo, hi)`` returns x[lo:hi] as a contiguous float64 array.  The
    range [0, count) splits where numpy's pairwise sum splits it, down to
    leaves of at most 2**15 terms, and each leaf is summed by np.sum; the
    result has the bits of one np.sum over all of x, while only one leaf is
    held at a time.  Leaves are built left to right, so the first error
    ``terms`` raises is the one a pass over all of x would raise first.
    """
    return float(_tree_part(terms, 0, count))


def _tree_part(terms, lo: int, m: int):
    # a module-level function: a recursive closure would be a reference
    # cycle holding ``terms`` (and the buffers it uses) until the cyclic GC
    if m <= _TREE_LEAF:
        return np.sum(terms(lo, lo + m))
    h = m // 2 - (m // 2) % 8
    return _tree_part(terms, lo, h) + _tree_part(terms, lo + h, m - h)


def leaf_size(count: int) -> int:
    """The most terms that one leaf of ``tree_sum(count, terms)`` holds."""
    return min(count, _TREE_LEAF)


def triu_pairs(n: int, codes: np.ndarray):
    """The pairs i < j < n whose code is not in ``codes``, by ranges of the list.

    Returns (count, pairs): ``pairs(lo, hi)`` gives the (ii, jj) index arrays
    of kept pairs lo..hi-1 in upper-triangle order, building nothing outside
    the range.  Kept pair t is pair t + c of the full triangle, where c counts
    the excluded pairs before it: those whose triangle index less their rank
    among the codes is at most t.  ``codes`` is as built by
    :func:`exclusion_codes`.
    """
    rows = np.arange(n + 1, dtype=np.int64)
    row_start = rows * n - rows * (rows + 1) // 2  # triangle index of pair (i, i + 1)
    ci, cj = np.divmod(codes, n)
    excluded = row_start[ci] + (cj - ci - 1)
    kept_before = excluded - np.arange(excluded.size)

    def pairs(lo: int, hi: int):
        k_lo, k_hi = np.searchsorted(kept_before, [lo, hi - 1], side="right")
        u_lo, u_hi = lo + k_lo, hi + k_hi
        first, last = np.searchsorted(row_start, [u_lo, u_hi - 1], side="right") - 1
        spanned = np.arange(first, last + 1)
        per_row = (np.minimum(row_start[spanned + 1], u_hi)
                   - np.maximum(row_start[spanned], u_lo))
        ii = np.repeat(spanned, per_row)
        jj = np.arange(u_lo, u_hi) - row_start[ii] + ii + 1
        keep = np.ones(ii.size, dtype=bool)
        keep[excluded[k_lo:k_hi] - u_lo] = False
        return ii[keep], jj[keep]

    return n * (n - 1) // 2 - codes.size, pairs
