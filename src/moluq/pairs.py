"""Pair layer: neighbour search under a cutoff, bonded-exclusion codes and
exact sums of pair terms.

An unordered atom pair (i, j) with i < j < n is encoded as the int64 code
i*n + j, so sorting by code lists pairs in row-major upper-triangle order,
the order ``np.triu_indices(n, k=1)`` produces.

:func:`exact_sums` splits terms into partial sums that add up to their sum
exactly, and ``math.fsum`` rounds those once.  A sum so formed does not
depend on the order of its terms, so an energy does not depend on the order
in which a file lists the atoms, nor on the order in which numpy's
CPU-specific loops add.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

# Widens the neighbour-search radius, so that a per-pair cutoff at the
# largest one keeps every pair the caller's strict test keeps.
_RADIUS_SLACK = 1e-9

# Cells are this much wider than the search radius: two atoms within the
# radius along an axis then land in the same or adjacent cells even after the
# rounding of (p - lo) / side, which is below 1e-11 cell widths when a box
# spans at most 2**16 cells.
_CELL_MARGIN = 1.0 + 1e-6

# Binned summation (Demmel & Nguyen, ARITH 2013): bins are _BIN_BITS bits
# apart, so each part of a bin is an integer multiple of the bin's unit of at
# most _BIN_BITS + 1 bits, and np.sum of up to _BIN_PARTS parts stays below
# 2**53 units: exact, in whatever order numpy adds them.
_BIN_BITS = 36
_BIN_PARTS = 2**16

# The self cell and the 13 neighbour cells that come after it in (x, y, z)
# order: each unordered pair of adjacent cells is searched once.
_FORWARD_OFFSETS = [o for o in itertools.product((-1, 0, 1), repeat=3) if o >= (0, 0, 0)]


def exclusion_codes(pairs, n: int) -> np.ndarray:
    """Sorted int64 codes i*n + j of distinct pairs (i, j), 0 <= i < j < n:
    the one form in which bonded exclusions reach the kernels."""
    ij = np.array(list(pairs), dtype=np.int64).reshape(-1, 2)
    return np.sort(ij[:, 0] * n + ij[:, 1])


def not_in_codes(ii, jj, n: int, codes: np.ndarray) -> np.ndarray:
    """Boolean mask over the pairs (ii[k], jj[k]): True where the pair's code
    is not in ``codes``, as built once by :func:`exclusion_codes`.

    ``codes`` are sorted and distinct, so one binary search per pair finds
    the only code that can equal it (``np.isin`` would sort both sides, and
    its ``np.unique`` call imports ``numpy.ma``).
    """
    pair = np.asarray(ii, dtype=np.int64) * n + jj
    if not len(codes):
        return np.ones(pair.shape, dtype=bool)
    at = np.searchsorted(codes, pair)
    return codes[np.minimum(at, len(codes) - 1)] != pair


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


def exact_sums(terms: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Exact partial sums of each row of the 2-D float64 array ``terms``.

    Column i of the returned 2-D array holds floats whose sum is exactly
    that of row i, so ``math.fsum`` of the column is row i's sum rounded
    once.  ``terms`` is overwritten; ``scratch`` is workspace of its shape.

    With every |term| < 2**e, adding and subtracting 1.5 * 2**(e + 16) rounds
    each term to a multiple of 2**(e - 36), its part in the bin below 2**e;
    the remainders, each below 2**(e - 36), go to the next bin down until
    none is left.  Each bin's parts are added by ``np.sum`` in runs of at most
    2**16 per row, which is exact in any order.  Terms with an inf, a nan or
    a magnitude of 2**1007 or more are returned as they are: ``math.fsum``
    adds them exactly too, or raises for inf - inf and beyond the float range.
    """
    top = max(float(terms.max()), -float(terms.min()))
    if not top < 2.0**1007:  # inf, nan, or 1.5 * 2**(e + 16) would overflow
        return terms.T.copy()
    parts = []
    e = math.frexp(top)[1]
    while top:
        big = math.ldexp(1.5, e + 52 - _BIN_BITS)  # its unit in the last place: 2**(e - 36)
        part = np.add(terms, big, out=scratch)
        part -= big
        terms -= part
        parts += [part[:, lo:lo + _BIN_PARTS].sum(axis=1)
                  for lo in range(0, terms.shape[1], _BIN_PARTS)]
        top = terms.any()  # a remainder is left for the bins below
        e -= _BIN_BITS
    return np.array(parts).reshape(-1, terms.shape[0])
