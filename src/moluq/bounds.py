"""Closed-form concentration bounds for sums of decaying kernels.

The kernels have the form sum_k a_k / ||x||^{b_k} with each coordinate of x
uniform on a positive interval.  Because such a kernel decreases in every
coordinate on a positive box, its per-coordinate bounded differences are
attained at box corners, which gives closed-form constants for the method of
bounded differences:

* ``d1_bound`` / ``d2_bound``: one kernel term, 2-d and d-dimensional;
* ``d3_bound``: multi-term kernels via the n * max_k relaxation;
* ``mcdiarmid_tail``: 2 exp(-2 t^2 / sum D_i^2);
* ``pairwise_sum_tail``: sums over two point sets, with per-pair difference
  boxes;
* ``azuma_tail``: the martingale form 2 exp(-t^2 / (2 sum c_i^2)), used with
  ``estimate_conditional_c`` when the coordinates are dependent.

The Azuma exponent carries a factor-of-2 weaker constant than McDiarmid's;
each is implemented exactly as its classical statement reads.

All deviation constants evaluate the kernel at the maximizing corners, each
corner's squared norm summed left to right as ``sum(c * c for c in corner)``
rather than expanded algebraically, so the dominance over grid-search
oracles that evaluate those corners the same way holds bitwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class KernelSpec:
    """Coefficients of a decaying-kernel sum: terms (a_k, b_k), b_k >= 0."""

    terms: tuple[tuple[float, float], ...]

    def __post_init__(self):
        terms = tuple((float(a), float(b)) for a, b in self.terms)
        if not terms:
            raise ValueError("kernel needs at least one term")
        if any(b < 0 for _a, b in terms):
            raise ValueError("kernel exponents b_k must be >= 0")
        object.__setattr__(self, "terms", terms)


@dataclass(frozen=True)
class BoxDomain:
    """Per-coordinate intervals [l_i, u_i] with 0 < l_i <= u_i.

    Positive lower bounds are required: the corner-maximization arguments
    behind the closed-form deviations need the kernel monotone on the box.
    """

    intervals: tuple[tuple[float, float], ...]

    def __post_init__(self):
        intervals = tuple((float(l), float(u)) for l, u in self.intervals)
        for l, u in intervals:
            if not (0.0 < l <= u):
                raise ValueError(f"interval [{l}, {u}] must satisfy 0 < l <= u")
        object.__setattr__(self, "intervals", intervals)

    @property
    def dim(self) -> int:
        return len(self.intervals)

    def lowers(self) -> np.ndarray:
        return np.array([l for l, _u in self.intervals])

    def uppers(self) -> np.ndarray:
        return np.array([u for _l, u in self.intervals])

    @classmethod
    def point(cls, coords) -> "BoxDomain":
        """Degenerate box pinning every coordinate (fixed point)."""
        return cls(tuple((float(c), float(c)) for c in coords))


@dataclass(frozen=True)
class AzumaSpec:
    """Per-step bounded-difference constants of a martingale."""

    c: tuple[float, ...]

    def __post_init__(self):
        c = tuple(float(x) for x in self.c)
        if any(x < 0 or not math.isfinite(x) for x in c):
            raise ValueError("bounded-difference constants must be finite and >= 0")
        object.__setattr__(self, "c", c)


def _single_term(a: float, b: float, radius_sq: float) -> float:
    return a / radius_sq ** (b / 2.0)


def d1_bound(a: float, b: float, box2d: BoxDomain) -> tuple[float, float]:
    """Per-coordinate deviation constants (D_x, D_y) of a single 2-d kernel term."""
    if box2d.dim != 2:
        raise ValueError("d1_bound expects a 2-d box")
    return d2_bound(a, b, box2d, 0), d2_bound(a, b, box2d, 1)


def d2_bound(a: float, b: float, box: BoxDomain, i: int) -> float:
    """Deviation constant of one kernel term in coordinate ``i``, any dimension.

    D_i = |a| (1/(sum_k l_k^2)^{b/2} - 1/(u_i^2 + sum_{k != i} l_k^2)^{b/2}):
    the deviation in one coordinate is largest when the others sit at their
    lower bounds.
    """
    if not (0 <= i < box.dim):
        raise ValueError(f"coordinate {i} outside box of dimension {box.dim}")
    if b < 0:
        raise ValueError("exponent b must be >= 0")
    lows = [l for l, _u in box.intervals]
    high = lows[:i] + [box.intervals[i][1]] + lows[i + 1:]
    mag = abs(a)
    return abs(_single_term(mag, b, sum(c * c for c in lows))
               - _single_term(mag, b, sum(c * c for c in high)))


def d3_bound(spec: KernelSpec, box: BoxDomain, i: int) -> float:
    """Deviation constant of a multi-term kernel: n * max_k of the term bounds.

    Conservative by construction; the triangle-inequality relaxation trades
    tightness for a closed form.
    """
    return len(spec.terms) * max(d2_bound(a, b, box, i) for a, b in spec.terms)


def mcdiarmid_tail(deviations, t: float) -> float:
    """Two-sided bounded-difference tail: min(1, 2 exp(-2 t^2 / sum D_i^2)).

    A zero deviation vector means the function is deterministic, so the tail
    is 0 for any positive t.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    d = np.asarray(deviations, dtype=float)
    if np.any(d < 0):
        raise ValueError("deviation constants must be >= 0")
    total = float((d**2).sum())
    if total == 0.0:
        return 0.0
    return min(1.0, 2.0 * math.exp(-2.0 * t * t / total))


def azuma_tail(spec: AzumaSpec, t: float) -> float:
    """Two-sided martingale tail: min(1, 2 exp(-t^2 / (2 sum c_i^2)))."""
    if t <= 0:
        raise ValueError("t must be positive")
    total = sum(c * c for c in spec.c)
    if total == 0.0:
        return 0.0
    return min(1.0, 2.0 * math.exp(-t * t / (2.0 * total)))


def difference_box(box_a: BoxDomain, box_b: BoxDomain) -> BoxDomain:
    """Box of the componentwise difference x2 - x1, x1 in A and x2 in B.

    Fully negative difference intervals reflect to positive ones (the kernel
    depends only on |x2 - x1|); an interval straddling zero puts the kernel
    singularity inside the domain and raises.
    """
    if box_a.dim != box_b.dim:
        raise ValueError("difference requires boxes of equal dimension")
    intervals = []
    for (al, au), (bl, bu) in zip(box_a.intervals, box_b.intervals):
        lo, hi = bl - au, bu - al
        if lo > 0.0:
            intervals.append((lo, hi))
        elif hi < 0.0:
            intervals.append((-hi, -lo))
        else:
            raise ValueError(
                f"difference interval [{lo}, {hi}] contains 0: "
                "kernel singularity inside the domain"
            )
    return BoxDomain(tuple(intervals))


def pairwise_sum_tail(spec: KernelSpec, boxes_a, boxes_b, t: float) -> float:
    """Tail bound for sum over pairs (x1 in A, x2 in B) of the kernel.

    Each pair contributes the multi-term deviations of its difference box,
    and :func:`mcdiarmid_tail` bounds their sum.  Passing a single
    degenerate box (see :meth:`BoxDomain.point`) as ``boxes_b`` reduces to the
    sum of kernels around one fixed point.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    boxes_a = list(boxes_a)
    boxes_b = list(boxes_b)
    if not boxes_a or not boxes_b:
        raise ValueError("both point sets must be non-empty")
    deviations = []
    for ba in boxes_a:
        for bb in boxes_b:
            delta = difference_box(ba, bb)
            deviations += [d3_bound(spec, delta, i) for i in range(delta.dim)]
    return mcdiarmid_tail(deviations, t)


def estimate_conditional_c(f, x_grid, y_grid, density) -> float:
    """Largest |E[f(x', Y) | X = x] - f(x, y)| on a discretized joint.

    ``f`` is a scalar kernel of two variables; ``density`` is a (nx, ny)
    non-negative matrix summing to 1 over the (x_grid, y_grid) lattice.  The
    maximum runs over x and x' in the X-marginal support and y in the
    conditional support of each x.  The returned c feeds
    ``azuma_tail(AzumaSpec((c, c)), t)`` through the two-step martingale
    that progressively conditions f on its inputs.
    """
    x_grid = np.asarray(x_grid, dtype=float)
    y_grid = np.asarray(y_grid, dtype=float)
    w = np.asarray(density, dtype=float)
    if w.shape != (x_grid.size, y_grid.size):
        raise ValueError("density shape must be (len(x_grid), len(y_grid))")
    if np.any(w < 0):
        raise ValueError("density must be non-negative")
    if abs(float(w.sum()) - 1.0) > 1e-6:
        raise ValueError("density must be normalized on its grid")
    row_mass = w.sum(axis=1)
    col_mass = w.sum(axis=0)
    rows = np.nonzero(row_mass > 0.0)[0]
    cols = np.nonzero(col_mass > 0.0)[0]
    if rows.size == 0 or cols.size == 0:
        raise ValueError("zero-mass conditional slice: density has no support")
    try:
        fx = np.array([[f(x, y) for y in y_grid[cols]] for x in x_grid[rows]])
    except (ZeroDivisionError, OverflowError):
        raise ValueError("kernel must be finite on the grid support") from None
    if np.any(~np.isfinite(fx)):
        raise ValueError("kernel must be finite on the grid support")
    wsub = w[np.ix_(rows, cols)]
    cond = wsub / row_mass[rows, None]
    # ce[p, q] = E[f(x'_p, Y) | X = x_q]; p, q index the X support
    ce = fx @ cond.T
    c = 0.0
    for q in range(rows.size):
        ys = np.nonzero(wsub[q] > 0.0)[0]
        if ys.size == 0:
            raise ValueError("zero-mass conditional slice encountered")
        dev = np.abs(ce[:, q][:, None] - fx[q, ys][None, :])
        c = max(c, float(dev.max()))
    return c
