"""Empirical certificates over sampled QOI values.

Given the distribution of a quantity across an ensemble, these routines
tabulate (t, epsilon) certificates -- the observed probability that the
relative error |x - E[x]| / |E[x]| exceeds each threshold t -- along with
z-scores of reference values and the sample-count saturation protocol that
finds how many samples the certificate needs before it stops moving.

The module computes without numpy, so that a stage which only certifies
never loads it, and keeps numpy's bits: sums follow numpy's pairwise
summation, counts are taken on sorted values with the elementwise test
itself, and the saturation distance is the fused multiply-add chain that
OpenBLAS's ``ddot`` runs for short vectors.  Only the Monte-Carlo estimate
of :func:`expected_hypercube_distance_mc` imports numpy.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass

from moluq import DEFAULT_T_GRID

# Closed-form mean distance between two uniform points in [0,1]^d.
_EXACT_BOX_DISTANCE = {
    1: 1.0 / 3.0,
    2: (2.0 + math.sqrt(2.0) + 5.0 * math.asinh(1.0)) / 15.0,
    3: (4.0 + 17.0 * math.sqrt(2.0) - 6.0 * math.sqrt(3.0)
        + 21.0 * math.log(1.0 + math.sqrt(2.0)) + 42.0 * math.log(2.0 + math.sqrt(3.0))
        - 7.0 * math.pi) / 105.0,
}
# Published tabulated value for d = 6, used to normalize certificate-vector
# distances in the saturation protocol, and for d = 7 (the length of
# DEFAULT_T_GRID) the value expected_hypercube_distance_mc(7) returns, stored
# so that saturation does not redraw its 10^6 seeded pairs on every run.
_TABULATED_BOX_DISTANCE = {6: 0.9689, 7: 1.0521025612313182}


@dataclass(frozen=True)
class EmpiricalDistribution:
    """A QOI sample set with its population statistics."""

    values: tuple[float, ...]
    mean: float
    std: float

    @classmethod
    def from_values(cls, values) -> "EmpiricalDistribution":
        """The values with numpy's ``mean()`` and ``std()`` of them, bit for bit."""
        values = _finite_values(values)
        if not values:
            raise ValueError("need a non-empty 1-d value list")
        mean = _sum(values) / len(values)
        variance = _sum([(v - mean) * (v - mean) for v in values]) / len(values)
        return cls(values=tuple(values), mean=mean, std=math.sqrt(variance))


@dataclass(frozen=True)
class CertificateTable:
    """Matched (t, epsilon) lists: Pr[|x - E[x]|/|E[x]| > t] <= epsilon."""

    t_values: tuple[float, ...]
    epsilons: tuple[float, ...]

    def __post_init__(self):
        if len(self.t_values) != len(self.epsilons):
            raise ValueError("t_values and epsilons must have matching length")
        if any(not (0.0 <= e <= 1.0) for e in self.epsilons):
            raise ValueError("epsilons must lie in [0, 1]")
        for earlier, later in zip(self.epsilons, self.epsilons[1:]):
            if later > earlier + 1e-12:
                raise ValueError("epsilons must be non-increasing in t")


@dataclass(frozen=True)
class SaturationReport:
    """Outcome of the saturation search for one QOI stream."""

    mode: str
    tau: float
    r_star: int
    error_curve: tuple[tuple[int, float], ...]
    saturated: bool = True


def _check_t_grid(t_values) -> tuple[float, ...]:
    t = tuple(float(x) for x in t_values)
    if not t or not all(x > 0.0 for x in t) or any(b <= a for a, b in zip(t, t[1:])):
        raise ValueError("t grid must be positive and strictly ascending")
    return t


def _finite_values(values) -> list[float]:
    """``values`` as a list of floats, each finite."""
    try:
        out = [float(v) for v in values]
    except TypeError:
        raise ValueError("need a non-empty 1-d value list") from None
    if not all(map(math.isfinite, out)):
        raise ValueError("values must be finite")
    return out


def _split(n: int) -> int:
    """How many of n > 128 values numpy's pairwise sum adds up first: n/2
    rounded down to a multiple of 8."""
    return n // 2 - n // 2 % 8


def _pairwise_sums(values: list[float]):
    """A function ``sums(start, count, n)`` that returns, for each p in
    ``range(start, start + count)``, numpy's pairwise sum of ``values[p:p + n]``
    bit for bit.

    numpy's pairwise sum (Higham 1993) of n < 8 values runs left to right
    from 0.0.  Of 8 to 128 values, lane j < 8 adds values j, j + 8, ... left
    to right over the whole groups of 8, the lanes join as
    ((l0 + l1) + (l2 + l3)) + ((l4 + l5) + (l6 + l7)), and the n % 8 values
    left over follow one by one.  More than 128 values sum as the first
    ``_split(n)`` values plus the rest.  ``np.add.reduce`` adds the pairwise
    sum of a contiguous float64 array to 0.0.

    The joined lanes of every run of 8g values, g = 1..16, are tabulated up
    front, and results are cached, so the prefixes of a stream share the
    halves they have in common and a run of ``count`` equal-length slices
    costs one walk of the split tree.  Callers must not change the lists.
    """
    blocks: list[list[float]] = [[]]  # blocks[g][p]: joined lanes of values[p:p + 8g]
    lanes = values  # lanes[p]: values[p] + values[p + 8] + ..., g terms, left to right
    for groups in range(1, 17):
        if groups > 1:
            lanes = [a + b for a, b in zip(lanes, values[8 * (groups - 1):])]
        blocks.append([((a + b) + (c + d)) + ((e + f) + (g + h))
                       for a, b, c, d, e, f, g, h in zip(*(lanes[j:] for j in range(8)))])

    @functools.lru_cache(maxsize=1 << 12)
    def sums(start: int, count: int, n: int) -> list[float]:
        if n > 128:
            first = _split(n)
            return [a + b for a, b in zip(sums(start, count, first),
                                          sums(start + first, count, n - first))]
        groups = n // 8
        out = blocks[groups][start:start + count] if groups else [0.0] * count
        for i in range(start + 8 * groups, start + n):
            out = [a + b for a, b in zip(out, values[i:i + count])]
        return out

    return sums


def _sum(values: list[float]) -> float:
    """numpy's ``sum()`` of ``values``, bit for bit."""
    return 0.0 + _pairwise_sums(values)(0, 1, len(values))[0]


def _suffix_sums(sums, n: int) -> list[float]:
    """Element s is the pairwise sum of values[s:], for s in 0..n, from the
    ``sums`` of n values.  A suffix longer than 128 is its first half plus a
    shorter suffix; lengths 16j to 16j + 15 all split at 8j, so their first
    halves come from one call."""
    out = [0.0] * (n + 1)
    for length in range(1, min(n, 128) + 1):
        out[n - length] = sums(n - length, 1, length)[0]
    for j in range(8, n // 16 + 1):
        lo, hi = max(16 * j, 129), min(16 * j + 15, n)
        for s, first in zip(range(n - hi, n - lo + 1), sums(n - hi, hi - lo + 1, 8 * j)):
            out[s] = first + out[s + 8 * j]
    return out


def chernoff_table(d: EmpiricalDistribution, t_values=DEFAULT_T_GRID) -> CertificateTable:
    """Empirical certificate: epsilon(t) = fraction with |x - mean|/|mean| > t.

    The count uses the strict inequality.  A zero mean leaves the relative
    error undefined and raises.
    """
    t = _check_t_grid(t_values)
    if d.mean == 0.0:
        raise ValueError("relative-error certificate undefined for zero mean")
    values = list(d.values)
    return CertificateTable(t_values=t, epsilons=tuple(_epsilons(sorted(values), _sum(values), t)))


def zscore(x0: float, d: EmpiricalDistribution) -> float:
    """Standard score of a reference value against the sampled distribution."""
    if d.std <= 0.0:
        raise ValueError("z-score undefined for zero spread")
    return (x0 - d.mean) / d.std


def expected_hypercube_distance_mc(d: int, n_pairs: int = 10**6,
                                   seed: int = 20170815) -> tuple[float, float]:
    """Monte-Carlo mean distance between uniform points in [0,1]^d.

    Returns (estimate, standard error); deterministic for a fixed seed.
    """
    import numpy as np  # the one numpy path of this module

    if d < 1:
        raise ValueError("dimension must be >= 1")
    rng = np.random.default_rng(seed)
    total = 0.0
    total_sq = 0.0
    done = 0
    chunk = 250_000
    while done < n_pairs:
        m = min(chunk, n_pairs - done)
        dist = np.linalg.norm(rng.random((m, d)) - rng.random((m, d)), axis=1)
        total += float(dist.sum())
        total_sq += float((dist**2).sum())
        done += m
    mean = total / n_pairs
    var = max(total_sq / n_pairs - mean**2, 0.0)
    return mean, math.sqrt(var / n_pairs)


@functools.lru_cache(maxsize=None)
def expected_hypercube_distance(d: int) -> float:
    """Mean distance between two uniform random points in [0,1]^d.

    Exact constants for d <= 3, the published table value for d = 6, the
    seeded 10^6-pair Monte-Carlo value of :func:`expected_hypercube_distance_mc`
    stored for d = 7, and that estimate computed otherwise (call
    :func:`expected_hypercube_distance_mc` to get the standard error too).
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")
    if d in _EXACT_BOX_DISTANCE:
        return _EXACT_BOX_DISTANCE[d]
    if d in _TABULATED_BOX_DISTANCE:
        return _TABULATED_BOX_DISTANCE[d]
    return expected_hypercube_distance_mc(d)[0]


def _epsilons(ordered: list[float], total: float, t: tuple[float, ...]) -> list[float]:
    """For each t, the fraction of the ascending values ``ordered`` whose
    relative error from their mean exceeds t; ``total`` is their sum."""
    n = len(ordered)
    mean = total / n
    if mean == 0.0:
        raise ValueError("certificate undefined for a zero-mean value block")
    if not math.isfinite(mean):
        raise ValueError("certificate undefined: the sum of the values overflows")
    scale = abs(mean)
    mid = bisect.bisect_left(ordered, mean)
    out = []
    for tk in t:
        # The rounded relative error falls along the values below the mean and
        # rises along the rest, so those that exceed t are a prefix and a suffix.
        below = _first(ordered, 0, mid, mean, scale, tk, False,
                       bisect.bisect_left(ordered, mean - tk * scale, 0, mid))
        above = _first(ordered, mid, n, mean, scale, tk, True,
                       bisect.bisect_right(ordered, mean + tk * scale, mid, n))
        out.append((below + n - above) / n)
    return out


def _first(ordered: list[float], lo: int, hi: int, mean: float, scale: float, tk: float,
           exceeds: bool, i: int) -> int:
    """The first index in [lo, hi) whose value v has ``|v - mean| / scale > tk``
    equal to ``exceeds``, or hi, where along ``ordered[lo:hi]`` that test
    first fails and then holds.  The search starts at the guess i and
    crosses a run of equal values at once."""
    while i > lo and (abs(ordered[i - 1] - mean) / scale > tk) == exceeds:
        i = bisect.bisect_left(ordered, ordered[i - 1], lo, i)
    while i < hi and (abs(ordered[i] - mean) / scale > tk) != exceeds:
        i = bisect.bisect_right(ordered, ordered[i], i, hi)
    return i


def _fma_norm(xs: list[float]) -> float:
    """sqrt(x0*x0 + x1*x1 + ...) summed as acc = fma(x, x, acc) from 0.0,
    each step rounded once: how OpenBLAS's ``ddot``, under ``np.linalg.norm``,
    sums fewer than 16 values (checked up to 12).

    Python 3.11 has no ``math.fma``.  Each step splits x*x into its rounded
    product p and the exact error e (Dekker's TwoProduct, exact for |x|
    between 2**-480 and 2**500 or 0), and ``math.fsum`` rounds acc + p + e
    once (Ogita, Rump & Oishi 2005).
    """
    acc = 0.0
    for x in xs:
        p = x * x
        c = 134217729.0 * x  # 2**27 + 1 splits x into two 26-bit halves
        hi = c - (c - x)
        lo = x - hi
        acc = math.fsum((acc, p, ((hi * hi - p) + 2.0 * hi * lo) + lo * lo))
    return math.sqrt(acc)


def saturation(values, tau: float = 0.05, t_values=DEFAULT_T_GRID,
               mode: str = "incremental") -> SaturationReport:
    """Find the sample count where the certificate stops changing.

    For each r the certificate on the first r values is compared against a
    comparison certificate: the full stream (``mode="full"``, the trivial
    self-comparison at r = n is excluded) or the last r + 10 values of the
    stream (``mode="incremental"`` -- a same-size witness that shares no
    prefix with the candidate, so its disagreement still carries sampling
    noise).  The error is the L2 distance of the two epsilon vectors
    normalized by the expected distance of two uniform random points in a
    cube of that dimension.  r_star is the smallest r from which the error
    stays below tau for every later r (saturation is sustained, not a lucky
    first dip); if the error never settles below tau, r_star is the stream
    length and the report carries ``saturated=False``.

    Incremental counts systematically exceed full-comparison counts because
    the incremental witness is itself noisy, so reaching incremental
    saturation also certifies saturation against the full stream.

    The head and the witness stay sorted as they grow, and their sums come
    from one table of pairwise sums, so each r costs a few bisections per t.
    """
    values = _finite_values(values)
    n = len(values)
    if n < 12:
        raise ValueError("saturation needs a stream of at least 12 values")
    if tau <= 0:
        raise ValueError("tau must be positive")
    if mode not in ("incremental", "full"):
        raise ValueError(f"unknown saturation mode {mode!r}")
    t = _check_t_grid(t_values)
    normalizer = expected_hypercube_distance(len(t))

    sums = _pairwise_sums(values)
    cmp_eps = _epsilons(sorted(values), sums(0, 1, n)[0], t)
    if mode == "full":
        last_r = n - 1
    else:
        last_r = n - 10
        suffix = _suffix_sums(sums, n)
        witness = sorted(values[n - 11:])
    head = values[:1]
    curve = []
    for r in range(2, last_r + 1):
        bisect.insort(head, values[r - 1])
        head_eps = _epsilons(head, sums(0, 1, r)[0], t)
        if mode == "incremental":  # the witness is values[n - (r + 10):]
            bisect.insort(witness, values[n - r - 10])
            cmp_eps = _epsilons(witness, suffix[n - r - 10], t)
        curve.append((r, _fma_norm([a - b for a, b in zip(head_eps, cmp_eps)]) / normalizer))

    above = [i for i, (_r, err) in enumerate(curve) if err >= tau]
    if not above:
        r_star, ok = curve[0][0], True
    elif above[-1] + 1 < len(curve):
        r_star, ok = curve[above[-1] + 1][0], True
    else:
        r_star, ok = n, False
    return SaturationReport(mode=mode, tau=tau, r_star=r_star,
                            error_curve=tuple(curve), saturated=ok)
