"""Empirical certificates over sampled QOI values.

Given the distribution of a quantity across an ensemble, these routines
tabulate (t, epsilon) certificates -- the observed probability that the
relative error |x - E[x]| / |E[x]| exceeds each threshold t -- along with
z-scores of reference values and the sample-count saturation protocol that
finds how many samples the certificate needs before it stops moving.

The module computes without numpy, so that a stage which only certifies
never loads it.  Sums are exact: each value is an integer count of
2**-1074, the sum is a Python integer, and a mean is that sum over the count,
rounded once.  IEEE 754 defines that rounding identically on every CPU, so
no certificate depends on a library's order of summation.  Counts are taken
on sorted values with the elementwise test itself.  Only the Monte-Carlo
estimate of :func:`expected_hypercube_distance_mc` imports numpy (and
:mod:`moluq.sampling`, whose stream draws its points).
"""

from __future__ import annotations

import bisect
import functools
import itertools
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
        """The values with their population mean and standard deviation: the
        exact mean of the values, and the root of the exact mean of the rounded
        squared deviations, each rounded once."""
        values = _finite_values(values)
        if not values:
            raise ValueError("need a non-empty 1-d value list")
        mean = _exact_mean(values)
        squares = [(v - mean) * (v - mean) for v in values]
        variance = _exact_mean(squares) if math.isfinite(max(squares)) else math.inf
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


def _fixed(v: float) -> int:
    """The finite float ``v`` as an integer count of 2**-1074, exactly."""
    num, den = v.as_integer_ratio()  # den is 2**k with k <= 1074
    return num << (1075 - den.bit_length())


def _exact_mean(values: list[float]) -> float:
    """The mean of finite floats, rounded once."""
    return sum(map(_fixed, values)) / (len(values) << 1074)


def chernoff_table(d: EmpiricalDistribution, t_values=DEFAULT_T_GRID) -> CertificateTable:
    """Empirical certificate: epsilon(t) = fraction with |x - mean|/|mean| > t.

    The count uses the strict inequality.  A zero mean leaves the relative
    error undefined and raises.
    """
    t = _check_t_grid(t_values)
    if d.mean == 0.0:
        raise ValueError("relative-error certificate undefined for zero mean")
    return CertificateTable(t_values=t, epsilons=tuple(_epsilons(sorted(d.values), d.mean, t)))


def zscore(x0: float, d: EmpiricalDistribution) -> float:
    """Standard score of a reference value against the sampled distribution."""
    if d.std <= 0.0:
        raise ValueError("z-score undefined for zero spread")
    return (x0 - d.mean) / d.std


def expected_hypercube_distance_mc(d: int, n_pairs: int = 10**6,
                                   seed: int = 20170815) -> tuple[float, float]:
    """Monte-Carlo mean distance between uniform points in [0,1]^d.

    Returns (estimate, standard error); deterministic for a fixed seed.  The
    points are those of numpy's ``default_rng(seed).random``, drawn from
    :class:`moluq.sampling.PCG64Stream` in chunks of 250,000 pairs: a
    chunk's first points, then its second points.
    """
    import numpy as np  # the one numpy path of this module

    from moluq.sampling import PCG64Stream

    if d < 1:
        raise ValueError("dimension must be >= 1")
    rng = PCG64Stream(seed)
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


def _epsilons(ordered: list[float], mean: float, t: tuple[float, ...]) -> list[float]:
    """For each t, the fraction of the ascending values ``ordered`` whose
    relative error from their mean ``mean`` exceeds t."""
    n = len(ordered)
    if mean == 0.0:
        raise ValueError("certificate undefined for a zero-mean value block")
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

    The head and the witness stay sorted as they grow, and their exact sums
    are differences of one list of exact prefix sums, so each r costs a few
    bisections per t.  The distance is ``sqrt(fsum(d * d))``: each square
    rounded, their sum rounded once.
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

    prefix = list(itertools.accumulate(map(_fixed, values), initial=0))
    cmp_eps = _epsilons(sorted(values), prefix[n] / (n << 1074), t)
    if mode == "full":
        last_r = n - 1
    else:
        last_r = n - 10
        witness = sorted(values[n - 11:])
    head = values[:1]
    curve = []
    for r in range(2, last_r + 1):
        bisect.insort(head, values[r - 1])
        head_eps = _epsilons(head, prefix[r] / (r << 1074), t)
        if mode == "incremental":  # the witness is values[n - (r + 10):]
            bisect.insort(witness, values[n - r - 10])
            cmp_eps = _epsilons(witness, (prefix[n] - prefix[n - r - 10]) / ((r + 10) << 1074), t)
        distance = math.sqrt(math.fsum((a - b) * (a - b) for a, b in zip(head_eps, cmp_eps)))
        curve.append((r, distance / normalizer))

    above = [i for i, (_r, err) in enumerate(curve) if err >= tau]
    if not above:
        r_star, ok = curve[0][0], True
    elif above[-1] + 1 < len(curve):
        r_star, ok = curve[above[-1] + 1][0], True
    else:
        r_star, ok = n, False
    return SaturationReport(mode=mode, tau=tau, r_star=r_star,
                            error_curve=tuple(curve), saturated=ok)
