"""Low-discrepancy sampling of product spaces and marginal mappings.

Points are drawn in [0,1)^d from a scrambled digital net and pushed through
per-coordinate marginals: Gaussians via the Box-Muller transform (two unit
coordinates per pair of normals) and bounded uniforms via affine scaling.
Also provides the B-factor -> sigma conversion, an anchored-box star
discrepancy estimator, and naive-vs-low-discrepancy sample budgets.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from moluq.molio import EIGHT_PI_SQ

# Largest dimension the digital-net direction-number table supports; beyond
# this the stream falls back to a scrambled Halton sequence.
SOBOL_MAX_DIM = 21201


class LowDiscrepancySequence:
    """Deterministic scrambled low-discrepancy point stream in [0,1)^d.

    The same (dimension, scramble_seed) always reproduces the same stream.
    Instances are single-owner iterators: advancing one from two threads is
    not safe, but independent instances may run concurrently.
    """

    def __init__(self, dimension: int, scramble_seed: int = 0):
        if dimension < 1:
            raise ValueError("dimension must be >= 1")
        self.dimension = dimension
        self.scramble_seed = scramble_seed
        self.index = 0
        # imported here: scipy.stats dominates the package's import time, and
        # only sampling commands build a sequence
        from scipy.stats import qmc

        if dimension <= SOBOL_MAX_DIM:
            self._engine = qmc.Sobol(dimension, scramble=True, seed=scramble_seed)
            self.kind = "sobol-scrambled"
        else:
            self._engine = qmc.Halton(dimension, scramble=True, seed=scramble_seed)
            self.kind = "halton-scrambled"

    def next_point(self) -> np.ndarray:
        """The next point of the stream; advances the index by one."""
        return self.next_points(1)[0]

    def next_points(self, count: int) -> np.ndarray:
        """The next ``count`` points as a (count, d) array."""
        if count < 0:
            raise ValueError("count must be >= 0")
        if count == 0:
            return np.zeros((0, self.dimension))
        with warnings.catch_warnings():
            # the digital net warns about non power-of-two draws; balance is
            # not required for our estimates
            warnings.simplefilter("ignore", UserWarning)
            pts = self._engine.random(count)
        self.index += count
        return pts


@dataclass(frozen=True)
class MarginalSpec:
    """One coordinate's marginal: gaussian(mu, sigma) or uniform(lower, upper)."""

    kind: str
    mu: float = 0.0
    sigma: float = 0.0
    lower: float = 0.0
    upper: float = 0.0

    def __post_init__(self):
        if self.kind == "gaussian":
            if self.sigma < 0:
                raise ValueError("sigma must be >= 0")
        elif self.kind == "uniform":
            if self.lower > self.upper:
                raise ValueError("uniform marginal requires lower <= upper")
        else:
            raise ValueError(f"unknown marginal kind {self.kind!r}")

    @classmethod
    def gaussian(cls, mu: float, sigma: float) -> "MarginalSpec":
        return cls(kind="gaussian", mu=mu, sigma=sigma)

    @classmethod
    def uniform(cls, lower: float, upper: float) -> "MarginalSpec":
        return cls(kind="uniform", lower=lower, upper=upper)


def box_muller(u1: float, u2: float) -> tuple[float, float]:
    """Map two unit variates to a pair of independent standard normals.

    z1 = sqrt(-2 ln u1) cos(2 pi u2), z2 = sqrt(-2 ln u1) sin(2 pi u2).
    ``u1`` must lie in (0, 1]; u1 = 0 hits the log singularity.
    """
    if u1 <= 0.0 or u1 > 1.0:
        raise ValueError("u1 must be in (0, 1]")
    r = math.sqrt(-2.0 * math.log(u1))
    return r * math.cos(2.0 * math.pi * u2), r * math.sin(2.0 * math.pi * u2)


def map_marginal(u: float, m: MarginalSpec, u2: float = 0.0) -> float:
    """Push a unit-cube coordinate through a marginal distribution.

    Uniform marginals scale affinely to [lower, upper].  Gaussian marginals
    consume a second coordinate ``u2`` (Box-Muller needs a pair) and return
    mu + sigma * z1; a degenerate sigma = 0 short-circuits to mu.
    """
    if m.kind == "uniform":
        return m.lower + u * (m.upper - m.lower)
    if m.sigma == 0.0:
        return m.mu
    z1, _ = box_muller(u, u2)
    return m.mu + m.sigma * z1


def normals_from_unit(point: np.ndarray, count: int) -> np.ndarray:
    """First ``count`` standard normals from a unit-cube point.

    Consecutive coordinate pairs (u[2t], u[2t+1]) feed Box-Muller, so the
    point must have at least 2*ceil(count/2) coordinates.  Coordinates equal
    to 0 are nudged to the smallest positive double to dodge the log
    singularity (measure-zero for scrambled streams).
    """
    need = 2 * ((count + 1) // 2)
    if point.shape[0] < need:
        raise ValueError(f"need {need} unit coordinates for {count} normals")
    u = np.asarray(point[:need], dtype=float).reshape(-1, 2)
    u1 = np.maximum(u[:, 0], np.finfo(float).tiny)
    r = np.sqrt(-2.0 * np.log(u1))
    theta = 2.0 * np.pi * u[:, 1]
    z = np.empty(need)
    z[0::2] = r * np.cos(theta)
    z[1::2] = r * np.sin(theta)
    return z[:count]


def gaussian_dimension(n_normals: int) -> int:
    """Unit-cube dimension needed to produce ``n_normals`` Box-Muller normals."""
    return 2 * ((n_normals + 1) // 2)


def sigma_from_b(b: float) -> float:
    """Positional standard deviation (Angstrom) from a B-value (Angstrom^2).

    Uses B = 8 pi^2 sigma^2, so B of 20/80/180 maps to roughly 0.5/1.0/1.5 A.
    """
    if b < 0:
        raise ValueError("B-value must be >= 0")
    return math.sqrt(b / EIGHT_PI_SQ)


def default_resolution(d: int) -> int:
    """Anchored-box grid resolution: 64 per axis for d <= 3, 16 beyond."""
    return 64 if d <= 3 else 16


def star_discrepancy_estimate(points, resolution: int | None = None) -> float:
    """Estimate the star discrepancy on an anchored-box grid.

    Scans every box [0, g) with g on a ``resolution``-per-axis lattice and
    returns the largest |empirical fraction - box volume|.  This lower-bounds
    the true star discrepancy and converges to it as the resolution grows
    (the exact quantity is NP-hard in the dimension).
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.size == 0:
        raise ValueError("point set must be non-empty")
    n, d = pts.shape
    if np.any(pts < 0.0) or np.any(pts >= 1.0):
        raise ValueError("points must lie in [0, 1)^d")
    if resolution is None:
        resolution = default_resolution(d)
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    res = resolution
    # histogram on the res^d lattice, then prefix sums along every axis give
    # the count inside [0, (i+1)/res) for every lattice cell at once
    idx = np.minimum((pts * res).astype(int), res - 1)
    flat = np.ravel_multi_index(idx.T, (res,) * d)
    counts = np.bincount(flat, minlength=res**d).reshape((res,) * d).astype(float)
    for axis in range(d):
        counts = np.cumsum(counts, axis=axis)
    edges = (np.arange(res) + 1) / res
    volume = edges.copy()
    for _ in range(d - 1):
        volume = np.multiply.outer(volume, edges)
    return float(np.max(np.abs(counts / n - volume)))


def sample_budget(d: int, eps: float) -> dict[str, int]:
    """Sample counts to hold discrepancy ``eps`` naively vs with a digital net.

    naive = m^d with m = ceil((d/eps)^3): per-coordinate resolution taken to
    the product space.  lds = ceil((d/eps)^sqrt(log2(1/eps))): the polynomial
    budget of low-discrepancy product-space samplers.  Constants are pinned
    to 1 (the asymptotic statements leave them free); the numbers illustrate
    scaling, they are not load-bearing.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if not (0.0 < eps < 1.0):
        raise ValueError("eps must be in (0, 1)")
    m = math.ceil((d / eps) ** 3)
    naive = m**d
    lds = math.ceil((d / eps) ** math.sqrt(math.log2(1.0 / eps)))
    return {"naive": naive, "lds": lds}
