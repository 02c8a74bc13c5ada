"""Conformer generation and ensemble geometry statistics.

Two sampling modes mirror the two uncertainty parameterizations:

* Cartesian: every atom is displaced along each axis by sigma * z with z a
  standard normal and sigma derived from the atom's (an)isotropic B-value.
  These conformers are *not* bond-consistent -- independent per-atom noise
  stretches bonds slightly; they are used as-is, with a geometric clash
  filter standing in for force-field relaxation.
* Torsion: bond lengths and angles stay rigid and only free dihedrals move,
  each drawn uniformly from its range; downstream atoms rotate about the
  bond axis as a rigid kinematic chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from moluq.molio import Structure, bond_adjacency, bonded_exclusions
from moluq.pairs import not_in_codes, stack_cutoff_pairs
from moluq.sampling import (
    LowDiscrepancySequence,
    gaussian_dimension,
    normals_from_unit,
    sigma_from_b,
)


@dataclass(frozen=True)
class Conformer:
    """One sampled geometry: positions share the source structure's atom order.

    It converts to its (n, 3) positions, so :func:`clash_filter` and
    :func:`rmsd` take it in place of an array.
    """

    positions: np.ndarray
    sample_index: int

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        if pos.ndim != 2 or pos.shape[1] != 3:
            raise ValueError("positions must be an (n, 3) array")
        object.__setattr__(self, "positions", pos)

    def __array__(self, dtype=None, copy=None):
        return np.array(self.positions, dtype=dtype, copy=copy)


@dataclass(frozen=True)
class Ensemble:
    """A sampler's result: ``m`` draws of the positions of a structure's
    atoms, in its atom order.

    ``coords`` is (m, n, 3).  ``reasons`` holds one clash-filter rejection
    reason per draw, None for a draw that was accepted (every draw, when no
    filter ran).  ``accepted`` is the (m,) mask of draws whose reason is
    None.  ``sequence_kind`` names the low-discrepancy stream that drew them
    (see LowDiscrepancySequence.kind).
    """

    coords: np.ndarray
    reasons: tuple[str | None, ...]
    sequence_kind: str
    accepted: np.ndarray = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "accepted",
                           np.array([r is None for r in self.reasons], dtype=bool))


@dataclass(frozen=True)
class DihedralSpec:
    """A rotatable dihedral: four defining atoms plus the set that moves.

    ``atoms`` is (i, j, k, l); the rotation axis is the j-k bond and
    ``downstream`` lists every atom on the k side (l included, i/j/k not).
    """

    atoms: tuple[int, int, int, int]
    downstream: tuple[int, ...]
    lower: float = -math.pi
    upper: float = math.pi

    def __post_init__(self):
        i, j, k, _l = self.atoms
        down = set(self.downstream)
        if {i, j, k} & down:
            raise ValueError("downstream set must exclude the first three dihedral atoms")
        if not (-math.pi <= self.lower <= self.upper <= math.pi):
            raise ValueError("dihedral range must satisfy -pi <= lower <= upper <= pi")


@dataclass(frozen=True)
class TorsionGraph:
    """A structure's rotatable-dihedral model (bond tree + free dihedrals)."""

    structure: Structure
    rotatable: tuple[DihedralSpec, ...] = ()

    @property
    def n_dihedrals(self) -> int:
        return len(self.rotatable)

    def ranges(self) -> np.ndarray:
        return np.array([[d.lower, d.upper] for d in self.rotatable]).reshape(-1, 2)


def _dot(a, b):
    """Row-wise dot products of two (..., 3) stacks.

    Batched matmul runs BLAS ddot on each row, which gives the bits of 1-D
    ``np.dot`` and ``np.linalg.norm``; ``einsum`` and ``(a * b).sum(-1)``
    round differently.
    """
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def dihedral_angle(p0, p1, p2, p3):
    """Signed dihedral (radians, in (-pi, pi]) of four points, or row by row
    of four (m, 3) stacks of points."""
    p0, p1, p2, p3 = (np.asarray(p, dtype=float) for p in (p0, p1, p2, p3))
    b1 = p1 - p0
    b2 = p2 - p1
    b3 = p3 - p2
    n1 = np.cross(b1, b2)
    n2 = np.cross(b2, b3)
    m1 = np.cross(n1, b2 / np.sqrt(_dot(b2, b2))[..., None])
    return np.arctan2(_dot(m1, n2), _dot(n1, n2))


def _rotations_about(axes: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """(m, 3, 3) Rodrigues rotations by ``angles`` about the rows of ``axes``."""
    u = axes / np.sqrt(_dot(axes, axes))[:, None]
    zero = np.zeros(len(u))
    k = np.stack([zero, -u[:, 2], u[:, 1], u[:, 2], zero, -u[:, 0], -u[:, 1], u[:, 0], zero],
                 axis=1).reshape(-1, 3, 3)
    return (np.eye(3) + np.sin(angles)[:, None, None] * k
            + (1.0 - np.cos(angles))[:, None, None] * (k @ k))


def _downstream_of(adj, j: int, k: int) -> tuple[int, ...]:
    """Atoms reachable from k without using the j-k edge (k itself excluded).

    Raises if the walk returns to j, which means the j-k bond lies on a cycle.
    """
    seen = {k}
    stack = [k]
    out = []
    while stack:
        cur = stack.pop()
        for nxt in adj[cur]:
            if cur == k and nxt == j:
                continue
            if nxt == j:
                raise ValueError(f"bond ({j},{k}) lies on a cycle; cannot rotate")
            if nxt not in seen:
                seen.add(nxt)
                out.append(nxt)
                stack.append(nxt)
    return tuple(sorted(out))


def build_torsion_graph(s: Structure) -> TorsionGraph:
    """Detect rotatable dihedrals from the bond graph, each free over [-pi, pi].

    A bond is rotatable when it is not part of a ring and both endpoints have
    further neighbors.  Bonds are oriented away from atom 0 and listed in BFS
    order so torsions can be applied parent-first.
    """
    n = s.n_atoms
    if not s.bonds:
        return TorsionGraph(structure=s, rotatable=())
    adj = bond_adjacency(s.bonds, n)
    # BFS orientation/order from atom 0
    order: list[tuple[int, int]] = []
    seen = {0}
    queue = [0]
    while queue:
        cur = queue.pop(0)
        for nxt in sorted(adj[cur]):
            if nxt not in seen:
                seen.add(nxt)
                order.append((cur, nxt))
                queue.append(nxt)
    specs = []
    for j, k in order:
        if len(adj[j]) < 2 or len(adj[k]) < 2:
            continue
        try:
            downstream = _downstream_of(adj, j, k)
        except ValueError:
            continue  # ring bond: frozen
        i = min(x for x in adj[j] if x != k)
        l = min(x for x in adj[k] if x != j)
        specs.append(DihedralSpec(atoms=(i, j, k, l), downstream=downstream))
    return TorsionGraph(structure=s, rotatable=tuple(specs))


def torsion_graph_from_dihedrals(s: Structure, dihedrals) -> TorsionGraph:
    """Torsion graph from explicit dihedral descriptors.

    ``dihedrals`` is an iterable of (atoms, lower, upper) with atoms the four
    defining indices; downstream sets are derived from the bond graph and a
    cycle through any requested bond raises.
    """
    adj = bond_adjacency(s.bonds, s.n_atoms)
    specs = []
    for atoms, lower, upper in dihedrals:
        if not all(0 <= a < s.n_atoms for a in atoms):
            raise ValueError(f"dihedral {atoms}: atom indices must lie in [0, {s.n_atoms})")
        i, j, k, l = atoms
        downstream = _downstream_of(adj, j, k)
        if l not in downstream:
            raise ValueError(f"dihedral {atoms}: fourth atom is not downstream of bond ({j},{k})")
        specs.append(DihedralSpec(atoms=(i, j, k, l), downstream=downstream,
                                  lower=lower, upper=upper))
    return TorsionGraph(structure=s, rotatable=tuple(specs))


def cartesian_sigmas(s: Structure) -> np.ndarray:
    """(n, 3) per-atom per-axis positional standard deviations from B-values."""
    return sigma_from_b(np.where(s.has_aniso[:, None], s.b_aniso, s.b_iso[:, None]))


def perturb_cartesian(s: Structure, z: np.ndarray) -> np.ndarray:
    """(n, 3) positions: every atom displaced by sigma * z along each axis.

    ``z`` is an (n, 3) array of standard normals; sigmas are the structure's
    B-value-derived values (anisotropic where available).
    """
    z = np.asarray(z, dtype=float)
    if z.shape != (s.n_atoms, 3):
        raise ValueError(f"expected z of shape ({s.n_atoms}, 3), got {z.shape}")
    return s.positions() + cartesian_sigmas(s) * z


def _set_torsions(g: TorsionGraph, angles: np.ndarray) -> np.ndarray:
    """(m, n, 3) positions: ``g``'s structure with its free dihedrals set to
    each row of the (m, d) ``angles``.

    Dihedrals are applied in list (tree) order, each to all m draws in one
    pass; every rotation moves only the downstream set, so bond lengths and
    bond angles are preserved exactly up to floating point.
    """
    lower = np.array([spec.lower for spec in g.rotatable])
    upper = np.array([spec.upper for spec in g.rotatable])
    outside = np.argwhere(~((lower <= angles) & (angles <= upper)))
    if outside.size:
        draw, d = outside[0]
        spec = g.rotatable[d]
        raise ValueError(f"angle {angles[draw, d]} outside range [{spec.lower}, {spec.upper}] "
                         f"for dihedral {spec.atoms}")
    pos = np.repeat(g.structure.positions()[None], len(angles), axis=0)
    for spec, target in zip(g.rotatable, angles.T):
        i, j, k, l = spec.atoms
        current = dihedral_angle(pos[:, i], pos[:, j], pos[:, k], pos[:, l])
        delta = (target - current + math.pi) % (2.0 * math.pi) - math.pi
        # draws already at their target stay put: (p - p_j) @ I + p_j is not p
        rows = np.flatnonzero(delta != 0.0)
        # +rotation about the j->k axis decreases this dihedral convention
        rot = _rotations_about(pos[rows, k] - pos[rows, j], -delta[rows])
        moving = np.ix_(rows, spec.downstream)
        pivot = pos[rows, j][:, None]
        pos[moving] = (pos[moving] - pivot) @ rot.transpose(0, 2, 1) + pivot
    return pos


def apply_torsions(g: TorsionGraph, angles) -> np.ndarray:
    """(n, 3) rigid-chain positions with each free dihedral set to the given
    angle (the one-draw case of :func:`sample_torsion_ensemble`'s kernel)."""
    angles = np.asarray(angles, dtype=float)
    if angles.shape != (g.n_dihedrals,):
        raise ValueError(f"expected {g.n_dihedrals} angles, got shape {angles.shape}")
    return _set_torsions(g, angles[None])[0]


def clash_filter(positions, s: Structure, factor: float = 0.6) -> str | None:
    """Rejection reason of (n, 3) positions of ``s`` by hard-sphere overlap,
    None when they pass.

    Rejects when any pair that is not a 1-2 or 1-3 bonded neighbor sits
    closer than factor * (r_i + r_j); the worst (deepest relative overlap)
    pair is named in the reason, the first in (i, j) order on a tie.
    Candidate pairs come from the neighbour search of
    :func:`moluq.pairs.stack_cutoff_pairs`, so memory grows with the number
    of close pairs rather than n^2.  Stands in for the force-field
    relaxation step of the original accept/reject protocol.  The one-draw
    case of the samplers' screen.
    """
    return _clash_check(s, factor)(np.asarray(positions, dtype=float)[None])[0]


# The samplers screen their draws in stacks of at most this many atoms (one
# draw when a draw alone is larger), one neighbour search per stack, so the
# search's candidate arrays do not grow with the number of draws.
_SCREEN_ATOMS = 2**13


def _clash_check(s: Structure, factor: float):
    """The test of :func:`clash_filter` bound to one structure: an (m, n, 3)
    stack of positions -> m rejection reasons, None for a draw that passes.

    The radii and the bonded-exclusion codes are built once here rather
    than once per draw.
    """
    if not (0.0 < factor <= 1.0):
        raise ValueError("factor must be in (0, 1]")
    n = s.n_atoms
    if n < 2:
        return lambda stack: [None] * len(stack)
    radii = s.radii
    codes = bonded_exclusions(s)
    max_cutoff = factor * (2.0 * radii.max())

    def check(stack: np.ndarray) -> list[str | None]:
        starts, ii, jj, dist = stack_cutoff_pairs(stack, max_cutoff)
        keep = not_in_codes(ii, jj, n, codes)
        draw = np.repeat(np.arange(len(stack)), np.diff(starts))[keep]
        ii, jj, dist = ii[keep], jj[keep], dist[keep]
        cutoff = factor * (radii[ii] + radii[jj])
        ratios = np.divide(dist, cutoff, out=np.full_like(dist, np.inf), where=cutoff > 0)
        reasons: list[str | None] = [None] * len(stack)
        # each draw with a pair under its cutoff, once, in draw order
        rejected = np.flatnonzero(np.bincount(draw[ratios < 1.0], minlength=len(stack)))
        # each rejected draw's worst pair: the first minimum of its own pairs
        for k, lo, hi in zip(rejected.tolist(), np.searchsorted(draw, rejected).tolist(),
                             np.searchsorted(draw, rejected, side="right").tolist()):
            worst = lo + int(np.argmin(ratios[lo:hi]))
            i, j = int(ii[worst]), int(jj[worst])
            reasons[k] = (f"atoms {s.serials[i]}-{s.serials[j]} at "
                          f"{dist[worst]:.3f} A < {cutoff[worst]:.3f} A")
        return reasons

    return check


def sample_cartesian_ensemble(
    s: Structure,
    seed: int,
    n_samples: int,
    clash_factor: float | None = 0.6,
    sigmas: np.ndarray | None = None,
) -> Ensemble:
    """Draw an ensemble by B-value Cartesian perturbation.

    Pure function of (structure, sigmas, seed, n_samples): the unit stream is
    a scrambled low-discrepancy sequence of dimension 2*ceil(3n/2) and every
    consecutive coordinate pair produces two normals.  All draws come from
    one block of points and one displacement.  ``clash_factor`` None
    disables filtering.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if sigmas is None:
        sigmas = cartesian_sigmas(s)
    n_normals = 3 * s.n_atoms
    seq = LowDiscrepancySequence(max(gaussian_dimension(n_normals), 1), scramble_seed=seed,
                                 n_samples=n_samples)
    screen = None if clash_factor is None else _clash_check(s, clash_factor)
    # sigmas * z + positions, in place in the array of normals
    coords = normals_from_unit(seq.next_points(n_samples), n_normals).reshape(
        n_samples, s.n_atoms, 3)
    coords *= sigmas
    coords += s.coords
    return _screened(s, coords, screen, seq.kind)


def sample_torsion_ensemble(
    g: TorsionGraph,
    seed: int,
    n_samples: int,
    clash_factor: float | None = 0.6,
) -> Ensemble:
    """Draw an ensemble over the free dihedrals, uniform within each range."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if g.n_dihedrals == 0:
        raise ValueError("torsion graph has no rotatable dihedrals")
    ranges = g.ranges()
    seq = LowDiscrepancySequence(g.n_dihedrals, scramble_seed=seed, n_samples=n_samples)
    screen = None if clash_factor is None else _clash_check(g.structure, clash_factor)
    angles = ranges[:, 0] + seq.next_points(n_samples) * (ranges[:, 1] - ranges[:, 0])
    return _screened(g.structure, _set_torsions(g, angles), screen, seq.kind)


def _screened(s: Structure, coords: np.ndarray, screen, sequence_kind: str) -> Ensemble:
    """The ensemble of ``coords`` with each draw's clash check, if any, run
    on stacks of at most ``_SCREEN_ATOMS`` atoms."""
    reasons = (None,) * len(coords)
    if screen is not None:
        step = max(1, _SCREEN_ATOMS // max(s.n_atoms, 1))
        reasons = tuple(reason for lo in range(0, len(coords), step)
                        for reason in screen(coords[lo:lo + step]))
    return Ensemble(coords=coords, reasons=reasons, sequence_kind=sequence_kind)


def rmsd(a, b, superpose: bool = False) -> float:
    """Root-mean-square deviation between two (n, 3) position arrays (Angstrom).

    Computed in the fixed laboratory frame by default, since B-value
    perturbations live in the crystal frame; ``superpose`` enables an optimal
    rigid alignment (Kabsch) for torsion ensembles where pose is irrelevant.
    """
    pa, pb = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if pa.shape != pb.shape:
        raise ValueError("position arrays have different atom counts")
    if pa.shape[0] == 0:
        return 0.0
    if superpose:
        ca, cb = pa.mean(axis=0), pb.mean(axis=0)
        qa, qb = pa - ca, pb - cb
        u, _s, vt = np.linalg.svd(qa.T @ qb)
        sign = np.sign(np.linalg.det(u @ vt))
        d = np.diag([1.0, 1.0, sign])
        rot = u @ d @ vt
        qa = qa @ rot
        return float(np.sqrt(((qa - qb) ** 2).sum() / pa.shape[0]))
    return float(np.sqrt(((pa - pb) ** 2).sum() / pa.shape[0]))


def atom_motion_modes(coords) -> tuple[np.ndarray, np.ndarray]:
    """Principal motion directions and variances per atom of an (m, n, 3)
    array of draws.

    Returns (variances, axes): variances is (n, 3) sorted descending, axes is
    (n, 3, 3) with axes[a][k] the unit direction of the k-th mode.  Both come
    from the eigen-decomposition of each atom's 3x3 positional covariance
    (population) across every draw given: pass ``ens.coords[ens.accepted]``
    to leave out the draws the clash filter rejected.
    """
    stack = np.asarray(coords, dtype=float)
    if len(stack) < 4:
        raise ValueError("motion modes need at least 4 conformers")
    per_atom = (stack - stack.mean(axis=0)).transpose(1, 0, 2)  # (n, m, 3)
    cov = per_atom.transpose(0, 2, 1) @ per_atom / len(stack)
    vals, vecs = np.linalg.eigh(cov)
    order = np.argsort(vals, axis=1)[:, ::-1]
    variances = np.take_along_axis(vals, order, axis=1)
    axes = np.take_along_axis(vecs, order[:, None, :], axis=2).transpose(0, 2, 1)
    return variances, axes
