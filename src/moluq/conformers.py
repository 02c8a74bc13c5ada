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
from dataclasses import dataclass

import numpy as np

from moluq.molio import EIGHT_PI_SQ, Structure, bond_adjacency, bonded_exclusions
from moluq.pairs import cutoff_pairs, exclusion_codes, not_in_codes
from moluq.sampling import (
    LowDiscrepancySequence,
    gaussian_dimension,
    normals_from_unit,
)


@dataclass(frozen=True)
class Conformer:
    """One sampled geometry: positions share the source structure's atom order."""

    positions: np.ndarray
    sample_index: int
    accepted: bool = True
    rejection_reason: str | None = None

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        if pos.ndim != 2 or pos.shape[1] != 3:
            raise ValueError("positions must be an (n, 3) array")
        object.__setattr__(self, "positions", pos)


@dataclass(frozen=True)
class Ensemble:
    """Conformers drawn from ``source``; ``sequence_kind`` names the
    low-discrepancy stream that drew them (see LowDiscrepancySequence.kind)."""

    source: Structure
    conformers: tuple[Conformer, ...]
    seed: int
    sequence_kind: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "conformers", tuple(self.conformers))
        n = self.source.n_atoms
        for c in self.conformers:
            if c.positions.shape[0] != n:
                raise ValueError("conformer atom count differs from source structure")

    def accepted(self) -> list[Conformer]:
        return [c for c in self.conformers if c.accepted]


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


def dihedral_angle(p0, p1, p2, p3) -> float:
    """Signed dihedral (radians, in (-pi, pi]) of four points."""
    p0, p1, p2, p3 = (np.asarray(p) for p in (p0, p1, p2, p3))
    b1 = p1 - p0
    b2 = p2 - p1
    b3 = p3 - p2
    n1 = np.cross(b1, b2)
    n2 = np.cross(b2, b3)
    m1 = np.cross(n1, b2 / np.linalg.norm(b2))
    return float(np.arctan2(np.dot(m1, n2), np.dot(n1, n2)))


def _rotation_about(axis: np.ndarray, angle: float) -> np.ndarray:
    u = axis / np.linalg.norm(axis)
    k = np.array([[0.0, -u[2], u[1]], [u[2], 0.0, -u[0]], [-u[1], u[0], 0.0]])
    return np.eye(3) + math.sin(angle) * k + (1.0 - math.cos(angle)) * (k @ k)


def _wrap_angle(a: float) -> float:
    return (a + math.pi) % (2.0 * math.pi) - math.pi


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


def build_torsion_graph(
    s: Structure,
    ranges: dict[tuple[int, int, int, int], tuple[float, float]] | None = None,
    default_range: tuple[float, float] = (-math.pi, math.pi),
    root: int = 0,
) -> TorsionGraph:
    """Detect rotatable dihedrals from the bond graph.

    A bond is rotatable when it is not part of a ring and both endpoints have
    further neighbors.  Bonds are oriented away from ``root`` and listed in
    BFS order so torsions can be applied parent-first.  ``ranges`` overrides
    the [lower, upper] interval per dihedral, keyed by its four atom indices.
    """
    n = s.n_atoms
    if not s.bonds:
        return TorsionGraph(structure=s, rotatable=())
    adj = bond_adjacency(s.bonds, n)
    # BFS orientation/order from the root
    order: list[tuple[int, int]] = []
    seen = {root}
    queue = [root]
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
        lo, hi = default_range
        if ranges and (i, j, k, l) in ranges:
            lo, hi = ranges[(i, j, k, l)]
        specs.append(DihedralSpec(atoms=(i, j, k, l), downstream=downstream, lower=lo, upper=hi))
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
        i, j, k, l = atoms
        downstream = _downstream_of(adj, j, k)
        if l not in downstream:
            raise ValueError(f"dihedral {atoms}: fourth atom is not downstream of bond ({j},{k})")
        specs.append(DihedralSpec(atoms=(i, j, k, l), downstream=downstream,
                                  lower=lower, upper=upper))
    return TorsionGraph(structure=s, rotatable=tuple(specs))


def cartesian_sigmas(s: Structure) -> np.ndarray:
    """(n, 3) per-atom per-axis positional standard deviations from B-values."""
    b = np.where(s.has_aniso[:, None], s.b_aniso, s.b_iso[:, None])
    if np.any(b < 0):
        raise ValueError("B-value must be >= 0")
    return np.sqrt(b / EIGHT_PI_SQ)


def perturb_cartesian(s: Structure, z: np.ndarray, sigmas: np.ndarray | None = None,
                      sample_index: int = 0) -> Conformer:
    """Displace every atom by sigma * z along each axis.

    ``z`` is an (n, 3) array of standard normals; sigmas default to the
    structure's B-value-derived values (anisotropic where available).
    """
    z = np.asarray(z, dtype=float)
    if z.shape != (s.n_atoms, 3):
        raise ValueError(f"expected z of shape ({s.n_atoms}, 3), got {z.shape}")
    if sigmas is None:
        sigmas = cartesian_sigmas(s)
    return Conformer(positions=s.positions() + sigmas * z, sample_index=sample_index)


def apply_torsions(g: TorsionGraph, angles, sample_index: int = 0) -> Conformer:
    """Rigid-chain conformer with each free dihedral set to the given angle.

    Dihedrals are applied in list (tree) order; every rotation moves only the
    downstream set, so bond lengths and bond angles are preserved exactly up
    to floating point.
    """
    angles = np.asarray(angles, dtype=float)
    if angles.shape != (g.n_dihedrals,):
        raise ValueError(f"expected {g.n_dihedrals} angles, got shape {angles.shape}")
    for spec, target in zip(g.rotatable, angles):
        if not (spec.lower <= target <= spec.upper):
            raise ValueError(
                f"angle {target} outside range [{spec.lower}, {spec.upper}] "
                f"for dihedral {spec.atoms}"
            )
    pos = g.structure.positions().copy()
    for spec, target in zip(g.rotatable, angles):
        i, j, k, l = spec.atoms
        current = dihedral_angle(pos[i], pos[j], pos[k], pos[l])
        delta = _wrap_angle(target - current)
        if delta == 0.0:
            continue
        # +rotation about the j->k axis decreases this dihedral convention
        rot = _rotation_about(pos[k] - pos[j], -delta)
        moving = list(spec.downstream)
        pos[moving] = (pos[moving] - pos[j]) @ rot.T + pos[j]
    return Conformer(positions=pos, sample_index=sample_index)


def clash_filter(c: Conformer, s: Structure, factor: float = 0.6) -> Conformer:
    """Accept or reject a conformer by hard-sphere overlap.

    Rejects when any pair that is not a 1-2 or 1-3 bonded neighbor sits
    closer than factor * (r_i + r_j); the worst (deepest relative overlap)
    pair is named in the rejection reason, the first in (i, j) order on a
    tie.  Candidate pairs come from the neighbour search of
    :func:`moluq.pairs.cutoff_pairs`, so memory grows with the number of
    close pairs rather than n^2.  Stands in for the force-field relaxation
    step of the original accept/reject protocol.
    """
    return _clash_filter_for(s, factor)(c)


def _clash_filter_for(s: Structure, factor: float):
    """:func:`clash_filter` bound to one structure, for many conformers of it.

    The radii and the bonded-exclusion codes are built once here rather
    than once per conformer.
    """
    if not (0.0 < factor <= 1.0):
        raise ValueError("factor must be in (0, 1]")
    n = s.n_atoms
    if n < 2:
        return lambda c: c
    radii = s.radii
    codes = exclusion_codes(bonded_exclusions(s), n)
    max_cutoff = factor * (2.0 * radii.max())

    def check(c: Conformer) -> Conformer:
        ii, jj, dist = cutoff_pairs(c.positions, max_cutoff)
        keep = not_in_codes(ii, jj, n, codes)
        ii, jj, dist = ii[keep], jj[keep], dist[keep]
        cutoff = factor * (radii[ii] + radii[jj])
        ratios = np.divide(dist, cutoff, out=np.full_like(dist, np.inf), where=cutoff > 0)
        if ratios.size == 0 or ratios.min() >= 1.0:
            return c
        worst = int(np.argmin(ratios))
        i, j = int(ii[worst]), int(jj[worst])
        reason = (
            f"atoms {s.serials[i]}-{s.serials[j]} at "
            f"{dist[worst]:.3f} A < {cutoff[worst]:.3f} A"
        )
        return Conformer(positions=c.positions, sample_index=c.sample_index,
                         accepted=False, rejection_reason=reason)

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
    consecutive coordinate pair produces two normals.  ``clash_factor`` None
    disables filtering.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if sigmas is None:
        sigmas = cartesian_sigmas(s)
    n_normals = 3 * s.n_atoms
    seq = LowDiscrepancySequence(max(gaussian_dimension(n_normals), 1), scramble_seed=seed,
                                 n_samples=n_samples)
    screen = None if clash_factor is None else _clash_filter_for(s, clash_factor)
    conformers = []
    for idx in range(n_samples):
        point = seq.next_point()
        z = normals_from_unit(point, n_normals).reshape(s.n_atoms, 3)
        conf = perturb_cartesian(s, z, sigmas=sigmas, sample_index=idx)
        if screen is not None:
            conf = screen(conf)
        conformers.append(conf)
    return Ensemble(source=s, conformers=tuple(conformers), seed=seed,
                    sequence_kind=seq.kind)


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
    screen = None if clash_factor is None else _clash_filter_for(g.structure, clash_factor)
    conformers = []
    for idx in range(n_samples):
        u = seq.next_point()
        angles = ranges[:, 0] + u * (ranges[:, 1] - ranges[:, 0])
        conf = apply_torsions(g, angles, sample_index=idx)
        if screen is not None:
            conf = screen(conf)
        conformers.append(conf)
    return Ensemble(source=g.structure, conformers=tuple(conformers), seed=seed,
                    sequence_kind=seq.kind)


def rmsd(a: Conformer, b: Conformer, superpose: bool = False) -> float:
    """Root-mean-square deviation between two conformers (Angstrom).

    Computed in the fixed laboratory frame by default, since B-value
    perturbations live in the crystal frame; ``superpose`` enables an optimal
    rigid alignment (Kabsch) for torsion ensembles where pose is irrelevant.
    """
    pa, pb = a.positions, b.positions
    if pa.shape != pb.shape:
        raise ValueError("conformers have different atom counts")
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


def rmsd_matrix(e: Ensemble, superpose: bool = False) -> np.ndarray:
    """Symmetric zero-diagonal RMSD matrix over the ensemble's conformers."""
    confs = e.conformers
    n = len(confs)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            out[i, j] = out[j, i] = rmsd(confs[i], confs[j], superpose=superpose)
    return out


def torsion_variability(e: Ensemble, g: TorsionGraph) -> np.ndarray:
    """Per-dihedral circular standard deviation across accepted conformers.

    circular std = sqrt(-2 ln Rbar) with Rbar the mean resultant length;
    Rbar = 0 (e.g. antipodal angles) is reported as inf, the maximal
    variability sentinel.
    """
    accepted = e.accepted()
    if len(accepted) < 2:
        raise ValueError("torsion variability needs at least 2 accepted conformers")
    out = np.empty(g.n_dihedrals)
    for d, spec in enumerate(g.rotatable):
        i, j, k, l = spec.atoms
        thetas = np.array([
            dihedral_angle(c.positions[i], c.positions[j], c.positions[k], c.positions[l])
            for c in accepted
        ])
        rbar = float(np.hypot(np.cos(thetas).mean(), np.sin(thetas).mean()))
        # rbar at numeric zero (antipodal angle sets) means maximal variability
        out[d] = math.inf if rbar <= 1e-12 else math.sqrt(max(0.0, -2.0 * math.log(min(rbar, 1.0))))
    return out


def atom_motion_modes(e: Ensemble) -> tuple[np.ndarray, np.ndarray]:
    """Principal motion directions and variances per atom.

    Returns (variances, axes): variances is (n, 3) sorted descending, axes is
    (n, 3, 3) with axes[a][k] the unit direction of the k-th mode.  Both come
    from the eigen-decomposition of each atom's 3x3 positional covariance
    (population) across accepted conformers.
    """
    accepted = e.accepted()
    if len(accepted) < 4:
        raise ValueError("motion modes need at least 4 accepted conformers")
    stack = np.stack([c.positions for c in accepted])  # (m, n, 3)
    centered = stack - stack.mean(axis=0)
    n = stack.shape[1]
    variances = np.empty((n, 3))
    axes = np.empty((n, 3, 3))
    for a in range(n):
        cov = centered[:, a, :].T @ centered[:, a, :] / stack.shape[0]
        vals, vecs = np.linalg.eigh(cov)
        order = np.argsort(vals)[::-1]
        variances[a] = vals[order]
        axes[a] = vecs[:, order].T
    return variances, axes
