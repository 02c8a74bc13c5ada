"""Quantities of interest evaluated on conformers.

Geometric quantities (solvent-accessible area by sphere-point counting,
enclosed volume by voxel counting), pairwise energies (12-6 Lennard-Jones,
Coulomb with constant or distance-dependent dielectric), implicit-solvent
polarization energy from effective Born radii, and binding-induced deltas
f(A+B) - f(A) - f(B).  In a pipeline row (:func:`row_evaluator`) a non-delta
QOI covers the whole structure, while a delta covers only chains A and B,
each group with its own bonded exclusions; when A+B is the whole structure
the row evaluates that shared term once.

All evaluators are pure and deterministic.  Every sum is exact and rounded
once, so no result depends on the order of the atoms, on how work is
scheduled or on numpy's CPU path: the all-pairs energies and the Born radii
build their terms in dense row blocks, in a few block-sized buffers reused
from block to block with no n x n temporary, and add them with
:func:`moluq.pairs.exact_sums`; areas are totalled with ``math.fsum``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from moluq.molio import Structure, bonded_exclusions
from moluq.pairs import cutoff_pairs, exact_sums
from moluq.vizgrid import cover_spheres, padded_box

COULOMB_CONSTANT = 332.0636  # kcal mol^-1 A e^-2

# Caps the values held by each temporary of the all-pairs row blocks and of
# the LJ coefficient table (256 KiB of float64).
_BLOCK_ELEMENTS = 2**15

# The SASA exposure pass tests a block of _BATCH_POINTS // n_points atoms
# densely against its first _DENSE_SLOTS neighbour slots, then packs the
# points still exposed into batches of up to _BATCH_POINTS points.  On the
# benchmark's 300-atom lattice 25% of the points are still exposed after 4
# slots and 9% after all of them.  Over 3-6 dense slots and 2**13 or 2**14
# points per batch the pass's CPU time varied by under 15%, least at 4 and
# 2**14 (2 cores, numpy 2.4).  A batch spans several blocks so that each
# numpy call covers thousands of points: on small arrays the calls' own
# overhead, spent holding the GIL, keeps two worker threads from overlapping.
_DENSE_SLOTS = 4
_BATCH_POINTS = 2**14

_NO_EXCLUSIONS = np.zeros(0, dtype=np.int64)
_NO_EXCLUSIONS.flags.writeable = False


class QOIKind(str, enum.Enum):
    AREA = "area"
    VOLUME = "volume"
    LJ = "lj"
    COULOMB = "coulomb"
    GB = "gb"
    DELTA_AREA = "delta_area"
    DELTA_VOLUME = "delta_volume"
    DELTA_LJ = "delta_lj"
    DELTA_COULOMB = "delta_coulomb"
    DELTA_GB = "delta_gb"

    @property
    def is_delta(self) -> bool:
        return self.value.startswith("delta_")

    @property
    def base(self) -> "QOIKind":
        return QOIKind(self.value.removeprefix("delta_"))


@dataclass(frozen=True)
class CoulombModel:
    """Dielectric model: constant eps0 or distance-dependent eps(r) = k*r."""

    mode: str = "constant"
    value: float = 1.0

    def __post_init__(self):
        if self.mode not in ("constant", "distance_dependent"):
            raise ValueError(f"unknown dielectric mode {self.mode!r}")
        if not (math.isfinite(self.value) and self.value > 0):
            raise ValueError("dielectric parameter must be finite and positive")

    def epsilon(self, r: np.ndarray) -> np.ndarray:
        if self.mode == "constant":
            return np.full_like(np.asarray(r, dtype=float), self.value)
        return self.value * np.asarray(r, dtype=float)


@dataclass(frozen=True)
class QOIConfig:
    """Shared evaluation parameters for the scalar QOIs."""

    probe: float = 1.4
    n_points: int = 960
    spacing: float = 0.5
    coulomb: CoulombModel = CoulombModel()
    solvent_dielectric: float = 80.0


@dataclass(frozen=True)
class AtomSet:
    """Flat parameter arrays for one group of atoms (a chain, a ligand, ...);
    ``exclusions`` holds the codes of its bonded exclusions
    (:func:`moluq.pairs.exclusion_codes`)."""

    positions: np.ndarray
    radii: np.ndarray
    charges: np.ndarray
    lj_a: np.ndarray
    lj_b: np.ndarray
    serials: tuple[int, ...]
    exclusions: np.ndarray

    @property
    def n(self) -> int:
        return self.positions.shape[0]

    @classmethod
    def from_structure(cls, s: Structure) -> "AtomSet":
        return cls(
            positions=s.positions(),
            radii=s.radii,
            charges=s.charges,
            lj_a=s.lj_a,
            lj_b=s.lj_b,
            serials=tuple(s.serials.tolist()),
            exclusions=bonded_exclusions(s),
        )

    def union(self, other: "AtomSet") -> "AtomSet":
        overlap = set(self.serials) & set(other.serials)
        if overlap:
            raise ValueError(f"atom serials overlap between groups: {sorted(overlap)[:5]}")
        n = self.n + other.n
        # each group's pairs re-encoded for n atoms, B's shifted past A's: A's
        # codes then all come before B's, so the result stays sorted
        codes = []
        for group, off in ((self, 0), (other, self.n)):
            i, j = np.divmod(group.exclusions, max(group.n, 1))
            codes.append((i + off) * n + (j + off))
        return AtomSet(
            positions=np.vstack([self.positions, other.positions]),
            radii=np.concatenate([self.radii, other.radii]),
            charges=np.concatenate([self.charges, other.charges]),
            lj_a=np.concatenate([self.lj_a, other.lj_a]),
            lj_b=np.concatenate([self.lj_b, other.lj_b]),
            serials=self.serials + other.serials,
            exclusions=np.concatenate(codes),
        )


def _row_blocks(positions, context, codes=None):
    """Dense blocks of squared distances: rows [lo, hi) against columns
    (lo, n), the pairs i < j, when ``codes`` (sorted exclusion codes, see
    :func:`moluq.pairs.exclusion_codes`) is given, else against all columns.

    Yields (rows, cols, r2, work, scratch): the row and column slices, their
    (rows, cols) block of squared distances and two scratch blocks, all views
    of three buffers reused from block to block (with fresh block-sized
    temporaries the allocator gave the heap top back to the system and
    faulted it in again on every block).  A block holds about
    ``_BLOCK_ELEMENTS`` values, or one row when a row is longer.  r2 is
    (dx**2 + dy**2) + dz**2, the order of ``((p_i - p_j)**2).sum(axis=-1)``
    and the same bits for (i, j) as for (j, i).  It is inf at (i, i), at the
    pairs j < i and at the excluded pairs, so that their terms are 0.  With a
    ``context``, a pair at distance 0 raises ``ValueError`` naming the first
    such pair in (i, j) order.
    """
    x, y, z = np.asarray(positions, dtype=float).T.copy().reshape(3, -1)
    n = x.size
    upper = codes is not None
    buffers = np.empty((3, min(max(_BLOCK_ELEMENTS, n), n * n)))
    lo = 0
    while lo < n - upper:
        first = lo + 1 if upper else 0
        width = n - first
        hi = min(n - upper, lo + max(1, _BLOCK_ELEMENTS // width))
        rows, cols = slice(lo, hi), slice(first, n)
        r2, work, scratch = (b[:(hi - lo) * width].reshape(hi - lo, width) for b in buffers)
        np.square(np.subtract(x[rows, None], x[cols], out=r2), out=r2)
        for c in (y, z):
            r2 += np.square(np.subtract(c[rows, None], c[cols], out=work), out=work)
        if upper:
            np.copyto(r2[:, :hi - lo], np.inf, where=np.tri(hi - lo, k=-1, dtype=bool))
            k0, k1 = np.searchsorted(codes, [lo * n, hi * n])
            ci, cj = np.divmod(codes[k0:k1], n)
            r2[ci - lo, cj - first] = np.inf
        else:
            r2.reshape(-1)[lo::n + 1] = np.inf
        if context and not r2.all():
            i, j = np.argwhere(r2 == 0.0)[0]
            raise ValueError(f"{context}: coincident atoms at pair ({lo + i}, {first + j})")
        yield rows, cols, r2, work, scratch
        lo = hi


def _pair_sum(positions, codes, context, pair_terms) -> list[float]:
    """Floats whose sum is exactly that of ``pair_terms(rows, cols, r2, work,
    scratch)`` over the pairs i < j whose codes are not in ``codes``, so that
    ``math.fsum`` of them is that sum rounded once.

    ``pair_terms`` gets one block of :func:`_row_blocks` (checked for
    coincident atoms when ``context`` names the kernel) and returns its
    terms in r2 or work.  A term must be 0 where r2 is inf, and the same bits
    for (i, j) as for (j, i), so that the sum does not depend on the atom
    order.
    """
    parts = []
    for rows, cols, r2, work, scratch in _row_blocks(positions, context, codes):
        terms = pair_terms(rows, cols, r2, work, scratch).reshape(1, -1)
        parts += exact_sums(terms, scratch.reshape(1, -1))[:, 0].tolist()
    return parts


def _lj_atom_terms(a, b) -> tuple[np.ndarray, np.ndarray]:
    """Per-atom well depth eps = b^2/(4a) and minimum distance rmin = (2a/b)^(1/6)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    eps = np.divide(b**2, 4.0 * a, out=np.zeros_like(b), where=a > 0)
    rmin = np.where(b > 0, np.divide(2.0 * a, b, out=np.ones_like(a),
                                     where=b > 0) ** (1.0 / 6.0), 0.0)
    return eps, rmin


def _lj_pair_terms(eps_i, rmin_i, eps_j, rmin_j) -> tuple[np.ndarray, np.ndarray]:
    """Pair 12-6 coefficients (a_ij, b_ij): geometric-mean well depth and
    arithmetic-mean minimum distance, the same bits for (i, j) as for (j, i)."""
    eps = np.sqrt(eps_i * eps_j)
    rmin = 0.5 * (rmin_i + rmin_j)
    rmin2 = rmin * rmin
    rmin6 = rmin2 * rmin2 * rmin2
    return eps * (rmin6 * rmin6), 2.0 * eps * rmin6


def lj_energy(positions, lj_a, lj_b, exclusions=_NO_EXCLUSIONS) -> float:
    """12-6 energy sum a_ij/r^12 - b_ij/r^6 over unordered pairs (kcal/mol).

    All pairs except the bonded ``exclusions`` (sorted codes, see
    :func:`moluq.pairs.exclusion_codes`) contribute, and r^6 is
    (r^2 r^2) r^2 from the squared distances.
    Per-atom depth and minimum distance are computed once.  When the atoms
    have P distinct (eps, rmin) rows with P^2 <= ``_BLOCK_ELEMENTS``, a_ij
    and b_ij are computed once per ordered pair of rows and gathered per
    atom pair at ``kind[i] * P + kind[j]``; for more rows they are computed
    per atom pair.  Both give the same bits.
    """
    eps, rmin = _lj_atom_terms(lj_a, lj_b)
    # each atom's (eps, rmin) as the complex eps + rmin*1j, bit for bit: np.unique
    # sorts and compares these as the rows, several times faster than axis=0
    key = np.column_stack([eps, rmin]).view(np.complex128)[:, 0]
    params, kind = np.unique(key, return_inverse=True)
    p = params.size
    if p * p <= _BLOCK_ELEMENTS:
        ki, kj = np.divmod(np.arange(p * p), p)
        a_tab, b_tab = _lj_pair_terms(params.real[ki], params.imag[ki],
                                      params.real[kj], params.imag[kj])

        def coefficients(rows, cols):
            cell = np.add(kind[rows, None] * p, kind[cols])
            return a_tab[cell], b_tab[cell]
    else:
        def coefficients(rows, cols):
            return _lj_pair_terms(eps[rows, None], rmin[rows, None], eps[cols], rmin[cols])

    def terms(rows, cols, r2, work, _scratch):
        a_ij, b_ij = coefficients(rows, cols)
        r6 = np.multiply(r2, r2, out=work)
        r6 *= r2
        np.divide(b_ij, r6, out=r2)
        np.divide(a_ij, np.square(r6, out=r6), out=work)
        work -= r2
        return work

    return math.fsum(_pair_sum(positions, exclusions, "lj_energy", terms))


def coulomb_energy(positions, charges, model: CoulombModel = CoulombModel(),
                   exclusions=_NO_EXCLUSIONS) -> float:
    """Pairwise electrostatic sum C q_i q_j / (eps(r) r) (kcal/mol): the exact
    sum of q_i q_j / (eps(r) r), rounded once, times C, over the pairs not in
    ``exclusions`` (taken as by :func:`lj_energy`)."""
    charges = np.asarray(charges, dtype=float)

    def terms(rows, cols, r2, work, _scratch):
        r = np.sqrt(r2, out=r2)
        denom = np.multiply(model.epsilon(r), r, out=work)
        out = np.multiply(charges[rows, None], charges[cols], out=r2)
        out /= denom
        return out

    return COULOMB_CONSTANT * math.fsum(_pair_sum(positions, exclusions, "coulomb_energy",
                                                  terms))


def born_radii(positions, vdw_radii) -> np.ndarray:
    """Effective Born radii by pairwise volume descreening (Angstrom).

    1/R_i = 1/rho_i - sum_j V_j / (4 pi r_ij^4) with V_j the sphere volume of
    atom j, clamped so R_i >= rho_i / 2; deep burial, 1/R_i <= 0, takes that
    floor.  Each row's sum over j != i is exact, rounded once, so R_i does not
    depend on the atom order.  Rows run in the blocks of :func:`_row_blocks`;
    the term j = i is set to +0.0.
    """
    rho = np.asarray(vdw_radii, dtype=float)
    if not np.all((rho > 0) & (rho < np.inf)):  # NaN fails too
        raise ValueError("van der Waals radii must be finite and positive")
    rho3 = rho * rho * rho
    descreened = np.empty(rho.size)
    for rows, _cols, r2, descreen, scratch in _row_blocks(positions, "born_radii"):
        np.square(r2, out=descreen)
        descreen *= 3.0
        np.divide(rho3, descreen, out=descreen)
        # +0.0 already, unless rho_i^3 overflowed to inf (inf / inf)
        descreen.reshape(-1)[rows.start::rho.size + 1] = 0.0
        descreened[rows] = list(map(math.fsum, exact_sums(descreen, scratch).T.tolist()))
    inv = 1.0 / rho - descreened
    return np.maximum(1.0 / np.where(inv > 0.0, inv, np.inf), rho / 2.0)  # 1 / inf = 0


def gb_polarization(positions, charges, radii_born, solvent_dielectric: float = 80.0) -> float:
    """Polarization energy of the analytic implicit-solvent form (kcal/mol).

    -(tau/2) C sum_{i,j} q_i q_j / sqrt(r^2 + R_i R_j exp(-r^2/(4 R_i R_j)))
    over all ordered pairs including i = j; tau = 1 - 1/eps for a solvent
    relative permittivity eps, which must be finite and >= 1.  A term has
    the same bits for (i, j) as for (j, i), so the exact sum is twice the
    exact sum over i < j plus the diagonal, rounded once; coincident atoms
    give finite terms.
    """
    if not (math.isfinite(solvent_dielectric) and solvent_dielectric >= 1.0):
        raise ValueError("solvent dielectric must be finite and >= 1")
    charges = np.asarray(charges, dtype=float)
    rb = np.asarray(radii_born, dtype=float)
    if rb.size == 0:
        return 0.0
    if not np.all((rb > 0) & (rb < np.inf)):  # NaN fails too
        raise ValueError("Born radii must be finite and positive")
    tau = 1.0 - 1.0 / solvent_dielectric

    def terms(rows, cols, r2, work, scratch):
        rr = np.multiply(rb[rows, None], rb[cols], out=scratch)
        np.multiply(4.0, rr, out=work)
        # -(r2 / x) has the bits of -r2 / x: IEEE division is sign-symmetric
        np.divide(r2, work, out=work)
        np.negative(work, out=work)
        np.exp(work, out=work)
        work *= rr
        np.add(r2, work, out=work)
        out = np.multiply(charges[rows, None], charges[cols], out=r2)
        out /= np.sqrt(work, out=work)
        return out

    # each pair i < j stands for (i, j) and (j, i); at i = j, r = 0 and the
    # denominator, the square root of R_i R_i rounded, is R_i exactly
    parts = (2 * _pair_sum(positions, _NO_EXCLUSIONS, None, terms)
             + (charges * charges / rb).tolist())
    return float(-(tau / 2.0) * COULOMB_CONSTANT * math.fsum(parts))


def sphere_points(n: int) -> np.ndarray:
    """Deterministic quasi-uniform points on the unit sphere (golden spiral)."""
    if n < 1:
        raise ValueError("need at least one sphere point")
    k = np.arange(n)
    z = 1.0 - 2.0 * (k + 0.5) / n
    golden = math.pi * (3.0 - math.sqrt(5.0))
    theta = golden * k
    rho = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return np.column_stack([rho * np.cos(theta), rho * np.sin(theta), z])


def _neighbour_table(positions, inflated, groups=None):
    """Padded (n, k_max) table of each atom's overlapping neighbours.

    Atom j != i is a neighbour of i when d_ij < inflated_i + inflated_j, the
    strict test of the dense distance block, re-applied to the pairs of the
    neighbour search.  Row i lists its neighbours in slots < count[i]: first
    the n_same[i] of them in i's own group (all of them without ``groups``),
    then the others, each part nearest first.  The remaining slots hold
    index 0 and must be masked by the caller.

    Returns (table, count, n_same).
    """
    n = positions.shape[0]
    ii, jj, dist = cutoff_pairs(positions, 2.0 * inflated.max())
    keep = dist < inflated[ii] + inflated[jj]
    rows = np.concatenate([ii[keep], jj[keep]])
    cols = np.concatenate([jj[keep], ii[keep]])
    dist = np.concatenate([dist[keep], dist[keep]])
    other = np.zeros(rows.size, dtype=bool) if groups is None else groups[rows] != groups[cols]
    order = np.lexsort((dist, other, rows))
    rows, cols, other = rows[order], cols[order], other[order]
    count = np.bincount(rows, minlength=n)
    table = np.zeros((n, int(count.max(initial=0))), dtype=np.intp)
    table[rows, np.arange(rows.size) - (np.cumsum(count) - count)[rows]] = cols
    return table, count, np.bincount(rows[~other], minlength=n)


def _checked_spheres(positions, radii, context: str):
    """Positions and radii as float arrays; ValueError unless the positions
    are finite and the radii finite and >= 0."""
    positions = np.asarray(positions, dtype=float)
    radii = np.asarray(radii, dtype=float)
    if not np.all(np.isfinite(positions)):
        raise ValueError(f"{context}: atom positions must be finite")
    if not np.all((radii >= 0) & (radii < np.inf)):  # NaN fails too
        raise ValueError(f"{context}: radii must be finite and >= 0")
    return positions, radii


def _exposure_mask(positions, radii, probe, n_points, groups=None):
    """Boolean (n, n_points) exposure of each atom's inflated-sphere points.

    A point of atom i is buried when it lies strictly inside the inflated
    sphere of one of i's neighbours (see :func:`_neighbour_table`).  With
    ``groups`` (one label per atom) a second mask counts only same-group
    neighbours as burying: row i of it equals the exposure of atom i computed
    on its own group alone.  No n x n array is built.

    Each point is tested only until it is decided.  Atoms run in blocks of
    ``_BATCH_POINTS // n_points``, in order of neighbour count, so blocks
    pad few slots.  A block's first ``_DENSE_SLOTS`` slots are tested
    against all of its points.  The points still exposed are packed,
    several blocks to a batch of at most ``_BATCH_POINTS``, and tested slot
    by slot against the remaining slots; buried points leave the batch once
    they are half of it.  Same-group slots come first, so a point first
    buried at slot s is own-buried exactly when s < n_same[i], and a buried
    point is decided for both masks.  Every test computes
    ``(dx**2 + dy**2) + dz**2 < r**2`` from the same values as a test of
    every point against every neighbour, and which slot buries a point does
    not change the masks, so they are the masks of that test.

    Returns (masks, own_masks or None, inflated).
    """
    if not (math.isfinite(probe) and probe >= 0):
        raise ValueError("probe radius must be finite and >= 0")
    if n_points < 32:
        raise ValueError("n_points must be >= 32")
    positions, radii = _checked_spheres(positions, radii, "sasa")
    n = positions.shape[0]
    unit = sphere_points(n_points)
    inflated = radii + probe
    masks = np.ones((n, n_points), dtype=bool)
    own_masks = None if groups is None else np.ones((n, n_points), dtype=bool)
    if n < 2:
        return masks, own_masks, inflated
    table, count, n_same = _neighbour_table(positions, inflated,
                                            None if groups is None else np.asarray(groups))
    k = table.shape[1]
    # (x, y, z, r) of the neighbour in each (slot, atom).  A packed point is
    # (x, y, z, 0), so squaring point - neighbour gives dx**2, dy**2, dz**2
    # and r**2.  Padding slots get r = 0: no squared distance is below 0.
    nbr = np.empty((k, n, 4))
    for c in range(3):
        nbr[:, :, c] = positions[table.T, c]
    nbr[:, :, 3] = np.where(np.arange(k)[:, None] < count, inflated[table.T], 0.0)
    step = max(1, _BATCH_POINTS // n_points)
    size = step * n_points
    # the packed batch: points, their atoms, their entries of masks.reshape(-1)
    points, work = np.zeros((2, size, 4))
    atom, flat = np.empty((2, size), dtype=np.intp)
    flat_masks = masks.reshape(-1)
    flat_own = None if own_masks is None else own_masks.reshape(-1)

    def bury_packed(live):
        stale = 0
        last_same = int(n_same[atom[:live]].max())
        for slot in range(_DENSE_SLOTS, int(count[atom[:live]].max())):
            sq = nbr[slot].take(atom[:live], axis=0, out=work[:live], mode="clip")
            np.square(np.subtract(points[:live], sq, out=sq), out=sq)
            # (dx**2 + dy**2) + dz**2: the order in which .sum(axis=-1) adds x, y, z
            d2 = np.add(sq[:, 0], sq[:, 1], out=sq[:, 0])
            d2 += sq[:, 2]
            hits = (d2 < sq[:, 3]).nonzero()[0]
            if hits.size == 0:
                continue
            flat_masks[flat[hits]] = False
            if flat_own is not None and slot < last_same:
                flat_own[flat[hits[slot < n_same[atom[hits]]]]] = False
            stale += hits.size
            if 2 * stale > live:
                keep = flat_masks[flat[:live]].nonzero()[0]
                for buf in (points, atom, flat):
                    buf[:live].take(keep, axis=0, out=buf[:keep.size], mode="clip")
                live, stale = keep.size, 0
                if live == 0:
                    return

    order = np.argsort(count, kind="stable")
    order = order[count[order] > 0]
    # one block's points (one array per axis), squared distances and scratch
    block = np.empty((5, step, n_points))
    block_exposed = np.empty((2, step, n_points), dtype=bool)
    fill = 0
    for lo in range(0, order.size, step):
        rows = order[lo:lo + step]
        dense = min(_DENSE_SLOTS, int(count[rows[-1]]))
        px, py, pz, d2, w = block[:, :rows.size]
        block_exposed.fill(True)
        exposed, own_exposed = block_exposed[:, :rows.size]
        # the points positions[i] + inflated[i] * unit
        for c, p in enumerate((px, py, pz)):
            np.multiply(inflated[rows, None], unit[:, c], out=p)
            np.add(positions[rows, c, None], p, out=p)
        for slot in range(dense):
            # (dx**2 + dy**2) + dz**2: the order in which .sum(axis=-1) adds x, y, z
            np.square(np.subtract(px, nbr[slot, rows, 0, None], out=d2), out=d2)
            for c, p in ((1, py), (2, pz)):
                d2 += np.square(np.subtract(p, nbr[slot, rows, c, None], out=w), out=w)
            buried = d2 < nbr[slot, rows, 3, None] ** 2
            exposed &= ~buried
            if groups is not None:
                buried &= (slot < n_same[rows])[:, None]
                own_exposed &= ~buried
        masks[rows] = exposed
        if own_masks is not None:
            own_masks[rows] = own_exposed
        # pack the exposed points of the atoms with slots left (rows sort by count,
        # so those atoms come last)
        left = np.searchsorted(count[rows], dense, side="right")
        undecided = left * n_points + np.flatnonzero(exposed[left:])
        if fill + undecided.size > size:
            bury_packed(fill)
            fill = 0
        packed = slice(fill, fill + undecided.size)
        for c, p in enumerate((px, py, pz)):
            points[packed, c] = p.reshape(-1)[undecided]
        atom[packed] = rows[undecided // n_points]
        flat[packed] = atom[packed] * n_points + undecided % n_points
        fill += undecided.size
    if fill:
        bury_packed(fill)
    return masks, own_masks, inflated


def _atom_areas(masks, inflated) -> np.ndarray:
    return masks.mean(axis=1) * 4.0 * math.pi * inflated**2


def sasa(positions, radii, probe: float = 1.4, n_points: int = 960, groups=None):
    """Solvent-accessible surface area by sphere-point counting.

    Each atom's sphere of radius r + probe carries ``n_points`` quasi-uniform
    points; the exposed fraction times 4 pi (r+probe)^2 is its area.  Points
    are tested only against neighbours from the pair layer's neighbour
    search, in bounded blocks, so memory grows with n * n_points rather than
    n^2.  Radii must be finite and >= 0 and positions finite.

    Returns (total, per-atom areas) in Angstrom^2, the total by ``math.fsum``
    so that it does not depend on the atom order.  With ``groups`` (one label
    per atom) it returns (total, per-atom areas, per-atom areas alone), where
    atom i's area alone is its area on the atoms of its own group only, from
    the same pass.
    """
    masks, own, inflated = _exposure_mask(positions, radii, probe, n_points, groups)
    per_atom = _atom_areas(masks, inflated)
    total = math.fsum(per_atom.tolist())
    if own is None:
        return total, per_atom
    return total, per_atom, _atom_areas(own, inflated)


def _delta_area(both: AtomSet, n_a: int, config: QOIConfig) -> tuple[float, float]:
    """sasa(A+B) and sasa(A+B) - sasa(A) - sasa(B) from one grouped
    :func:`sasa` pass over A+B; the delta is the exact sum of each atom's
    area in A+B less its area alone, rounded once, so it is 0.0 when
    neither group buries a point of the other."""
    groups = np.arange(both.n) >= n_a
    whole, per_atom, alone = sasa(both.positions, both.radii, config.probe, config.n_points,
                                  groups)
    return whole, math.fsum(per_atom.tolist() + (-alone).tolist())


def volume(positions, radii, spacing: float) -> float:
    """Occupied volume by voxel-center counting (Angstrom^3).

    The grid covers the bounding box padded by max radius + spacing; a voxel
    counts when its center lies inside any atom sphere.  Radii must be finite
    and >= 0 and positions finite.
    """
    if not (math.isfinite(spacing) and spacing > 0):
        raise ValueError("spacing must be finite and positive")
    positions, radii = _checked_spheres(positions, radii, "volume")
    if positions.shape[0] == 0:
        return 0.0
    lo, dims = padded_box(positions, radii, spacing)
    return float(np.count_nonzero(cover_spheres(positions, radii, lo, spacing, dims))) * spacing**3


def evaluate_qoi(kind: QOIKind, a: AtomSet, config: QOIConfig = QOIConfig()) -> float:
    """Evaluate one non-delta QOI on a group (:func:`delta_qoi` takes two)."""
    kind = QOIKind(kind)
    if kind.is_delta:
        raise ValueError(f"{kind.value} compares two atom groups: call delta_qoi "
                         f"with {kind.base.value}")
    if kind is QOIKind.AREA:
        return sasa(a.positions, a.radii, config.probe, config.n_points)[0]
    if kind is QOIKind.VOLUME:
        return volume(a.positions, a.radii, config.spacing)
    if kind is QOIKind.LJ:
        return lj_energy(a.positions, a.lj_a, a.lj_b, exclusions=a.exclusions)
    if kind is QOIKind.COULOMB:
        return coulomb_energy(a.positions, a.charges, config.coulomb,
                              exclusions=a.exclusions)
    if kind is QOIKind.GB:
        rb = born_radii(a.positions, a.radii)
        return gb_polarization(a.positions, a.charges, rb, config.solvent_dielectric)
    raise ValueError(f"unhandled QOI kind {kind}")


def delta_qoi(kind: QOIKind, a: AtomSet, b: AtomSet, config: QOIConfig = QOIConfig()) -> float:
    """Binding-induced change f(A+B) - f(A) - f(B) of a non-delta QOI.

    For pairwise-additive energies this equals the cross-pair interaction sum
    exactly; for area/volume/GB it captures occlusion and descreening.
    """
    kind = QOIKind(kind)
    if kind.is_delta:
        raise ValueError("delta_qoi expects a base (non-delta) QOI kind")
    if a.n == 0 or b.n == 0:
        return 0.0
    both = a.union(b)
    if kind is QOIKind.AREA:
        return _delta_area(both, a.n, config)[1]
    return (evaluate_qoi(kind, both, config=config)
            - evaluate_qoi(kind, a, config=config)
            - evaluate_qoi(kind, b, config=config))


def row_evaluator(kinds, s: Structure, idx_a, idx_b, config: QOIConfig = QOIConfig()):
    """Function mapping (n, 3) positions of ``s`` to {kind value: QOI} for ``kinds``.

    Non-delta kinds cover all of ``s``; ``delta_*`` kinds cover A = atoms
    ``idx_a`` and B = atoms ``idx_b``.  Each group's parameters and bonded
    exclusions are built here, once per run; overlapping groups raise
    ``ValueError`` here.  Each row evaluates every f(group) it needs once and
    computes each delta as f(A+B) - f(A) - f(B) in :func:`delta_qoi`'s order,
    with delta_area and f(A+B) for area from one grouped :func:`sasa` call.
    When A then B is all of ``s`` and their union has the exclusions of
    ``s``, A+B is the whole, so f(A+B) is the non-delta value.  A delta over
    an empty group is 0.0.
    """
    kinds = [QOIKind(k) for k in kinds]
    full = AtomSet.from_structure(s)
    idx_a, idx_b = list(idx_a), list(idx_b)
    split = any(k.is_delta for k in kinds) and bool(idx_a) and bool(idx_b)
    groups = {"whole": (full, slice(None))}  # name: (atom set, its rows of positions)
    ab = "whole"
    if split:
        groups["a"] = (AtomSet.from_structure(s.subset(idx_a)), idx_a)
        groups["b"] = (AtomSet.from_structure(s.subset(idx_b)), idx_b)
        both = groups["a"][0].union(groups["b"][0])
        if not (idx_a + idx_b == list(range(full.n))
                and np.array_equal(both.exclusions, full.exclusions)):
            ab = "a+b"
            groups[ab] = (both, idx_a + idx_b)

    def evaluate(positions) -> dict[str, float]:
        sets = {name: replace(group, positions=positions[rows])
                for name, (group, rows) in groups.items()}
        memo: dict[tuple[QOIKind, str], float] = {}  # (base kind, group): f(group)
        if split and QOIKind.DELTA_AREA in kinds:
            memo[QOIKind.AREA, ab], delta_area = _delta_area(sets[ab], len(idx_a), config)

        def f(kind: QOIKind, group: str) -> float:
            if (kind, group) not in memo:
                memo[kind, group] = evaluate_qoi(kind, sets[group], config=config)
            return memo[kind, group]

        row = {}
        for kind in kinds:
            if not kind.is_delta:
                row[kind.value] = f(kind, "whole")
            elif not split:
                row[kind.value] = 0.0
            elif kind is QOIKind.DELTA_AREA:
                row[kind.value] = delta_area
            else:
                row[kind.value] = f(kind.base, ab) - f(kind.base, "a") - f(kind.base, "b")
        return row

    return evaluate
