"""Merged code paths against verbatim copies of the duplicates they replaced.

Each oracle below is the former second implementation of a job: the voxel
loops of ``qoi.volume`` and ``vizgrid.occupancy_map``, the single-config
binding-site loop, the counting in ``chernoff_table``, the per-model
``Structure`` rebuild of ``write_pdb_models``, and the dense per-atom
Shrake-Rupley loop run once per group of ``delta_area`` (its total by
``math.fsum``, as ``sasa`` adds the atom areas).  The merged code must
reproduce them exactly (``==``, not approx) on seeded, perturbed zigzag
lattices.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from moluq.bindsite import BindingSiteMap, ContactModel, Pose, binding_site_prob_multi
from moluq.certificates import DEFAULT_T_GRID, EmpiricalDistribution, chernoff_table
from moluq.molio import (
    ParamTable,
    _coord,
    _format_atom_name,
    _int_col,
    assign_params,
)
from moluq.qoi import (
    AtomSet,
    QOIConfig,
    QOIKind,
    _exposure_mask,
    delta_qoi,
    sasa,
    sphere_points,
    volume,
)
from moluq.vizgrid import occupancy_map
from conftest import lattice, make_structure, models_text

ELEMENTS = ("C", "C", "N", "C", "O", "S", "H")


def lattice_structure(n_atoms, seed, jitter=0.05):
    rng = np.random.default_rng(seed)
    pos = lattice(n_atoms) + rng.uniform(-jitter, jitter, size=(n_atoms, 3))
    elements = [ELEMENTS[i % len(ELEMENTS)] for i in range(n_atoms)]
    return assign_params(make_structure(pos, element=elements), ParamTable.default())


def jittered(s, seed, sigma):
    rng = np.random.default_rng(seed)
    return s.positions() + rng.normal(scale=sigma, size=(s.n_atoms, 3))


# ---------------------------------------------------------------- oracles

def oracle_volume(positions, radii, spacing):
    if spacing <= 0:
        raise ValueError("spacing must be positive")
    positions = np.asarray(positions, dtype=float)
    if positions.shape[0] == 0:
        return 0.0
    radii = np.asarray(radii, dtype=float)
    pad = float(radii.max()) + spacing
    lo = positions.min(axis=0) - pad
    hi = positions.max(axis=0) + pad
    dims = np.maximum(np.ceil((hi - lo) / spacing).astype(int), 1)
    occupied = np.zeros(dims, dtype=bool)
    for p, r in zip(positions, radii):
        i_lo = np.maximum(np.floor((p - r - lo) / spacing - 0.5).astype(int), 0)
        i_hi = np.minimum(np.ceil((p + r - lo) / spacing + 0.5).astype(int), dims - 1)
        ranges = [np.arange(i_lo[ax], i_hi[ax] + 1) for ax in range(3)]
        centers = [lo[ax] + (ranges[ax] + 0.5) * spacing - p[ax] for ax in range(3)]
        d2 = (
            centers[0][:, None, None] ** 2
            + centers[1][None, :, None] ** 2
            + centers[2][None, None, :] ** 2
        )
        sub = occupied[i_lo[0]:i_hi[0] + 1, i_lo[1]:i_hi[1] + 1, i_lo[2]:i_hi[2] + 1]
        occupied[i_lo[0]:i_hi[0] + 1, i_lo[1]:i_hi[1] + 1, i_lo[2]:i_hi[2] + 1] = (
            sub | (d2 <= r * r)
        )
    return float(occupied.sum()) * spacing**3


def _grid_geometry(lo, hi, spacing):
    dims = np.maximum(np.ceil((hi - lo) / spacing).astype(int), 1)
    origin = lo + 0.5 * spacing
    return origin, dims


def oracle_occupancy(s, accepted, spacing, radius_mode="vdw"):
    """(origin, dims, values in file order) of the former occupancy_map."""
    if radius_mode == "vdw":
        radii = s.radii
    else:
        radii = np.full(s.n_atoms, float(radius_mode))
    pad = (float(radii.max()) if radii.size else 0.0) + spacing
    lo = accepted.reshape(-1, 3).min(axis=0) - pad
    hi = accepted.reshape(-1, 3).max(axis=0) + pad
    origin, dims = _grid_geometry(lo, hi, spacing)
    counts = np.zeros(tuple(dims), dtype=np.int64)
    for c in accepted:
        covered = np.zeros(tuple(dims), dtype=bool)
        for p, r in zip(c, radii):
            i_lo = np.maximum(np.floor((p - r - lo) / spacing - 0.5).astype(int), 0)
            i_hi = np.minimum(np.ceil((p + r - lo) / spacing + 0.5).astype(int), dims - 1)
            axes = [np.arange(i_lo[ax], i_hi[ax] + 1) for ax in range(3)]
            cts = [origin[ax] + axes[ax] * spacing - p[ax] for ax in range(3)]
            d2 = cts[0][:, None, None] ** 2 + cts[1][None, :, None] ** 2 + cts[2][None, None, :] ** 2
            sub = covered[i_lo[0]:i_hi[0] + 1, i_lo[1]:i_hi[1] + 1, i_lo[2]:i_hi[2] + 1]
            covered[i_lo[0]:i_hi[0] + 1, i_lo[1]:i_hi[1] + 1, i_lo[2]:i_hi[2] + 1] = (
                sub | (d2 <= r * r)
            )
        counts += covered
    frac = counts.astype(float) / len(accepted)
    return origin, tuple(int(d) for d in dims), frac.reshape(-1)


def oracle_binding_site_prob(A, B, poses, m=ContactModel()):
    poses = list(poses)
    if not poses:
        raise ValueError("need at least one pose")
    rec = A.positions()
    hits = np.zeros(A.n_atoms)
    for pose in poses:
        placed = pose.apply(B)
        d2 = ((rec[:, None, :] - placed[None, :, :]) ** 2).sum(axis=2)
        hits += (d2.min(axis=1) <= m.cutoff * m.cutoff).astype(float)
    return BindingSiteMap(probabilities=hits / len(poses),
                          serials=tuple(A.serials.tolist()))


def oracle_epsilons(d, t_values):
    t = np.asarray(t_values, dtype=float)
    rel = np.abs(np.asarray(d.values) - d.mean) / abs(d.mean)
    return (rel[:, None] > t[None, :]).mean(axis=0)


def oracle_atom_line(s, i):
    atom_id = (
        f"{_int_col(int(s.serials[i]), 5, 'serial')} "
        f"{_format_atom_name(s.names[i], s.elements[i])} "
        f"{s.residue_names[i]:>3s} {s.chain_ids[i]}"
        f"{_int_col(int(s.residue_seqs[i]), 4, 'residue number')}"
    )
    position = s.coords[i]
    return (
        f"ATOM  {atom_id}    "
        f"{_coord(position[0])}{_coord(position[1])}{_coord(position[2])}"
        f"{1.0:6.2f}{s.b_iso[i]:6.2f}          {s.elements[i]:>2s}"
    )


def oracle_write_pdb_models(s, positions_list, model_numbers=None):
    if model_numbers is None:
        model_numbers = range(1, len(positions_list) + 1)
    lines = []
    for num, positions in zip(model_numbers, positions_list):
        lines.append(f"MODEL     {num:4d}")
        moved = replace(s, coords=positions)
        for i in range(moved.n_atoms):
            lines.append(oracle_atom_line(moved, i))
        lines.append("ENDMDL")
    lines.append("END")
    return "\n".join(lines) + "\n"


def oracle_exposure_mask(positions, radii, probe, n_points):
    positions = np.asarray(positions, dtype=float)
    radii = np.asarray(radii, dtype=float)
    n = positions.shape[0]
    unit = sphere_points(n_points)
    inflated = radii + probe
    masks = np.ones((n, n_points), dtype=bool)
    if n > 1:
        diff = positions[:, None, :] - positions[None, :, :]
        dist = np.sqrt((diff**2).sum(axis=2))
        for i in range(n):
            nbr = np.nonzero((dist[i] < inflated[i] + inflated) & (np.arange(n) != i))[0]
            if nbr.size == 0:
                continue
            pts = positions[i] + inflated[i] * unit
            d2 = ((pts[:, None, :] - positions[nbr][None, :, :]) ** 2).sum(axis=2)
            masks[i] = ~np.any(d2 < inflated[nbr][None, :] ** 2, axis=1)
    return masks, inflated, unit


def oracle_sasa(positions, radii, probe=1.4, n_points=960):
    positions = np.asarray(positions, dtype=float)
    if positions.shape[0] == 0:
        return 0.0, np.zeros(0)
    masks, inflated, _unit = oracle_exposure_mask(positions, radii, probe, n_points)
    frac = masks.mean(axis=1)
    per_atom = frac * 4.0 * math.pi * inflated**2
    return math.fsum(per_atom.tolist()), per_atom


def oracle_delta_area(positions_a, radii_a, positions_b, radii_b, probe, n_points):
    """The exact sum of each atom's area in A+B less its area on its own
    group, rounded once."""
    both = np.vstack([positions_a, positions_b])
    radii = np.concatenate([radii_a, radii_b])
    whole = oracle_sasa(both, radii, probe, n_points)[1]
    alone = np.concatenate([oracle_sasa(positions_a, radii_a, probe, n_points)[1],
                            oracle_sasa(positions_b, radii_b, probe, n_points)[1]])
    return math.fsum(whole.tolist() + (-alone).tolist())


CASES = [(60, 1), (140, 2), (233, 3)]


# ---------------------------------------------------------------- sphere rasterizer

@pytest.mark.parametrize("n_atoms, seed", CASES)
def test_volume_matches_former_loop(n_atoms, seed):
    s = lattice_structure(n_atoms, seed)
    radii = s.radii
    for k, sigma in enumerate((0.0, 0.2, 0.7)):
        pos = jittered(s, 10 * seed + k, sigma)
        for spacing in (0.3, 0.5, 0.77, 1.0):
            assert volume(pos, radii, spacing) == oracle_volume(pos, radii, spacing)
    assert volume(np.zeros((0, 3)), np.zeros(0), 0.5) == oracle_volume(np.zeros((0, 3)),
                                                                        np.zeros(0), 0.5)


# 5 accepted draws; then 255 and 256, at the edge of the uint8 count grid,
# on a few atoms each covers in almost every draw
OCCUPANCY_CASES = [pytest.param(n, seed, 5, id=f"{n}-{seed}") for n, seed in CASES] + [
    pytest.param(4, 4, draws, id=f"4-4-{draws}-draws") for draws in (255, 256)]


@pytest.mark.parametrize("n_atoms, seed, draws", OCCUPANCY_CASES)
def test_occupancy_map_matches_former_loop(n_atoms, seed, draws):
    s = lattice_structure(n_atoms, seed)
    coords = np.array([jittered(s, 100 * seed + k, 0.4) for k in range(draws + 1)])
    accepted = np.delete(coords, 2, axis=0)  # draw 2 was rejected
    for spacing, mode in ((0.5, "vdw"), (0.8, "vdw"), (0.6, 1.6)):
        g = occupancy_map(s, accepted, spacing=spacing, radius_mode=mode)
        origin, dims, values = oracle_occupancy(s, accepted, spacing, mode)
        assert np.array_equal(g.origin, origin) and g.dims == dims
        assert np.array_equal(g.values, values)
        assert 0.0 < values.max() <= 1.0
        if draws > 5:  # some voxel is covered by every draw
            assert values.max() == 1.0


# ---------------------------------------------------------------- contact map

def random_poses(rng, k, spread):
    poses = []
    for _ in range(k):
        q, r = np.linalg.qr(rng.normal(size=(3, 3)))
        q = q * np.sign(np.diag(r))
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        poses.append(Pose(rotation=q, translation=rng.uniform(-spread, spread, 3)))
    return poses


@pytest.mark.parametrize("n_atoms, seed", CASES)
def test_binding_site_prob_matches_former_loop(n_atoms, seed):
    receptor = lattice_structure(n_atoms, seed)
    rng = np.random.default_rng(seed)
    centre = receptor.positions().mean(axis=0)
    ligand = centre + rng.normal(scale=1.5, size=(9, 3))
    for k, cutoff in ((1, 5.0), (7, 4.0), (32, 6.5)):
        poses = random_poses(rng, k, spread=8.0)
        m = ContactModel(cutoff=cutoff)
        got = binding_site_prob_multi(receptor, [ligand], [poses], m)
        want = oracle_binding_site_prob(receptor, ligand, poses, m)
        assert np.array_equal(got.probabilities, want.probabilities)
        assert got.serials == want.serials


# ---------------------------------------------------------------- exceedance count

def test_chernoff_table_matches_former_count():
    rng = np.random.default_rng(17)
    grids = (DEFAULT_T_GRID, (0.05, 0.25, 0.5, 1.0))
    for size in (1, 2, 5, 40, 333):
        for scale in (1e-3, 0.1, 2.0):
            d = EmpiricalDistribution.from_values(rng.normal(3.0, scale * 3.0, size))
            for grid in grids:
                assert chernoff_table(d, grid).epsilons == tuple(
                    float(e) for e in oracle_epsilons(d, grid))
    # |x - mean| / |mean| lands exactly on t = 0.5: the strict count skips it
    d = EmpiricalDistribution.from_values([1.0, 2.0, 3.0])
    assert chernoff_table(d, (0.25, 0.5)).epsilons == (2 / 3, 0.0)
    assert tuple(oracle_epsilons(d, (0.25, 0.5))) == (2 / 3, 0.0)


# ---------------------------------------------------------------- Shrake-Rupley kernel

def atom_set(positions, radii, first_serial=1):
    n = len(positions)
    return AtomSet(positions=np.asarray(positions, dtype=float), radii=np.asarray(radii),
                   charges=np.zeros(n), lj_a=np.zeros(n), lj_b=np.zeros(n),
                   serials=tuple(range(first_serial, first_serial + n)),
                   exclusions=np.zeros(0, dtype=np.int64))


def assert_sasa_matches(pos, radii, probe, n_points):
    masks, _own, inflated = _exposure_mask(pos, radii, probe, n_points)
    want_masks, want_inflated, _unit = oracle_exposure_mask(pos, radii, probe, n_points)
    assert np.array_equal(masks, want_masks)
    assert np.array_equal(inflated, want_inflated)
    total, per_atom = sasa(pos, radii, probe, n_points)
    want_total, want_per_atom = oracle_sasa(pos, radii, probe, n_points)
    assert total == want_total and np.array_equal(per_atom, want_per_atom)


def assert_delta_area_matches(pos, radii, n_a, probe, n_points):
    a, b = atom_set(pos[:n_a], radii[:n_a]), atom_set(pos[n_a:], radii[n_a:], n_a + 1)
    want = oracle_delta_area(pos[:n_a], radii[:n_a], pos[n_a:], radii[n_a:], probe, n_points)
    config = QOIConfig(probe=probe, n_points=n_points)
    assert delta_qoi(QOIKind.AREA, a, b, config) == want


@pytest.mark.parametrize("n_atoms, seed, sigma", [(150, 1, 0.3), (300, 2, 0.6), (1000, 3, 0.2)])
def test_sasa_matches_former_loop(n_atoms, seed, sigma):
    s = lattice_structure(n_atoms, seed)
    radii = s.radii
    pos = jittered(s, seed, sigma)
    for probe, n_points in ((1.4, 960), (0.0, 32), (1.4, 32)):
        if n_atoms == 1000 and n_points == 960:
            continue  # the 1,000-atom oracle is slow; 960 points are covered below
        assert_sasa_matches(pos, radii, probe, n_points)
    # chains of unequal size: the split falls off the 20-atom chain boundaries
    for n_a in (n_atoms // 3, n_atoms - 7):
        assert_delta_area_matches(pos, radii, n_a, 1.4, 32)


def test_sasa_matches_former_loop_at_960_points():
    s = lattice_structure(300, 4)
    radii = s.radii
    pos = jittered(s, 4, 0.4)
    assert_sasa_matches(pos, radii, 1.4, 960)
    assert_sasa_matches(pos, radii, 0.0, 960)
    assert_delta_area_matches(pos, radii, 120, 1.4, 960)
    assert_delta_area_matches(pos, radii, 33, 0.0, 960)


def test_sasa_matches_former_loop_on_edge_cases():
    rng = np.random.default_rng(8)
    one = np.array([[0.5, -1.0, 2.0]])
    isolated = np.arange(15, dtype=float)[:, None] * [20.0, 0.0, 0.0]
    clump = rng.normal(scale=1.0, size=(12, 3))
    coincident = np.vstack([clump, clump[[0, 3, 3]], isolated[:2]])
    for pos in (np.zeros((0, 3)), one, isolated, clump, coincident):
        radii = rng.choice([1.2, 1.5, 1.7, 1.8], size=len(pos))
        for probe, n_points in ((1.4, 960), (0.0, 32), (0.0, 960), (2.2, 32)):
            assert_sasa_matches(pos, radii, probe, n_points)
            if len(pos) > 1:
                assert_delta_area_matches(pos, radii, 1, probe, n_points)
                assert_delta_area_matches(pos, radii, len(pos) // 2, probe, n_points)
    # equal radii on one centre: neither sphere buries the other's points
    assert_sasa_matches(np.zeros((2, 3)), np.array([1.5, 1.5]), 1.4, 32)
    # an all-buried atom leaves no points in the cloud
    inner = np.zeros((2, 3))
    assert_sasa_matches(inner, np.array([0.5, 1.5]), 0.0, 32)


# ---------------------------------------------------------------- ATOM record

def test_write_pdb_models_matches_former_rebuild():
    s = lattice_structure(140, 4)
    frames = [jittered(s, 40 + k, 0.3) for k in range(3)] + [s.positions() - 500.0]
    assert models_text(s, frames) == oracle_write_pdb_models(s, frames)
    assert (models_text(s, frames, [3, 9, 27, 81])
            == oracle_write_pdb_models(s, frames, [3, 9, 27, 81]))


@pytest.mark.parametrize("bad", [
    lambda p: p[:-1],
    lambda p: p[:, :2],
    lambda p: p.reshape(-1),
    lambda p: np.where(np.arange(p.size).reshape(p.shape) == 4, np.nan, p),
    lambda p: np.where(np.arange(p.size).reshape(p.shape) == 7, np.inf, p),
])
def test_write_pdb_models_rejects_malformed_model(bad):
    s = lattice_structure(12, 5)
    good = s.positions()
    with pytest.raises(ValueError, match=r"model 2: expected \(12, 3\) finite positions"):
        models_text(s, [good, bad(good)])


@pytest.mark.parametrize("value, text", [(np.nan, "y = nan"), (-np.inf, "y = -inf")])
def test_write_pdb_models_names_the_non_finite_coordinate(value, text):
    s = lattice_structure(12, 5)
    s = replace(s, serials=s.serials * 10)  # serials 10..120, so no row index matches
    bad = s.positions()
    bad[4, 1] = value
    bad[7, 0] = value  # only the first non-finite value is named
    with pytest.raises(ValueError) as err:
        models_text(s, [s.positions(), bad])
    assert str(err.value) == f"model 2: expected (12, 3) finite positions, atom 50 has {text}"
