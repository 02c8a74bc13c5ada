"""Batched ensemble draws against verbatim copies of the per-draw loops they replaced.

Each oracle below is the former one-draw-at-a-time code: ``apply_torsions``
with its ``dihedral_angle``/``_rotation_about``/``_wrap_angle`` helpers,
the point-by-point ``normals_from_unit``, the Cartesian and torsion
ensemble loops with the per-draw clash check and its one-draw cell-list
search, and the per-atom loop of ``atom_motion_modes``.  The batched code
must reproduce them exactly (``==``, not approx).
"""

import itertools
import math

import numpy as np
import pytest

from moluq import conformers
from moluq.conformers import (
    apply_torsions,
    atom_motion_modes,
    cartesian_sigmas,
    dihedral_angle,
    sample_cartesian_ensemble,
    sample_torsion_ensemble,
    torsion_graph_from_dihedrals,
)
from moluq.molio import ParamTable, assign_params, bonded_exclusions, detect_bonds
from moluq.pairs import cutoff_pairs, not_in_codes, stack_cutoff_pairs
from moluq.sampling import LowDiscrepancySequence, gaussian_dimension, normals_from_unit
from conftest import lattice, make_structure, zigzag_chain

ELEMENTS = ("C", "C", "N", "C", "O")


# ---------------------------------------------------------------- oracles

def loop_dihedral_angle(p0, p1, p2, p3) -> float:
    p0, p1, p2, p3 = (np.asarray(p) for p in (p0, p1, p2, p3))
    b1 = p1 - p0
    b2 = p2 - p1
    b3 = p3 - p2
    n1 = np.cross(b1, b2)
    n2 = np.cross(b2, b3)
    m1 = np.cross(n1, b2 / np.linalg.norm(b2))
    return float(np.arctan2(np.dot(m1, n2), np.dot(n1, n2)))


def loop_rotation_about(axis, angle, seen=None):
    if seen is not None:
        seen.append(angle)
    u = axis / np.linalg.norm(axis)
    k = np.array([[0.0, -u[2], u[1]], [u[2], 0.0, -u[0]], [-u[1], u[0], 0.0]])
    return np.eye(3) + math.sin(angle) * k + (1.0 - math.cos(angle)) * (k @ k)


def loop_wrap_angle(a):
    return (a + math.pi) % (2.0 * math.pi) - math.pi


def loop_apply_torsions(g, angles, seen=None):
    angles = np.asarray(angles, dtype=float)
    for spec, target in zip(g.rotatable, angles):
        if not (spec.lower <= target <= spec.upper):
            raise ValueError(
                f"angle {target} outside range [{spec.lower}, {spec.upper}] "
                f"for dihedral {spec.atoms}"
            )
    pos = g.structure.positions().copy()
    for spec, target in zip(g.rotatable, angles):
        i, j, k, l = spec.atoms
        current = loop_dihedral_angle(pos[i], pos[j], pos[k], pos[l])
        delta = loop_wrap_angle(target - current)
        if delta == 0.0:
            continue
        rot = loop_rotation_about(pos[k] - pos[j], -delta, seen)
        moving = list(spec.downstream)
        pos[moving] = (pos[moving] - pos[j]) @ rot.T + pos[j]
    return pos


def loop_cutoff_pairs(positions, max_cutoff):
    positions = np.asarray(positions, dtype=float)
    n = positions.shape[0]
    radius = max_cutoff * (1.0 + 1e-9)
    if n < 2 or not radius >= 0.0:
        empty = np.zeros(0, dtype=np.intp)
        return empty, empty, np.zeros(0)
    if not np.isfinite(positions).all():
        raise ValueError("positions must be finite, check for nan or inf values")
    lo = positions.min(axis=0)
    span = float((positions.max(axis=0) - lo).max())
    side = max(radius, span / 2**16) * (1.0 + 1e-6) or 1.0
    cell = np.floor((positions - lo) / side).astype(np.int64) + 1
    dims = cell.max(axis=0) + 2
    key = (cell[:, 0] * dims[1] + cell[:, 1]) * dims[2] + cell[:, 2]
    order = np.argsort(key, kind="stable")
    key = key[order]
    xs, ys, zs = positions[order].T.copy()
    slots = np.arange(n)
    found_i, found_j = [], []
    for dx, dy, dz in [o for o in itertools.product((-1, 0, 1), repeat=3) if o >= (0, 0, 0)]:
        offset = (dx * dims[1] + dy) * dims[2] + dz
        last = np.searchsorted(key, key + offset, side="right")
        first = slots + 1 if offset == 0 else np.searchsorted(key, key + offset, side="left")
        count = np.maximum(last - first, 0)
        slot_j = np.repeat(first - np.cumsum(count) + count, count) + np.arange(count.sum())
        d2 = ((np.repeat(xs, count) - xs[slot_j]) ** 2 + (np.repeat(ys, count) - ys[slot_j]) ** 2
              + (np.repeat(zs, count) - zs[slot_j]) ** 2)
        near = np.sqrt(d2) <= radius
        found_i.append(order[np.repeat(slots, count)[near]])
        found_j.append(order[slot_j[near]])
    i, j = np.concatenate(found_i), np.concatenate(found_j)
    ii, jj = np.minimum(i, j), np.maximum(i, j)
    by_code = np.argsort(ii.astype(np.int64) * n + jj)
    ii, jj = ii[by_code], jj[by_code]
    dist = np.sqrt(((positions[ii] - positions[jj]) ** 2).sum(axis=1))
    return ii, jj, dist


def loop_clash_check(s, factor):
    n = s.n_atoms
    if n < 2:
        return lambda positions: None
    radii = s.radii
    codes = bonded_exclusions(s)
    max_cutoff = factor * (2.0 * radii.max())

    def check(positions):
        ii, jj, dist = loop_cutoff_pairs(positions, max_cutoff)
        keep = not_in_codes(ii, jj, n, codes)
        ii, jj, dist = ii[keep], jj[keep], dist[keep]
        cutoff = factor * (radii[ii] + radii[jj])
        ratios = np.divide(dist, cutoff, out=np.full_like(dist, np.inf), where=cutoff > 0)
        if ratios.size == 0 or ratios.min() >= 1.0:
            return None
        worst = int(np.argmin(ratios))
        i, j = int(ii[worst]), int(jj[worst])
        return (f"atoms {s.serials[i]}-{s.serials[j]} at "
                f"{dist[worst]:.3f} A < {cutoff[worst]:.3f} A")

    return check


def loop_normals_from_unit(point, count):
    need = 2 * ((count + 1) // 2)
    u = np.asarray(point[:need], dtype=float).reshape(-1, 2)
    u1 = np.maximum(u[:, 0], np.finfo(float).tiny)
    r = np.sqrt(-2.0 * np.log(u1))
    theta = 2.0 * np.pi * u[:, 1]
    z = np.empty(need)
    z[0::2] = r * np.cos(theta)
    z[1::2] = r * np.sin(theta)
    return z[:count]


def loop_cartesian_ensemble(s, seed, n_samples, clash_factor, sigmas=None):
    if sigmas is None:
        sigmas = cartesian_sigmas(s)
    n_normals = 3 * s.n_atoms
    seq = LowDiscrepancySequence(max(gaussian_dimension(n_normals), 1), scramble_seed=seed,
                                 n_samples=n_samples)
    screen = None if clash_factor is None else loop_clash_check(s, clash_factor)
    coords, reasons = [], []
    for _idx in range(n_samples):
        point = seq.next_points(1)[0]
        z = loop_normals_from_unit(point, n_normals).reshape(s.n_atoms, 3)
        positions = s.positions() + sigmas * z
        coords.append(positions)
        reasons.append(None if screen is None else screen(positions))
    return np.array(coords), tuple(reasons), seq.kind


def loop_torsion_ensemble(g, seed, n_samples, clash_factor, seen=None):
    ranges = g.ranges()
    seq = LowDiscrepancySequence(g.n_dihedrals, scramble_seed=seed, n_samples=n_samples)
    screen = None if clash_factor is None else loop_clash_check(g.structure, clash_factor)
    coords, reasons = [], []
    for _idx in range(n_samples):
        u = seq.next_points(1)[0]
        angles = ranges[:, 0] + u * (ranges[:, 1] - ranges[:, 0])
        positions = loop_apply_torsions(g, angles, seen)
        coords.append(positions)
        reasons.append(None if screen is None else screen(positions))
    return np.array(coords), tuple(reasons), seq.kind


def loop_motion_modes(stack):
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


# ---------------------------------------------------------------- inputs

def parameterized(pos, seed, jitter=0.05):
    """Bonded, parameterized structure over jittered ``pos``."""
    rng = np.random.default_rng(seed)
    pos = pos + rng.uniform(-jitter, jitter, size=pos.shape)
    elements = [ELEMENTS[i % len(ELEMENTS)] for i in range(len(pos))]
    return detect_bonds(assign_params(make_structure(pos, element=elements),
                                      ParamTable.default()))


def chain_structure(n_atoms, seed):
    return parameterized(zigzag_chain(n_atoms), seed)


def lattice_structure(n_atoms, seed):
    return parameterized(lattice(n_atoms), seed)


def edge_graph(s):
    """Dihedrals i..i+3 along the chain: full circles, ranges ending at -pi
    and at +pi, and (for the first) the degenerate range at its current angle."""
    n = s.n_atoms
    pos = s.positions()
    start = loop_dihedral_angle(*pos[:4])
    cycle = [(-math.pi, math.pi), (-math.pi, -math.pi + 0.4), (math.pi - 0.4, math.pi),
             (2.4, math.pi)]
    specs = [((0, 1, 2, 3), start, start)]
    specs += [((i, i + 1, i + 2, i + 3), *cycle[i % len(cycle)]) for i in range(1, n - 3)]
    return torsion_graph_from_dihedrals(s, specs)


# ---------------------------------------------------------------- torsions

def test_torsion_kernel_matches_loop_with_zero_deltas_and_pi_ends():
    s = chain_structure(24, 1)
    g = edge_graph(s)
    ranges = g.ranges()
    rng = np.random.default_rng(2)
    angles = ranges[:, 0] + rng.random((10, g.n_dihedrals)) * (ranges[:, 1] - ranges[:, 0])
    angles[0] = ranges[:, 0]  # every lower end, -pi included
    angles[1] = ranges[:, 1]  # every upper end, +pi included
    assert {-math.pi, math.pi} <= set(angles[:2].ravel().tolist())
    want = [loop_apply_torsions(g, row) for row in angles]
    assert np.array_equal(conformers._set_torsions(g, angles), np.array(want))
    for row, positions in zip(angles, want):
        assert np.array_equal(apply_torsions(g, row), positions)
    stack = np.array(want)
    for spec in g.rotatable:
        i, j, k, l = spec.atoms
        rows = dihedral_angle(stack[:, i], stack[:, j], stack[:, k], stack[:, l])
        assert rows.tolist() == [loop_dihedral_angle(p[i], p[j], p[k], p[l]) for p in stack]


def test_torsion_kernel_skips_draws_already_at_their_target():
    # one pass where the first dihedral has delta == 0.0 in some draws only
    s = chain_structure(16, 3)
    g = torsion_graph_from_dihedrals(
        s, [((i, i + 1, i + 2, i + 3), -math.pi, math.pi) for i in range(13)])
    start = loop_dihedral_angle(*s.positions()[:4])
    rng = np.random.default_rng(4)
    angles = rng.uniform(-math.pi, math.pi, (8, g.n_dihedrals))
    angles[[1, 4, 5], 0] = start
    assert loop_wrap_angle(angles[1, 0] - start) == 0.0
    want = np.array([loop_apply_torsions(g, row) for row in angles])
    got = conformers._set_torsions(g, angles)
    assert np.array_equal(got, want)
    # the first rotation moves atoms 3.. only in the draws not at their target
    first = np.array([loop_apply_torsions(
        torsion_graph_from_dihedrals(s, [((0, 1, 2, 3), -math.pi, math.pi)]), row[:1])
        for row in angles])
    assert np.array_equal(first[[1, 4, 5]], np.repeat(s.positions()[None], 3, axis=0))


def test_torsion_range_error_names_first_draw_and_dihedral():
    s = chain_structure(8, 5)
    g = torsion_graph_from_dihedrals(
        s, [((i, i + 1, i + 2, i + 3), -1.0, 1.0) for i in range(5)])
    angles = np.zeros((3, 5))
    angles[1, 3] = 1.5
    angles[2, 0] = -2.0
    with pytest.raises(ValueError) as got:
        conformers._set_torsions(g, angles)
    with pytest.raises(ValueError) as want:
        loop_apply_torsions(g, angles[1])
    assert str(got.value) == str(want.value) == (
        "angle 1.5 outside range [-1.0, 1.0] for dihedral (3, 4, 5, 6)")
    with pytest.raises(ValueError, match="outside range"):
        apply_torsions(g, np.full(5, np.nan))


@pytest.mark.parametrize("n_atoms, seed, clash", [(24, 1, 0.8), (40, 2, None)])
def test_sample_torsion_ensemble_matches_loop(n_atoms, seed, clash):
    s = chain_structure(n_atoms, seed)
    g = edge_graph(s)
    e = sample_torsion_ensemble(g, seed=seed, n_samples=24, clash_factor=clash)
    coords, reasons, kind = loop_torsion_ensemble(g, seed, 24, clash)
    assert np.array_equal(e.coords, coords)
    assert e.reasons == reasons and e.sequence_kind == kind
    assert e.accepted.tolist() == [r is None for r in reasons]
    if clash is not None:
        assert 0 < e.accepted.sum() < 24


def test_kernel_sin_cos_equal_math_on_the_angles_it_uses():
    # the former loop took math.sin/math.cos of each rotation angle; the
    # batched kernel takes np.sin/np.cos of the same angles as one array
    s = chain_structure(60, 7)
    g = torsion_graph_from_dihedrals(
        s, [((i, i + 1, i + 2, i + 3), 2.4, math.pi) for i in range(57)])
    seen = []
    loop_torsion_ensemble(g, 23, 32, None, seen)
    edges = [-math.pi, math.pi, math.pi / 2, -math.pi / 2, 0.0, -0.0, 5e-324, -5e-324]
    angles = np.array(seen + edges + np.linspace(-math.pi, math.pi, 4001).tolist())
    assert len(seen) == 57 * 32
    assert np.sin(angles).tolist() == [math.sin(a) for a in angles.tolist()]
    assert np.cos(angles).tolist() == [math.cos(a) for a in angles.tolist()]


# ---------------------------------------------------------------- Cartesian draws

def test_normals_from_unit_rows_match_one_point_calls():
    pts = LowDiscrepancySequence(10, scramble_seed=3).next_points(9)
    pts[2, 4] = 0.0
    for count in (10, 9, 1, 0):
        want = np.array([loop_normals_from_unit(p, count) for p in pts])
        assert np.array_equal(normals_from_unit(pts, count), want)
        assert np.array_equal(normals_from_unit(pts[5], count), want[5])


def test_sample_cartesian_ensemble_matches_loop_with_clash_rejections():
    s = lattice_structure(120, 4)
    sigmas = np.full((s.n_atoms, 3), 0.45)
    e = sample_cartesian_ensemble(s, seed=5, n_samples=12, clash_factor=0.6, sigmas=sigmas)
    coords, reasons, kind = loop_cartesian_ensemble(s, 5, 12, 0.6, sigmas)
    assert np.array_equal(e.coords, coords)
    assert e.reasons == reasons and e.sequence_kind == kind
    assert e.accepted.tolist() == [r is None for r in reasons]
    assert 0 < e.accepted.sum() < 12
    assert e.reasons[1] == "atoms 12-15 at 1.887 A < 1.932 A"


@pytest.mark.parametrize("n_atoms, seed", [(1, 2), (2, 3), (300, 9)])
def test_sample_cartesian_ensemble_matches_loop_without_filter(n_atoms, seed):
    s = make_structure(lattice(n_atoms), b_iso=np.linspace(5.0, 60.0, n_atoms))
    e = sample_cartesian_ensemble(s, seed=seed, n_samples=7, clash_factor=None)
    coords, reasons, kind = loop_cartesian_ensemble(s, seed, 7, None)
    assert np.array_equal(e.coords, coords)
    assert e.reasons == reasons == (None,) * 7 and e.sequence_kind == kind


# ---------------------------------------------------------------- motion modes

def test_atom_motion_modes_match_per_atom_loop():
    rng = np.random.default_rng(11)
    s = lattice_structure(60, 12)
    stack = s.positions() + rng.normal(scale=[0.9, 0.4, 0.1], size=(9, 60, 3))
    stack[:, 5] = s.positions()[5]  # a fixed atom: three equal zero variances
    stack[:, 7, 2] = s.positions()[7, 2]  # motion in a plane only
    accepted = np.arange(9) % 4 != 0  # draws 0, 4 and 8 were rejected
    variances, axes = atom_motion_modes(stack[accepted])
    want_var, want_axes = loop_motion_modes(stack[accepted])
    assert np.array_equal(variances, want_var)
    assert np.array_equal(axes, want_axes)


# ---------------------------------------------------------------- clash screen

def _loop_reasons(s, factor, coords):
    check = loop_clash_check(s, factor)
    return tuple(check(positions) for positions in coords)


@pytest.mark.parametrize("factor", [0.6, 0.8, 1.0])
@pytest.mark.parametrize("n_atoms, seed", [(24, 1), (40, 3)])
def test_torsion_screen_matches_per_draw_loop(n_atoms, seed, factor):
    # a compact zigzag chain with free dihedrals: at factor 1.0 every draw clashes
    g = edge_graph(chain_structure(n_atoms, seed))
    e = sample_torsion_ensemble(g, seed=seed, n_samples=40, clash_factor=factor)
    assert e.reasons == _loop_reasons(g.structure, factor, e.coords)
    if factor == 1.0:
        assert not e.accepted.any()


@pytest.mark.parametrize("screen_atoms", [2**13, 360, 121, 1])
def test_cartesian_screen_matches_per_draw_loop_in_any_stack_size(monkeypatch, screen_atoms):
    # 120 atoms, 40 draws: one stack of all 40, stacks of 3 ending in a stack
    # of 1, and one draw per stack
    monkeypatch.setattr(conformers, "_SCREEN_ATOMS", screen_atoms)
    s = lattice_structure(120, 4)
    e = sample_cartesian_ensemble(s, seed=5, n_samples=40, clash_factor=0.6,
                                  sigmas=np.full((s.n_atoms, 3), 0.45))
    assert e.reasons == _loop_reasons(s, 0.6, e.coords)
    assert 0 < e.accepted.sum() < 40


@pytest.mark.parametrize("n_atoms", [0, 1])
def test_screen_of_draws_with_fewer_than_two_atoms(n_atoms):
    s = make_structure(lattice(1)[:n_atoms])
    e = sample_cartesian_ensemble(s, seed=1, n_samples=5, clash_factor=0.6)
    assert e.reasons == _loop_reasons(s, 0.6, e.coords) == (None,) * 5


def test_screen_of_one_draw():
    s = lattice_structure(120, 4)
    sigmas = np.full((s.n_atoms, 3), 0.45)
    free = sample_cartesian_ensemble(s, seed=5, n_samples=12, clash_factor=None, sigmas=sigmas)
    want = _loop_reasons(s, 0.6, free.coords)
    assert tuple(conformers.clash_filter(p, s, 0.6) for p in free.coords) == want
    assert any(want) and not all(want)
    one = sample_cartesian_ensemble(s, seed=5, n_samples=1, clash_factor=0.6, sigmas=sigmas)
    assert one.reasons == want[:1]


def test_screen_names_the_first_worst_pair_of_each_draw_on_a_tie():
    # four unbonded atoms 1 A apart on a line: three pairs tie at the worst ratio
    line = np.arange(4.0)[:, None] * [1.0, 0.0, 0.0]
    s = assign_params(make_structure(line * 3.0), ParamTable.default())
    stack = np.stack([line * 3.0, line, line[::-1].copy(), line * 3.0])
    got = conformers._clash_check(s, 0.6)(stack)
    assert got == list(_loop_reasons(s, 0.6, stack))
    assert got[0] is None and got[1] == got[2] and got[1].startswith("atoms 1-2 at 1.000 A")


def test_stack_search_matches_one_draw_searches_whatever_the_cell_layout():
    rng = np.random.default_rng(8)
    base = lattice(150) + rng.uniform(-0.2, 0.2, (150, 3))
    stack = np.stack([base, base + 1e3, base * 0.5, base * 2e5, base[::-1] - 7.0])
    for cutoff in (0.0, 1.2, 2.5, 6.0):
        starts, ii, jj, dist = stack_cutoff_pairs(stack, cutoff)
        assert starts[0] == 0 and starts[-1] == len(ii)
        for k, positions in enumerate(stack):
            want = loop_cutoff_pairs(positions, cutoff)
            got = (part[starts[k]:starts[k + 1]] for part in (ii, jj, dist))
            assert all(np.array_equal(g, w) for g, w in zip(got, want)), (cutoff, k)
            assert all(np.array_equal(g, w) for g, w in zip(cutoff_pairs(positions, cutoff),
                                                            want))
