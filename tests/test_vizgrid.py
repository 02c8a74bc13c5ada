import io
import math
import os
import tracemalloc

import numpy as np
import pytest

from moluq.qoi import volume
from moluq.vizgrid import (
    ScalarGrid,
    colormap_export,
    cover_spheres,
    occupancy_map,
    padded_box,
    write_grid,
)
from conftest import lattice, make_structure

GOLDEN_1x1x1 = """object 1 class gridpositions counts 1 1 1
origin 0.25 0.25 0.25
delta 0.5 0 0
delta 0 0.5 0
delta 0 0 0.5
object 2 class gridconnections counts 1 1 1
object 3 class array type double rank 0 items 1 data follows
0.5
attribute "dep" string "positions"
"""


def grid_text(g):
    """What ``write_grid`` writes for ``g``, as one string."""
    buf = io.StringIO()
    write_grid(g, buf)
    return buf.getvalue()


def parse_grid(text):
    """ScalarGrid of OpenDX text laid out as ``write_grid`` writes it."""
    lines = text.splitlines()
    dims = tuple(int(x) for x in lines[0].split()[-3:])
    origin = np.array([float(x) for x in lines[1].split()[1:]])
    spacing = float(lines[2].split()[1])
    data = np.array(" ".join(lines[7:-1]).split(), dtype=float)
    return ScalarGrid(origin=origin, spacing=spacing, dims=dims, values=data)


def unit_grid(values, dims, spacing=1.0):
    return ScalarGrid(origin=np.zeros(3), spacing=spacing, dims=dims,
                      values=np.asarray(values, dtype=float))


class TestScalarGrid:
    def test_value_count_enforced(self):
        with pytest.raises(ValueError):
            unit_grid([1.0, 2.0], (1, 1, 1))

    @pytest.mark.parametrize("spacing", [math.nan, math.inf, -math.inf, 0.0, -0.5])
    def test_spacing_must_be_finite_and_positive(self, spacing):
        with pytest.raises(ValueError, match="spacing must be finite and positive"):
            unit_grid([1.0], (1, 1, 1), spacing=spacing)

    def test_z_fastest_indexing(self):
        g = unit_grid(np.arange(8.0), (2, 2, 2))
        cube = g.values.reshape(g.dims)
        assert cube[0, 0, 1] == 1.0
        assert cube[0, 1, 0] == 2.0
        assert cube[1, 0, 0] == 4.0


class TestWriteGrid:
    def test_golden_fixture_bytes(self):
        g = ScalarGrid(origin=np.array([0.25, 0.25, 0.25]), spacing=0.5,
                       dims=(1, 1, 1), values=np.array([0.5]))
        assert grid_text(g) == GOLDEN_1x1x1

    def test_roundtrip_through_reader(self):
        rng = np.random.default_rng(0)
        g = unit_grid(rng.random(24), (2, 3, 4), spacing=0.7)
        back = parse_grid(grid_text(g))
        assert back.dims == g.dims
        assert back.spacing == pytest.approx(g.spacing)
        np.testing.assert_allclose(back.values, g.values, rtol=1e-5)

    def test_byte_deterministic(self):
        g = unit_grid(np.linspace(0, 1, 6), (3, 2, 1))
        assert grid_text(g) == grid_text(g)

    @pytest.mark.parametrize("delta", ["nan", "inf", "-inf", "0", "-0.5"])
    def test_reader_rejects_non_finite_or_non_positive_spacing(self, delta):
        text = GOLDEN_1x1x1.replace("delta 0.5 0 0", f"delta {delta} 0 0")
        assert text != GOLDEN_1x1x1
        with pytest.raises(ValueError, match="spacing must be finite and positive"):
            parse_grid(text)


class TestOccupancy:
    def _ensemble(self, offsets, radius=1.5):
        s = make_structure([[0.0, 0.0, 0.0]], vdw_radius=radius)
        return s, np.array(offsets, dtype=float)[:, None, :]

    def test_identical_conformers_binary(self):
        e = self._ensemble([[0, 0, 0]] * 3)
        g = occupancy_map(*e, spacing=0.5)
        assert set(np.unique(g.values)) <= {0.0, 1.0}

    def test_half_occupancy_voxel(self):
        e = self._ensemble([[0, 0, 0], [40.0, 0, 0]])
        g = occupancy_map(*e, spacing=0.5)
        # a voxel inside the first conformer's sphere only is covered half the time
        assert np.isclose(g.values, 0.5).any()
        assert np.all((g.values >= 0.0) & (g.values <= 1.0))

    def test_integral_bounds_intersection_volume(self):
        e = self._ensemble([[0, 0, 0], [0.4, 0, 0]])
        spacing = 0.3
        g = occupancy_map(*e, spacing=spacing)
        integral = g.values.sum() * spacing**3
        # intersection of the two spheres is contained in both, so the
        # occupancy integral must be at least ... use the smaller sphere count
        inter = volume(np.array([[0.0, 0, 0]]), [1.1], spacing=spacing)
        assert integral >= inter

    def test_fixed_radius_mode(self):
        e = self._ensemble([[0, 0, 0]])
        g = occupancy_map(*e, spacing=0.5, radius_mode=2.0)
        v = g.values.sum() * 0.5**3
        assert v == pytest.approx(4 / 3 * np.pi * 8.0, rel=0.05)

    def test_adding_inside_conformer_shifts_voxels_by_at_most_one_count(self):
        # when the new conformer stays inside the existing bounds the grids
        # align and every voxel moves by at most 1/(N+1)
        offsets3 = [[0, 0, 0], [0.5, 0, 0], [-0.5, 0, 0]]
        offsets4 = offsets3 + [[0.25, 0.0, 0.0]]
        g3 = occupancy_map(*self._ensemble(offsets3), spacing=0.5)
        g4 = occupancy_map(*self._ensemble(offsets4), spacing=0.5)
        assert g3.dims == g4.dims and np.allclose(g3.origin, g4.origin)
        assert np.abs(g4.values - g3.values).max() <= 1.0 / 4 + 1e-12

    def test_requires_accepted_conformer(self):
        s = make_structure([[0.0, 0.0, 0.0]])
        accepted = np.array([False])  # the one draw was rejected
        with pytest.raises(ValueError):
            occupancy_map(s, s.positions()[None][accepted], spacing=0.5)

    def test_coords_must_draw_the_structure_atoms(self):
        # one radius per atom of s: a 2-atom draw of a 1-atom structure would
        # broadcast that radius over both atoms
        s, coords = self._ensemble([[0, 0, 0]])
        with pytest.raises(ValueError, match=r"expected coords of shape \(m, 1, 3\)"):
            occupancy_map(s, np.concatenate([coords, coords], axis=1), spacing=0.5)


class TestColormap:
    def test_min_is_first_anchor(self):
        csv_text, _ = colormap_export([1, 2], [0.0, 10.0])
        rows = csv_text.strip().splitlines()[1:]
        assert rows[0].split(",")[2:] == ["255", "0", "0"]  # red
        assert rows[1].split(",")[2:] == ["0", "0", "255"]  # blue

    def test_midpoint_is_yellow(self):
        csv_text, _ = colormap_export([1, 2, 3], [0.0, 5.0, 10.0])
        mid = csv_text.strip().splitlines()[2].split(",")[2:]
        assert mid == ["255", "255", "0"]

    def test_hand_interpolated_rows(self):
        csv_text, _ = colormap_export([1, 2, 3], [0.0, 3.75, 10.0])
        row = csv_text.strip().splitlines()[2].split(",")
        # fraction 0.375 -> halfway along the orange->yellow segment
        assert row[2:] == ["255", "210", "0"]

    def test_constant_values_map_to_midpoint(self):
        csv_text, _ = colormap_export([1, 2], [3.0, 3.0])
        rows = [r.split(",")[2:] for r in csv_text.strip().splitlines()[1:]]
        assert rows[0] == rows[1] == ["255", "255", "0"]

    def test_monotone_per_channel_segment(self):
        vals = np.linspace(0, 1, 11)
        csv_text, _ = colormap_export(range(11), vals)
        rows = [tuple(int(x) for x in r.split(",")[2:])
                for r in csv_text.strip().splitlines()[1:]]
        blues = [r[2] for r in rows]
        assert blues == sorted(blues)  # blue channel rises toward high values

    def test_script_contains_pymol_commands(self):
        _, script = colormap_export([7], [1.0])
        assert "set_color" in script and "color moluq_c0, id 7" in script

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            colormap_export([1], [np.nan])


# ---------------------------------------------------------------- former loops

def loop_cover_spheres(positions, radii, lo, spacing, dims):
    """The per-atom rasterizer that the blocked stencil pass replaced, verbatim."""
    origin = lo + 0.5 * spacing
    covered = np.zeros(tuple(dims), dtype=bool)
    for p, r in zip(positions, radii):
        i_lo = np.maximum(np.floor((p - r - lo) / spacing - 0.5).astype(int), 0)
        i_hi = np.minimum(np.ceil((p + r - lo) / spacing + 0.5).astype(int), dims - 1)
        cts = [origin[ax] + np.arange(i_lo[ax], i_hi[ax] + 1) * spacing - p[ax]
               for ax in range(3)]
        d2 = cts[0][:, None, None] ** 2 + cts[1][None, :, None] ** 2 + cts[2][None, None, :] ** 2
        covered[i_lo[0]:i_hi[0] + 1, i_lo[1]:i_hi[1] + 1, i_lo[2]:i_hi[2] + 1] |= d2 <= r * r
    return covered


def loop_write_grid(g):
    """The per-value OpenDX writer that the chunked table lookup replaced,
    verbatim but for reading the flat values directly."""
    nx, ny, nz = g.dims
    lines = [
        f"object 1 class gridpositions counts {nx} {ny} {nz}",
        f"origin {g.origin[0]:.6g} {g.origin[1]:.6g} {g.origin[2]:.6g}",
        f"delta {g.spacing:.6g} 0 0",
        f"delta 0 {g.spacing:.6g} 0",
        f"delta 0 0 {g.spacing:.6g}",
        f"object 2 class gridconnections counts {nx} {ny} {nz}",
        f"object 3 class array type double rank 0 items {nx * ny * nz} data follows",
    ]
    data = g.values
    for start in range(0, data.size, 3):
        lines.append(" ".join(f"{v:.6g}" for v in data[start:start + 3]))
    lines.append('attribute "dep" string "positions"')
    return "\n".join(lines) + "\n"


def traced_peak(fn, *args):
    """(result, tracemalloc peak in bytes above the memory held before the call)."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def jittered_lattice(n_atoms, seed, sigma=0.3):
    rng = np.random.default_rng(seed)
    return lattice(n_atoms) + rng.normal(scale=sigma, size=(n_atoms, 3))


def assert_covers_like_loop(positions, radii, lo, spacing, dims):
    positions = np.asarray(positions, dtype=float).reshape(-1, 3)
    radii = np.asarray(radii, dtype=float)
    got = cover_spheres(positions, radii, lo, spacing, dims)
    want = loop_cover_spheres(positions, radii, lo, spacing, dims)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want)
    return got


class TestCoverSpheresAgainstLoop:
    @pytest.mark.parametrize("spacing", [0.3, 1.0])
    def test_padded_box_with_mixed_vdw_radii(self, spacing):
        pos = jittered_lattice(200, 1)
        radii = np.array([1.2, 1.5, 1.7, 1.8, 1.85])[np.arange(200) % 5]
        lo, dims = padded_box(pos, radii, spacing)
        assert assert_covers_like_loop(pos, radii, lo, spacing, dims).any()

    @pytest.mark.parametrize("spacing", [0.3, 1.0])
    def test_box_tighter_than_padded_clips_both_ends(self, spacing):
        pos = jittered_lattice(120, 2)
        radii = np.full(120, 1.7)
        lo, dims = padded_box(pos, radii, spacing)
        # shave 3 A off every face: atoms near each face lose part of their box
        cut = int(math.ceil(3.0 / spacing))
        tight_lo, tight_dims = lo + cut * spacing, dims - 2 * cut
        covered = assert_covers_like_loop(pos, radii, tight_lo, spacing, tight_dims)
        for ax in range(3):
            first = np.take(covered, 0, axis=ax)
            last = np.take(covered, -1, axis=ax)
            assert first.any() and last.any()

    def test_atoms_outside_the_grid_cover_nothing(self):
        pos = np.array([[0.0, 0.0, 0.0], [30.0, 0.0, 0.0], [-30.0, 5.0, 0.0]])
        lo, dims = np.array([-3.0, -3.0, -3.0]), np.array([12, 12, 12])
        covered = assert_covers_like_loop(pos, [1.5, 1.5, 1.5], lo, 0.5, dims)
        alone = loop_cover_spheres(pos[:1], np.array([1.5]), lo, 0.5, dims)
        assert np.array_equal(covered, alone)

    @pytest.mark.parametrize("spacing", [0.3, 1.0])
    def test_one_atom_much_larger_than_the_rest(self, spacing):
        pos = jittered_lattice(60, 3)
        radii = np.full(60, 1.5)
        radii[17] = 9.0
        lo, dims = padded_box(pos, radii, spacing)
        assert_covers_like_loop(pos, radii, lo, spacing, dims)
        # the large atom last, and a grid that clips it
        radii[17], radii[-1] = 1.5, 9.0
        assert_covers_like_loop(pos, radii, lo + 4.0, spacing, dims - int(8.0 / spacing))

    @pytest.mark.parametrize("spacing", [0.3, 1.0])
    def test_zero_radius_single_and_no_atoms(self, spacing):
        lo, dims = np.array([-2.0, -2.0, -2.0]), np.array([9, 9, 9])
        # a zero radius covers only a voxel centred exactly on the atom
        centre = lo + 0.5 * spacing + np.array([3, 4, 5]) * spacing
        hit = assert_covers_like_loop([centre], [0.0], lo, spacing, dims)
        assert hit.sum() == 1 and hit[3, 4, 5]
        assert not assert_covers_like_loop([centre + 0.01], [0.0], lo, spacing, dims).any()
        pos = jittered_lattice(30, 4)[:, :] * 0.1
        radii = np.where(np.arange(30) % 3 == 0, 0.0, 0.8)
        assert_covers_like_loop(pos, radii, lo, spacing, dims)
        assert_covers_like_loop([[0.1, 0.2, -0.3]], [1.1], lo, spacing, dims)
        empty = assert_covers_like_loop(np.zeros((0, 3)), np.zeros(0), lo, spacing, dims)
        assert empty.shape == (9, 9, 9) and not empty.any()

    @pytest.mark.parametrize("spacing", [0.3, 1.0])
    def test_voxel_centre_exactly_on_the_sphere(self, spacing):
        # the atom sits on voxel (5, 5, 5) and r is the computed x offset of
        # voxel (7, 5, 5), so that voxel has d2 == r * r exactly; `<=` counts it
        lo = np.zeros(3)
        dims = np.array([11, 11, 11])
        origin = lo + 0.5 * spacing
        centre = origin + 5 * spacing
        r = origin[0] + 7 * spacing - centre[0]
        covered = assert_covers_like_loop([centre], [r], lo, spacing, dims)
        assert covered[7, 5, 5] and covered[5, 5, 7]
        assert not covered[8, 5, 5]

    def test_ensemble_conformers(self):
        pos = jittered_lattice(300, 5)
        radii = np.array([1.7, 1.55, 1.52, 1.8, 1.2])[np.arange(300) % 5]
        rng = np.random.default_rng(6)
        confs = [pos + rng.normal(scale=0.4, size=pos.shape) for _ in range(4)]
        lo, dims = padded_box(np.concatenate(confs), radii, 0.5)
        for c in confs:
            assert_covers_like_loop(c, radii, lo, 0.5, dims)

    def test_block_temporaries_stay_bounded_at_3000_atoms(self):
        # the stencil pass works on blocks of about 2**15 voxels, so the peak
        # above the output grid must not grow with the atom count
        pos = jittered_lattice(3000, 7)
        radii = np.array([1.7, 1.55, 1.52, 1.8, 1.2])[np.arange(3000) % 5]
        lo, dims = padded_box(pos, radii, 0.5)
        covered, peak = traced_peak(cover_spheres, pos, radii, lo, 0.5, dims)
        assert (peak - covered.nbytes) / 2**20 < 4.0
        assert covered.any()


class TestWriteGridAgainstLoop:
    def test_signed_zeros_and_nan(self):
        values = np.array([0.0, -0.0, np.nan, 1.0, -np.nan, -0.0, 1e-300, -1e300,
                           np.inf, -np.inf, 0.1234567, 5e-5])
        g = unit_grid(values, (2, 3, 2))
        text = grid_text(g)
        assert text == loop_write_grid(g)
        data = text.splitlines()[7:11]
        assert " -0 " in " ".join(data) + " " and "nan" in text

    @pytest.mark.parametrize("dims", [(7, 11, 167), (5, 13, 191), (2, 3, 4), (1, 1, 2)])
    def test_sizes_across_chunks_and_partial_last_line(self, dims):
        # 12,859 and 12,415 values: more than one chunk of 3 * 2**12, and one
        # or two values left over for the last line
        rng = np.random.default_rng(sum(dims))
        values = rng.integers(0, 33, size=math.prod(dims)) / 32.0
        values[::7] = -0.0
        g = unit_grid(values, dims, spacing=0.5)
        assert grid_text(g) == loop_write_grid(g)

    def test_all_distinct_values_of_a_std_grid(self):
        rng = np.random.default_rng(8)
        dims = (9, 17, 101)
        std = unit_grid(rng.random((4, math.prod(dims))).std(axis=0), dims)
        assert np.unique(std.values).size == std.values.size
        assert grid_text(std) == loop_write_grid(std)

    def test_peak_memory_at_most_the_loop_on_a_maps_sized_grid(self):
        # 356,532 voxels, about the maps workload's occupancy grid
        dims = (66, 73, 74)
        rng = np.random.default_rng(9)
        g = unit_grid(rng.integers(0, 33, size=math.prod(dims)) / 32.0, dims, spacing=0.5)
        with open(os.devnull, "w") as sink:
            _, peak = traced_peak(write_grid, g, sink)
        want, loop_peak = traced_peak(loop_write_grid, g)
        assert grid_text(g) == want
        assert peak <= loop_peak
        # written chunk by chunk: the writer never holds the whole text
        assert peak < len(want) / 2


class TestNonFiniteSizes:
    def _ensemble(self):
        s = make_structure([[0.0, 0.0, 0.0], [1.5, 0.0, 0.0]], vdw_radius=1.5)
        return s, s.positions()[None]

    @pytest.mark.parametrize("spacing", [math.nan, math.inf, -math.inf, 0.0, -0.5])
    def test_spacing(self, spacing):
        with pytest.raises(ValueError, match="spacing must be finite and positive"):
            occupancy_map(*self._ensemble(), spacing)
        with pytest.raises(ValueError, match="spacing must be finite and positive"):
            volume(np.zeros((2, 3)), [1.5, 1.5], spacing)

    @pytest.mark.parametrize("radius", ["nan", "inf", math.nan, math.inf, 0.0, -1.0])
    def test_fixed_radius(self, radius):
        with pytest.raises(ValueError, match="fixed radius must be finite and positive"):
            occupancy_map(*self._ensemble(), 0.5, radius_mode=radius)
