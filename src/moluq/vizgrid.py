"""Visualization data products: occupancy grids and colormaps.

Grids go out as OpenDX general-array text so external molecular viewers can
load them directly; per-atom/per-point scalars go out as color CSVs plus a
viewer command script.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from moluq.molio import Structure


@dataclass(frozen=True)
class ScalarGrid:
    """A regular scalar field: voxel values stored flat in ``.dx`` file order.

    ``origin`` is the center of voxel (0, 0, 0); the value at (ix, iy, iz)
    sits at flat index iz + nz * (iy + ny * ix), so z runs fastest.
    """

    origin: np.ndarray
    spacing: float
    dims: tuple[int, int, int]
    values: np.ndarray

    def __post_init__(self):
        origin = np.asarray(self.origin, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if not (math.isfinite(self.spacing) and self.spacing > 0):
            raise ValueError("spacing must be finite and positive")
        nx, ny, nz = self.dims
        if values.shape != (nx * ny * nz,):
            raise ValueError("value count must equal nx*ny*nz")
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "dims", (int(nx), int(ny), int(nz)))


# stencil voxels tested per block of atoms in cover_spheres
_STENCIL_BLOCK = 2**15
# values formatted per chunk in write_grid; a multiple of 3, so chunks end on a line
_WRITE_CHUNK = 3 * 2**12


def padded_box(points, radii, spacing: float) -> tuple[np.ndarray, np.ndarray]:
    """Lower corner and voxel counts of the box around ``points`` padded by max radius + spacing."""
    pad = float(radii.max()) + spacing
    lo = points.min(axis=0) - pad
    hi = points.max(axis=0) + pad
    return lo, np.maximum(np.ceil((hi - lo) / spacing).astype(int), 1)


def cover_spheres(positions, radii, lo, spacing: float, dims) -> np.ndarray:
    """Boolean (nx, ny, nz) grid: True where the voxel centre lo + (k + 1/2) * spacing
    lies inside or on any atom sphere.

    Each atom tests the voxels of its own box, clipped to the grid.  Atoms run
    in blocks against one stencil as wide as the widest box; stencil voxels
    outside an atom's box get an infinite offset, so they never pass the test.
    """
    positions = np.asarray(positions, dtype=float).reshape(-1, 3)
    radii = np.asarray(radii, dtype=float).reshape(-1, 1)
    origin = lo + 0.5 * spacing
    covered = np.zeros(tuple(dims), dtype=bool)
    i_lo = np.maximum(np.floor((positions - radii - lo) / spacing - 0.5).astype(int), 0)
    i_hi = np.minimum(np.ceil((positions + radii - lo) / spacing + 0.5).astype(int), dims - 1)
    widths = i_hi - i_lo + 1
    stencil_shape = widths.max(axis=0, initial=0)
    if np.any(stencil_shape <= 0):
        return covered
    strides = np.array([dims[1] * dims[2], dims[2], 1])
    steps = [np.arange(w) for w in stencil_shape]
    stencil_flat = (steps[0][:, None, None] * strides[0] + steps[1][None, :, None] * strides[1]
                    + steps[2][None, None, :])
    base_flat = i_lo @ strides
    r2 = (radii * radii)[:, :, None, None]
    block = max(1, _STENCIL_BLOCK // stencil_flat.size)
    flat_covered = covered.reshape(-1)
    for start in range(0, positions.shape[0], block):
        sl = slice(start, start + block)
        sq = []
        for ax in range(3):
            ct = origin[ax] + (i_lo[sl, ax, None] + steps[ax]) * spacing - positions[sl, ax, None]
            ct[steps[ax] >= widths[sl, ax, None]] = np.inf
            sq.append(ct ** 2)
        d2 = sq[0][:, :, None, None] + sq[1][:, None, :, None] + sq[2][:, None, None, :]
        flat = base_flat[sl, None, None, None] + stencil_flat
        flat_covered[flat[d2 <= r2[sl]]] = True
    return covered


def occupancy_map(s: Structure, coords, spacing: float, radius_mode="vdw") -> ScalarGrid:
    """Pseudo-electron-cloud: per voxel, the fraction of the draws covering it.

    ``coords`` is an (m, n, 3) array of draws of ``s``'s atoms, and every
    draw given counts (pass ``ens.coords[ens.accepted]`` to leave out the
    draws a clash filter rejected).  A draw covers a voxel when any of its
    atom spheres contains the voxel center.  ``radius_mode`` is "vdw"
    (per-atom radii of ``s``) or a fixed radius in Angstrom.
    """
    if not (math.isfinite(spacing) and spacing > 0):
        raise ValueError("spacing must be finite and positive")
    coords = np.asarray(coords, dtype=float)
    if coords.ndim != 3 or coords.shape[1:] != (s.n_atoms, 3):
        raise ValueError(f"expected coords of shape (m, {s.n_atoms}, 3), got {coords.shape}")
    if not len(coords):
        raise ValueError("occupancy needs at least one draw")
    if s.n_atoms == 0:
        raise ValueError("ensemble structure has no atoms")
    if radius_mode == "vdw":
        radii = s.radii
    else:
        radius = float(radius_mode)
        if not (math.isfinite(radius) and radius > 0):
            raise ValueError("fixed radius must be finite and positive")
        radii = np.full(s.n_atoms, radius)
    lo, dims = padded_box(coords.reshape(-1, 3), radii, spacing)
    counts = np.zeros(tuple(dims), dtype=np.int64)
    for positions in coords:
        counts += cover_spheres(positions, radii, lo, spacing, dims)
    return ScalarGrid(origin=lo + 0.5 * spacing, spacing=spacing,
                      dims=tuple(int(d) for d in dims),
                      values=(counts / len(coords)).reshape(-1))


def write_grid(g: ScalarGrid, file) -> None:
    """Write a grid to the open text ``file`` as OpenDX general-array text.

    Uses the conventional z-fastest data order with 3 values per line, 6
    significant digits.  Byte-deterministic for a fixed grid.  Besides the
    grid the writer holds one chunk of ``_WRITE_CHUNK`` values' text at a
    time.
    """
    nx, ny, nz = g.dims
    file.write(
        f"object 1 class gridpositions counts {nx} {ny} {nz}\n"
        f"origin {g.origin[0]:.6g} {g.origin[1]:.6g} {g.origin[2]:.6g}\n"
        f"delta {g.spacing:.6g} 0 0\n"
        f"delta 0 {g.spacing:.6g} 0\n"
        f"delta 0 0 {g.spacing:.6g}\n"
        f"object 2 class gridconnections counts {nx} {ny} {nz}\n"
        f"object 3 class array type double rank 0 items {nx * ny * nz} data follows\n"
    )
    data = g.values
    # three values to a line; the grid's last value always ends its line
    seps = np.array([" ", " ", "\n"] * (_WRITE_CHUNK // 3), dtype=object)
    for start in range(0, data.size, _WRITE_CHUNK):
        # format each distinct bit pattern once: keying on bits keeps -0.0 apart from 0.0
        keys, inverse = np.unique(data[start:start + _WRITE_CHUNK].view(np.int64),
                                  return_inverse=True)
        table = np.array([f"{v:.6g}" for v in keys.view(np.float64).tolist()], dtype=object)
        tokens = np.empty(2 * inverse.size, dtype=object)
        tokens[0::2] = table[inverse]
        tokens[1::2] = seps[:inverse.size]
        tokens[-1] = "\n"
        file.write("".join(tokens.tolist()))
    file.write('attribute "dep" string "positions"\n')


# low -> high runs red -> orange -> yellow -> green -> blue, so that blue
# marks high values
_RAINBOW = ((255, 0, 0), (255, 165, 0), (255, 255, 0), (0, 255, 0), (0, 0, 255))


def _interpolate(anchors, fraction: float) -> tuple[int, int, int]:
    n_seg = len(anchors) - 1
    x = fraction * n_seg
    seg = min(int(x), n_seg - 1)
    t = x - seg
    a, b = anchors[seg], anchors[seg + 1]
    return tuple(int(round(a[ch] + t * (b[ch] - a[ch]))) for ch in range(3))


def colormap_export(keys, values) -> tuple[str, str]:
    """CSV color rows plus a viewer command script for per-atom coloring.

    Values map linearly onto the rainbow palette over [min, max]; a constant
    value list maps everything to the palette midpoint, yellow.  Returns
    (csv_text, script_text); the script uses PyMOL command syntax.
    """
    keys = list(keys)
    vals = np.asarray(values, dtype=float)
    if len(keys) != vals.size:
        raise ValueError("keys and values must have the same length")
    if vals.size and not np.all(np.isfinite(vals)):
        raise ValueError("values must be finite")
    lo = float(vals.min()) if vals.size else 0.0
    hi = float(vals.max()) if vals.size else 0.0
    csv_lines = ["key,value,r,g,b"]
    script_lines = []
    for row, (key, v) in enumerate(zip(keys, vals)):
        frac = 0.5 if hi == lo else (float(v) - lo) / (hi - lo)
        r, g, b = _interpolate(_RAINBOW, frac)
        csv_lines.append(f"{key},{float(v)!r},{r},{g},{b}")
        script_lines.append(
            f"set_color moluq_c{row}, [{r / 255:.4f}, {g / 255:.4f}, {b / 255:.4f}]"
        )
        script_lines.append(f"color moluq_c{row}, id {key}")
    return "\n".join(csv_lines) + "\n", "\n".join(script_lines) + "\n"
