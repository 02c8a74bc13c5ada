"""The SASA exposure pass against a verbatim copy of the dense loop it replaced.

``dense_exposure_mask`` tests every sphere point of every atom against every
padded neighbour slot.  ``qoi._exposure_mask`` stops testing a point once it
is decided, so its masks, own-group masks and areas must match the dense
loop bit for bit; it must also not need much more memory, and a traced CLI
run must book it under ``qoi.sasa``.
"""

import copy
import importlib.util
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from moluq import cli, molio, qoi
from moluq.pairs import cutoff_pairs
from moluq.qoi import sasa, sphere_points
from conftest import lattice, make_structure

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
ELEMENTS = ("C", "C", "N", "C", "O")


# ------------------------------------------------- the dense loop, verbatim

_BLOCK_ELEMENTS = 2**15


def _neighbour_table(positions, inflated):
    """Padded (n, k_max) table of each atom's overlapping neighbours, with counts.

    Atom j != i is a neighbour of i when d_ij < inflated_i + inflated_j, the
    strict test of the dense distance block, re-applied to the pairs of the
    neighbour search.  Row i lists its neighbours in slots < count[i]; the
    remaining slots hold index 0 and must be masked by the caller.
    """
    n = positions.shape[0]
    ii, jj, dist = cutoff_pairs(positions, 2.0 * inflated.max())
    keep = dist < inflated[ii] + inflated[jj]
    rows = np.concatenate([ii[keep], jj[keep]])
    cols = np.concatenate([jj[keep], ii[keep]])
    order = np.argsort(rows, kind="stable")
    rows, cols = rows[order], cols[order]
    count = np.bincount(rows, minlength=n)
    table = np.zeros((n, int(count.max(initial=0))), dtype=np.intp)
    table[rows, np.arange(rows.size) - (np.cumsum(count) - count)[rows]] = cols
    return table, count


def dense_exposure_mask(positions, radii, probe, n_points, groups=None):
    """Boolean (n, n_points) exposure of each atom's inflated-sphere points.

    A point of atom i is buried when it lies strictly inside the inflated
    sphere of one of i's neighbours (see :func:`_neighbour_table`).  Points
    are tested in blocks of atoms against one neighbour slot at a time, so
    every temporary holds at most about ``_BLOCK_ELEMENTS`` values and no
    n x n array is built.  With ``groups`` (one label per atom) a second mask
    counts only same-group neighbours as burying: row i of it equals the
    exposure of atom i computed on its own group alone.

    Returns (masks, own_masks or None, inflated).
    """
    if not (math.isfinite(probe) and probe >= 0):
        raise ValueError("probe radius must be finite and >= 0")
    if n_points < 32:
        raise ValueError("n_points must be >= 32")
    positions = np.asarray(positions, dtype=float)
    radii = np.asarray(radii, dtype=float)
    n = positions.shape[0]
    unit = sphere_points(n_points)
    inflated = radii + probe
    masks = np.ones((n, n_points), dtype=bool)
    own_masks = None if groups is None else np.ones((n, n_points), dtype=bool)
    if n < 2:
        return masks, own_masks, inflated
    table, count = _neighbour_table(positions, inflated)
    # padding slots get r^2 = -1, which no squared distance falls below
    r2 = np.where(np.arange(table.shape[1]) < count[:, None], inflated[table] ** 2, -1.0)
    nbr = positions[table].transpose(2, 0, 1)
    if groups is not None:
        groups = np.asarray(groups)
        same = groups[table] == groups[:, None]
    step = max(1, _BLOCK_ELEMENTS // n_points)
    for lo in range(0, n, step):
        rows = slice(lo, lo + step)
        k = int(count[rows].max())
        if k == 0:
            continue
        # the points positions[i] + inflated[i] * unit, one array per axis
        px, py, pz = (positions[rows, c, None] + inflated[rows, None] * unit[:, c]
                      for c in range(3))
        hit = np.zeros(px.shape, dtype=bool)
        own_hit = None if groups is None else np.zeros(px.shape, dtype=bool)
        for slot in range(k):
            # (dx**2 + dy**2) + dz**2: the order in which .sum(axis=-1) adds x, y, z
            d2 = (px - nbr[0, rows, slot, None]) ** 2
            d2 += (py - nbr[1, rows, slot, None]) ** 2
            d2 += (pz - nbr[2, rows, slot, None]) ** 2
            buried = d2 < r2[rows, slot, None]
            hit |= buried
            if own_hit is not None:
                own_hit |= buried & same[rows, slot, None]
        masks[rows] = ~hit
        if own_hit is not None:
            own_masks[rows] = ~own_hit
    return masks, own_masks, inflated


def _atom_areas(masks, inflated) -> np.ndarray:
    return masks.mean(axis=1) * 4.0 * math.pi * inflated**2


# ------------------------------------------------------------------ inputs

def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def lattice_structure(n_atoms, seed, jitter=0.05):
    rng = np.random.default_rng(seed)
    pos = lattice(n_atoms) + rng.uniform(-jitter, jitter, size=(n_atoms, 3))
    elements = [ELEMENTS[i % len(ELEMENTS)] for i in range(n_atoms)]
    return molio.assign_params(make_structure(pos, element=elements),
                               molio.ParamTable.default())


@pytest.fixture(scope="module")
def surface_rows(tmp_path_factory):
    """Radii, chain-A size and the 17 rows (reference + 16 draws) that the
    benchmark's ``surface`` workload evaluates on seed 1."""
    tmp = tmp_path_factory.mktemp("surface")
    files = _load("gen").write_inputs(_load("workloads").WORKLOADS["surface"], 1, tmp / "in")
    assert cli.main(["sample", "--config", str(files["config"]), "--out", str(tmp / "out")]) == 0
    s = molio.assign_params(molio.parse_pdb(files["structure"].read_text()),
                            molio.ParamTable.default())
    _first, coords = molio.parse_pdb_models((tmp / "out" / "ensemble.pdb").read_text())
    return s.radii, len(s.chains["A"]), [s.positions(), *coords]


def assert_same_pass(pos, radii, probe, n_points, groups=None):
    masks, own, inflated = qoi._exposure_mask(pos, radii, probe, n_points, groups)
    want, want_own, want_inflated = dense_exposure_mask(pos, radii, probe, n_points, groups)
    assert np.array_equal(masks, want)
    assert np.array_equal(inflated, want_inflated)
    total, per_atom, *alone = sasa(pos, radii, probe, n_points, groups)
    want_per_atom = _atom_areas(want, want_inflated)
    assert total == float(want_per_atom.sum())
    assert np.array_equal(per_atom, want_per_atom)
    if groups is None:
        assert own is None and alone == []
    else:
        assert np.array_equal(own, want_own)
        assert np.array_equal(alone[0], _atom_areas(want_own, want_inflated))
    return masks, own


# ------------------------------------------------------------- same masks

def test_surface_rows_match_dense_loop(surface_rows):
    radii, n_a, rows = surface_rows
    assert len(rows) == 17
    groups = np.arange(len(radii)) >= n_a
    for pos in rows:
        assert_same_pass(pos, radii, 1.4, 960)
        masks, own = assert_same_pass(pos, radii, 1.4, 960, groups)
        assert np.any(own & ~masks)  # points buried only across the interface


def test_random_clusters_with_mixed_radii_match_dense_loop():
    rng = np.random.default_rng(17)
    for n, scale in ((5, 1.0), (40, 2.0), (120, 4.0), (200, 8.0)):
        pos = rng.normal(scale=scale, size=(n, 3))
        radii = rng.choice([0.0, 1.2, 1.5, 1.7, 1.8, 2.6], size=n)
        groups = rng.integers(0, 3, size=n)
        for probe, n_points in ((1.4, 960), (0.0, 32), (2.2, 1000)):
            assert_same_pass(pos, radii, probe, n_points)
            assert_same_pass(pos, radii, probe, n_points, groups)


def test_isolated_and_tiny_inputs_match_dense_loop():
    isolated = np.arange(15, dtype=float)[:, None] * [20.0, 0.0, 0.0]
    pair = np.array([[0.0, 0.0, 0.0], [2.5, 0.3, 0.0]])
    for pos in (np.zeros((0, 3)), isolated[:1], pair, isolated,
                np.vstack([isolated, pair + 3.0])):
        radii = np.resize([1.7, 1.5, 1.2], len(pos))
        for n_points in (32, 960, 1000):
            assert_same_pass(pos, radii, 1.4, n_points)
            assert_same_pass(pos, radii, 1.4, n_points, np.arange(len(pos)) % 2)
    # coincident centres, and one sphere wholly inside another
    assert_same_pass(np.zeros((2, 3)), np.array([1.5, 1.5]), 1.4, 32, [0, 1])
    assert_same_pass(np.zeros((2, 3)), np.array([0.5, 1.5]), 0.0, 32, [0, 1])


@pytest.mark.parametrize("n_points", [32, 960, 1000])
def test_lattice_over_several_batches_matches_dense_loop(n_points):
    s = lattice_structure(1000, 3)
    pos = s.positions() + np.random.default_rng(3).normal(scale=0.2, size=(1000, 3))
    _table, count, _same = qoi._neighbour_table(pos, s.radii + 1.4)
    # split mid-chain, so A/B interface atoms have neighbours in both groups
    groups = np.arange(1000) >= 510
    masks, own = assert_same_pass(pos, s.radii, 1.4, n_points, groups)
    assert_same_pass(pos, s.radii, 1.4, n_points)
    assert np.any(own & ~masks)
    if n_points >= 960:
        # the exposed points of atoms with slots after the dense ones were all
        # packed: they fill more than two batches
        assert masks[count > qoi._DENSE_SLOTS].sum() > 2 * qoi._BATCH_POINTS


# ------------------------------------------------------------------ memory

def _traced_peak_mib(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_grouped_pass_memory_stays_near_dense_loop():
    s = lattice_structure(1000, 5)
    pos = s.positions() + np.random.default_rng(5).normal(scale=0.2, size=(1000, 3))
    groups = np.arange(1000) >= 500
    args = (pos, s.radii, 1.4, 960, groups)
    dense = _traced_peak_mib(dense_exposure_mask, *args)
    packed = _traced_peak_mib(qoi._exposure_mask, *args)
    assert packed <= dense + 2.0, (packed, dense)


# ------------------------------------------------------------------- trace

def test_traced_qoi_stage_books_the_pass_under_sasa(tmp_path):
    spec = copy.deepcopy(_load("workloads").WORKLOADS["surface"])
    spec["atoms"] = 60
    files = _load("gen").write_inputs(spec, 1, tmp_path / "inputs")
    out = tmp_path / "out"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    config = ["--config", str(files["config"]), "--out", str(out)]
    proc = subprocess.run([sys.executable, "-m", "moluq.cli", "sample", *config],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    spans_path = tmp_path / "qoi.spans.json"
    flags = dict(spec["stages"])["qoi"]
    proc = subprocess.run([sys.executable, str(PERFBENCH / "traced_stage.py"), repr(time.time()),
                           str(spans_path), "qoi", *config, *flags],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    functions = _load("spans").summarize(json.loads(spans_path.read_text())["spans"])
    rows = len(json.loads((out / "manifest.json").read_text())["accepted"]) + 1
    assert functions["qoi.sasa"]["calls"] == rows
    assert functions["qoi.sasa"]["self_s"] > functions["cli._map_workers"]["self_s"]
