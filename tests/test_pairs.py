"""The pair layer against brute-force oracles of the dense n x n code it replaced.

Each oracle below is a dense implementation: a full distance block and a
Python set-membership test per pair; the energy oracles add their terms with
``math.fsum``.  The kernels must reproduce them exactly (``==``, not approx)
on seeded, perturbed zigzag lattices.
"""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from moluq import conformers
from moluq.conformers import (
    build_torsion_graph,
    clash_filter,
    sample_cartesian_ensemble,
    sample_torsion_ensemble,
)
from moluq.molio import (
    _COVALENT_RADII,
    ParamTable,
    assign_params,
    bonded_exclusions,
    detect_bonds,
)
from moluq.pairs import cutoff_pairs, exclusion_codes, not_in_codes
from moluq.qoi import (
    COULOMB_CONSTANT,
    CoulombModel,
    born_radii,
    coulomb_energy,
    gb_polarization,
    lj_energy,
    sasa,
)
from conftest import lattice, make_structure

ELEMENTS = ("C", "C", "N", "C", "O")


# ---------------------------------------------------------------- oracles

def decoded(codes, n):
    """The pairs (i, j) that exclusion codes i*n + j stand for."""
    return {divmod(code, n) for code in codes.tolist()}


def oracle_pair_arrays(n, exclusions):
    ii, jj = np.triu_indices(n, k=1)
    if exclusions:
        keep = np.array([(int(i), int(j)) not in exclusions for i, j in zip(ii, jj)])
        ii, jj = ii[keep], jj[keep]
    return ii, jj


def oracle_detect_bonds(s, tolerance=0.45):
    pos = s.positions()
    radii = np.array([_COVALENT_RADII.get(e.upper(), _COVALENT_RADII["C"])
                      for e in s.elements.tolist()])
    diff = pos[:, None, :] - pos[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=2))
    cut = radii[:, None] + radii[None, :] + tolerance
    ii, jj = np.nonzero((dist < cut) & (dist > 1e-6))
    return [(int(i), int(j)) for i, j in zip(ii, jj) if i < j]


def oracle_clash(positions, s, factor):
    """(accepted, reason) of the dense clash filter."""
    n = s.n_atoms
    radii = s.radii
    diff = positions[:, None, :] - positions[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=2))
    cutoff = factor * (radii[:, None] + radii[None, :])
    ratio = np.divide(dist, cutoff, out=np.full_like(dist, np.inf), where=cutoff > 0)
    iu = np.triu_indices(n, k=1)
    excluded = decoded(bonded_exclusions(s), n)
    mask = np.array([(int(i), int(j)) not in excluded for i, j in zip(*iu)], dtype=bool)
    ratios = ratio[iu][mask]
    if ratios.size == 0 or ratios.min() >= 1.0:
        return True, None
    i, j = (int(x) for x in np.array(list(zip(*iu)))[mask][np.argmin(ratios)])
    return False, (f"atoms {s.serials[i]}-{s.serials[j]} at "
                   f"{dist[i, j]:.3f} A < {cutoff[i, j]:.3f} A")


def oracle_combine_lj(a_i, b_i, a_j, b_j):
    eps_i = np.divide(b_i**2, 4.0 * a_i, out=np.zeros_like(b_i), where=a_i > 0)
    eps_j = np.divide(b_j**2, 4.0 * a_j, out=np.zeros_like(b_j), where=a_j > 0)
    rmin_i = np.where(b_i > 0, np.divide(2.0 * a_i, b_i, out=np.ones_like(a_i),
                                         where=b_i > 0) ** (1.0 / 6.0), 0.0)
    rmin_j = np.where(b_j > 0, np.divide(2.0 * a_j, b_j, out=np.ones_like(a_j),
                                         where=b_j > 0) ** (1.0 / 6.0), 0.0)
    eps = np.sqrt(eps_i * eps_j)
    rmin = 0.5 * (rmin_i + rmin_j)
    rmin6 = (rmin * rmin) * (rmin * rmin) * (rmin * rmin)
    return eps * (rmin6 * rmin6), 2.0 * eps * rmin6


def oracle_lj(positions, lj_a, lj_b, exclusions):
    ii, jj = oracle_pair_arrays(positions.shape[0], exclusions)
    r2 = ((positions[ii] - positions[jj]) ** 2).sum(axis=1)
    a_ij, b_ij = oracle_combine_lj(lj_a[ii], lj_b[ii], lj_a[jj], lj_b[jj])
    r6 = r2 * r2 * r2
    return math.fsum((a_ij / (r6 * r6) - b_ij / r6).tolist())


def oracle_coulomb(positions, charges, model, exclusions):
    ii, jj = oracle_pair_arrays(positions.shape[0], exclusions)
    r = np.sqrt(((positions[ii] - positions[jj]) ** 2).sum(axis=1))
    terms = charges[ii] * charges[jj] / (model.epsilon(r) * r)
    return COULOMB_CONSTANT * math.fsum(terms.tolist())


def oracle_cutoff_pairs(positions, max_cutoff):
    """The former cKDTree neighbour search, verbatim."""
    from scipy.spatial import cKDTree
    positions = np.asarray(positions, dtype=float)
    n = positions.shape[0]
    radius = max_cutoff * (1.0 + 1e-9)
    if n < 2 or not radius >= 0.0:
        empty = np.zeros(0, dtype=np.intp)
        return empty, empty, np.zeros(0)
    found = cKDTree(positions).query_pairs(radius, output_type="ndarray")
    found = found[np.argsort(found[:, 0].astype(np.int64) * n + found[:, 1])]
    ii, jj = found[:, 0], found[:, 1]
    dist = np.sqrt(((positions[ii] - positions[jj]) ** 2).sum(axis=1))
    return ii, jj, dist


# ---------------------------------------------------------------- inputs

def cycled_elements(n):
    return [ELEMENTS[i % 5] for i in range(n)]


def lattice_structure(n_atoms, seed, jitter=0.05):
    """Parameterized, bonded lattice; bonds come from the dense oracle so the
    structure does not depend on the code under test."""
    rng = np.random.default_rng(seed)
    pos = lattice(n_atoms) + rng.uniform(-jitter, jitter, size=(n_atoms, 3))
    s = assign_params(make_structure(pos, element=cycled_elements(n_atoms)),
                      ParamTable.default())
    return s.with_bonds(oracle_detect_bonds(s))


def perturbed(s, seed, sigma):
    rng = np.random.default_rng(seed)
    return s.positions() + rng.normal(scale=sigma, size=(s.n_atoms, 3))


CASES = [(120, 1), (200, 2), (333, 3)]


# ---------------------------------------------------------------- pair layer

def test_cutoff_pairs_are_the_dense_pairs_in_triu_order():
    pos = perturbed(lattice_structure(200, 4), 5, 0.4)
    ii, jj, dist = cutoff_pairs(pos, 3.0)
    di, dj = np.triu_indices(len(pos), k=1)
    dense = np.sqrt(((pos[di] - pos[dj]) ** 2).sum(axis=1))
    near = dense <= 3.0
    assert np.array_equal(ii, di[near]) and np.array_equal(jj, dj[near])
    assert np.array_equal(dist, dense[near])


def neighbour_search_inputs():
    rng = np.random.default_rng(12)
    coincident = lattice(300) + rng.uniform(-0.05, 0.05, size=(300, 3))
    coincident[[5, 8, 40]] = coincident[7]
    wide = rng.uniform(0.0, 1e6, size=(400, 3))
    wide[1] = wide[0] + [4e-4, 0.0, 0.0]
    wide[3] = wide[2] + [0.0, 5e-4, 5e-4]
    wide[[4, 5]] = [0.0, 0.0, 0.0], [1e6, 1e6, 1e6]
    return {
        **{f"lattice{n}": lattice(n) + rng.uniform(-0.3, 0.3, size=(n, 3))
           for n in (120, 1000, 10_000)},
        "random1000": rng.uniform(0.0, 25.0, size=(1000, 3)),
        "coincident": coincident,
        "wide": wide,
        "one": np.ones((1, 3)),
        "none": np.zeros((0, 3)),
        "same_point": np.full((6, 3), 2.5),
    }


NEIGHBOUR_INPUTS = neighbour_search_inputs()


@pytest.mark.parametrize("name", sorted(NEIGHBOUR_INPUTS))
def test_cutoff_pairs_match_the_tree_search(name):
    pos = NEIGHBOUR_INPUTS[name]
    for cutoff in (0.0, 1e-3, 1.99, 2.04, 6.2, -1.0, float("nan")):
        got, want = cutoff_pairs(pos, cutoff), oracle_cutoff_pairs(pos, cutoff)
        assert all(np.array_equal(g, w) for g, w in zip(got, want)), cutoff
        assert got[0].dtype == want[0].dtype == np.intp


def test_pair_at_the_radius_across_a_cell_edge():
    # atom 1 sits 1e-14 A below a cell edge and atom 2 one search radius
    # (6 * (1 + 1e-9)) further on; rounding (x - lo) / side with side equal to
    # the radius would put them two cells apart and lose the pair
    pos = np.array([[-9.224456045100798, 0.0, 0.0], [44.7755440088992, 0.0, 0.0],
                    [50.775544014899204, 0.0, 0.0]])
    want = oracle_cutoff_pairs(pos, 6.0)
    assert want[0].tolist() == [1] and want[1].tolist() == [2]
    assert all(np.array_equal(g, w) for g, w in zip(cutoff_pairs(pos, 6.0), want))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_positions_raise(bad):
    s = lattice_structure(40, 6)
    pos = s.positions()
    pos[17, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        cutoff_pairs(pos, 2.0)
    with pytest.raises(ValueError):
        detect_bonds(replace(s, coords=pos))
    with pytest.raises(ValueError):
        clash_filter(pos, s, 0.6)
    with pytest.raises(ValueError):
        sasa(pos, s.radii)


def test_exclusion_codes_list_pairs_in_upper_triangle_order():
    n = 6
    entries = {(4, 5), (0, 1), (2, 4), (1, 5), (0, 5)}
    codes = exclusion_codes(entries, n)
    assert codes.dtype == np.int64
    assert codes.tolist() == [0 * n + 1, 0 * n + 5, 1 * n + 5, 2 * n + 4, 4 * n + 5]
    assert decoded(codes, n) == entries
    # sorted codes list the pairs in the order np.triu_indices gives them
    ii, jj = np.triu_indices(n, k=1)
    assert [p for p in zip(ii.tolist(), jj.tolist()) if p in entries] == [
        divmod(code, n) for code in codes.tolist()]
    assert exclusion_codes(set(), n).dtype == np.int64
    mask = not_in_codes(ii, jj, n, codes)
    assert mask.tolist() == [(int(i), int(j)) not in entries for i, j in zip(ii, jj)]


# ---------------------------------------------------------------- equivalence

@pytest.mark.parametrize("n_atoms, seed", CASES)
def test_detect_bonds_matches_dense_oracle(n_atoms, seed):
    s = lattice_structure(n_atoms, seed)
    for sigma, tol in ((0.0, 0.45), (0.3, 0.45), (0.6, 0.9), (0.3, -0.5), (0.3, -2.0)):
        moved = replace(s, coords=perturbed(s, seed + 10, sigma))
        assert list(detect_bonds(moved, tolerance=tol).bonds) == oracle_detect_bonds(moved, tol)


def test_detect_bonds_skips_coincident_atoms():
    s = make_structure([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.4, 0.0, 0.0]])
    assert list(detect_bonds(s).bonds) == oracle_detect_bonds(s) == [(0, 2), (1, 2)]


@pytest.mark.parametrize("n_atoms, seed", CASES)
def test_clash_filter_matches_dense_oracle(n_atoms, seed):
    s = lattice_structure(n_atoms, seed)
    outcomes = set()
    for k, sigma in enumerate((0.05, 0.3, 0.5, 0.8)):
        pos = perturbed(s, 100 * seed + k, sigma)
        for factor in (0.5, 0.6, 1.0):
            reason = clash_filter(pos, s, factor=factor)
            want = oracle_clash(pos, s, factor)
            assert (reason is None, reason) == want
            outcomes.add(reason is None)
    assert outcomes == {True, False}


def test_clash_filter_tie_names_first_pair_in_triu_order():
    # pairs (1, 3) and (0, 2) overlap equally; (0, 2) comes first
    pos = np.array([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0], [1.0, 0.0, 0.0], [11.0, 0.0, 0.0]])
    s = make_structure(pos)
    reason = clash_filter(pos, s)
    assert (reason is None, reason) == oracle_clash(pos, s, 0.6)
    assert reason.startswith("atoms 1-3 ")


def test_clash_filter_coincident_pair_and_zero_radius():
    pos = np.array([[0.0, 0.0, 0.0], [5.0, 0.0, 0.0], [5.0, 0.0, 0.0], [9.0, 0.0, 0.0],
                    [9.0, 0.0, 0.0], [9.5, 0.0, 0.0]])
    # serials 4 and 5 get zero radius: their coincident pair has cutoff 0 and
    # never clashes, while 4-6 and 5-6 still do; the coincident 2-3 is worst
    s = make_structure(pos, vdw_radius=[1.7, 1.7, 1.7, 0.0, 0.0, 1.7])
    reason = clash_filter(pos, s)
    assert (reason is None, reason) == oracle_clash(pos, s, 0.6)
    assert reason == "atoms 2-3 at 0.000 A < 2.040 A"
    s_zero = make_structure(pos[3:5], vdw_radius=0.0)
    reason = clash_filter(pos[3:5], s_zero)
    assert reason is None and oracle_clash(pos[3:5], s_zero, 0.6) == (True, None)


def _sample(mode, s, clash_factor):
    if mode == "cartesian":
        return sample_cartesian_ensemble(s, seed=5, n_samples=12, clash_factor=clash_factor,
                                         sigmas=np.full((s.n_atoms, 3), 0.45))
    return sample_torsion_ensemble(build_torsion_graph(s), seed=5, n_samples=12,
                                   clash_factor=clash_factor)


@pytest.mark.parametrize("mode, n_atoms", [("cartesian", 120), ("torsion", 20)])
def test_ensemble_builds_exclusions_once(monkeypatch, mode, n_atoms):
    s = lattice_structure(n_atoms, 4)
    calls = []

    def counted(structure):
        calls.append(structure)
        return bonded_exclusions(structure)

    monkeypatch.setattr(conformers, "bonded_exclusions", counted)
    e = _sample(mode, s, 0.6)
    assert len(calls) == 1
    # the accept list and reasons are those of the public per-draw filter
    free = _sample(mode, s, None)
    want = [clash_filter(positions, s, 0.6) for positions in free.coords]
    got = list(zip(e.accepted.tolist(), e.reasons))
    assert got == [(reason is None, reason) for reason in want]
    assert {accepted for accepted, _ in got} == {True, False}
    assert np.array_equal(e.coords, free.coords)


@pytest.mark.parametrize("n_atoms, seed", CASES)
def test_lj_and_coulomb_match_oracle(n_atoms, seed):
    s = lattice_structure(n_atoms, seed)
    lj_a = s.lj_a.copy()
    lj_b = s.lj_b.copy()
    lj_a[::7] = 0.0  # atoms without a well: eps 0, rmin 0
    lj_b[3::11] = 0.0
    charges = s.charges
    base = bonded_exclusions(s)
    for k, codes in enumerate((base[:0], base)):
        pos, excl = perturbed(s, seed * 7 + k, 0.2), decoded(codes, n_atoms)
        assert lj_energy(pos, lj_a, lj_b, exclusions=codes) == oracle_lj(pos, lj_a, lj_b, excl)
        for model in (CoulombModel(), CoulombModel("distance_dependent", 4.0)):
            assert (coulomb_energy(pos, charges, model, exclusions=codes)
                    == oracle_coulomb(pos, charges, model, excl))


# ---------------------------------------------------------------- memory

def _traced_peak_mib(fn, *args) -> float:
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return (tracemalloc.get_traced_memory()[1] - base) / 2**20
    finally:
        tracemalloc.stop()


def test_cutoff_kernels_stay_below_n_squared_memory_at_3000_atoms():
    # a dense 3,000 x 3,000 float block alone is 69 MiB; these kernels used
    # 480-550 MiB before the neighbour search
    n = 3000
    s = make_structure(lattice(n), element=cycled_elements(n))
    assert _traced_peak_mib(detect_bonds, s) < 16.0
    bonded = detect_bonds(s)
    assert len(bonded.bonds) == n - n // 20
    pos = perturbed(bonded, 0, 0.3)
    assert _traced_peak_mib(clash_filter, pos, bonded, 0.6) < 16.0


def test_sasa_stays_below_n_squared_memory_at_3000_atoms():
    # the dense Shrake-Rupley loop peaked at about 483 MiB here
    n = 3000
    s = assign_params(make_structure(lattice(n), element=cycled_elements(n)),
                      ParamTable.default())
    assert _traced_peak_mib(sasa, perturbed(s, 1, 0.2), s.radii, 1.4, 960) < 32.0


def test_all_pairs_energies_stay_below_n_squared_memory_at_3000_atoms():
    # the dense kernels built n x n blocks: at 1,000 atoms born_radii peaked
    # at 53 MiB and gb_polarization at 61 MiB, and the blocks grow as n**2
    n = 3000
    s = assign_params(make_structure(lattice(n), element=cycled_elements(n)),
                      ParamTable.default())
    s = detect_bonds(s)
    pos, excl = perturbed(s, 2, 0.2), bonded_exclusions(s)
    assert _traced_peak_mib(lj_energy, pos, s.lj_a, s.lj_b, excl) < 16.0
    assert _traced_peak_mib(coulomb_energy, pos, s.charges, CoulombModel(), excl) < 16.0
    assert _traced_peak_mib(born_radii, pos, s.radii) < 16.0
    rb = born_radii(pos, s.radii)
    assert _traced_peak_mib(gb_polarization, pos, s.charges, rb, 80.0) < 16.0
