"""The blockwise all-pairs energies against verbatim copies of the dense kernels.

``pairs.tree_sum`` reproduces ``np.sum`` only because numpy sums a
contiguous float64 array pairwise with a fixed split rule; the first tests
pin that rule, so a numpy that changes it fails here by name.  The kernels
must then equal the dense n x n code they replaced exactly (``==``), and
the LJ coefficient table, the row-span GB leaves and the inf-diagonal Born
blocks must equal the per-pair blockwise loops they replaced.
"""

import gc
import weakref

import numpy as np
import pytest

from moluq import pairs, qoi
from moluq.pairs import exclusion_codes, tree_sum, triu_pairs
from moluq.qoi import (
    COULOMB_CONSTANT,
    CoulombModel,
    _BLOCK_ELEMENTS,
    _lj_atom_terms,
    _lj_pair_terms,
    born_radii,
    coulomb_energy,
    gb_polarization,
    lj_energy,
)
from conftest import lattice

LEAF = 2**15


# ---------------------------------------------------------------- numpy's rule

def pairwise_sum(x, lo, m):
    """numpy's float64 pairwise sum of x[lo:lo + m], in Python floats: runs
    of fewer than 8 in order, up to 128 with 8 accumulators, longer ranges
    split at m//2 - (m//2) % 8."""
    if m < 8:
        total = -0.0
        for v in x[lo:lo + m]:
            total += v
        return total
    if m <= 128:
        r = list(x[lo:lo + 8])
        i = 8
        while i < m - m % 8:
            for k in range(8):
                r[k] += x[lo + i + k]
            i += 8
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for v in x[lo + i:lo + m]:
            total += v
        return total
    h = m // 2 - (m // 2) % 8
    return pairwise_sum(x, lo, h) + pairwise_sum(x, lo + h, m - h)


EDGES = [LEAF + d for d in (-9, -8, -1, 0, 1, 7, 8, 9)] + [2 * LEAF + d for d in (-8, -1, 0, 1, 8, 17)]


def test_numpy_sum_uses_the_pairwise_split_rule():
    rng = np.random.default_rng(0)
    for m in list(range(1, 301)) + EDGES:
        x = rng.normal(size=m) * rng.uniform(1e-3, 1e3, size=m)
        assert np.sum(x) == pairwise_sum(x.tolist(), 0, m), m


@pytest.mark.parametrize("m", [0, 1, 7, 129] + EDGES + [3 * LEAF + 5, 5 * LEAF + 3])
def test_tree_sum_is_np_sum_built_in_bounded_leaves(m):
    x = np.random.default_rng(m).normal(size=m) * 1e3
    leaves = []

    def terms(lo, hi):
        leaves.append((lo, hi))
        return x[lo:hi].copy()

    assert tree_sum(m, terms) == np.sum(x)
    assert all(0 < hi - lo <= LEAF for lo, hi in leaves) or m == 0
    # the leaves tile [0, m) left to right
    assert [lo for lo, _hi in leaves] == [0] + [hi for _lo, hi in leaves[:-1]]
    assert leaves[-1][1] == m


def test_tree_sum_frees_terms_without_the_cyclic_gc():
    # the energy kernels' terms hold their leaf buffers: a reference cycle
    # kept them alive until a collection and raised the qoi stage's RSS
    class Terms:
        def __call__(self, lo, hi):
            return np.ones(hi - lo)

    terms = Terms()
    ref = weakref.ref(terms)
    gc.disable()
    try:
        assert tree_sum(3 * LEAF, terms) == 3 * LEAF
        del terms
        assert ref() is None
    finally:
        gc.enable()


# ---------------------------------------------------------------- dense copies

def dense_pair_arrays(n, exclusions):
    ii, jj = np.triu_indices(n, k=1)
    if exclusions:
        keep = np.array([(int(i), int(j)) not in exclusions for i, j in zip(ii, jj)],
                        dtype=bool)
        ii, jj = ii[keep], jj[keep]
    return ii, jj


def dense_pair_distances(positions, ii, jj, context):
    d = np.sqrt(((positions[ii] - positions[jj]) ** 2).sum(axis=1))
    if np.any(d == 0.0):
        bad = int(np.argmax(d == 0.0))
        raise ValueError(
            f"{context}: coincident atoms at pair ({int(ii[bad])}, {int(jj[bad])})"
        )
    return d


def dense_lj_atom_terms(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    eps = np.divide(b**2, 4.0 * a, out=np.zeros_like(b), where=a > 0)
    rmin = np.where(b > 0, np.divide(2.0 * a, b, out=np.ones_like(a),
                                     where=b > 0) ** (1.0 / 6.0), 0.0)
    return eps, rmin


def dense_lj_pair_terms(eps_i, rmin_i, eps_j, rmin_j):
    eps = np.sqrt(eps_i * eps_j)
    rmin = 0.5 * (rmin_i + rmin_j)
    return eps * rmin**12, 2.0 * eps * rmin**6


def dense_lj_energy(positions, lj_a, lj_b, exclusions=frozenset()):
    positions = np.asarray(positions, dtype=float)
    ii, jj = dense_pair_arrays(positions.shape[0], exclusions)
    if len(ii) == 0:
        return 0.0
    r = dense_pair_distances(positions, ii, jj, "lj_energy")
    eps, rmin = dense_lj_atom_terms(lj_a, lj_b)
    a_ij, b_ij = dense_lj_pair_terms(eps[ii], rmin[ii], eps[jj], rmin[jj])
    r6 = r**6
    return float(np.sum(a_ij / r6**2 - b_ij / r6))


def dense_coulomb_energy(positions, charges, model=CoulombModel(), exclusions=frozenset()):
    positions = np.asarray(positions, dtype=float)
    charges = np.asarray(charges, dtype=float)
    ii, jj = dense_pair_arrays(positions.shape[0], exclusions)
    if len(ii) == 0:
        return 0.0
    r = dense_pair_distances(positions, ii, jj, "coulomb_energy")
    return float(np.sum(COULOMB_CONSTANT * charges[ii] * charges[jj]
                        / (model.epsilon(r) * r)))


def dense_born_radii(positions, vdw_radii):
    positions = np.asarray(positions, dtype=float)
    rho = np.asarray(vdw_radii, dtype=float)
    n = positions.shape[0]
    if n == 0:
        return np.zeros(0)
    if np.any(rho <= 0):
        raise ValueError("van der Waals radii must be positive")
    inv = 1.0 / rho
    if n > 1:
        diff = positions[:, None, :] - positions[None, :, :]
        r2 = (diff**2).sum(axis=2)
        off = ~np.eye(n, dtype=bool)
        if np.any(r2[off] == 0.0):
            i, j = divmod(int(np.argmax((r2 == 0.0) & off)), n)
            raise ValueError(f"born_radii: coincident atoms at pair ({i}, {j})")
        descreen = np.where(off, (rho[None, :] ** 3) / (3.0 * np.where(off, r2**2, 1.0)), 0.0)
        inv = inv - descreen.sum(axis=1)
    raw = np.where(inv != 0.0, 1.0 / np.where(inv != 0.0, inv, 1.0), np.inf)
    return np.maximum(raw, rho / 2.0)


def dense_gb_polarization(positions, charges, radii_born, solvent_dielectric=80.0):
    positions = np.asarray(positions, dtype=float)
    charges = np.asarray(charges, dtype=float)
    rb = np.asarray(radii_born, dtype=float)
    if positions.shape[0] == 0:
        return 0.0
    if np.any(rb <= 0):
        raise ValueError("Born radii must be positive")
    tau = 1.0 - 1.0 / solvent_dielectric
    diff = positions[:, None, :] - positions[None, :, :]
    r2 = (diff**2).sum(axis=2)
    rr = rb[:, None] * rb[None, :]
    denom = np.sqrt(r2 + rr * np.exp(-r2 / (4.0 * rr)))
    qq = charges[:, None] * charges[None, :]
    return float(-(tau / 2.0) * COULOMB_CONSTANT * np.sum(qq / denom))


# ---------------------------------------------------------------- inputs

def atoms(n, seed):
    """Perturbed lattice with LJ terms (some atoms without a well), charges
    and radii."""
    rng = np.random.default_rng(seed)
    pos = lattice(n) + rng.uniform(-0.3, 0.3, size=(n, 3))
    lj_a = rng.uniform(1e4, 1e6, size=n)
    lj_b = rng.uniform(100.0, 900.0, size=n)
    lj_a[::7] = 0.0
    lj_b[3::11] = 0.0
    return pos, lj_a, lj_b, rng.normal(scale=0.4, size=n), rng.uniform(1.2, 2.0, size=n)


def chain_exclusions(n):
    return frozenset((i, i + k) for k in (1, 2) for i in range(n - k))


def trimmed_exclusions(n, count, seed):
    """1-2/1-3 exclusions, malformed entries and random pairs, so that exactly
    ``count`` pairs remain."""
    base = chain_exclusions(n) | MALFORMED
    codes = exclusion_codes(base, n)
    ii, jj = np.triu_indices(n, k=1)
    free = np.flatnonzero(~np.isin(ii * n + jj, codes))
    extra = np.random.default_rng(seed).choice(free, free.size - count, replace=False)
    return base | {(int(ii[k]), int(jj[k])) for k in extra}


# reversed, out of range, self and non-integer entries exclude nothing; the
# integer-valued floats (1.0, 4.0) exclude pair (1, 4)
MALFORMED = frozenset({(7, 3), (-1, 4), (5, 10**6), (2, 2), (-3, -1), (1.0, 4.0), (1.5, 6)})


def assert_energies_match(pos, lj_a, lj_b, charges, radii, excl):
    assert lj_energy(pos, lj_a, lj_b, excl) == dense_lj_energy(pos, lj_a, lj_b, excl)
    for model in (CoulombModel(), CoulombModel("distance_dependent", 4.0)):
        assert (coulomb_energy(pos, charges, model, excl)
                == dense_coulomb_energy(pos, charges, model, excl))
    rb = born_radii(pos, radii)
    assert np.array_equal(rb, dense_born_radii(pos, radii))
    assert gb_polarization(pos, charges, rb, 4.0) == dense_gb_polarization(pos, charges, rb, 4.0)


# ---------------------------------------------------------------- equivalence

@pytest.mark.parametrize("n", range(8))
def test_kernels_match_dense_below_eight_atoms(n):
    pos, lj_a, lj_b, charges, radii = atoms(max(n, 1), n)
    pos, lj_a, lj_b, charges, radii = (x[:n] for x in (pos, lj_a, lj_b, charges, radii))
    for excl in (frozenset(), chain_exclusions(n), chain_exclusions(n) | MALFORMED):
        assert_energies_match(pos, lj_a, lj_b, charges, radii, excl)


# (n, kept pairs): P at a leaf edge, around it, at the first split and at a
# second level of splitting
TRIU_EDGES = [(261, LEAF - 1), (261, LEAF), (261, LEAF + 1), (262, LEAF + 8),
              (262, LEAF + 15), (366, 2 * LEAF), (366, 2 * LEAF + 1), (446, 3 * LEAF + 5)]


@pytest.mark.parametrize("n, count", TRIU_EDGES)
def test_pair_energies_match_dense_at_leaf_and_split_edges(n, count):
    pos, lj_a, lj_b, charges, _radii = atoms(n, count)
    excl = trimmed_exclusions(n, count, count)
    assert triu_pairs(n, exclusion_codes(excl, n))[0] == count
    assert lj_energy(pos, lj_a, lj_b, excl) == dense_lj_energy(pos, lj_a, lj_b, excl)
    model = CoulombModel("distance_dependent", 4.0)
    assert (coulomb_energy(pos, charges, model, excl)
            == dense_coulomb_energy(pos, charges, model, excl))


# n*n terms below, at and above one and two leaves; Born-radius row blocks
# of 2**15 // n rows, one of them short
@pytest.mark.parametrize("n", [181, 182, 256, 257, 300])
def test_born_and_gb_match_dense_at_leaf_edges(n):
    pos, _a, _b, charges, radii = atoms(n, n)
    rb = born_radii(pos, radii)
    assert np.array_equal(rb, dense_born_radii(pos, radii))
    assert gb_polarization(pos, charges, rb) == dense_gb_polarization(pos, charges, rb)


def test_kernels_match_dense_when_whole_rows_are_excluded():
    n = 300
    pos, lj_a, lj_b, charges, radii = atoms(n, 9)
    full_rows = {(i, j) for i in (0, 1, 150, 297, 298) for j in range(i + 1, n)}
    excl = chain_exclusions(n) | full_rows | MALFORMED
    assert_energies_match(pos, lj_a, lj_b, charges, radii, excl)
    everything = frozenset((i, j) for i in range(n) for j in range(i + 1, n))
    assert lj_energy(pos, lj_a, lj_b, everything) == 0.0
    assert coulomb_energy(pos, charges, exclusions=everything) == 0.0


@pytest.mark.parametrize("n, seed", [(120, 1), (1000, 2)])
def test_kernels_match_dense_on_lattices(n, seed):
    pos, lj_a, lj_b, charges, radii = atoms(n, seed)
    assert_energies_match(pos, lj_a, lj_b, charges, radii, chain_exclusions(n) | MALFORMED)


def _message(fn, *args):
    with pytest.raises(ValueError) as info:
        fn(*args)
    return str(info.value)


def test_coincident_atoms_name_the_same_pair():
    n = 300  # 44,850 pairs: the first coincident kept pair lies in the second leaf
    pos, lj_a, lj_b, charges, radii = atoms(n, 4)
    pos[[9, 260, 299]] = pos[3], pos[250], pos[250]
    excl = chain_exclusions(n) | {(3, 9)}
    for fn, dense, args in [
            (lj_energy, dense_lj_energy, (pos, lj_a, lj_b, excl)),
            (coulomb_energy, dense_coulomb_energy, (pos, charges, CoulombModel(), excl)),
            (born_radii, dense_born_radii, (pos, radii))]:
        assert _message(fn, *args) == _message(dense, *args)
    assert _message(lj_energy, pos, lj_a, lj_b, excl).endswith("pair (250, 260)")
    assert _message(born_radii, pos, radii).endswith("pair (3, 9)")
    # GB has no such check: r = 0 is a finite term
    assert gb_polarization(pos, charges, radii) == dense_gb_polarization(pos, charges, radii)


# ---------------------------------------------------------------- per-pair loops

def loop_squared_distances(xyz, ii, jj):
    x, y, z = xyz
    return ((x[ii] - x[jj]) ** 2 + (y[ii] - y[jj]) ** 2) + (z[ii] - z[jj]) ** 2


def loop_pair_sum(positions, exclusions, context, pair_terms):
    xyz = np.asarray(positions, dtype=float).T.copy()
    n = xyz.shape[1]
    count, pairs = triu_pairs(n, exclusion_codes(exclusions, n))

    def terms(lo, hi):
        ii, jj = pairs(lo, hi)
        r = np.sqrt(loop_squared_distances(xyz, ii, jj))
        if np.any(r == 0.0):
            bad = int(np.argmax(r == 0.0))
            raise ValueError(
                f"{context}: coincident atoms at pair ({int(ii[bad])}, {int(jj[bad])})"
            )
        return pair_terms(ii, jj, r)

    return tree_sum(count, terms) if count else 0.0


def loop_coulomb_energy(positions, charges, model=CoulombModel(), exclusions=frozenset()):
    charges = np.asarray(charges, dtype=float)

    def terms(ii, jj, r):
        return COULOMB_CONSTANT * charges[ii] * charges[jj] / (model.epsilon(r) * r)

    return loop_pair_sum(positions, exclusions, "coulomb_energy", terms)


def loop_lj_energy(positions, lj_a, lj_b, exclusions=frozenset()):
    eps, rmin = _lj_atom_terms(lj_a, lj_b)

    def terms(ii, jj, r):
        a_ij, b_ij = _lj_pair_terms(eps[ii], rmin[ii], eps[jj], rmin[jj])
        r6 = r**6
        return a_ij / r6**2 - b_ij / r6

    return loop_pair_sum(positions, exclusions, "lj_energy", terms)


def loop_born_radii(positions, vdw_radii):
    positions = np.asarray(positions, dtype=float)
    rho = np.asarray(vdw_radii, dtype=float)
    n = positions.shape[0]
    if n == 0:
        return np.zeros(0)
    if np.any(rho <= 0):
        raise ValueError("van der Waals radii must be positive")
    inv = 1.0 / rho
    if n > 1:
        xyz = positions.T.copy()
        rho3 = rho**3
        descreened = np.empty(n)
        step = max(1, _BLOCK_ELEMENTS // n)
        for lo in range(0, n, step):
            rows = np.arange(lo, min(lo + step, n))
            r2 = loop_squared_distances(xyz, rows[:, None], slice(None))
            off = np.arange(n) != rows[:, None]
            if np.any(r2[off] == 0.0):
                i, j = divmod(int(np.argmax((r2 == 0.0) & off)), n)
                raise ValueError(f"born_radii: coincident atoms at pair ({lo + i}, {j})")
            descreen = np.where(off, rho3 / (3.0 * np.where(off, r2**2, 1.0)), 0.0)
            descreened[rows] = descreen.sum(axis=1)
        inv = inv - descreened
    raw = np.where(inv != 0.0, 1.0 / np.where(inv != 0.0, inv, 1.0), np.inf)
    return np.maximum(raw, rho / 2.0)


def loop_gb_polarization(positions, charges, radii_born, solvent_dielectric=80.0):
    positions = np.asarray(positions, dtype=float)
    charges = np.asarray(charges, dtype=float)
    rb = np.asarray(radii_born, dtype=float)
    if positions.shape[0] == 0:
        return 0.0
    if np.any(rb <= 0):
        raise ValueError("Born radii must be positive")
    tau = 1.0 - 1.0 / solvent_dielectric
    n = positions.shape[0]
    xyz = positions.T.copy()

    def terms(lo, hi):
        ii, jj = np.divmod(np.arange(lo, hi), n)
        r2 = loop_squared_distances(xyz, ii, jj)
        rr = rb[ii] * rb[jj]
        denom = np.sqrt(r2 + rr * np.exp(-r2 / (4.0 * rr)))
        return charges[ii] * charges[jj] / denom

    return float(-(tau / 2.0) * COULOMB_CONSTANT * tree_sum(n * n, terms))


def lj_rows(n, p, seed):
    """LJ terms of n atoms with exactly p distinct (eps, rmin) rows, one of
    them the no-well row shared by atoms with lj_a = 0 or lj_b = 0."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(1e4, 1e6, size=p)
    b = rng.uniform(100.0, 900.0, size=p)
    kind = rng.permutation(np.arange(n) % p)
    lj_a, lj_b = a[kind], b[kind]
    no_well = np.flatnonzero(kind == 0)
    lj_a[no_well[::2]] = 0.0
    lj_b[no_well[1::2]] = 0.0
    eps, rmin = _lj_atom_terms(lj_a, lj_b)
    assert len(np.unique(np.column_stack([eps, rmin]), axis=0)) == p
    return lj_a, lj_b


# ---------------------------------------------------------------- equivalence with the loops

@pytest.mark.parametrize("p, tabled", [(5, True), (181, True), (182, False)])
def test_lj_table_matches_the_per_pair_loop(monkeypatch, p, tabled):
    n = 400
    pos = atoms(n, p)[0]
    lj_a, lj_b = lj_rows(n, p, p)
    sizes = []

    def counted(*args):
        sizes.append(args[0].size)
        return _lj_pair_terms(*args)

    monkeypatch.setattr(qoi, "_lj_pair_terms", counted)
    for excl in (frozenset(), chain_exclusions(n) | MALFORMED):
        sizes.clear()
        assert lj_energy(pos, lj_a, lj_b, excl) == loop_lj_energy(pos, lj_a, lj_b, excl)
        # P^2 <= 2**15: one call over the table; otherwise one per leaf of pairs
        assert (sizes == [p * p]) == tabled
        assert sum(sizes) == (p * p if tabled else triu_pairs(n, exclusion_codes(excl, n))[0])


@pytest.mark.parametrize("leaf", [40, 97, LEAF])
def test_leaf_buffers_match_the_loops(monkeypatch, leaf):
    # every leaf of the pair sums writes into the same two buffers
    monkeypatch.setattr(pairs, "_TREE_LEAF", leaf)
    n = 150
    pos, lj_a, lj_b, charges, _radii = atoms(n, leaf)
    for excl in (frozenset(), chain_exclusions(n) | MALFORMED):
        assert lj_energy(pos, lj_a, lj_b, excl) == loop_lj_energy(pos, lj_a, lj_b, excl)
        for model in (CoulombModel(), CoulombModel("distance_dependent", 4.0)):
            assert (coulomb_energy(pos, charges, model, excl)
                    == loop_coulomb_energy(pos, charges, model, excl))


def test_lj_table_without_wells_or_atoms_matches_the_loop():
    pos = atoms(60, 1)[0]
    lj_a, lj_b = np.zeros(60), np.full(60, 500.0)
    lj_b[::3] = 0.0
    assert lj_energy(pos, lj_a, lj_b) == loop_lj_energy(pos, lj_a, lj_b) == 0.0
    for n in (0, 1, 2):
        assert lj_energy(pos[:n], np.ones(n), np.ones(n)) == loop_lj_energy(
            pos[:n], np.ones(n), np.ones(n))


@pytest.mark.parametrize("leaf", [40, 97])
@pytest.mark.parametrize("n", [1, 6, 23, 50])
def test_gb_row_span_leaves_match_the_per_term_loop(monkeypatch, leaf, n):
    monkeypatch.setattr(pairs, "_TREE_LEAF", leaf)
    pos, _a, _b, charges, radii = atoms(n, n + leaf)
    rb = born_radii(pos, radii)
    leaves = []

    def recorded(count, terms):
        def leaf_terms(lo, hi):
            leaves.append((lo, hi))
            block = terms(lo, hi)
            assert block.shape == (hi - lo,) and block.flags.c_contiguous
            return block
        return tree_sum(count, leaf_terms)

    monkeypatch.setattr(qoi, "tree_sum", recorded)
    for eps in (1.0, 4.0, 80.0):
        leaves.clear()
        assert gb_polarization(pos, charges, rb, eps) == loop_gb_polarization(pos, charges, rb, eps)
    if n * n > leaf:
        assert any(lo % n for lo, _hi in leaves) and any(hi % n for _lo, hi in leaves)


@pytest.mark.parametrize("n", [2, 7, 181, 182, 300])
def test_born_inf_diagonal_matches_the_masked_loop(n):
    pos, _a, _b, _q, radii = atoms(n, 3 * n)
    assert np.array_equal(born_radii(pos, radii), loop_born_radii(pos, radii))
    # rho^3 overflows to inf for one atom: the masked loop keeps its own
    # row finite, so must the inf diagonal
    radii[n // 2] = 1e103
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.array_equal(born_radii(pos, radii), loop_born_radii(pos, radii))


def test_born_coincident_pair_in_a_later_row_block():
    n = 300  # blocks of 2**15 // 300 = 109 rows: the pair lies in the second
    pos, _a, _b, _q, radii = atoms(n, 5)
    pos[[220, 290]] = pos[150], pos[160]
    message = _message(born_radii, pos, radii)
    assert message == _message(loop_born_radii, pos, radii)
    assert message.endswith("pair (150, 220)")
