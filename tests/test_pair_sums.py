"""The blockwise all-pairs energies against dense brute-force oracles.

Every kernel adds its terms exactly and rounds once, so it must equal
``math.fsum`` of the same terms from a dense pass over the pairs, by ``==``:
at n = 0, 1, 2, across several row blocks, with whole excluded rows and
coincident atoms.  Exclusions reach kernels and oracles alike as sorted
codes (``pairs.exclusion_codes``); the oracles decode them into pairs.  The LJ coefficient table, the half-pass
GB sum and the inf-diagonal Born blocks must equal the per-pair forms they
stand for, and no result may depend on the order of the atoms.
``pairs.exact_sums`` itself is checked against exact rational sums over the
whole float range.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from moluq import qoi
from moluq.pairs import exact_sums, exclusion_codes
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
    sasa,
)
from conftest import lattice


# ---------------------------------------------------------------- exact sums

def summed(rows):
    terms = np.array(rows, dtype=float).reshape(len(rows), -1)
    return list(map(math.fsum, exact_sums(terms, np.empty_like(terms)).T.tolist()))


def exact(row):
    return float(sum(map(Fraction, row)))


def test_exact_sums_are_exact_over_the_float_range():
    rng = np.random.default_rng(0)
    for trial in range(60):
        rows, cols = int(rng.integers(1, 5)), int(rng.integers(1, 400))
        x = rng.normal(size=(rows, cols)) * np.exp(rng.uniform(-40.0, 40.0, size=(rows, cols)))
        x *= math.exp(rng.uniform(-660.0, 660.0)) if trial % 3 == 0 else 1.0
        x[rng.random((rows, cols)) < 0.1] = 0.0
        want = [exact(row) for row in x.tolist()]
        assert summed(x.tolist()) == want
        # the same multiset in another order gives the same bits
        assert summed(rng.permuted(x, axis=1).tolist()) == want


def test_exact_sums_beyond_one_run_of_parts():
    # 3 * 2**17 parts of about 2**36 units each: one np.sum over the row would
    # need more than 53 bits
    x = np.random.default_rng(1).uniform(0.5, 1.0, size=3 * 2**17).tolist()
    assert summed([x]) == [exact(x)]


@pytest.mark.parametrize("row, want", [
    ([math.inf, 1.0, 2.0], math.inf),
    ([-math.inf, 1.0, 2.0], -math.inf),
    ([2e303, -1e303, 1.0], 1e303),  # terms of 2**1007 or more are their own parts
    ([5e-324, -5e-324, 5e-324], 5e-324),
    ([0.1, 0.2, -0.3], 2.0**-55),  # float(0.1 + 0.2 - 0.3) is 2**-54
    ([0.0, -0.0, 0.0], 0.0),
])
def test_exact_sums_of_special_rows(row, want):
    assert summed([row]) == [want]


@pytest.mark.parametrize("row, error", [
    ([math.inf, 1.0, -math.inf], ValueError),
    ([1e308, 1e308, 0.0], OverflowError),
])
def test_sums_without_a_float_value_raise(row, error):
    with pytest.raises(error):
        summed([row])
    assert math.isnan(summed([[math.nan, 1.0]])[0])


# ---------------------------------------------------------------- dense oracles

def excluded_pairs(codes, n):
    return {divmod(code, n) for code in np.asarray(codes, dtype=np.int64).tolist()}


def dense_pair_arrays(n, exclusions):
    ii, jj = np.triu_indices(n, k=1)
    excluded = excluded_pairs(exclusions, n)
    if excluded:
        keep = np.array([(int(i), int(j)) not in excluded for i, j in zip(ii, jj)],
                        dtype=bool)
        ii, jj = ii[keep], jj[keep]
    return ii, jj


def dense_squared_distances(positions, ii, jj, context):
    r2 = ((positions[ii] - positions[jj]) ** 2).sum(axis=1)
    if np.any(r2 == 0.0):
        bad = int(np.argmax(r2 == 0.0))
        raise ValueError(
            f"{context}: coincident atoms at pair ({int(ii[bad])}, {int(jj[bad])})"
        )
    return r2


def dense_lj_atom_terms(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    eps = np.divide(b**2, 4.0 * a, out=np.zeros_like(b), where=a > 0)
    rmin = np.where(b > 0, np.divide(2.0 * a, b, out=np.ones_like(a),
                                     where=b > 0) ** (1.0 / 6.0), 0.0)
    return eps, rmin


def dense_lj_pair_terms(eps_i, rmin_i, eps_j, rmin_j):
    eps = np.sqrt(eps_i * eps_j)
    rmin = 0.5 * (rmin_i + rmin_j)
    rmin6 = (rmin * rmin) * (rmin * rmin) * (rmin * rmin)
    return eps * (rmin6 * rmin6), 2.0 * eps * rmin6


def dense_lj_energy(positions, lj_a, lj_b, exclusions=()):
    positions = np.asarray(positions, dtype=float)
    ii, jj = dense_pair_arrays(positions.shape[0], exclusions)
    r2 = dense_squared_distances(positions, ii, jj, "lj_energy")
    eps, rmin = dense_lj_atom_terms(lj_a, lj_b)
    a_ij, b_ij = dense_lj_pair_terms(eps[ii], rmin[ii], eps[jj], rmin[jj])
    r6 = r2 * r2 * r2
    return math.fsum((a_ij / (r6 * r6) - b_ij / r6).tolist())


def dense_coulomb_energy(positions, charges, model=CoulombModel(), exclusions=()):
    positions = np.asarray(positions, dtype=float)
    charges = np.asarray(charges, dtype=float)
    ii, jj = dense_pair_arrays(positions.shape[0], exclusions)
    r = np.sqrt(dense_squared_distances(positions, ii, jj, "coulomb_energy"))
    terms = charges[ii] * charges[jj] / (model.epsilon(r) * r)
    return COULOMB_CONSTANT * math.fsum(terms.tolist())


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
        rho3 = rho * rho * rho
        with np.errstate(invalid="ignore"):
            descreen = np.where(off, rho3[None, :] / (3.0 * np.where(off, r2**2, 1.0)), 0.0)
        inv = inv - np.array([math.fsum(row) for row in descreen.tolist()])
    raw = np.where(inv > 0.0, 1.0 / np.where(inv > 0.0, inv, 1.0), 0.0)
    return np.maximum(raw, rho / 2.0)


def dense_gb_polarization(positions, charges, radii_born, solvent_dielectric=80.0):
    """The full n x n sum over ordered pairs, diagonal included."""
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
    denom = np.sqrt(r2 + rr * np.exp(-(r2 / (4.0 * rr))))
    qq = charges[:, None] * charges[None, :]
    return float(-(tau / 2.0) * COULOMB_CONSTANT * math.fsum((qq / denom).ravel().tolist()))


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


def chain_pairs(n):
    return {(i, i + k) for k in (1, 2) for i in range(n - k)}


def chain_exclusions(n):
    return exclusion_codes(chain_pairs(n), n)


def trimmed_exclusions(n, count, seed):
    """Codes of 1-2/1-3 exclusions and random pairs, so that exactly ``count``
    pairs remain."""
    base = chain_pairs(n)
    ii, jj = np.triu_indices(n, k=1)
    free = np.flatnonzero(~np.isin(ii * n + jj, exclusion_codes(base, n)))
    extra = np.random.default_rng(seed).choice(free, free.size - count, replace=False)
    return exclusion_codes(base | {(int(ii[k]), int(jj[k])) for k in extra}, n)


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
    for excl in (chain_exclusions(0), chain_exclusions(n)):
        assert_energies_match(pos, lj_a, lj_b, charges, radii, excl)


# (n, kept pairs), named for the edges of the former np.sum emulation's
# leaves: thousands of excluded pairs spread over several row blocks
TRIU_EDGES = [(261, 2**15 - 1), (261, 2**15), (261, 2**15 + 1), (262, 2**15 + 8),
              (262, 2**15 + 15), (366, 2**16), (366, 2**16 + 1), (446, 3 * 2**15 + 5)]


@pytest.mark.parametrize("n, count", TRIU_EDGES)
def test_pair_energies_match_dense_at_leaf_and_split_edges(n, count):
    pos, lj_a, lj_b, charges, _radii = atoms(n, count)
    excl = trimmed_exclusions(n, count, count)
    assert dense_pair_arrays(n, excl)[0].size == count
    assert lj_energy(pos, lj_a, lj_b, excl) == dense_lj_energy(pos, lj_a, lj_b, excl)
    model = CoulombModel("distance_dependent", 4.0)
    assert (coulomb_energy(pos, charges, model, excl)
            == dense_coulomb_energy(pos, charges, model, excl))


# Born-radius row blocks of 2**15 // n rows, one of them short
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
    excl = exclusion_codes(chain_pairs(n) | full_rows, n)
    assert_energies_match(pos, lj_a, lj_b, charges, radii, excl)
    everything = np.arange(n * n).reshape(n, n)[np.triu_indices(n, k=1)]
    assert lj_energy(pos, lj_a, lj_b, everything) == 0.0
    assert coulomb_energy(pos, charges, exclusions=everything) == 0.0


@pytest.mark.parametrize("n, seed", [(120, 1), (1000, 2)])
def test_kernels_match_dense_on_lattices(n, seed):
    pos, lj_a, lj_b, charges, radii = atoms(n, seed)
    assert_energies_match(pos, lj_a, lj_b, charges, radii, chain_exclusions(n))


def _message(fn, *args):
    with pytest.raises(ValueError) as info:
        fn(*args)
    return str(info.value)


def test_coincident_atoms_name_the_same_pair():
    n = 300  # the first coincident kept pair lies in a later row block
    pos, lj_a, lj_b, charges, radii = atoms(n, 4)
    pos[[9, 260, 299]] = pos[3], pos[250], pos[250]
    excl = exclusion_codes(chain_pairs(n) | {(3, 9)}, n)
    for fn, dense, args in [
            (lj_energy, dense_lj_energy, (pos, lj_a, lj_b, excl)),
            (coulomb_energy, dense_coulomb_energy, (pos, charges, CoulombModel(), excl)),
            (born_radii, dense_born_radii, (pos, radii))]:
        assert _message(fn, *args) == _message(dense, *args)
    # the excluded coincident pair (3, 9) does not raise
    assert _message(lj_energy, pos, lj_a, lj_b, excl).endswith("pair (250, 260)")
    assert _message(born_radii, pos, radii).endswith("pair (3, 9)")
    # GB has no such check: r = 0 is a finite term
    assert gb_polarization(pos, charges, radii) == dense_gb_polarization(pos, charges, radii)


# ---------------------------------------------------------------- per-pair loops

def loop_pair_sum(positions, exclusions, pair_terms):
    """math.fsum of ``pair_terms(ii, jj, r2)`` over the kept pairs, one row at
    a time."""
    positions = np.asarray(positions, dtype=float)
    n = positions.shape[0]
    excluded = excluded_pairs(exclusions, n)
    parts = []
    for i in range(n - 1):
        jj = np.array([j for j in range(i + 1, n) if (i, j) not in excluded], dtype=int)
        ii = np.full(jj.size, i)
        r2 = ((positions[ii] - positions[jj]) ** 2).sum(axis=1)
        parts += pair_terms(ii, jj, r2).tolist()
    return math.fsum(parts)


def loop_coulomb_energy(positions, charges, model=CoulombModel(), exclusions=()):
    charges = np.asarray(charges, dtype=float)

    def terms(ii, jj, r2):
        r = np.sqrt(r2)
        return charges[ii] * charges[jj] / (model.epsilon(r) * r)

    return COULOMB_CONSTANT * loop_pair_sum(positions, exclusions, terms)


def loop_lj_energy(positions, lj_a, lj_b, exclusions=()):
    eps, rmin = _lj_atom_terms(lj_a, lj_b)

    def terms(ii, jj, r2):
        a_ij, b_ij = _lj_pair_terms(eps[ii], rmin[ii], eps[jj], rmin[jj])
        r6 = r2 * r2 * r2
        return a_ij / (r6 * r6) - b_ij / r6

    return loop_pair_sum(positions, exclusions, terms)


def loop_born_radii(positions, vdw_radii):
    positions = np.asarray(positions, dtype=float)
    rho = np.asarray(vdw_radii, dtype=float)
    n = positions.shape[0]
    if n == 0:
        return np.zeros(0)
    inv = 1.0 / rho
    if n > 1:
        rho3 = rho * rho * rho
        descreened = np.empty(n)
        for i in range(n):
            others = np.arange(n) != i
            r2 = ((positions[others] - positions[i]) ** 2).sum(axis=1)
            if np.any(r2 == 0.0):
                j = int(np.flatnonzero(others)[np.argmax(r2 == 0.0)])
                raise ValueError(f"born_radii: coincident atoms at pair ({i}, {j})")
            descreened[i] = math.fsum((rho3[others] / (3.0 * r2**2)).tolist())
        inv = inv - descreened
    return np.maximum(1.0 / np.where(inv > 0.0, inv, np.inf), rho / 2.0)


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
        sizes.append(np.broadcast_shapes(*(np.shape(x) for x in args)))
        return _lj_pair_terms(*args)

    monkeypatch.setattr(qoi, "_lj_pair_terms", counted)
    for excl in (chain_exclusions(0), chain_exclusions(n)):
        sizes.clear()
        assert lj_energy(pos, lj_a, lj_b, excl) == loop_lj_energy(pos, lj_a, lj_b, excl)
        # P^2 <= 2**15: one call over the table; otherwise one per row block
        assert (sizes == [(p * p,)]) == tabled
        assert tabled or (len(sizes) > 1 and sum(r for r, _c in sizes) == n - 1
                          and max(r * c for r, c in sizes) <= _BLOCK_ELEMENTS)


@pytest.mark.parametrize("leaf", [40, 97, 2**15])
def test_leaf_buffers_match_the_loops(monkeypatch, leaf):
    # every row block of the pair sums writes into the same three buffers
    monkeypatch.setattr(qoi, "_BLOCK_ELEMENTS", leaf)
    n = 150
    pos, lj_a, lj_b, charges, _radii = atoms(n, leaf)
    for excl in (chain_exclusions(0), chain_exclusions(n)):
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
    # the half pass over i < j in row blocks of about ``leaf`` terms, doubled,
    # plus the diagonal, equals the exact sum over all n * n ordered pairs
    monkeypatch.setattr(qoi, "_BLOCK_ELEMENTS", leaf)
    pos, _a, _b, charges, radii = atoms(n, n + leaf)
    rb = born_radii(pos, radii)
    for eps in (1.0, 4.0, 80.0):
        assert gb_polarization(pos, charges, rb, eps) == dense_gb_polarization(pos, charges, rb,
                                                                                eps)


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


# ---------------------------------------------------------------- atom order

def test_energies_and_area_do_not_depend_on_the_atom_order():
    # 12 random orders of a perturbed 400-atom lattice, exclusions renumbered:
    # each energy, each Born radius and the area keep their bits
    n = 400
    pos, lj_a, lj_b, charges, radii = atoms(n, 11)
    excl = chain_exclusions(n)
    model = CoulombModel("distance_dependent", 4.0)

    def evaluate(order, excl):
        p, q, r = pos[order], charges[order], radii[order]
        rb = born_radii(p, r)
        return (lj_energy(p, lj_a[order], lj_b[order], excl),
                coulomb_energy(p, q, CoulombModel(), excl), coulomb_energy(p, q, model, excl),
                rb, gb_polarization(p, q, rb), sasa(p, r, 1.4, 240)[0])

    want = evaluate(np.arange(n), excl)
    rng = np.random.default_rng(3)
    for _ in range(12):
        order = rng.permutation(n)
        rank = np.argsort(order)  # new index of each old atom
        renumbered = exclusion_codes({(min(rank[i], rank[j]), max(rank[i], rank[j]))
                                      for i, j in excluded_pairs(excl, n)}, n)
        got = evaluate(order, renumbered)
        assert got[:3] == want[:3]
        assert np.array_equal(got[3][rank], want[3])
        assert got[4:] == want[4:]
