import math

import numpy as np
import pytest

from moluq.qoi import (
    AtomSet,
    CoulombModel,
    QOIConfig,
    QOIKind,
    born_radii,
    coulomb_energy,
    delta_qoi,
    evaluate_qoi,
    gb_polarization,
    lj_energy,
    row_evaluator,
    sasa,
    volume,
)
from moluq import qoi
from moluq.molio import ParamTable, assign_params, detect_bonds
from conftest import lattice, make_structure

COULOMB_C = 332.0636


# ----------------------------------------------------------------- oracles

def pair_coefficients(a_i, b_i, a_j, b_j):
    eps_i = b_i**2 / (4 * a_i)
    eps_j = b_j**2 / (4 * a_j)
    rmin_i = (2 * a_i / b_i) ** (1 / 6)
    rmin_j = (2 * a_j / b_j) ** (1 / 6)
    eps = math.sqrt(eps_i * eps_j)
    rmin = (rmin_i + rmin_j) / 2
    return eps * rmin**12, 2 * eps * rmin**6


def brute_lj(pos, lj_a, lj_b, exclusions=frozenset(), cross=None):
    total = 0.0
    pairs = (
        [(i, j) for i in cross[0] for j in cross[1]] if cross is not None
        else [(i, j) for i in range(len(pos)) for j in range(i + 1, len(pos))
              if (i, j) not in exclusions]
    )
    for i, j in pairs:
        r = math.dist(pos[i], pos[j])
        a_ij, b_ij = pair_coefficients(lj_a[i], lj_b[i], lj_a[j], lj_b[j])
        total += a_ij / r**12 - b_ij / r**6
    return total


def brute_coulomb(pos, q, eps0=1.0, exclusions=frozenset(), cross=None):
    total = 0.0
    pairs = (
        [(i, j) for i in cross[0] for j in cross[1]] if cross is not None
        else [(i, j) for i in range(len(pos)) for j in range(i + 1, len(pos))
              if (i, j) not in exclusions]
    )
    for i, j in pairs:
        r = math.dist(pos[i], pos[j])
        total += COULOMB_C * q[i] * q[j] / (eps0 * r)
    return total


def brute_born(pos, rho):
    out = []
    for i in range(len(pos)):
        inv = 1.0 / rho[i]
        for j in range(len(pos)):
            if j == i:
                continue
            r = math.dist(pos[i], pos[j])
            inv -= rho[j] ** 3 / (3 * r**4)
        r_i = (1.0 / inv) if inv != 0 else math.inf
        out.append(max(r_i, rho[i] / 2))
    return np.array(out)


def brute_gb(pos, q, rb, eps=80.0):
    tau = 1.0 - 1.0 / eps
    total = 0.0
    for i in range(len(pos)):
        for j in range(len(pos)):
            r2 = math.dist(pos[i], pos[j]) ** 2
            denom = math.sqrt(r2 + rb[i] * rb[j] * math.exp(-r2 / (4 * rb[i] * rb[j])))
            total += q[i] * q[j] / denom
    return -tau / 2 * COULOMB_C * total


def random_atomset(rng, n=20, spread=8.0):
    pos = rng.uniform(0, spread, size=(n, 3))
    # keep configurations generic: resample until no pair is pathologically close
    while True:
        d = np.sqrt(((pos[:, None] - pos[None, :]) ** 2).sum(-1))
        np.fill_diagonal(d, np.inf)
        if d.min() > 0.8:
            break
        pos = rng.uniform(0, spread, size=(n, 3))
    lj_a = rng.uniform(1e4, 1e6, n)
    lj_b = rng.uniform(1e2, 1e3, n)
    q = rng.uniform(-1, 1, n)
    radii = rng.uniform(1.2, 2.0, n)
    serials = tuple(range(1, n + 1))
    return AtomSet(positions=pos, radii=radii, charges=q, lj_a=lj_a, lj_b=lj_b,
                   serials=serials, exclusions=frozenset())


# ----------------------------------------------------------------- LJ

class TestLJ:
    def test_minimum_energy_two_atoms(self):
        a, b = 1.0, 1.0
        rstar = (2 * a / b) ** (1 / 6)
        pos = np.array([[0.0, 0, 0], [rstar, 0, 0]])
        e = lj_energy(pos, [a, a], [b, b])
        assert e == pytest.approx(-(b**2) / (4 * a))

    def test_single_atom_zero(self):
        assert lj_energy(np.zeros((1, 3)), [1.0], [1.0]) == 0.0

    def test_three_on_line_matches_brute_force(self):
        pos = np.array([[0.0, 0, 0], [2.0, 0, 0], [4.0, 0, 0]])
        got = lj_energy(pos, [1.0] * 3, [1.0] * 3)
        assert got == pytest.approx(brute_lj(pos, [1.0] * 3, [1.0] * 3), rel=1e-12)

    def test_coincident_atoms_error(self):
        pos = np.zeros((2, 3))
        with pytest.raises(ValueError, match="coincident"):
            lj_energy(pos, [1.0, 1.0], [1.0, 1.0])

    def test_exclusions_respected(self):
        pos = np.array([[0.0, 0, 0], [1.0, 0, 0], [5.0, 0, 0]])
        full = lj_energy(pos, [1e5] * 3, [1e2] * 3)
        ex = lj_energy(pos, [1e5] * 3, [1e2] * 3, exclusions=frozenset({(0, 1)}))
        assert ex != full
        assert ex == pytest.approx(brute_lj(pos, [1e5] * 3, [1e2] * 3,
                                            exclusions=frozenset({(0, 1)})), rel=1e-12)


class TestCoulomb:
    def test_unit_charges_at_one_angstrom(self):
        pos = np.array([[0.0, 0, 0], [1.0, 0, 0]])
        e = coulomb_energy(pos, [1.0, 1.0], CoulombModel("constant", 1.0))
        assert e == pytest.approx(332.0636)

    def test_opposite_charges_at_two_angstrom(self):
        pos = np.array([[0.0, 0, 0], [2.0, 0, 0]])
        e = coulomb_energy(pos, [1.0, -1.0], CoulombModel("constant", 1.0))
        assert e == pytest.approx(-166.0318)

    def test_zero_charges(self):
        pos = np.array([[0.0, 0, 0], [2.0, 0, 0]])
        assert coulomb_energy(pos, [0.0, 0.0]) == 0.0

    def test_distance_dependent_dielectric(self):
        pos = np.array([[0.0, 0, 0], [2.0, 0, 0]])
        e = coulomb_energy(pos, [1.0, 1.0], CoulombModel("distance_dependent", 4.0))
        assert e == pytest.approx(COULOMB_C / (4.0 * 2.0 * 2.0))

    def test_coincident_error(self):
        with pytest.raises(ValueError):
            coulomb_energy(np.zeros((2, 3)), [1.0, 1.0])

    @pytest.mark.parametrize("mode", ["constant", "distance_dependent"])
    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
    def test_dielectric_must_be_finite_and_positive(self, mode, value):
        # NaN passed `value <= 0` and gave NaN energies; inf gave 0.0
        with pytest.raises(ValueError, match="dielectric parameter must be finite and positive"):
            CoulombModel(mode, value)


class TestBornRadii:
    def test_isolated_atom(self):
        assert born_radii(np.zeros((1, 3)), [1.7])[0] == pytest.approx(1.7)

    def test_distant_pair_decays_to_rho(self):
        pos = np.array([[0.0, 0, 0], [80.0, 0, 0]])
        out = born_radii(pos, [1.7, 1.7])
        np.testing.assert_allclose(out, 1.7, atol=1e-3)

    def test_pair_at_four_angstrom_closed_form(self):
        pos = np.array([[0.0, 0, 0], [4.0, 0, 0]])
        inv = 1 / 1.7 - 1.7**3 / (3 * 4.0**4)
        np.testing.assert_allclose(born_radii(pos, [1.7, 1.7]), 1.0 / inv)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(2)
        a = random_atomset(rng, n=12)
        np.testing.assert_allclose(born_radii(a.positions, a.radii),
                                   brute_born(a.positions, a.radii), rtol=1e-12)

    def test_coincident_error(self):
        with pytest.raises(ValueError):
            born_radii(np.zeros((2, 3)), [1.0, 1.0])

    @pytest.mark.parametrize("radii", [[math.nan], [math.nan, 1.5], [1.5, math.nan]])
    def test_nan_radius_rejected(self, radii):
        # NaN passed the `<= 0` check and gave NaN radii for every atom
        pos = np.array([[0.0, 0, 0], [3.0, 0, 0]])[:len(radii)]
        with pytest.raises(ValueError, match="van der Waals radii must be positive"):
            born_radii(pos, radii)


class TestGB:
    def test_self_term_closed_form(self):
        # tau = 1 - 1/80; single atom: E = -(tau/2) * C * q^2 / R
        e = gb_polarization(np.zeros((1, 3)), [1.0], [2.0], 80.0)
        tau = 1.0 - 1.0 / 80.0
        assert e == pytest.approx(-(tau / 2.0) * COULOMB_C / 2.0)

    def test_zero_charges(self):
        assert gb_polarization(np.zeros((1, 3)), [0.0], [1.5]) == 0.0

    def test_swap_symmetry(self):
        pos = np.array([[0.0, 0, 0], [3.0, 0, 0]])
        e1 = gb_polarization(pos, [1.0, -0.5], [1.5, 2.0])
        e2 = gb_polarization(pos[::-1].copy(), [-0.5, 1.0], [2.0, 1.5])
        assert e1 == pytest.approx(e2, rel=1e-12)

    def test_nonpositive_for_same_sign_charges(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            a = random_atomset(rng, n=8)
            q = np.abs(a.charges)
            rb = born_radii(a.positions, a.radii)
            assert gb_polarization(a.positions, q, rb) <= 0.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(4)
        a = random_atomset(rng, n=10)
        rb = born_radii(a.positions, a.radii)
        got = gb_polarization(a.positions, a.charges, rb)
        want = brute_gb(a.positions, a.charges, rb)
        assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("eps", [0.0, 0.5, 0.999, -80.0, math.nan, math.inf])
    def test_solvent_dielectric_must_be_finite_and_at_least_one(self, eps):
        # 0 divided by zero, NaN gave a NaN energy and 0.5 flipped its sign
        for n in (0, 1, 2):
            with pytest.raises(ValueError, match="solvent dielectric must be finite and >= 1"):
                gb_polarization(np.arange(3.0 * n).reshape(n, 3), [1.0] * n, [1.5] * n, eps)

    @pytest.mark.parametrize("radii", [[math.nan], [math.nan, 1.5], [1.5, math.nan]])
    def test_nan_born_radius_rejected(self, radii):
        # NaN passed the `<= 0` check and gave a NaN energy
        pos = np.array([[0.0, 0, 0], [3.0, 0, 0]])[:len(radii)]
        with pytest.raises(ValueError, match="Born radii must be positive"):
            gb_polarization(pos, [1.0, -0.5][:len(radii)], radii)

    def test_infinite_born_radius_accepted(self):
        # born_radii returns +inf where 1/rho_i equals the descreening sum
        pos = np.array([[0.0, 0, 0], [3.0, 0, 0]])
        e = gb_polarization(pos, [1.0, -0.5], [math.inf, 1.5])
        assert e == gb_polarization(pos, [0.0, -0.5], [math.inf, 1.5])
        assert math.isfinite(e)

    def test_vacuum_solvent_dielectric_gives_zero(self):
        pos = np.array([[0.0, 0, 0], [3.0, 0, 0]])
        assert gb_polarization(pos, [1.0, -0.5], [1.5, 2.0], 1.0) == 0.0


class TestSasa:
    def test_single_sphere_analytic(self):
        total, per_atom = sasa(np.zeros((1, 3)), [1.7], probe=1.4, n_points=960)
        analytic = 4 * math.pi * 3.1**2
        assert abs(total - analytic) / analytic < 0.01
        assert per_atom[0] == total

    def test_separated_spheres_additive(self):
        pos = np.array([[0.0, 0, 0], [50.0, 0, 0]])
        total, per_atom = sasa(pos, [1.7, 1.7])
        single, _ = sasa(np.zeros((1, 3)), [1.7])
        assert total == pytest.approx(2 * single, rel=1e-12)

    def test_two_overlapping_spheres_cap_formula(self):
        r, probe, d = 1.7, 1.4, 3.0
        R = r + probe
        pos = np.array([[0.0, 0, 0], [d, 0, 0]])
        total, _ = sasa(pos, [r, r], probe=probe, n_points=960)
        cap_h = R - d / 2
        analytic = 2 * (4 * math.pi * R**2 - 2 * math.pi * R * cap_h)
        assert abs(total - analytic) / analytic < 0.02

    def test_n_points_convergence(self):
        r, probe, d = 1.7, 1.4, 3.0
        R = r + probe
        cap_h = R - d / 2
        analytic = 2 * (4 * math.pi * R**2 - 2 * math.pi * R * cap_h)
        pos = np.array([[0.0, 0, 0], [d, 0, 0]])
        errors = [
            abs(sasa(pos, [r, r], probe=probe, n_points=n)[0] - analytic)
            for n in (60, 240, 960, 3840)
        ]
        assert errors[-1] < errors[0]

    @pytest.mark.parametrize("probe, n_points, message", [
        (-5.0, 960, "probe radius must be finite and >= 0"),
        (1.4, 8, "n_points must be >= 32"),
        (-5.0, 8, "probe radius must be finite and >= 0"),
        (math.nan, 960, "probe radius must be finite and >= 0"),
        (math.inf, 960, "probe radius must be finite and >= 0"),
    ])
    def test_every_entry_point_checks_probe_and_points(self, probe, n_points, message):
        pos = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        with pytest.raises(ValueError, match=message):
            sasa(pos, [1.7, 1.7], probe=probe, n_points=n_points)
        with pytest.raises(ValueError, match=message):
            sasa(np.zeros((0, 3)), [], probe=probe, n_points=n_points)
        s = make_structure(pos, vdw_radius=1.7)
        a = AtomSet.from_structure(s.subset([0]))
        b = AtomSet.from_structure(make_structure(pos[1:], vdw_radius=1.7).subset([0]))
        b = AtomSet(**{**b.__dict__, "serials": (2,)})
        config = QOIConfig(probe=probe, n_points=n_points)
        with pytest.raises(ValueError, match=message):
            delta_qoi(QOIKind.AREA, a, b, config)
        with pytest.raises(ValueError, match=message):
            evaluate_qoi(QOIKind.DELTA_AREA, a, b, config)


# a 3-atom chain with one bad radius or position: sasa and volume both refuse it
BAD_SPHERES = {
    "nan_radius": ([[0.0, 0, 0], [1.5, 0, 0], [3.0, 0, 0]], [math.nan, 1.7, 1.7],
                   "radii must be finite and >= 0"),
    "inf_radius": ([[0.0, 0, 0], [1.5, 0, 0], [3.0, 0, 0]], [math.inf, 1.7, 1.7],
                   "radii must be finite and >= 0"),
    "negative_radius": ([[0.0, 0, 0], [1.5, 0, 0], [3.0, 0, 0]], [-5.0, 1.7, 1.7],
                        "radii must be finite and >= 0"),
    "nan_position_alone": ([[math.nan, 0.0, 0.0]], [1.7], "atom positions must be finite"),
}


@pytest.mark.parametrize("case", sorted(BAD_SPHERES))
def test_sasa_and_volume_reject_bad_spheres(case):
    pos, radii, message = BAD_SPHERES[case]
    pos = np.array(pos)
    with pytest.raises(ValueError, match=f"sasa: {message}"):
        sasa(pos, radii)
    with pytest.raises(ValueError, match=f"sasa: {message}"):
        sasa(pos, radii, groups=np.arange(len(pos)) > 0)
    with pytest.raises(ValueError, match=f"volume: {message}"):
        volume(pos, radii, spacing=0.5)


class TestVolume:
    def test_sphere_analytic(self):
        v = volume(np.zeros((1, 3)), [2.0], spacing=0.25)
        analytic = 4 / 3 * math.pi * 8.0
        assert abs(v - analytic) / analytic < 0.02

    def test_empty(self):
        assert volume(np.zeros((0, 3)), [], spacing=0.5) == 0.0

    def test_disjoint_spheres_additive(self):
        pos = np.array([[0.0, 0, 0], [30.0, 0, 0]])
        v = volume(pos, [2.0, 1.5], spacing=0.25)
        analytic = 4 / 3 * math.pi * (8.0 + 1.5**3)
        assert abs(v - analytic) / analytic < 0.02

    def test_spacing_convergence(self):
        analytic = 4 / 3 * math.pi * 8.0
        errors = [abs(volume(np.zeros((1, 3)), [2.0], spacing=h) - analytic)
                  for h in (1.0, 0.5, 0.25)]
        assert errors[-1] < errors[0]


class TestDelta:
    def _pair(self, rng, na=6, nb=5, offset=12.0):
        a = random_atomset(rng, n=na)
        b = random_atomset(rng, n=nb)
        b = AtomSet(positions=b.positions + offset, radii=b.radii, charges=b.charges,
                    lj_a=b.lj_a, lj_b=b.lj_b,
                    serials=tuple(s + 100 for s in b.serials), exclusions=b.exclusions)
        return a, b

    def test_far_separated_area_delta_zero(self):
        rng = np.random.default_rng(5)
        a, b = self._pair(rng, offset=500.0)
        assert delta_qoi(QOIKind.AREA, a, b) == pytest.approx(0.0, abs=1e-9)

    def test_coulomb_delta_equals_cross_sum(self):
        rng = np.random.default_rng(6)
        a, b = self._pair(rng)
        got = delta_qoi(QOIKind.COULOMB, a, b)
        both = a.union(b)
        cross = brute_coulomb(both.positions, both.charges,
                              cross=(range(a.n), range(a.n, a.n + b.n)))
        assert got == pytest.approx(cross, rel=1e-9)

    def test_lj_delta_equals_cross_sum(self):
        rng = np.random.default_rng(7)
        a, b = self._pair(rng)
        got = delta_qoi(QOIKind.LJ, a, b)
        both = a.union(b)
        cross = brute_lj(both.positions, both.lj_a, both.lj_b,
                         cross=(range(a.n), range(a.n, a.n + b.n)))
        # the identity holds to 1e-9 of the energy scale; the cross term
        # itself can be tiny against the intra sums it is carved out of
        scale = max(abs(lj_energy(both.positions, both.lj_a, both.lj_b)), 1.0)
        assert abs(got - cross) <= 1e-9 * scale

    def test_lj_delta_with_empty_partner(self):
        rng = np.random.default_rng(8)
        a = random_atomset(rng, n=5)
        empty = AtomSet(positions=np.zeros((0, 3)), radii=np.zeros(0), charges=np.zeros(0),
                        lj_a=np.zeros(0), lj_b=np.zeros(0), serials=(),
                        exclusions=frozenset())
        assert delta_qoi(QOIKind.LJ, a, empty) == 0.0

    def test_overlapping_serials_rejected(self):
        rng = np.random.default_rng(9)
        a = random_atomset(rng, n=4)
        with pytest.raises(ValueError, match="serial"):
            a.union(a)

    def test_delta_kind_requires_two_groups(self):
        rng = np.random.default_rng(10)
        a = random_atomset(rng, n=4)
        with pytest.raises(ValueError, match="two"):
            evaluate_qoi(QOIKind.DELTA_AREA, a)


class TestRigidInvariance:
    @staticmethod
    def _rotate(atomset, rot, shift):
        return AtomSet(positions=atomset.positions @ rot.T + shift, radii=atomset.radii,
                       charges=atomset.charges, lj_a=atomset.lj_a, lj_b=atomset.lj_b,
                       serials=atomset.serials, exclusions=atomset.exclusions)

    def test_pairwise_qois_exactly_invariant(self):
        rng = np.random.default_rng(11)
        a = random_atomset(rng, n=10)
        theta = 0.83
        rot = np.array([
            [math.cos(theta), -math.sin(theta), 0],
            [math.sin(theta), math.cos(theta), 0],
            [0, 0, 1.0],
        ])
        shift = np.array([3.0, -7.0, 11.0])
        moved = self._rotate(a, rot, shift)
        cfg = QOIConfig(spacing=0.4)
        for kind in (QOIKind.LJ, QOIKind.COULOMB, QOIKind.GB):
            v0 = evaluate_qoi(kind, a, config=cfg)
            v1 = evaluate_qoi(kind, moved, config=cfg)
            assert v1 == pytest.approx(v0, rel=1e-9), kind

    def test_sampled_geometric_qois_invariant_at_resolution(self):
        # area uses a fixed sphere-point template and volume a lab-frame
        # grid, so rigid motion moves them only within sampling resolution;
        # translation alone leaves the point/voxel classification intact
        rng = np.random.default_rng(11)
        a = random_atomset(rng, n=10)
        theta = 0.83
        rot = np.array([
            [math.cos(theta), -math.sin(theta), 0],
            [math.sin(theta), math.cos(theta), 0],
            [0, 0, 1.0],
        ])
        shift = np.array([3.0, -7.0, 11.0])
        rotated = self._rotate(a, rot, shift)
        translated = self._rotate(a, np.eye(3), shift)
        cfg = QOIConfig(spacing=0.4)
        for kind in (QOIKind.AREA, QOIKind.VOLUME):
            v0 = evaluate_qoi(kind, a, config=cfg)
            assert evaluate_qoi(kind, rotated, config=cfg) == pytest.approx(v0, rel=0.02)
        assert evaluate_qoi(QOIKind.AREA, translated, config=cfg) == pytest.approx(
            evaluate_qoi(QOIKind.AREA, a, config=cfg), rel=1e-9)
        assert evaluate_qoi(QOIKind.VOLUME, translated, config=cfg) == pytest.approx(
            evaluate_qoi(QOIKind.VOLUME, a, config=cfg), rel=1e-9)


class TestPairwiseOracleEquivalence:
    def test_twenty_random_configurations(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            a = random_atomset(rng, n=20)
            assert lj_energy(a.positions, a.lj_a, a.lj_b) == pytest.approx(
                brute_lj(a.positions, a.lj_a, a.lj_b), rel=1e-9)
            assert coulomb_energy(a.positions, a.charges) == pytest.approx(
                brute_coulomb(a.positions, a.charges), rel=1e-9)
            rb = born_radii(a.positions, a.radii)
            assert gb_polarization(a.positions, a.charges, rb) == pytest.approx(
                brute_gb(a.positions, a.charges, rb), rel=1e-9)


# ----------------------------------------------------------------- rows

ELEMENTS = ("C", "C", "N", "C", "O")  # all bond at the 1.5 A zigzag step


def chain_lattice(chains, seed=3):
    """Bonded, parameterised 20-atom zigzag chains, one chain id per atom.

    Every lattice chain has the same elements and bonds, so two equal-sized
    chain groups have the same bonded exclusions whichever comes first.
    """
    n = len(chains)
    rng = np.random.default_rng(seed)
    pos = lattice(n) + rng.uniform(-0.05, 0.05, size=(n, 3))
    s = make_structure(pos, element=[ELEMENTS[i % 20 % len(ELEMENTS)] for i in range(n)],
                       chain=chains)
    return detect_bonds(assign_params(s, ParamTable.default()))


def separate_values(s, positions, idx_a, idx_b, config):
    """Every kind by its own evaluate_qoi/delta_qoi call."""
    full = AtomSet.from_structure(s.with_positions(positions))
    a = AtomSet.from_structure(s.subset(idx_a).with_positions(positions[idx_a]))
    b = AtomSet.from_structure(s.subset(idx_b).with_positions(positions[idx_b]))
    return {kind.value: (delta_qoi(kind.base, a, b, config) if kind.is_delta
                         else evaluate_qoi(kind, full, config=config))
            for kind in QOIKind}


class TestRowEvaluator:
    CASES = {
        "chains_cover_whole": ["A"] * 40 + ["B"] * 40,
        # atoms 29 and 30 are bonded: an exclusion of the whole, not of A+B
        "cross_chain_bond": ["A"] * 30 + ["B"] * 50,
        "chain_b_first": ["B"] * 40 + ["A"] * 40,
        "third_chain": ["A"] * 40 + ["B"] * 20 + ["C"] * 20,
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_row_equals_separate_calls(self, case):
        s = chain_lattice(self.CASES[case])
        idx_a, idx_b = s.chains["A"], s.chains["B"]
        config = QOIConfig()
        evaluate = row_evaluator(list(QOIKind), s, idx_a, idx_b, config)
        rng = np.random.default_rng(4)
        for positions in (s.positions(), s.positions() + rng.normal(0, 0.1, (s.n_atoms, 3))):
            assert evaluate(positions) == separate_values(s, positions, idx_a, idx_b, config)

    def test_empty_group_and_overlapping_groups(self):
        s = chain_lattice(self.CASES["third_chain"])
        idx_a, config = s.chains["A"], QOIConfig()
        evaluate = row_evaluator(list(QOIKind), s, idx_a, [], config)
        row = evaluate(s.positions())
        assert row == separate_values(s, s.positions(), idx_a, [], config)
        assert all(row[k.value] == 0.0 for k in QOIKind if k.is_delta)
        evaluate = row_evaluator(["delta_lj"], s, idx_a, idx_a[:5], config)
        with pytest.raises(ValueError, match="serials overlap"):
            evaluate(s.positions())

    def test_cross_chain_bond_changes_lj(self):
        # the excluded bonded pair is why lj and the delta's f(A+B) must differ here
        s = chain_lattice(self.CASES["cross_chain_bond"])
        assert (29, 30) in s.bonds
        full = AtomSet.from_structure(s)
        both = AtomSet.from_structure(s.subset(s.chains["A"])).union(
            AtomSet.from_structure(s.subset(s.chains["B"])))
        assert evaluate_qoi(QOIKind.LJ, full) != evaluate_qoi(QOIKind.LJ, both)

    # sasa_calls counts the ungrouped sasa calls; every exposure pass, grouped
    # or not, runs inside a call of the public sasa, where a trace books it
    @pytest.mark.parametrize("case, lj_sizes, sasa_calls, passes", [
        ("chains_cover_whole", [80, 40, 40], 0, 1),
        ("third_chain", [80, 60, 40, 20], 1, 2),
    ])
    def test_whole_complex_kernels_run_once_per_row(self, monkeypatch, case, lj_sizes,
                                                    sasa_calls, passes):
        s = chain_lattice(self.CASES[case])
        calls = {"lj": [], "grouped": [], "pass": 0}
        real_lj, real_sasa, real_mask = qoi.lj_energy, qoi.sasa, qoi._exposure_mask

        def lj(positions, *args, **kwargs):
            calls["lj"].append(len(positions))
            return real_lj(positions, *args, **kwargs)

        def sasa(positions, radii, probe, n_points, groups=None):
            calls["grouped"].append(groups is not None)
            return real_sasa(positions, radii, probe, n_points, groups)

        def exposure_mask(*args, **kwargs):
            calls["pass"] += 1
            return real_mask(*args, **kwargs)

        monkeypatch.setattr(qoi, "lj_energy", lj)
        monkeypatch.setattr(qoi, "sasa", sasa)
        monkeypatch.setattr(qoi, "_exposure_mask", exposure_mask)
        evaluate = row_evaluator(["area", "delta_area", "lj", "delta_lj"], s,
                                 s.chains["A"], s.chains["B"])
        for _ in range(2):
            evaluate(s.positions())
        assert sorted(calls["lj"]) == sorted(lj_sizes * 2)
        assert calls["grouped"].count(False) == 2 * sasa_calls
        assert len(calls["grouped"]) == calls["pass"] == 2 * passes

    def test_energy_rows_call_the_public_kernels(self, monkeypatch):
        # a traced run books energy time under these four module attributes
        s = chain_lattice(self.CASES["chains_cover_whole"])
        idx_a, idx_b, config = s.chains["A"], s.chains["B"], QOIConfig()
        kinds = ["lj", "coulomb", "gb", "delta_lj", "delta_coulomb", "delta_gb"]
        rng = np.random.default_rng(6)
        rows = [s.positions(), s.positions() + rng.normal(0, 0.1, (s.n_atoms, 3))]
        expected = [{k: v for k, v in separate_values(s, p, idx_a, idx_b, config).items()
                     if k in kinds} for p in rows]
        names = ["lj_energy", "coulomb_energy", "born_radii", "gb_polarization"]
        sizes = {name: [] for name in names}

        def counted(name, fn):
            def wrapped(positions, *args, **kwargs):
                sizes[name].append(len(positions))
                return fn(positions, *args, **kwargs)
            return wrapped

        for name in names:
            monkeypatch.setattr(qoi, name, counted(name, getattr(qoi, name)))
        evaluate = row_evaluator(kinds, s, idx_a, idx_b, config)
        for positions, want in zip(rows, expected):
            for name in names:
                sizes[name].clear()
            assert evaluate(positions) == want
            assert {name: sorted(n) for name, n in sizes.items()} == {
                name: [40, 40, 80] for name in names}
