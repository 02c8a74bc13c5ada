import math
from dataclasses import replace

import numpy as np
import pytest

from moluq.conformers import (
    apply_torsions,
    atom_motion_modes,
    build_torsion_graph,
    cartesian_sigmas,
    clash_filter,
    dihedral_angle,
    perturb_cartesian,
    rmsd,
    sample_cartesian_ensemble,
    sample_torsion_ensemble,
    torsion_graph_from_dihedrals,
)
from moluq.molio import EIGHT_PI_SQ
from moluq.sampling import sigma_from_b
from conftest import make_structure, zigzag_chain


def narrowed(g, lower, upper):
    """``g`` with every free dihedral's range set to [lower, upper]."""
    return torsion_graph_from_dihedrals(
        g.structure, [(spec.atoms, lower, upper) for spec in g.rotatable])


def rodrigues(axis, angle):
    u = np.asarray(axis) / np.linalg.norm(axis)
    k = np.array([[0, -u[2], u[1]], [u[2], 0, -u[0]], [-u[1], u[0], 0]])
    return np.eye(3) + math.sin(angle) * k + (1 - math.cos(angle)) * (k @ k)


def bond_lengths(structure, positions):
    return np.array([
        np.linalg.norm(positions[i] - positions[j]) for i, j in structure.bonds
    ])


def bond_angles(structure, positions):
    adj = {}
    for i, j in structure.bonds:
        adj.setdefault(i, []).append(j)
        adj.setdefault(j, []).append(i)
    out = []
    for center, nbrs in sorted(adj.items()):
        for x in range(len(nbrs)):
            for y in range(x + 1, len(nbrs)):
                v1 = positions[nbrs[x]] - positions[center]
                v2 = positions[nbrs[y]] - positions[center]
                cosang = v1 @ v2 / (np.linalg.norm(v1) * np.linalg.norm(v2))
                out.append(math.acos(np.clip(cosang, -1, 1)))
    return np.array(out)


class TestPerturbCartesian:
    def test_zero_noise_identity(self):
        s = make_structure([[0, 0, 0], [3, 0, 0]], b_iso=25.0)
        c = perturb_cartesian(s, np.zeros((2, 3)))
        np.testing.assert_array_equal(c, s.positions())

    def test_unit_sigma_displacement(self):
        s = make_structure([[1, 2, 3]], b_iso=EIGHT_PI_SQ)  # sigma = 1 A
        c = perturb_cartesian(s, np.array([[1.0, 0.0, 0.0]]))
        np.testing.assert_allclose(c[0], [2, 2, 3])

    def test_anisotropic_sigma(self):
        b = np.array([EIGHT_PI_SQ, 2 * EIGHT_PI_SQ, 0.0])
        s = make_structure([[0, 0, 0]], b_aniso=b)
        c = perturb_cartesian(s, np.ones((1, 3)))
        np.testing.assert_allclose(c[0], [1.0, math.sqrt(2), 0.0])

    def test_aniso_preferred_over_iso(self):
        b = np.array([0.0, 0.0, 0.0])
        s = make_structure([[0, 0, 0]], b_iso=100.0, b_aniso=b)
        assert np.all(cartesian_sigmas(s) == 0.0)

    def test_sigmas_match_former_per_atom_loop(self):
        rng = np.random.default_rng(4)
        s = replace(make_structure(rng.normal(size=(9, 3)), b_iso=rng.uniform(0.0, 90.0, 9),
                                   b_aniso=rng.uniform(0.0, 90.0, (9, 3))),
                    has_aniso=rng.random(9) < 0.5)
        want = np.array([[sigma_from_b(b) for b in s.b_aniso[i]] if s.has_aniso[i]
                         else [sigma_from_b(s.b_iso[i])] * 3 for i in range(s.n_atoms)])
        assert 0 < s.has_aniso.sum() < s.n_atoms
        assert np.array_equal(cartesian_sigmas(s), want)


class TestApplyTorsions:
    def test_identity(self, chain4):
        g = build_torsion_graph(chain4)
        pos = chain4.positions()
        current = dihedral_angle(pos[0], pos[1], pos[2], pos[3])
        c = apply_torsions(g, [current])
        assert rmsd(c, pos) < 1e-6

    def test_rotation_to_pi_matches_axis_rotation_oracle(self):
        # planar chain at dihedral 0; rotating to pi must match a closed-form
        # Rodrigues rotation of the terminal atom about the bond axis
        positions = np.array([
            [0.0, 0.0, 0.0], [1.5, 0.0, 0.0], [2.25, 1.3, 0.0], [1.5, 2.6, 0.0],
        ])
        s = make_structure(positions, bonds=((0, 1), (1, 2), (2, 3)))
        g = build_torsion_graph(s)
        start = dihedral_angle(*positions)
        assert abs(start) < 1e-12  # cis-planar start
        c = apply_torsions(g, [math.pi])
        axis = positions[2] - positions[1]
        expected = rodrigues(axis, math.pi) @ (positions[3] - positions[1]) + positions[1]
        np.testing.assert_allclose(c[3], expected, atol=1e-9)
        assert abs(abs(dihedral_angle(*c)) - math.pi) < 1e-9

    def test_sets_exact_target_angles(self):
        chain = zigzag_chain(8)
        s = make_structure(chain, bonds=tuple((i, i + 1) for i in range(7)))
        g = build_torsion_graph(s)
        rng = np.random.default_rng(3)
        targets = rng.uniform(-math.pi, math.pi, g.n_dihedrals)
        c = apply_torsions(g, targets)
        for spec, target in zip(g.rotatable, targets):
            i, j, k, l = spec.atoms
            got = dihedral_angle(c[i], c[j], c[k], c[l])
            assert abs((got - target + math.pi) % (2 * math.pi) - math.pi) < 1e-9

    def test_preserves_bonds_and_angles(self):
        chain = zigzag_chain(10)
        bonds = tuple((i, i + 1) for i in range(9))
        s = make_structure(chain, bonds=bonds)
        g = build_torsion_graph(s)
        targets = np.linspace(-2.0, 2.0, g.n_dihedrals)
        c = apply_torsions(g, targets)
        np.testing.assert_allclose(bond_lengths(s, c),
                                   bond_lengths(s, chain), atol=1e-6)
        np.testing.assert_allclose(bond_angles(s, c),
                                   bond_angles(s, chain), atol=1e-6)

    def test_rotate_unrotate_roundtrip(self):
        chain = zigzag_chain(6)
        s = make_structure(chain, bonds=tuple((i, i + 1) for i in range(5)))
        g = build_torsion_graph(s)
        originals = np.array([
            dihedral_angle(*(chain[list(spec.atoms)])) for spec in g.rotatable
        ])
        deltas = np.array([0.5, -0.7, 0.3][:g.n_dihedrals])
        wrapped = (originals + deltas + math.pi) % (2 * math.pi) - math.pi
        mid = apply_torsions(g, wrapped)
        # rebuild a graph on the rotated geometry, then return to the originals
        s_mid = replace(s, coords=mid)
        g_mid = build_torsion_graph(s_mid)
        back = apply_torsions(g_mid, originals)
        assert rmsd(back, chain) < 1e-6

    def test_angle_outside_range_rejected(self, chain4):
        g = narrowed(build_torsion_graph(chain4), -1.0, 1.0)
        with pytest.raises(ValueError, match="outside range"):
            apply_torsions(g, [2.0])

    def test_cycle_through_rotatable_bond_rejected(self):
        # triangle: every bond lies on a cycle
        s = make_structure([[0, 0, 0], [1.5, 0, 0], [0.75, 1.3, 0], [0.75, 2.8, 0]],
                           bonds=((0, 1), (1, 2), (0, 2), (2, 3)))
        with pytest.raises(ValueError, match="cycle"):
            torsion_graph_from_dihedrals(s, [((0, 1, 2, 3), -math.pi, math.pi)])

    def test_ring_bonds_not_rotatable(self):
        s = make_structure([[0, 0, 0], [1.5, 0, 0], [0.75, 1.3, 0], [0.75, 2.8, 0]],
                           bonds=((0, 1), (1, 2), (0, 2), (2, 3)))
        g = build_torsion_graph(s)
        assert g.n_dihedrals == 0  # bond (2,3) is terminal; ring bonds frozen


class TestClashFilter:
    def test_bonded_pair_exempt(self):
        s = make_structure([[0, 0, 0], [1.0, 0, 0]], bonds=((0, 1),))
        assert clash_filter(s.positions(), s, factor=0.6) is None

    def test_nonbonded_overlap_rejected(self):
        s = make_structure([[0, 0, 0], [1.0, 0, 0]])
        reason = clash_filter(s.positions(), s, factor=0.6)
        assert reason is not None
        assert "1-2" in reason  # names serials of the worst pair

    def test_all_far_accepted(self):
        s = make_structure([[0, 0, 0], [10, 0, 0], [0, 10, 0]])
        assert clash_filter(s.positions(), s) is None

    def test_13_pair_exempt(self):
        s = make_structure([[0, 0, 0], [1.5, 0, 0], [1.5, 1.0, 0]],
                           bonds=((0, 1), (1, 2)))
        assert clash_filter(s.positions(), s, factor=0.9) is None


class TestRmsd:
    def test_identity_zero(self, chain4):
        c = chain4.positions()
        assert rmsd(c, c) == 0.0

    def test_single_atom_two_angstrom(self):
        a = np.array([[0.0, 0.0, 0.0]])
        b = np.array([[2.0, 0.0, 0.0]])
        assert rmsd(a, b) == pytest.approx(2.0)

    def test_two_atoms_sqrt_two(self):
        a = np.zeros((2, 3))
        b = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        assert rmsd(a, b) == pytest.approx(math.sqrt(2.0))

    def test_atom_count_mismatch(self):
        with pytest.raises(ValueError):
            rmsd(np.zeros((2, 3)), np.zeros((3, 3)))

    def test_pseudometric_on_random_triples(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            a, b, c = (rng.normal(size=(5, 3)) for _ in range(3))
            assert rmsd(a, b) == pytest.approx(rmsd(b, a))
            assert rmsd(a, c) <= rmsd(a, b) + rmsd(b, c) + 1e-12

    def test_superposed_rmsd_kills_global_rotation(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(6, 3))
        rot = rodrigues([0, 0, 1.0], 0.8)
        moved = pts @ rot.T + np.array([1.0, -2.0, 0.5])
        assert rmsd(pts, moved) > 0.5
        assert rmsd(pts, moved, superpose=True) < 1e-9


class TestEnsembles:
    def test_reproducible_bitwise(self):
        s = make_structure([[0, 0, 0], [4, 0, 0], [8, 0, 0]], b_iso=20.0)
        e1 = sample_cartesian_ensemble(s, seed=9, n_samples=5, clash_factor=None)
        e2 = sample_cartesian_ensemble(s, seed=9, n_samples=5, clash_factor=None)
        for c1, c2 in zip(e1.coords, e2.coords):
            np.testing.assert_array_equal(c1, c2)

    def test_zero_variance_identity(self):
        s = make_structure([[0, 0, 0], [4, 0, 0]], b_iso=0.0)
        e = sample_cartesian_ensemble(s, seed=0, n_samples=1, clash_factor=None)
        np.testing.assert_array_equal(e.coords[0], s.positions())

    def test_torsion_ensemble_respects_ranges(self, chain4):
        g = narrowed(build_torsion_graph(chain4), -0.5, 0.5)
        e = sample_torsion_ensemble(g, seed=2, n_samples=16, clash_factor=None)
        for c in e.coords:
            ang = dihedral_angle(*(c[list(g.rotatable[0].atoms)]))
            assert -0.5 - 1e-9 <= ang <= 0.5 + 1e-9


class TestMotionModes:
    def _ensemble(self, offsets):
        return np.array(offsets, dtype=float)[:, None, :]

    def test_identical_conformers_zero_variance(self):
        e = self._ensemble([[0, 0, 0]] * 4)
        variances, _axes = atom_motion_modes(e)
        np.testing.assert_allclose(variances, 0.0, atol=1e-15)

    def test_x_only_motion(self):
        e = self._ensemble([[-2, 0, 0], [-2, 0, 0], [2, 0, 0], [2, 0, 0]])
        variances, axes = atom_motion_modes(e)
        np.testing.assert_allclose(variances[0], [4.0, 0.0, 0.0], atol=1e-12)
        assert abs(axes[0, 0] @ np.array([1.0, 0, 0])) == pytest.approx(1.0)

    def test_isotropic_eigenvalues_close(self):
        rng = np.random.default_rng(42)
        e = self._ensemble(rng.normal(size=(1000, 3)))
        variances, _ = atom_motion_modes(e)
        assert variances[0].max() / variances[0].min() < 1.2

    def test_orthonormal_and_reconstructs(self):
        rng = np.random.default_rng(8)
        s = make_structure([[0, 0, 0], [5, 0, 0]])
        stack = np.stack([s.positions() + rng.normal(size=(2, 3)) * [1.0, 0.5, 0.1]
                          for _ in range(50)])
        variances, axes = atom_motion_modes(stack)
        for a in range(2):
            v = axes[a]
            np.testing.assert_allclose(v @ v.T, np.eye(3), atol=1e-9)
            centered = stack[:, a, :] - stack[:, a, :].mean(axis=0)
            cov = centered.T @ centered / stack.shape[0]
            np.testing.assert_allclose(v.T @ np.diag(variances[a]) @ v, cov, atol=1e-9)

    def test_needs_four_conformers(self):
        e = self._ensemble([[0, 0, 0]] * 3)
        with pytest.raises(ValueError):
            atom_motion_modes(e)
