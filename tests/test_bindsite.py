import math

import numpy as np
import pytest

from moluq.bindsite import (
    BindingSiteMap,
    ContactModel,
    Pose,
    binding_score,
    binding_site_prob_multi,
    inhibit_score,
    residue_site_probabilities,
)
from conftest import make_structure


def rotation_z(theta):
    return np.array([
        [math.cos(theta), -math.sin(theta), 0.0],
        [math.sin(theta), math.cos(theta), 0.0],
        [0.0, 0.0, 1.0],
    ])


def identity_pose():
    return Pose(rotation=np.eye(3), translation=np.zeros(3))


def naive_map(receptor, ligand_positions_list, pose_lists, cutoff):
    """Triple-loop oracle over (conformer, pose, atom)."""
    n = receptor.n_atoms
    hits = [0] * n
    total = 0
    for positions, poses in zip(ligand_positions_list, pose_lists):
        for pose in poses:
            total += 1
            placed = [pose.rotation @ p + pose.translation for p in positions]
            for ai, position in enumerate(receptor.coords):
                touched = any(
                    math.dist(position, q) <= cutoff for q in placed
                )
                hits[ai] += int(touched)
    return np.array(hits) / total


@pytest.fixture
def receptor():
    return make_structure([[0, 0, 0], [6, 0, 0], [12, 0, 0]], chain="A")


@pytest.fixture
def ligand():
    return np.array([[0.0, 3.0, 0.0], [0.0, 4.5, 0.0]])


class TestPose:
    def test_orthonormality_enforced(self):
        with pytest.raises(ValueError, match="orthonormal"):
            Pose(rotation=np.eye(3) * 1.1, translation=np.zeros(3))

    def test_proper_rotation_enforced(self):
        reflect = np.diag([-1.0, 1.0, 1.0])
        with pytest.raises(ValueError, match="proper"):
            Pose(rotation=reflect, translation=np.zeros(3))

    @pytest.mark.parametrize("rotation, translation", [
        (np.full((3, 3), math.nan), np.zeros(3)),
        (np.where(np.eye(3) == 1, math.inf, 0.0), np.zeros(3)),
        (np.eye(3), np.array([0.0, math.nan, 0.0])),
        (np.eye(3), np.array([-math.inf, 0.0, 0.0])),
    ])
    def test_non_finite_entries_rejected(self, rotation, translation):
        # NaN passed both the orthonormality and the determinant test before
        with pytest.raises(ValueError, match="pose rotation and translation must be finite"):
            Pose(rotation=rotation, translation=translation)


class TestContactModel:
    @pytest.mark.parametrize("cutoff", [math.nan, math.inf, 0.0, -1.0])
    def test_cutoff_must_be_finite_and_positive(self, cutoff):
        with pytest.raises(ValueError, match="contact cutoff must be finite and positive"):
            ContactModel(cutoff)


class TestBindingSiteProb:
    def test_single_pose_is_indicator(self, receptor, ligand):
        site = binding_site_prob_multi(receptor, [ligand], [[identity_pose()]])
        assert set(np.unique(site.probabilities)) <= {0.0, 1.0}

    def test_identical_poses_idempotent(self, receptor, ligand):
        one = binding_site_prob_multi(receptor, [ligand], [[identity_pose()]])
        many = binding_site_prob_multi(receptor, [ligand], [[identity_pose()] * 4])
        np.testing.assert_array_equal(one.probabilities, many.probabilities)

    def test_three_of_four_poses(self, receptor, ligand):
        near = identity_pose()
        far = Pose(rotation=np.eye(3), translation=np.array([0.0, 500.0, 0.0]))
        site = binding_site_prob_multi(receptor, [ligand], [[near, near, near, far]])
        assert site.probabilities[0] == pytest.approx(0.75)

    def test_empty_pose_list_rejected(self, receptor, ligand):
        with pytest.raises(ValueError):
            binding_site_prob_multi(receptor, [ligand], [[]])

    def test_pose_order_irrelevant(self, receptor, ligand):
        poses = [
            identity_pose(),
            Pose(rotation=rotation_z(0.5), translation=np.array([1.0, 0, 0])),
            Pose(rotation=rotation_z(-1.0), translation=np.array([0, 2.0, 0])),
        ]
        a = binding_site_prob_multi(receptor, [ligand], [poses])
        b = binding_site_prob_multi(receptor, [ligand], [poses[::-1]])
        np.testing.assert_array_equal(a.probabilities, b.probabilities)

    def test_matches_naive_oracle(self, receptor):
        rng = np.random.default_rng(0)
        lig_pos = rng.uniform(-3, 3, size=(7, 3))
        poses = [
            Pose(rotation=rotation_z(rng.uniform(0, 2 * math.pi)),
                 translation=rng.uniform(-6, 6, 3))
            for _ in range(9)
        ]
        got = binding_site_prob_multi(receptor, [lig_pos], [poses]).probabilities
        want = naive_map(receptor, [lig_pos], [poses], 5.0)
        np.testing.assert_array_equal(got, want)


class TestBindingSiteProbMulti:
    def test_single_conformer_reduces(self, receptor, ligand):
        draws = np.array([ligand], dtype=float)
        poses = [identity_pose(), Pose(rotation=rotation_z(1.0), translation=np.zeros(3))]
        multi = binding_site_prob_multi(receptor, draws, [poses])
        np.testing.assert_array_equal(multi.probabilities,
                                      naive_map(receptor, [ligand], [poses], 5.0))

    def test_hand_built_four_term_average(self, receptor):
        near = [[0.0, 3.0, 0.0]]
        far = [[0.0, 300.0, 0.0]]
        draws = np.array([near, far], dtype=float)
        identity = identity_pose()
        poses = [[identity, identity], [identity, identity]]
        site = binding_site_prob_multi(receptor, draws, poses)
        # atom 0 contacts in 2 of 4 (conformer, pose) terms
        assert site.probabilities[0] == pytest.approx(0.5)

    def test_probabilities_in_unit_interval(self, receptor):
        rng = np.random.default_rng(1)
        positions = [rng.uniform(-4, 4, (5, 3)) for _ in range(3)]
        draws = np.array(positions, dtype=float)
        poses = [
            [Pose(rotation=rotation_z(rng.uniform(0, 6)), translation=rng.uniform(-8, 8, 3))
             for _ in range(4)]
            for _ in range(3)
        ]
        site = binding_site_prob_multi(receptor, draws, poses)
        assert np.all(site.probabilities >= 0) and np.all(site.probabilities <= 1)
        want = naive_map(receptor, list(draws), poses, 5.0)
        np.testing.assert_array_equal(site.probabilities, want)

    def test_rejected_draws_left_out(self):
        receptor = make_structure([[0.0, 0.0, 0.0]])
        coords = np.array([[[0.0, 3.0, 0.0]], [[0.0, 300.0, 0.0]]])
        accepted = np.array([True, False])
        poses = [[identity_pose()]] * 2
        site = binding_site_prob_multi(receptor, coords[accepted],
                                       [p for p, ok in zip(poses, accepted) if ok])
        assert site.probabilities[0] == 1.0

    def test_no_accepted_draw_rejected(self):
        receptor = make_structure([[0.0, 0.0, 0.0]])
        coords = np.array([[[0.0, 3.0, 0.0]]])
        accepted = np.array([False])
        with pytest.raises(ValueError, match="at least one conformer"):
            binding_site_prob_multi(receptor, coords[accepted], [])

    def test_ragged_pose_lists_rejected(self, receptor, ligand):
        draws = np.array([ligand, ligand], dtype=float)
        with pytest.raises(ValueError, match="same positive pose count"):
            binding_site_prob_multi(receptor, draws, [[identity_pose()], []])


class TestInhibitScore:
    def _map(self, probs):
        return BindingSiteMap(probabilities=np.asarray(probs, dtype=float),
                              serials=tuple(range(1, len(probs) + 1)))

    def test_perfect_overlap_counts_site(self):
        known = [1.0, 1.0, 0.0]
        assert inhibit_score(known, self._map([1.0, 1.0, 1.0])) == 2.0

    def test_disjoint_supports_zero(self):
        assert inhibit_score([1.0, 0.0], self._map([0.0, 0.9])) == 0.0

    def test_hand_sum(self):
        known = [1.0, 1.0, 0.0]
        assert inhibit_score(known, self._map([0.5, 0.25, 0.9])) == pytest.approx(0.75)

    def test_atom_set_mismatch(self):
        with pytest.raises(ValueError):
            inhibit_score([1.0, 0.0], self._map([0.5, 0.5, 0.5]))

    def test_monotone_in_probabilities(self):
        known = [1.0, 0.0, 1.0]
        low = inhibit_score(known, self._map([0.2, 0.9, 0.3]))
        high = inhibit_score(known, self._map([0.4, 0.9, 0.3]))
        assert high >= low


class TestBindingScore:
    def test_no_contacts_zero(self, receptor, ligand):
        site = binding_site_prob_multi(receptor, [ligand], [[identity_pose()]])
        far = Pose(rotation=np.eye(3), translation=np.array([0.0, 900.0, 0.0]))
        assert binding_score(ligand, far, site, receptor) == 0.0

    def test_full_probability_atoms_counted(self, receptor, ligand):
        site = binding_site_prob_multi(receptor, [ligand], [[identity_pose()]])
        score = binding_score(ligand, identity_pose(), site, receptor)
        assert score == site.probabilities.sum()

    def test_matches_naive_oracle(self, receptor):
        rng = np.random.default_rng(2)
        lig_pos = rng.uniform(-3, 3, (6, 3))
        poses = [Pose(rotation=rotation_z(rng.uniform(0, 6)),
                      translation=rng.uniform(-5, 5, 3)) for _ in range(5)]
        site = binding_site_prob_multi(receptor, [lig_pos], [poses])
        pose = poses[2]
        placed = lig_pos @ pose.rotation.T + pose.translation
        want = sum(
            p for position, p in zip(receptor.coords, site.probabilities)
            if min(math.dist(position, q) for q in placed) <= 5.0
        )
        assert binding_score(lig_pos, pose, site, receptor) == pytest.approx(want, rel=1e-15)


class TestRigidMotionInvariance:
    def test_probabilities_invariant_under_conjugated_motion(self, receptor):
        rng = np.random.default_rng(3)
        lig_pos = rng.uniform(-3, 3, (6, 3))
        poses = [Pose(rotation=rotation_z(rng.uniform(0, 6)),
                      translation=rng.uniform(-5, 5, 3)) for _ in range(6)]
        base = binding_site_prob_multi(receptor, [lig_pos], [poses]).probabilities

        g_rot = rotation_z(0.77)
        g_tr = np.array([5.0, -3.0, 2.0])
        moved_receptor = make_structure(receptor.positions() @ g_rot.T + g_tr)
        moved_ligand = lig_pos @ g_rot.T + g_tr
        conjugated = [
            Pose(rotation=g_rot @ p.rotation @ g_rot.T,
                 translation=g_rot @ p.translation + g_tr - g_rot @ p.rotation @ g_rot.T @ g_tr)
            for p in poses
        ]
        moved = binding_site_prob_multi(moved_receptor, [moved_ligand], [conjugated]).probabilities
        np.testing.assert_allclose(moved, base, atol=1e-9)


class TestResidueAggregation:
    def test_max_over_atoms(self):
        s = make_structure([[0, 0, 0], [1, 0, 0], [9, 0, 0]])
        site = BindingSiteMap(probabilities=np.array([0.2, 0.8, 0.5]),
                              serials=tuple(s.serials.tolist()))
        rows = residue_site_probabilities(s, site)
        assert rows == [(("A", 1, "LIG"), 0.8)]
