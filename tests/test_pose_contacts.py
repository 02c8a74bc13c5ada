"""Box-pruned pose contacts against a verbatim copy of the all-atom loop.

``bindsite.binding_site_prob_multi`` tests each pose only against the
receptor atoms inside the placed ligand's widened bounding box.  The pruned
atoms would have added 0, so the map must equal (``==``) the former loop over
every atom, including atoms exactly at the cutoff.
"""

import numpy as np
import pytest

from moluq.bindsite import (
    BindingSiteMap,
    ContactModel,
    Pose,
    binding_site_prob_multi,
)
from conftest import lattice, make_structure, zigzag_chain
from test_bindsite import identity_pose


# ---------------------------------------------------------------- former code, verbatim

def former_contact_rows(receptor_positions, ligand_positions, pose, cutoff) -> np.ndarray:
    placed = pose.apply(ligand_positions)
    d2 = ((receptor_positions[:, None, :] - placed[None, :, :]) ** 2).sum(axis=2)
    return (d2.min(axis=1) <= cutoff * cutoff).astype(float)


def former_contact_map(A, configs, m: ContactModel) -> BindingSiteMap:
    """Contact fraction over (ligand positions, poses) pairs, each with k poses."""
    rec = A.positions()
    hits = np.zeros(A.n_atoms)
    for positions, poses in configs:
        for pose in poses:
            hits += former_contact_rows(rec, positions, pose, m.cutoff)
    k = len(configs[0][1])
    return BindingSiteMap(probabilities=hits / (k * len(configs)),
                          serials=tuple(A.serials.tolist()))


# ---------------------------------------------------------------- tests

def random_rotation(rng):
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    return q if np.linalg.det(q) > 0 else -q


def contact_map(receptor, configs, m):
    """binding_site_prob_multi of (ligand positions, poses) pairs."""
    return binding_site_prob_multi(receptor, [c for c, _ in configs], [p for _, p in configs], m)


def assert_same_map(receptor, configs, cutoff):
    m = ContactModel(cutoff)
    got, want = contact_map(receptor, configs, m), former_contact_map(receptor, configs, m)
    assert got.probabilities.tobytes() == want.probabilities.tobytes()
    assert got.serials == want.serials
    return got.probabilities


@pytest.mark.parametrize("n_atoms, seed, cutoff", [(300, 1, 5.0), (1000, 2, 4.0), (120, 3, 2.5)])
def test_random_poses_on_a_lattice(n_atoms, seed, cutoff):
    rng = np.random.default_rng(seed)
    rec = lattice(n_atoms) + rng.uniform(-0.02, 0.02, (n_atoms, 3))
    receptor = make_structure(rec)
    ligand = zigzag_chain(12) - zigzag_chain(12).mean(axis=0)
    configs = []
    for _ in range(4):
        positions = ligand + rng.uniform(-0.2, 0.2, ligand.shape)
        poses = [Pose(random_rotation(rng), rec[rng.integers(n_atoms)] + rng.uniform(-3, 3, 3))
                 for _ in range(16)]
        configs.append((positions, poses))
    p = assert_same_map(receptor, configs, cutoff)
    assert 0.0 < p.max() < 1.0


def test_atoms_exactly_at_the_cutoff():
    # integer grid: squared distances are exact, and many equal cutoff**2 = 25
    grid = np.stack(np.meshgrid(*[np.arange(-7.0, 8.0)] * 3, indexing="ij"), -1).reshape(-1, 3)
    receptor = make_structure(grid)
    ligand = np.array([[0.0, 0.0, 0.0], [3.0, 4.0, 0.0]])
    poses = [identity_pose(), Pose(np.eye(3), np.array([1.0, -2.0, 0.0]))]
    p = assert_same_map(receptor, [(ligand, poses)], 5.0)
    d2 = ((grid[:, None, :] - ligand[None]) ** 2).sum(axis=2).min(axis=1)
    at_cutoff = d2 == 25.0
    assert at_cutoff.sum() > 20 and np.all(p[at_cutoff] > 0.0)
    # the box edge itself: an atom on an axis exactly one cutoff past the ligand
    line = make_structure([[5.0, 0.0, 0.0], [-5.0, 0.0, 0.0], [0.0, 0.0, 5.0 + 1e-12]])
    p = assert_same_map(line, [(np.zeros((1, 3)), [identity_pose()])], 5.0)
    assert p.tolist() == [1.0, 1.0, 0.0]


def test_poses_that_touch_no_receptor_atom():
    rng = np.random.default_rng(4)
    rec = lattice(200)
    receptor = make_structure(rec)
    ligand = zigzag_chain(6)
    far = [Pose(random_rotation(rng), np.array([1e3, -2e3, 5e2]) + rng.normal(size=3))
           for _ in range(5)]
    near = [Pose(random_rotation(rng), rec[17])]
    p = assert_same_map(receptor, [(ligand, far)], 5.0)
    assert not p.any()
    p = assert_same_map(receptor, [(ligand, far + near)], 5.0)
    assert set(np.unique(p * 6).tolist()) <= {0.0, 1.0} and p.any()


def test_cutoff_covering_the_whole_receptor():
    rng = np.random.default_rng(5)
    receptor = make_structure(lattice(300) + rng.uniform(-0.02, 0.02, (300, 3)))
    poses = [Pose(random_rotation(rng), rng.uniform(-5, 5, 3)) for _ in range(4)]
    p = assert_same_map(receptor, [(zigzag_chain(5), poses)], 1e4)
    assert np.all(p == 1.0)


def test_rejected_ligand_draws_left_out():
    rng = np.random.default_rng(6)
    rec = lattice(240)
    receptor = make_structure(rec)
    ligand = make_structure(zigzag_chain(8))
    coords = np.stack([ligand.coords + rng.uniform(-0.3, 0.3, ligand.coords.shape)
                       for _ in range(5)])
    reasons = (None, "clash: atoms 0 and 1", None, "clash: atoms 2 and 5", None)
    pose_lists = [[Pose(random_rotation(rng), rec[rng.integers(240)]) for _ in range(6)]
                  for _ in range(5)]
    accepted = np.array([r is None for r in reasons])
    got = binding_site_prob_multi(receptor, coords[accepted],
                                  [p for p, ok in zip(pose_lists, accepted) if ok],
                                  ContactModel(4.5))
    kept = [(coords[i], pose_lists[i]) for i in (0, 2, 4)]
    want = former_contact_map(receptor, kept, ContactModel(4.5))
    assert got.probabilities.tobytes() == want.probabilities.tobytes()


def test_empty_ligand_still_fails_as_before():
    receptor = make_structure(lattice(20))
    configs = [(np.zeros((0, 3)), [identity_pose()])]
    with pytest.raises(ValueError) as got:
        contact_map(receptor, configs, ContactModel())
    with pytest.raises(ValueError) as want:
        former_contact_map(receptor, configs, ContactModel())
    assert str(got.value) == str(want.value)
