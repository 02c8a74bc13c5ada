"""Probabilistic binding-site maps from ranked docked poses.

A receptor atom's binding-site probability is the fraction of top-ranked
poses in which some ligand atom sits within the contact cutoff.  Maps can be
aggregated across a ligand conformer ensemble, scored against a known site
(inhibitor overlap), and used to score individual poses by how much of the
probable site they touch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from moluq.molio import Structure


@dataclass(frozen=True)
class Pose:
    """A rigid placement of the ligand: y -> rotation @ y + translation."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        rot = np.asarray(self.rotation, dtype=float)
        tr = np.asarray(self.translation, dtype=float)
        if not (np.all(np.isfinite(rot)) and np.all(np.isfinite(tr))):
            raise ValueError("pose rotation and translation must be finite")
        if rot.shape != (3, 3) or tr.shape != (3,):
            raise ValueError("pose needs a 3x3 rotation and a 3-vector translation")
        if np.abs(rot.T @ rot - np.eye(3)).max() > 1e-9:
            raise ValueError("rotation must be orthonormal to 1e-9")
        if np.linalg.det(rot) < 0:
            raise ValueError("rotation must be proper (det +1)")
        object.__setattr__(self, "rotation", rot)
        object.__setattr__(self, "translation", tr)

    def apply(self, positions: np.ndarray) -> np.ndarray:
        return np.asarray(positions, dtype=float) @ self.rotation.T + self.translation


@dataclass(frozen=True)
class ContactModel:
    """Distance cutoff (Angstrom, inclusive) defining atom-ligand contact."""

    cutoff: float = 5.0

    def __post_init__(self):
        if not (math.isfinite(self.cutoff) and self.cutoff > 0):
            raise ValueError("contact cutoff must be finite and positive")


@dataclass(frozen=True)
class BindingSiteMap:
    """Per-receptor-atom contact probabilities, one per serial."""

    probabilities: np.ndarray
    serials: tuple[int, ...]

    def __post_init__(self):
        p = np.asarray(self.probabilities, dtype=float)
        if np.any(p < 0.0) or np.any(p > 1.0):
            raise ValueError("probabilities must lie in [0, 1]")
        if p.shape != (len(self.serials),):
            raise ValueError("one probability per receptor atom required")
        object.__setattr__(self, "probabilities", p)


def _contact_rows(receptor_positions, placed, cutoff) -> np.ndarray:
    d2 = ((receptor_positions[:, None, :] - placed[None, :, :]) ** 2).sum(axis=2)
    return (d2.min(axis=1) <= cutoff * cutoff).astype(float)


def binding_site_prob_multi(A: Structure, ligand_coords, poses_per_conformer,
                            m: ContactModel = ContactModel()) -> BindingSiteMap:
    """Contact probability averaged over N ligand draws x k poses each.

    ``ligand_coords`` holds the N (n, 3) draws, and every draw given counts
    (pass ``ens.coords[ens.accepted]`` to leave out the draws a clash filter
    rejected).  ``poses_per_conformer`` pairs positionally with the draws and
    every draw must carry the same number of poses.

    Each pose is tested only against the receptor atoms inside the placed
    ligand's bounding box, widened by the cutoff plus a relative slack far
    above rounding error: an atom left out lies beyond the cutoff along some
    axis, so its computed ``d2`` exceeds cutoff**2 and it would have added 0.
    ``hits`` keeps the exact counts of testing every atom.
    """
    pose_lists = [list(p) for p in poses_per_conformer]
    if len(pose_lists) != len(ligand_coords):
        raise ValueError("need one pose list per conformer")
    if not pose_lists:
        raise ValueError("need at least one conformer")
    k = len(pose_lists[0])
    if k == 0 or any(len(p) != k for p in pose_lists):
        raise ValueError("every conformer must have the same positive pose count")
    rec = A.positions()
    hits = np.zeros(A.n_atoms)
    for positions, poses in zip(ligand_coords, pose_lists):
        for pose in poses:
            placed = pose.apply(positions)
            near = slice(None)  # an empty ligand fails in _contact_rows, as it did
            if len(placed):
                reach = m.cutoff + 1e-9 * (m.cutoff + np.abs(placed).max())
                near = np.flatnonzero(((rec >= placed.min(axis=0) - reach)
                                       & (rec <= placed.max(axis=0) + reach)).all(axis=1))
            hits[near] += _contact_rows(rec[near], placed, m.cutoff)
    return BindingSiteMap(probabilities=hits / (k * len(pose_lists)),
                          serials=tuple(A.serials.tolist()))


def inhibit_score(known_site, candidate: BindingSiteMap) -> float:
    """Expected blocking overlap: sum over atoms of known(a) * p_candidate(a).

    ``known_site`` is a 0/1 vector over the same atom set (a k = 1 map's
    probabilities work directly).
    """
    known = np.asarray(known_site, dtype=float)
    if known.shape != candidate.probabilities.shape:
        raise ValueError("known site and candidate map cover different atom sets")
    return float(np.dot(known, candidate.probabilities))


def binding_score(ligand_positions, pose: Pose, site_map: BindingSiteMap, A: Structure,
                  m: ContactModel = ContactModel()) -> float:
    """Reward a pose of the (n, 3) ligand positions by the site probability
    mass it touches.

    Sum of p_BS(a) over the receptor atoms a that some atom of the posed
    ligand contacts, with contact the inclusive test d^2 <= cutoff^2.
    """
    if len(site_map.serials) != A.n_atoms:
        raise ValueError("site map does not cover the receptor's atoms")
    rows = _contact_rows(A.positions(), pose.apply(ligand_positions), m.cutoff)
    return float(np.dot(site_map.probabilities, rows))


def residue_site_probabilities(A: Structure, site_map: BindingSiteMap):
    """Aggregate an atom map to residues: max over each residue's atoms.

    Returns a list of ((chain_id, residue_seq, residue_name), probability) in
    first-seen residue order.  Max is used so a residue counts as interface
    whenever any of its atoms does.
    """
    if len(site_map.serials) != A.n_atoms:
        raise ValueError("site map does not cover the receptor's atoms")
    best: dict[tuple[str, int, str], float] = {}  # in first-seen order
    keys = zip(A.chain_ids.tolist(), A.residue_seqs.tolist(), A.residue_names.tolist())
    for key, p in zip(keys, site_map.probabilities.tolist()):
        best[key] = max(best.get(key, p), p)
    return list(best.items())
