"""Seeded, deterministic inputs for the benchmark workloads.

Everything the CLI reads is generated here from a workload spec and a seed:
the receptor PDB, the torsion dihedral spec, the ligand with its grouped
poses, the bound configuration and the run config.  The same (spec, seed)
always yields byte-identical files.  PDB text is formatted here, not by
moluq, so a change to moluq's writer cannot change the benchmark's inputs.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

BOND = 1.5          # Angstrom, C-C like
ANGLE = 1.911       # rad, vertex angle of the zigzag
CHAIN_GAP = 4.5     # Angstrom between neighbouring chains of a lattice
CHAIN_LEN = 20      # atoms per lattice chain
B_ISO = 20.0        # Angstrom^2 on every atom
ELEMENTS = ("C", "C", "N", "C", "O")   # one residue per cycle
NAMES = ("C1", "C2", "N", "C3", "O")
JITTER = 0.02       # Angstrom, seeded uniform displacement per coordinate
TORSION_RANGE = (2.4, math.pi)


def zigzag(n_atoms: int) -> np.ndarray:
    """Planar zigzag chain along x; every vertex angle is ANGLE."""
    half = (math.pi - ANGLE) / 2.0
    step_x, step_y = BOND * math.cos(half), BOND * math.sin(half)
    pos = np.zeros((n_atoms, 3))
    pos[:, 0] = np.arange(n_atoms) * step_x
    pos[1::2, 1] = step_y
    return pos


def lattice(n_atoms: int) -> tuple[np.ndarray, list[int]]:
    """Zigzag chains of CHAIN_LEN atoms on a near-square (y, z) grid.

    Returns positions and the lattice-chain index of every atom.
    """
    n_chains = -(-n_atoms // CHAIN_LEN)
    cols = math.ceil(math.sqrt(n_chains))
    base = zigzag(CHAIN_LEN)
    pos, owner = [], []
    for c in range(n_chains):
        size = min(CHAIN_LEN, n_atoms - c * CHAIN_LEN)
        offset = np.array([0.0, (c % cols) * CHAIN_GAP, (c // cols) * CHAIN_GAP])
        pos.append(base[:size] + offset)
        owner += [c] * size
    return np.vstack(pos), owner


def pdb_text(positions, chain_ids, residue_name: str = "LAT", models=None) -> str:
    """Fixed-column PDB: one residue per element cycle, TER between chains.

    With ``models`` (a list of position arrays) the file is a multi-MODEL
    ensemble and ``positions`` is ignored.
    """
    def atom_lines(pos):
        lines = []
        for i, (p, chain) in enumerate(zip(pos, chain_ids)):
            element, name = ELEMENTS[i % 5], NAMES[i % 5]
            lines.append(
                f"ATOM  {i + 1:5d}  {name:<3s} {residue_name:>3s} {chain}{i // 5 + 1:4d}    "
                f"{p[0]:8.3f}{p[1]:8.3f}{p[2]:8.3f}{1.0:6.2f}{B_ISO:6.2f}          {element:>2s}"
            )
            if i + 1 == len(chain_ids) or chain_ids[i + 1] != chain:
                lines.append("TER")
        return lines

    if models is None:
        lines = atom_lines(positions)
    else:
        lines = []
        for k, pos in enumerate(models):
            lines += [f"MODEL     {k + 1:4d}"] + atom_lines(pos) + ["ENDMDL"]
    return "\n".join(lines + ["END"]) + "\n"


def _rotation(rng) -> np.ndarray:
    q = rng.normal(size=4)
    w, x, y, z = q / np.linalg.norm(q)
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
        [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
        [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
    ])


def _receptor(spec: dict, rng) -> tuple[np.ndarray, list[str]]:
    n = spec["atoms"]
    if spec["shape"] == "chain":
        return zigzag(n) + rng.uniform(-JITTER, JITTER, (n, 3)), ["A"] * n
    pos, owner = lattice(n)
    half = (max(owner) + 1) // 2
    chains = ["A" if c < half else "B" for c in owner]
    return pos + rng.uniform(-JITTER, JITTER, pos.shape), chains


def _ligand(spec: dict, receptor: np.ndarray, rng) -> tuple[str, list]:
    """An n-atom zigzag ligand in several models and ranked poses per model.

    Poses are random rotations centred within 3 Angstrom of random receptor
    atoms, so contact probabilities fall strictly inside [0, 1].
    """
    base = zigzag(spec["ligand_atoms"])
    base -= base.mean(axis=0)
    models = [base + rng.uniform(-0.2, 0.2, base.shape) for _ in range(spec["ligand_models"])]
    groups = []
    for k in range(spec["ligand_models"]):
        poses = []
        for rank in range(1, spec["poses"] + 1):
            anchor = receptor[rng.integers(len(receptor))]
            poses.append({
                "rotation": [round(float(v), 12) for v in _rotation(rng).reshape(-1)],
                "translation": [round(float(v), 6) for v in anchor + rng.uniform(-3.0, 3.0, 3)],
                "rank": rank,
            })
        groups.append({"model": k, "poses": poses})
    text = pdb_text(None, ["L"] * len(base), residue_name="LIG", models=models)
    return text, groups


def _bound_config(rng) -> dict:
    """Pairwise kernel over positive boxes that never straddle the origin."""
    def box(lo):
        return [[round(v, 6), round(v + 0.5, 6)] for v in lo + rng.uniform(0.0, 0.5, 3)]

    return {
        "mode": "pairwise",
        "kernel": {"terms": [[1.0, 1.0], [0.5, 6.0]]},
        "boxes_a": [box(1.0) for _ in range(4)],
        "boxes_b": [box(6.0) for _ in range(4)],
        "mc_draws": 20000,
        "mc_seed": int(rng.integers(2**31)),
    }


def write_inputs(spec: dict, seed: int, directory: Path) -> dict[str, Path]:
    """Generate the workload's inputs from ``seed`` into ``directory``.

    Returns the written files by role; ``config`` is the run config every
    stage reads, with outputs going to ``directory / "out"``.
    """
    directory.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    pos, chains = _receptor(spec, rng)
    files = {"structure": directory / "structure.pdb"}
    files["structure"].write_text(pdb_text(pos, chains))
    config = {"out": str(directory / "out"), "structure": str(files["structure"]),
              **spec["config"]}
    if spec["shape"] == "chain":
        files["torsion_dihedrals"] = directory / "dihedrals.json"
        lo, hi = TORSION_RANGE
        dihedrals = [{"atoms": [i, i + 1, i + 2, i + 3], "lower": lo, "upper": hi}
                     for i in range(spec["atoms"] - 3)]
        files["torsion_dihedrals"].write_text(json.dumps({"dihedrals": dihedrals}) + "\n")
    if spec.get("ligand_atoms"):
        text, groups = _ligand(spec, pos, rng)
        files["ligand"] = directory / "ligand.pdb"
        files["poses"] = directory / "poses.json"
        files["ligand"].write_text(text)
        files["poses"].write_text(json.dumps(groups) + "\n")
        files["bound_config"] = directory / "bound.json"
        files["bound_config"].write_text(json.dumps(_bound_config(rng), indent=1) + "\n")
    config.update({k: str(v) for k, v in files.items() if k != "structure"})
    files["config"] = directory / "config.json"
    files["config"].write_text(json.dumps(config, indent=1, sort_keys=True) + "\n")
    return files
