import io
import math

import numpy as np
import pytest

from moluq.molio import Structure, write_pdb_models


def make_structure(positions, bonds=(), element="C", b_iso=0.0, b_aniso=None, chain="A",
                   residue_seq=1, residue_name="LIG", name=None, charge=0.0,
                   vdw_radius=1.7, lj_a=0.0, lj_b=0.0, serials=None):
    """Structure over ``positions``, serials 1..n unless given.

    Every other keyword is one value for all atoms or a per-atom sequence;
    ``b_aniso`` is one (Bx, By, Bz) diagonal or one per atom, None for none.
    """
    pos = np.asarray(positions, dtype=float).reshape(-1, 3)
    n = len(pos)

    def col(value):
        return np.broadcast_to(np.asarray(value), (n,))

    aniso = np.zeros((n, 3)) if b_aniso is None else np.broadcast_to(
        np.asarray(b_aniso, dtype=float), (n, 3))
    return Structure(
        serials=np.arange(1, n + 1) if serials is None else serials,
        names=col(element if name is None else name), elements=col(element),
        residue_names=col(residue_name), residue_seqs=col(residue_seq), chain_ids=col(chain),
        coords=pos, b_iso=col(b_iso), b_aniso=aniso, has_aniso=col(b_aniso is not None),
        charges=col(charge), radii=col(vdw_radius), lj_a=col(lj_a), lj_b=col(lj_b),
        bonds=tuple(bonds),
    )


def models_text(s, positions_list, model_numbers=None) -> str:
    """What ``write_pdb_models`` writes, as one string."""
    buf = io.StringIO()
    write_pdb_models(s, positions_list, buf, model_numbers)
    return buf.getvalue()


def pdb_text(s) -> str:
    """``s`` as a PDB file of one MODEL at its own coordinates."""
    return models_text(s, [s.coords])


def param_table_json(table) -> dict:
    """``table`` in the JSON schema that ``ParamTable.from_json`` reads."""
    def row(r):
        return {"radius": r.vdw_radius, "charge": r.charge, "lj_a": r.lj_a, "lj_b": r.lj_b}

    return {"elements": {el: row(r) for el, r in table.elements.items()},
            "overrides": [{"residue": res, "atom": atom, **row(r)}
                          for (res, atom), r in table.overrides.items()]}

@pytest.fixture
def chain4():
    """Four-atom bonded chain with a single rotatable dihedral."""
    positions = [
        [0.0, 0.0, 0.0],
        [1.5, 0.0, 0.0],
        [2.25, 1.3, 0.0],
        [3.75, 1.35, 0.4],
    ]
    return make_structure(positions, bonds=((0, 1), (1, 2), (2, 3)))


def zigzag_chain(n_atoms, bond_length=1.5, angle=1.911):
    """Planar zigzag polymer chain coordinates (tetrahedral-ish bond angle).

    Every bond tilts alternately +-(pi - angle)/2 off the chain axis, which
    makes each vertex angle exactly ``angle``.
    """
    half = (math.pi - angle) / 2.0
    positions = [np.zeros(3)]
    sign = 1.0
    for _ in range(n_atoms - 1):
        step = np.array([
            bond_length * math.cos(half),
            bond_length * math.sin(half) * sign,
            0.0,
        ])
        positions.append(positions[-1] + step)
        sign = -sign
    return np.array(positions)


def lattice(n_atoms, chain_len=20, gap=4.5):
    """Zigzag chains of ``chain_len`` atoms on a (y, z) grid ``gap`` apart."""
    n_chains = -(-n_atoms // chain_len)
    cols = math.ceil(math.sqrt(n_chains))
    base = zigzag_chain(chain_len)
    pos = [base[:min(chain_len, n_atoms - c * chain_len)]
           + [0.0, (c % cols) * gap, (c // cols) * gap] for c in range(n_chains)]
    return np.vstack(pos)
