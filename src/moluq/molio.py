"""Molecular structure I/O: fixed-column PDB parsing/writing and parameter assignment.

Atoms carry both crystallographic uncertainty (isotropic ``b_iso``, optional
per-axis ``b_aniso``) and the nonbonded parameters (charge, van der Waals
radius, 12-6 coefficients) used by the energy evaluators.  All functions here
are pure: they return new objects and never mutate their inputs.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from moluq.pairs import cutoff_pairs

EIGHT_PI_SQ = 8.0 * math.pi**2

# Bondi-style van der Waals radii (Angstrom), used for clash/SASA/volume work.
_VDW_RADII = {
    "H": 1.20, "C": 1.70, "N": 1.55, "O": 1.52, "S": 1.80, "P": 1.80,
    "F": 1.47, "CL": 1.75, "BR": 1.85, "I": 1.98, "SE": 1.90, "ZN": 1.39,
    "FE": 1.80, "MG": 1.73, "CA": 1.74, "NA": 2.27, "K": 2.75, "MN": 1.73,
}

# Covalent radii (Angstrom) for the distance bond heuristic.
_COVALENT_RADII = {
    "H": 0.31, "C": 0.76, "N": 0.71, "O": 0.66, "S": 1.05, "P": 1.07,
    "F": 0.57, "CL": 1.02, "BR": 1.20, "I": 1.39, "SE": 1.20, "ZN": 1.22,
    "FE": 1.32, "MG": 1.41, "CA": 1.76, "NA": 1.66, "K": 2.03, "MN": 1.39,
}


class PdbParseError(ValueError):
    """Malformed PDB text (bad columns, non-numeric fields, orphan ANISOU)."""


class PdbFormatError(ValueError):
    """Structure cannot be represented in fixed-column PDB format."""


class ParamLookupError(ValueError):
    """Parameter table has no row (specific or fallback) for some atoms."""


@dataclass(frozen=True)
class Atom:
    """One atom: identity, position, uncertainty, and nonbonded parameters.

    ``b_iso``/``b_aniso`` are crystallographic B-values (Angstrom^2); the
    positional standard deviation follows B = 8*pi^2*sigma^2.  ``b_aniso``
    holds the per-axis diagonal (Bx, By, Bz) when ANISOU data is present.
    """

    serial: int
    name: str
    element: str
    residue_name: str
    residue_seq: int
    chain_id: str
    position: np.ndarray
    b_iso: float = 0.0
    b_aniso: np.ndarray | None = None
    charge: float = 0.0
    vdw_radius: float = 1.7
    lj_a: float = 0.0
    lj_b: float = 0.0
    born_radius: float | None = None

    def __post_init__(self):
        pos = np.asarray(self.position, dtype=float)
        if pos.shape != (3,) or not np.all(np.isfinite(pos)):
            raise ValueError(f"atom {self.serial}: position must be a finite 3-vector")
        object.__setattr__(self, "position", pos)
        if self.b_iso < 0:
            raise ValueError(f"atom {self.serial}: b_iso must be >= 0")
        if self.b_aniso is not None:
            ani = np.asarray(self.b_aniso, dtype=float)
            if ani.shape != (3,) or np.any(ani < 0):
                raise ValueError(f"atom {self.serial}: b_aniso must be 3 non-negative values")
            object.__setattr__(self, "b_aniso", ani)
        if self.vdw_radius <= 0:
            raise ValueError(f"atom {self.serial}: vdw_radius must be positive")


@dataclass(frozen=True)
class Structure:
    """An ordered atom list plus an optional bond list (each pair stored once)."""

    atoms: tuple[Atom, ...]
    bonds: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "atoms", tuple(self.atoms))
        serials = [a.serial for a in self.atoms]
        if len(set(serials)) != len(serials):
            raise ValueError("atom serials must be unique")
        n = len(self.atoms)
        norm = []
        seen = set()
        for i, j in self.bonds:
            if not (0 <= i < n and 0 <= j < n) or i == j:
                raise ValueError(f"bond ({i},{j}) references invalid atom indices")
            key = (min(i, j), max(i, j))
            if key in seen:
                raise ValueError(f"bond {key} listed more than once")
            seen.add(key)
            norm.append(key)
        object.__setattr__(self, "bonds", tuple(norm))

    @property
    def n_atoms(self) -> int:
        return len(self.atoms)

    def positions(self) -> np.ndarray:
        """(n, 3) coordinate array, in atom order."""
        if not self.atoms:
            return np.zeros((0, 3))
        return np.array([a.position for a in self.atoms])

    @property
    def chains(self) -> dict[str, list[int]]:
        """Atom indices grouped by chain id, in first-seen order."""
        out: dict[str, list[int]] = {}
        for i, a in enumerate(self.atoms):
            out.setdefault(a.chain_id, []).append(i)
        return out

    def with_positions(self, positions: np.ndarray) -> "Structure":
        """Copy of the structure with every atom moved to the given coordinates."""
        positions = np.asarray(positions, dtype=float)
        if positions.shape != (self.n_atoms, 3):
            raise ValueError(f"expected ({self.n_atoms}, 3) positions, got {positions.shape}")
        atoms = tuple(replace(a, position=positions[i]) for i, a in enumerate(self.atoms))
        return Structure(atoms=atoms, bonds=self.bonds)

    def with_bonds(self, bonds) -> "Structure":
        return Structure(atoms=self.atoms, bonds=tuple(bonds))

    def subset(self, indices) -> "Structure":
        """Sub-structure over the given atom indices; keeps bonds internal to the set."""
        indices = list(indices)
        remap = {old: new for new, old in enumerate(indices)}
        atoms = tuple(self.atoms[i] for i in indices)
        bonds = tuple(
            (remap[i], remap[j]) for i, j in self.bonds if i in remap and j in remap
        )
        return Structure(atoms=atoms, bonds=bonds)


@dataclass(frozen=True)
class ParamRow:
    vdw_radius: float
    charge: float
    lj_a: float
    lj_b: float

    def __post_init__(self):
        if self.vdw_radius <= 0:
            raise ValueError("vdw_radius must be positive")


_FALLBACK_ELEMENTS = ("C", "N", "O", "S", "H", "P")


def _lj_ab(epsilon: float, rmin: float) -> tuple[float, float]:
    # 12-6 coefficients for a homo-pair with well depth epsilon at distance rmin
    return epsilon * rmin**12, 2.0 * epsilon * rmin**6


@dataclass(frozen=True)
class ParamTable:
    """Per-element nonbonded parameters with (residue, atom-name) overrides.

    The embedded default table is a small, desk-scale set: Bondi radii,
    generic well depths, and mildly polar charges.  It is not a real force
    field; real parameter files can be loaded with :meth:`from_json`.
    """

    elements: dict[str, ParamRow] = field(default_factory=dict)
    overrides: dict[tuple[str, str], ParamRow] = field(default_factory=dict)

    def __post_init__(self):
        missing = [e for e in _FALLBACK_ELEMENTS if e not in self.elements]
        if missing:
            raise ValueError(f"parameter table lacks fallback rows for: {missing}")

    @classmethod
    def default(cls) -> "ParamTable":
        spec = {
            # element: (epsilon kcal/mol, rmin Angstrom for the homo pair, charge e)
            "H": (0.0157, 1.2, 0.10),
            "C": (0.0860, 3.816, 0.05),
            "N": (0.1700, 3.648, -0.30),
            "O": (0.2100, 3.322, -0.40),
            "S": (0.2500, 4.000, -0.10),
            "P": (0.2000, 4.200, 0.40),
        }
        rows = {}
        for el, (eps, rmin, q) in spec.items():
            a, b = _lj_ab(eps, rmin)
            rows[el] = ParamRow(vdw_radius=_VDW_RADII[el], charge=q, lj_a=a, lj_b=b)
        return cls(elements=rows)

    @classmethod
    def from_json(cls, text: str) -> "ParamTable":
        """Load from the documented JSON schema.

        ``{"elements": {el: {"radius", "charge", "lj_a", "lj_b"}},
           "overrides": [{"residue", "atom", "radius", "charge", "lj_a", "lj_b"}]}``
        """
        raw = json.loads(text)
        elements = {
            el.upper(): ParamRow(row["radius"], row["charge"], row["lj_a"], row["lj_b"])
            for el, row in raw.get("elements", {}).items()
        }
        overrides = {
            (o["residue"].upper(), o["atom"].upper()): ParamRow(
                o["radius"], o["charge"], o["lj_a"], o["lj_b"]
            )
            for o in raw.get("overrides", [])
        }
        return cls(elements=elements, overrides=overrides)

    def to_json(self) -> str:
        raw = {
            "elements": {
                el: {"radius": r.vdw_radius, "charge": r.charge, "lj_a": r.lj_a, "lj_b": r.lj_b}
                for el, r in sorted(self.elements.items())
            },
            "overrides": [
                {"residue": res, "atom": at, "radius": r.vdw_radius, "charge": r.charge,
                 "lj_a": r.lj_a, "lj_b": r.lj_b}
                for (res, at), r in sorted(self.overrides.items())
            ],
        }
        return json.dumps(raw, indent=2, sort_keys=True)

    def lookup(self, residue_name: str, atom_name: str, element: str) -> ParamRow | None:
        row = self.overrides.get((residue_name.upper(), atom_name.upper()))
        if row is not None:
            return row
        return self.elements.get(element.upper())


def _infer_element(name_field: str) -> str:
    """Element from the unstripped atom-name columns 13-16, where the symbol is
    right-justified in columns 13-14: ` CA ` is carbon, `CA  ` calcium."""
    field = name_field.upper()
    if field[:2] in _VDW_RADII:
        return field[:2]
    letters = [ch for ch in field if ch.isalpha()]
    return letters[0] if letters else "C"


def _float_field(line: str, lo: int, hi: int, what: str, lineno: int) -> float:
    text = line[lo:hi].strip()
    try:
        return float(text)
    except ValueError:
        raise PdbParseError(f"line {lineno}: non-numeric {what} field {text!r}") from None


def _int_field(line: str, lo: int, hi: int, what: str, lineno: int) -> int:
    text = line[lo:hi].strip()
    try:
        return int(text)
    except ValueError:
        raise PdbParseError(f"line {lineno}: non-numeric {what} field {text!r}") from None


def parse_pdb(text: str) -> Structure:
    """Parse ATOM/HETATM (+ trailing ANISOU) records into a Structure.

    Follows the fixed-column PDB convention.  Alternate locations other than
    blank or 'A' are skipped; HETATM records are treated like ATOM so ligands
    come through.  ANISOU diagonals (file units of 1e-4 A^2) are converted to
    per-axis B-values via B = 8*pi^2*U.  If MODEL records are present only
    the first model is read (see :func:`parse_pdb_models` for ensembles).
    """
    atoms: list[Atom] = []
    last_serial: int | None = None  # serial of the most recent ATOM line, kept or skipped
    last_kept = False
    in_model = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        record = line[:6].strip()
        if record == "MODEL":
            in_model = True
            continue
        if record == "ENDMDL" and in_model:
            break
        if record in ("ATOM", "HETATM"):
            if len(line) < 54:
                raise PdbParseError(f"line {lineno}: record too short for coordinates")
            serial = _int_field(line, 6, 11, "serial", lineno)
            altloc = line[16]
            last_serial = serial
            if altloc not in (" ", "A"):
                last_kept = False
                continue
            last_kept = True
            name = line[12:16].strip()
            residue_name = line[17:20].strip()
            chain_id = line[21]
            residue_seq = _int_field(line, 22, 26, "residue number", lineno)
            x = _float_field(line, 30, 38, "x", lineno)
            y = _float_field(line, 38, 46, "y", lineno)
            z = _float_field(line, 46, 54, "z", lineno)
            b_text = line[60:66].strip() if len(line) >= 60 else ""
            b_iso = _float_field(line, 60, 66, "B-factor", lineno) if b_text else 0.0
            element = line[76:78].strip() if len(line) >= 77 else ""
            if not element:
                element = _infer_element(line[12:16])
            atoms.append(
                Atom(
                    serial=serial, name=name, element=element.upper(),
                    residue_name=residue_name, residue_seq=residue_seq,
                    chain_id=chain_id, position=np.array([x, y, z]), b_iso=b_iso,
                )
            )
        elif record == "ANISOU":
            serial = _int_field(line, 6, 11, "serial", lineno)
            if last_serial != serial:
                raise PdbParseError(f"line {lineno}: ANISOU without preceding matching ATOM")
            if not last_kept:
                continue  # ANISOU of a skipped alternate location
            if len(line) < 49:
                raise PdbParseError(f"line {lineno}: ANISOU record too short")
            u11 = _float_field(line, 28, 35, "U11", lineno)
            u22 = _float_field(line, 35, 42, "U22", lineno)
            u33 = _float_field(line, 42, 49, "U33", lineno)
            b_aniso = EIGHT_PI_SQ * 1e-4 * np.array([u11, u22, u33])
            atoms[-1] = replace(atoms[-1], b_aniso=b_aniso)
    return Structure(atoms=tuple(atoms))


def parse_pdb_models(text: str) -> list[Structure]:
    """Parse a multi-MODEL PDB into one Structure per model.

    Files without MODEL records yield a single-element list.
    """
    blocks: list[list[str]] = []
    current: list[str] | None = None
    saw_model = False
    for line in text.splitlines():
        record = line[:6].strip()
        if record == "MODEL":
            saw_model = True
            current = []
        elif record == "ENDMDL":
            if current is not None:
                blocks.append(current)
            current = None
        elif current is not None:
            current.append(line)
    if not saw_model:
        return [parse_pdb(text)]
    return [parse_pdb("\n".join(b)) for b in blocks]


def _format_atom_name(name: str, element: str) -> str:
    if len(name) >= 4:
        return name[:4]
    if len(element) == 1 and len(name) <= 3:
        return f" {name:<3s}"
    return f"{name:<4s}"


def _coord(value: float) -> str:
    text = f"{value:8.3f}"
    if len(text) > 8:
        raise PdbFormatError(f"coordinate {value} does not fit fixed-column format")
    return text


def _int_col(value: int, width: int, what: str) -> str:
    text = f"{value:{width}d}"
    if len(text) > width:
        raise PdbFormatError(f"{what} {value} does not fit its {width}-column field")
    return text


def _atom_id(a: Atom) -> str:
    """Columns 7-26 shared by ATOM and ANISOU: serial, name, residue, chain, number."""
    return (
        f"{_int_col(a.serial, 5, 'serial')} {_format_atom_name(a.name, a.element)} "
        f"{a.residue_name:>3s} {a.chain_id}{_int_col(a.residue_seq, 4, 'residue number')}"
    )


def _atom_line(a: Atom, position) -> str:
    """ATOM record of ``a`` placed at ``position``."""
    return (
        f"ATOM  {_atom_id(a)}    "
        f"{_coord(position[0])}{_coord(position[1])}{_coord(position[2])}"
        f"{1.0:6.2f}{a.b_iso:6.2f}          {a.element:>2s}"
    )


def _anisou_line(a: Atom) -> str:
    u = np.rint(np.asarray(a.b_aniso) / EIGHT_PI_SQ * 1e4).astype(int)
    return (
        f"ANISOU{_atom_id(a)}  "
        f"{u[0]:7d}{u[1]:7d}{u[2]:7d}{0:7d}{0:7d}{0:7d}      {a.element:>2s}"
    )


def write_pdb(s: Structure) -> str:
    """Render a Structure as fixed-column PDB text (ANISOU where present),
    with TER records at chain boundaries."""
    lines = []
    for i, a in enumerate(s.atoms):
        lines.append(_atom_line(a, a.position))
        if a.b_aniso is not None:
            lines.append(_anisou_line(a))
        nxt = s.atoms[i + 1] if i + 1 < len(s.atoms) else None
        if nxt is None or nxt.chain_id != a.chain_id:
            lines.append("TER")
    lines.append("END")
    return "\n".join(lines) + "\n"


def write_pdb_models(s: Structure, positions_list, model_numbers=None) -> str:
    """Render an ensemble as a multi-MODEL PDB sharing ``s``'s atom metadata."""
    if model_numbers is None:
        model_numbers = range(1, len(positions_list) + 1)
    lines = []
    for num, positions in zip(model_numbers, positions_list):
        positions = np.asarray(positions, dtype=float)
        if positions.shape != (s.n_atoms, 3) or not np.all(np.isfinite(positions)):
            raise ValueError(f"model {num}: expected ({s.n_atoms}, 3) finite positions, "
                             f"got shape {positions.shape}")
        lines.append(f"MODEL     {num:4d}")
        lines.extend(_atom_line(a, p) for a, p in zip(s.atoms, positions))
        lines.append("ENDMDL")
    lines.append("END")
    return "\n".join(lines) + "\n"


def assign_params(s: Structure, table: ParamTable) -> Structure:
    """Attach charge/radius/LJ parameters to every atom.

    Lookup is (residue, atom name) override first, then the element fallback.
    Raises :class:`ParamLookupError` naming all atoms whose element has no row.
    """
    out = []
    missing = []
    for a in s.atoms:
        row = table.lookup(a.residue_name, a.name, a.element)
        if row is None:
            missing.append(f"serial {a.serial} ({a.element})")
            continue
        out.append(replace(a, charge=row.charge, vdw_radius=row.vdw_radius,
                           lj_a=row.lj_a, lj_b=row.lj_b))
    if missing:
        raise ParamLookupError("no parameters for atoms: " + ", ".join(missing))
    return Structure(atoms=tuple(out), bonds=s.bonds)


def detect_bonds(s: Structure, tolerance: float = 0.45) -> Structure:
    """Populate bonds with the covalent-distance heuristic.

    Two atoms are bonded when their distance is below the sum of covalent
    radii plus ``tolerance`` (Angstrom).  Element radii default to carbon's
    when unknown.  Candidate pairs come from the neighbour search of
    :func:`moluq.pairs.cutoff_pairs`, so memory grows with the number of
    close pairs rather than n^2; bonds are listed in (i, j) order.
    """
    radii = np.array([
        _COVALENT_RADII.get(a.element.upper(), _COVALENT_RADII["C"]) for a in s.atoms
    ])
    bonds = []
    if s.n_atoms >= 2:
        ii, jj, dist = cutoff_pairs(s.positions(), 2.0 * radii.max() + tolerance)
        bonded = (dist < radii[ii] + radii[jj] + tolerance) & (dist > 1e-6)
        bonds = list(zip(ii[bonded].tolist(), jj[bonded].tolist()))
    return s.with_bonds(bonds)


def bond_adjacency(bonds, n: int) -> list[set[int]]:
    """Neighbour set of each of ``n`` atoms under the bond list."""
    adj: list[set[int]] = [set() for _ in range(n)]
    for i, j in bonds:
        adj[i].add(j)
        adj[j].add(i)
    return adj


def bonded_exclusions(s: Structure) -> frozenset[tuple[int, int]]:
    """1-2 and 1-3 pairs (as sorted index tuples) from the bond list."""
    pairs = set(s.bonds)  # each bond is stored once as (min, max)
    for nbrs in bond_adjacency(s.bonds, s.n_atoms):
        pairs.update(itertools.combinations(sorted(nbrs), 2))
    return frozenset(pairs)
