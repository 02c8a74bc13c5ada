"""Molecular structure I/O: fixed-column PDB parsing/writing and parameter assignment.

A :class:`Structure` holds its atoms as columns: identity (serial, name,
element, residue, chain), (n, 3) coordinates, crystallographic uncertainty
(isotropic ``b_iso``, optional per-axis ``b_aniso``) and the nonbonded
parameters (charge, van der Waals radius, 12-6 coefficients) used by the
energy evaluators.  Ensembles are read as one (m, n, 3) coordinate array.
All functions here are pure: they return new objects and never mutate their
inputs.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field, fields, replace

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


# dtype of each non-float column; coords and b_aniso hold (n, 3) rows
_COLUMN_DTYPES = {"serials": int, "names": str, "elements": str, "residue_names": str,
                  "residue_seqs": int, "chain_ids": str, "has_aniso": bool}


def _require_unique(serials: list[int]) -> None:
    if len(set(serials)) != len(serials):
        raise ValueError("atom serials must be unique")


@dataclass(frozen=True, eq=False)
class Structure:
    """Atoms as columns in file order, plus a bond list (each pair stored once).

    Row i of every column describes atom i.  ``b_iso`` holds isotropic
    B-values (Angstrom^2); the positional standard deviation follows
    B = 8*pi^2*sigma^2.  ``b_aniso`` holds the per-axis diagonal (Bx, By, Bz)
    of the atoms whose ``has_aniso`` is set (ANISOU data) and zeros
    elsewhere.  ``charges``, ``radii``, ``lj_a`` and ``lj_b`` are the
    nonbonded parameters that :func:`assign_params` fills in.
    """

    serials: np.ndarray
    names: np.ndarray
    elements: np.ndarray
    residue_names: np.ndarray
    residue_seqs: np.ndarray
    chain_ids: np.ndarray
    coords: np.ndarray
    b_iso: np.ndarray
    b_aniso: np.ndarray
    has_aniso: np.ndarray
    charges: np.ndarray
    radii: np.ndarray
    lj_a: np.ndarray
    lj_b: np.ndarray
    bonds: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        n = len(self.serials)
        for name in _COLUMNS:
            shape = (n, 3) if name in ("coords", "b_aniso") else (n,)
            col = np.array(getattr(self, name), dtype=_COLUMN_DTYPES.get(name, float))
            if col.size == 0:
                col = col.reshape(shape)
            if col.shape != shape:
                raise ValueError(f"column {name}: expected shape {shape}, got {col.shape}")
            object.__setattr__(self, name, col)
        _require_unique(self.serials.tolist())
        norm: dict[tuple[int, int], None] = {}  # insertion-ordered set
        for i, j in self.bonds:
            if not (0 <= i < n and 0 <= j < n) or i == j:
                raise ValueError(f"bond ({i},{j}) references invalid atom indices")
            key = (min(i, j), max(i, j))
            if key in norm:
                raise ValueError(f"bond {key} listed more than once")
            norm[key] = None
        object.__setattr__(self, "bonds", tuple(norm))

    @property
    def n_atoms(self) -> int:
        return len(self.serials)

    def positions(self) -> np.ndarray:
        """(n, 3) coordinate array, in atom order (a copy)."""
        return self.coords.copy()

    @property
    def chains(self) -> dict[str, list[int]]:
        """Atom indices grouped by chain id, in first-seen order."""
        out: dict[str, list[int]] = {}
        for i, chain in enumerate(self.chain_ids.tolist()):
            out.setdefault(chain, []).append(i)
        return out

    def with_bonds(self, bonds) -> "Structure":
        return replace(self, bonds=tuple(bonds))

    def subset(self, indices) -> "Structure":
        """Sub-structure over the given atom indices; keeps bonds internal to the set."""
        indices = np.array(list(indices), dtype=int)
        remap = {old: new for new, old in enumerate(indices.tolist())}
        bonds = tuple(
            (remap[i], remap[j]) for i, j in self.bonds if i in remap and j in remap
        )
        return Structure(**{name: getattr(self, name)[indices] for name in _COLUMNS},
                         bonds=bonds)


_COLUMNS = [f.name for f in fields(Structure) if f.name != "bonds"]


@dataclass(frozen=True)
class ParamRow:
    vdw_radius: float
    charge: float
    lj_a: float
    lj_b: float

    def __post_init__(self):
        if not (_is_finite(self.vdw_radius) and self.vdw_radius > 0):
            raise ValueError("vdw_radius must be finite and positive")
        if not all(map(_is_finite, (self.charge, self.lj_a, self.lj_b))):
            raise ValueError("charge, lj_a and lj_b must be finite")


def _is_finite(value) -> bool:
    """True for a finite real number; False for NaN, inf and non-numbers."""
    try:
        return math.isfinite(value)
    except TypeError:
        return False


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


def _read_model(numbered_lines):
    """Read and check the ATOM/HETATM (+ trailing ANISOU) records of one model.

    ``numbered_lines`` holds (line number, line) of the model's lines only
    (see :func:`_model_blocks`).  Returns the kept ATOM lines with their line
    numbers, serials, residue numbers, (x, y, z) and B-values, and {row:
    per-axis B from ANISOU}.  Alternate locations other than blank or 'A' are
    skipped.  A non-finite coordinate, a negative or non-finite B-value or
    ANISOU diagonal and a repeated serial raise ValueError; malformed fields
    raise :class:`PdbParseError`.
    """
    linenos, lines, serials, residue_seqs, xyz, b_iso, b_aniso = [], [], [], [], [], [], {}
    last_serial: int | None = None  # serial of the most recent ATOM line, kept or skipped
    last_kept = False
    for lineno, line in numbered_lines:
        record = line[:6].strip()
        if record in ("ATOM", "HETATM"):
            if len(line) < 54:
                raise PdbParseError(f"line {lineno}: record too short for coordinates")
            serial = _int_field(line, 6, 11, "serial", lineno)
            last_serial = serial
            last_kept = line[16] in (" ", "A")
            if not last_kept:
                continue
            residue_seqs.append(_int_field(line, 22, 26, "residue number", lineno))
            pos = (_float_field(line, 30, 38, "x", lineno),
                   _float_field(line, 38, 46, "y", lineno),
                   _float_field(line, 46, 54, "z", lineno))
            b_text = line[60:66].strip() if len(line) >= 60 else ""
            b = _float_field(line, 60, 66, "B-factor", lineno) if b_text else 0.0
            if not all(map(math.isfinite, pos)):
                raise ValueError(f"atom {serial}: position must be a finite 3-vector")
            if b < 0:
                raise ValueError(f"atom {serial}: b_iso must be >= 0")
            if not math.isfinite(b):
                raise ValueError(f"atom {serial}: b_iso must be finite")
            linenos.append(lineno)
            lines.append(line)
            serials.append(serial)
            xyz.append(pos)
            b_iso.append(b)
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
            b_axes = EIGHT_PI_SQ * 1e-4 * np.array([u11, u22, u33])
            if np.any(b_axes < 0):
                raise ValueError(f"atom {serial}: b_aniso must be 3 non-negative values")
            if not np.all(np.isfinite(b_axes)):
                raise ValueError(f"atom {serial}: b_aniso must be finite")
            b_aniso[len(serials) - 1] = b_axes
    _require_unique(serials)
    return linenos, lines, serials, residue_seqs, xyz, b_iso, b_aniso


def _structure(model) -> Structure:
    """The atoms of one model read by :func:`_read_model`, with placeholder
    parameters (radius 1.7 A)."""
    _, lines, serials, residue_seqs, xyz, b_iso, aniso = model
    n = len(serials)
    elements = [(line[76:78].strip() if len(line) >= 77 else "") or _infer_element(line[12:16])
                for line in lines]
    b_aniso, has_aniso = np.zeros((n, 3)), np.zeros(n, dtype=bool)
    for row, b in aniso.items():
        b_aniso[row], has_aniso[row] = b, True
    return Structure(
        serials=serials, names=[line[12:16].strip() for line in lines],
        elements=[e.upper() for e in elements],
        residue_names=[line[17:20].strip() for line in lines],
        residue_seqs=residue_seqs, chain_ids=[line[21] for line in lines],
        coords=xyz, b_iso=b_iso, b_aniso=b_aniso, has_aniso=has_aniso,
        charges=np.zeros(n), radii=np.full(n, 1.7), lj_a=np.zeros(n), lj_b=np.zeros(n),
    )


def _model_blocks(text: str):
    """``(starts, blocks)``: the offset of each line start, by the breaks of
    ``str.splitlines``, and the [MODEL line index, first body line, end] of
    each MODEL ... ENDMDL block; ``(None, [])`` when ``text`` never says MODEL.

    Raises :class:`PdbParseError`, naming the line, for a MODEL without
    ENDMDL and, when there are blocks, for an ATOM, HETATM or ANISOU record
    outside them; an ENDMDL outside a block is ignored.
    """
    if "MODEL" not in text:
        return None, []
    # a line-aligned slice of the text splits into the same lines as the whole
    # text does, and a MODEL or ENDMDL record holds its word
    starts = np.concatenate(([0], np.cumsum(np.fromiter(
        map(len, text.splitlines(keepends=True)), dtype=np.int64))))
    marked = np.searchsorted(starts, [*_offsets(text, "MODEL"), *_offsets(text, "ENDMDL")],
                             side="right") - 1
    blocks: list[list[int]] = []
    current = None
    for i in sorted(set(marked.tolist())):
        record = text[starts[i]:starts[i + 1]].splitlines()[0][:6].strip()
        if record == "MODEL":
            if current is not None:
                raise PdbParseError(f"line {current[0] + 1}: MODEL without ENDMDL")
            current = [i, i + 1, i + 1]
            blocks.append(current)
        elif record == "ENDMDL" and current is not None:
            current[2] = i
            current = None
    if current is not None:
        raise PdbParseError(f"line {current[0] + 1}: MODEL without ENDMDL")
    # the line ranges between blocks: before the first, between two, after the last
    gaps = [0, *itertools.chain.from_iterable((model, end + 1) for model, _, end in blocks),
            len(starts) - 1] if blocks else []
    for lo, hi in zip(gaps[::2], gaps[1::2]):
        for lineno, line in _numbered(text, starts, lo, hi):
            record = line[:6].strip()
            if record in ("ATOM", "HETATM", "ANISOU"):
                raise PdbParseError(f"line {lineno}: {record} record outside every "
                                    "MODEL/ENDMDL block")
    return starts, blocks


def _numbered(text: str, starts, lo: int, hi: int):
    """(line number, line) of the lines with index lo to hi - 1 (see :func:`_model_blocks`)."""
    return enumerate(text[starts[lo]:starts[hi]].splitlines(), start=lo + 1)


def _first_model_lines(text: str, starts, blocks):
    """(line number, line) of the first model: the first block's body, or
    every line of a text without MODEL records."""
    if blocks:
        return _numbered(text, starts, *blocks[0][1:])
    return enumerate(text.splitlines(), start=1)


def parse_pdb(text: str) -> Structure:
    """Parse ATOM/HETATM (+ trailing ANISOU) records into a Structure.

    Follows the fixed-column PDB convention.  Alternate locations other than
    blank or 'A' are skipped; HETATM records are treated like ATOM so ligands
    come through.  ANISOU diagonals (file units of 1e-4 A^2) are converted to
    per-axis B-values via B = 8*pi^2*U.  If MODEL records are present only
    the first model is read, by the rule of :func:`_model_blocks` (see
    :func:`parse_pdb_models` for ensembles).
    """
    return _structure(_read_model(_first_model_lines(text, *_model_blocks(text))))


def serial_mismatch(got: list[int], want: list[int], where: str) -> str:
    """How the serials ``got`` differ from ``want``, the serials ``where``
    lists: their first differing pair, or else their two counts."""
    pair = next(((g, w) for g, w in zip(got, want) if g != w), None)
    if pair:
        return f"serial {pair[0]} where {where} lists serial {pair[1]}"
    return f"{len(got)} atoms where {where} lists {len(want)}"


def _offsets(text: str, word: str):
    at = text.find(word)
    while at >= 0:
        yield at
        at = text.find(word, at + 1)


def _cast_fields(fields: np.ndarray) -> np.ndarray | None:
    """float64 of each 8-byte field on the last axis of the uint8 ``fields``,
    by numpy's bytes-to-float cast; None when it cannot read one of them."""
    try:
        return fields.view("S8")[..., 0].astype(np.float64)
    except ValueError:
        return None


def _later_coords(text: str, starts: np.ndarray, blocks, kept: list[int]):
    """Coordinates of the models after the first that repeat its text byte for
    byte outside columns 31-54 of its kept ATOM/HETATM rows and whose x, y, z
    fields read as finite numbers.  Returns {model index: (n, 3) array};
    other models are left to the per-line reader.

    ``starts`` holds the offset of each line, ``blocks`` the (MODEL line,
    first, end) line ranges of the models and ``kept`` the line numbers of
    the first model's kept rows.  The fields of all such models are cast in
    one pass, and model by model only when that pass raises.  numpy parses a
    field as ``float()`` parses its stripped text, correctly rounded to the
    same bits, except that it drops trailing NULs (``S`` padding), which
    ``float()`` rejects, and skips the line breaks of ``str.splitlines`` as
    blanks, where the per-line reader sees two lines.  A model whose fields
    hold a control byte (below 0x20) or a non-finite value therefore goes to
    the per-line reader, so what this returns is what that reader would, and
    it would raise nothing.
    """
    if not text.isascii():
        return {}
    raw = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    _, lo, hi = blocks[0]
    body = raw[starts[lo]:starts[hi]]
    cols = ((starts[np.asarray(kept, dtype=np.int64) - 1] - starts[lo])[:, None]
            + np.arange(30, 54)).ravel()
    keep = np.full(len(body), 0xFF, dtype=np.uint8)
    keep[cols] = 0
    body_kept = body & keep
    same = []  # models whose text outside the coordinates is the first's
    for k, (_, lo_k, hi_k) in enumerate(blocks[1:], start=1):
        text_k = raw[starts[lo_k]:starts[hi_k]]
        if len(text_k) == len(body) and np.array_equal(text_k & keep, body_kept):
            same.append((k, text_k[cols]))
    if not same:
        return {}
    fields = np.array([f for _, f in same]).reshape(len(same), len(kept), 3, 8)
    values = _cast_fields(fields)
    if values is None:  # some field is no number: find the models that hold one
        values = [_cast_fields(f) for f in fields]
    control = (fields < 0x20).any(axis=(1, 2, 3))
    return {k: v for (k, _), v, bad in zip(same, values, control)
            if not bad and v is not None and np.isfinite(v).all()}


def parse_pdb_models(text: str) -> tuple[Structure, np.ndarray]:
    """Parse a multi-MODEL PDB into its first model and every model's coordinates.

    Returns ``(first, coords)``: the first model as a Structure and an
    (m, n, 3) array with the coordinates of all m models in file order
    (``coords[0]`` is the first model's).  A file without MODEL records is
    one model.  Every model gets the checks of :func:`parse_pdb`; later
    models keep only their coordinates.  Raises :class:`PdbParseError`,
    naming the MODEL record's line, when a MODEL has no ENDMDL or a later
    model does not list the first model's serials in the same order.

    The first model is read line by line.  A later model whose text is ASCII
    and equals the first model's everywhere except the x, y, z columns
    (31-54) of the first model's kept ATOM/HETATM rows is read as arrays:
    its coordinate fields go through numpy's bytes-to-float cast, which
    rounds as ``float()`` does, so the values are bit-equal.  The model goes
    through the per-line reader instead when the cast cannot read one of its
    fields, when a value is not finite, or when a field holds a control byte
    (a NUL, which numpy drops as padding and ``float()`` rejects, or a line
    break).  Results and errors (class, message and order) are therefore
    those of reading each model line by line.
    """
    starts, blocks = _model_blocks(text)
    model = _read_model(_first_model_lines(text, starts, blocks))
    first = _structure(model)
    coords = np.empty((max(len(blocks), 1), first.n_atoms, 3))
    coords[0] = first.coords
    fast = _later_coords(text, starts, blocks, model[0]) if len(blocks) > 1 else {}
    want = first.serials.tolist()
    for k, block in enumerate(blocks[1:], start=1):
        if k in fast:
            coords[k] = fast[k]
            continue
        _, _, serials, _, xyz, _, _ = _read_model(_numbered(text, starts, *block[1:]))
        if serials != want:
            raise PdbParseError(f"line {block[0] + 1}: model {k + 1} lists "
                                + serial_mismatch(serials, want, "model 1"))
        coords[k] = xyz
    return first, coords


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


def _atom_lines(s: Structure):
    """Columns 7-26 of each atom's records (serial, name, residue, chain,
    number; shared by ATOM and ANISOU) and columns 55-78 of its ATOM record
    (occupancy, B-value, element).  Only the coordinates change per model."""
    ids = [
        f"{_int_col(serial, 5, 'serial')} {_format_atom_name(name, element)} "
        f"{residue:>3s} {chain}{_int_col(seq, 4, 'residue number')}"
        for serial, name, element, residue, chain, seq in zip(
            s.serials.tolist(), s.names.tolist(), s.elements.tolist(),
            s.residue_names.tolist(), s.chain_ids.tolist(), s.residue_seqs.tolist())
    ]
    tails = [f"{1.0:6.2f}{b:6.2f}          {element:>2s}"
             for b, element in zip(s.b_iso.tolist(), s.elements.tolist())]
    return ids, tails


def _atom_records(ids, tails, positions) -> list[str]:
    """The ATOM records at the given (n, 3) positions, one coordinate at a
    time; raises :class:`PdbFormatError` at the first that overflows."""
    return [f"ATOM  {atom_id}    {_coord(x)}{_coord(y)}{_coord(z)}{tail}"
            for atom_id, (x, y, z), tail in zip(ids, positions.tolist(), tails)]


def write_pdb(s: Structure) -> str:
    """Render a Structure as fixed-column PDB text (ANISOU where present),
    with TER records at chain boundaries."""
    ids, tails = _atom_lines(s)
    u = np.rint(s.b_aniso / EIGHT_PI_SQ * 1e4).astype(int).tolist()
    elements, chains = s.elements.tolist(), s.chain_ids.tolist()
    lines = []
    for i, line in enumerate(_atom_records(ids, tails, s.coords)):
        lines.append(line)
        if s.has_aniso[i]:
            lines.append(f"ANISOU{ids[i]}  {u[i][0]:7d}{u[i][1]:7d}{u[i][2]:7d}"
                         f"{0:7d}{0:7d}{0:7d}      {elements[i]:>2s}")
        if i + 1 == len(chains) or chains[i + 1] != chains[i]:
            lines.append("TER")
    lines.append("END")
    return "\n".join(lines) + "\n"


def write_pdb_models(s: Structure, positions_list, model_numbers=None) -> str:
    """Render an ensemble as a multi-MODEL PDB sharing ``s``'s atom metadata.

    Each model's ATOM records come from one ``%``-template of the structure,
    filled with all its coordinates at once (``%8.3f`` renders as
    ``f"{v:8.3f}"``).  A model whose text is longer than the template
    predicts holds a coordinate that overflows its 8 columns; it is rendered
    again atom by atom, which raises :class:`PdbFormatError` naming the first
    such coordinate, so text and errors are those of the per-atom path.  A
    model of the wrong shape, or with a non-finite coordinate (named by atom
    serial, axis and value), raises ValueError.
    """
    if model_numbers is None:
        model_numbers = range(1, len(positions_list) + 1)
    ids, tails = _atom_lines(s)
    template = "".join(f"ATOM  {atom_id.replace('%', '%%')}    %8.3f%8.3f%8.3f"
                       f"{tail.replace('%', '%%')}\n" for atom_id, tail in zip(ids, tails))
    width = len(template % ((0.0,) * (3 * s.n_atoms)))  # every field 8 columns wide
    parts = []
    for num, positions in zip(model_numbers, positions_list):
        positions = np.asarray(positions, dtype=float)
        expected = f"model {num}: expected ({s.n_atoms}, 3) finite positions"
        if positions.shape != (s.n_atoms, 3):
            raise ValueError(f"{expected}, got shape {positions.shape}")
        if not np.isfinite(positions).all():
            i, axis = np.argwhere(~np.isfinite(positions))[0]
            raise ValueError(f"{expected}, atom {s.serials[i]} has {'xyz'[axis]} = "
                             f"{positions[i, axis]}")
        parts.append(f"MODEL     {num:4d}\n")
        atoms = template % tuple(positions.ravel().tolist())
        if len(atoms) != width:  # raises at the first overflowing coordinate
            atoms = "".join(f"{line}\n" for line in _atom_records(ids, tails, positions))
        parts.append(atoms)
        parts.append("ENDMDL\n")
    parts.append("END\n")
    return "".join(parts)


def assign_params(s: Structure, table: ParamTable) -> Structure:
    """Attach charge/radius/LJ parameters to every atom.

    Lookup is (residue, atom name) override first, then the element fallback.
    Raises :class:`ParamLookupError` naming all atoms whose element has no row.
    """
    rows = []
    missing = []
    for serial, residue, name, element in zip(s.serials.tolist(), s.residue_names.tolist(),
                                              s.names.tolist(), s.elements.tolist()):
        row = table.lookup(residue, name, element)
        if row is None:
            missing.append(f"serial {serial} ({element})")
            continue
        rows.append((row.charge, row.vdw_radius, row.lj_a, row.lj_b))
    if missing:
        raise ParamLookupError("no parameters for atoms: " + ", ".join(missing))
    charges, radii, lj_a, lj_b = np.array(rows, dtype=float).reshape(-1, 4).T
    return replace(s, charges=charges, radii=radii, lj_a=lj_a, lj_b=lj_b)


def detect_bonds(s: Structure, tolerance: float = 0.45) -> Structure:
    """Populate bonds with the covalent-distance heuristic.

    Two atoms are bonded when their distance is below the sum of covalent
    radii plus ``tolerance`` (Angstrom).  Element radii default to carbon's
    when unknown.  Candidate pairs come from the neighbour search of
    :func:`moluq.pairs.cutoff_pairs`, so memory grows with the number of
    close pairs rather than n^2; bonds are listed in (i, j) order.
    """
    radii = np.array([
        _COVALENT_RADII.get(element.upper(), _COVALENT_RADII["C"])
        for element in s.elements.tolist()
    ])
    bonds = []
    if s.n_atoms >= 2:
        ii, jj, dist = cutoff_pairs(s.coords, 2.0 * radii.max() + tolerance)
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
