"""Molecular structure I/O: PDB reading, ensemble writing and parameter assignment.

A :class:`Structure` holds its atoms as columns: identity (serial, name,
element, residue, chain), (n, 3) coordinates, crystallographic uncertainty
(isotropic ``b_iso``, optional per-axis ``b_aniso``) and the nonbonded
parameters (charge, van der Waals radius, 12-6 coefficients) used by the
energy evaluators.  Ensembles are read as one (m, n, 3) coordinate array.
All functions here are pure, returning new objects and never mutating their
inputs, except :func:`write_pdb_models`, which writes into the file it is
given.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from moluq.pairs import cutoff_pairs, exclusion_codes

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


# str.splitlines breaks a line at these bytes ('\r\n' is one break) ...
_BREAK_BYTES = np.zeros(256, dtype=bool)
_BREAK_BYTES[[0x0A, 0x0B, 0x0C, 0x0D, 0x1C, 0x1D, 0x1E]] = True
# ... and at these characters, several bytes each in UTF-8
_WIDE_BREAKS = tuple(ch.encode("utf-8") for ch in "\x85\u2028\u2029")
# bytes that each step of the line scan takes at once, so that no temporary
# grows with the file
_SCAN_BYTES = 1 << 18


def _utf8(text: str | bytes) -> bytes:
    """The UTF-8 bytes of a PDB text: a str encoded, bytes checked.

    Raises UnicodeDecodeError for the first byte that is not UTF-8, its
    ``start`` the offset in ``text``.  ASCII bytes need no check; other
    bytes are decoded once, and the decoded copy dropped.
    """
    if isinstance(text, str):
        return text.encode("utf-8")
    if not text.isascii():
        text.decode("utf-8")
    return text


def _line_starts(data: bytes) -> np.ndarray:
    """The offset of each line in ``data``, then ``len(data)``: the lines
    of ``str.splitlines`` on its text, found in the bytes (one int64 each)."""
    raw = np.frombuffer(data, dtype=np.uint8)
    parts = [np.zeros(1, dtype=np.int64)]
    for lo in range(0, len(raw), _SCAN_BYTES):
        chunk = raw[lo:lo + _SCAN_BYTES]
        at = np.flatnonzero(chunk < 0x1F)
        at = at[_BREAK_BYTES[chunk[at]]] + (lo + 1)
        # a '\r' that a '\n' follows ends no line: the '\n' does
        after = raw[np.minimum(at, len(raw) - 1)]
        parts.append(at[~((raw[at - 1] == 0x0D) & (after == 0x0A) & (at < len(raw)))])
    is_ascii = data.isascii()
    if not is_ascii:
        parts.append(np.array([i + len(word) for word in _WIDE_BREAKS
                               for i in _offsets(data, word)], dtype=np.int64))
    starts = np.concatenate([*parts, [len(data)]])
    if not is_ascii:
        starts.sort()
    # the last line ends at the end of the data, with or without a break
    return starts[:-1] if len(starts) > 1 and starts[-2] == len(data) else starts


def _model_blocks(data: bytes):
    """``(starts, blocks)``: the offsets of :func:`_line_starts` and the
    [MODEL line index, first body line, end] of each MODEL ... ENDMDL block;
    ``(None, [])`` when ``data`` never says MODEL.

    Raises :class:`PdbParseError`, naming the line, for a MODEL without
    ENDMDL and, when there are blocks, for an ATOM, HETATM or ANISOU record
    outside them; an ENDMDL outside a block is ignored.  Only the lines
    that hold one of the two words, and those outside the blocks, are
    decoded.
    """
    if b"MODEL" not in data:
        return None, []
    starts = _line_starts(data)
    # a MODEL or ENDMDL record holds its word
    marked = np.searchsorted(starts, [*_offsets(data, b"MODEL"), *_offsets(data, b"ENDMDL")],
                             side="right") - 1
    blocks: list[list[int]] = []
    current = None
    for i in sorted(set(marked.tolist())):
        record = next(_numbered(data, starts, i, i + 1))[1][:6].strip()
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
        for lineno, line in _numbered(data, starts, lo, hi):
            record = line[:6].strip()
            if record in ("ATOM", "HETATM", "ANISOU"):
                raise PdbParseError(f"line {lineno}: {record} record outside every "
                                    "MODEL/ENDMDL block")
    return starts, blocks


def _numbered(data: bytes, starts, lo: int, hi: int):
    """(line number, line) of the lines with index lo to hi - 1 (see
    :func:`_model_blocks`), decoded; a line-aligned slice splits into the
    same lines as the whole text does."""
    return enumerate(data[starts[lo]:starts[hi]].decode("utf-8").splitlines(), start=lo + 1)


def _first_model_lines(data: bytes, starts, blocks):
    """(line number, line) of the first model: the first block's body, or
    every line of a text without MODEL records."""
    if blocks:
        return _numbered(data, starts, *blocks[0][1:])
    return enumerate(data.decode("utf-8").splitlines(), start=1)


def parse_pdb(text: str | bytes) -> Structure:
    """Parse ATOM/HETATM (+ trailing ANISOU) records into a Structure.

    Follows the fixed-column PDB convention.  Alternate locations other than
    blank or 'A' are skipped; HETATM records are treated like ATOM so ligands
    come through.  ANISOU diagonals (file units of 1e-4 A^2) are converted to
    per-axis B-values via B = 8*pi^2*U.  If MODEL records are present only
    the first model is read, by the rule of :func:`_model_blocks` (see
    :func:`parse_pdb_models` for ensembles).  Bytes are read as UTF-8, as
    :func:`parse_pdb_models` reads them.
    """
    data = _utf8(text)
    return _structure(_read_model(_first_model_lines(data, *_model_blocks(data))))


def serial_mismatch(got: list[int], want: list[int], where: str) -> str:
    """How the serials ``got`` differ from ``want``, the serials ``where``
    lists: their first differing pair, or else their two counts."""
    pair = next(((g, w) for g, w in zip(got, want) if g != w), None)
    if pair:
        return f"serial {pair[0]} where {where} lists serial {pair[1]}"
    return f"{len(got)} atoms where {where} lists {len(want)}"


def _offsets(data: bytes, word: bytes):
    at = data.find(word)
    while at >= 0:
        yield at
        at = data.find(word, at + 1)


def _first_layout(raw: np.ndarray, starts: np.ndarray, block, kept: list[int]):
    """``(keep, masked)`` of the first model for :func:`_cast_model`: a byte
    mask that is 0 in columns 31-54 of its kept ATOM/HETATM rows (line
    numbers ``kept``) and 0xFF elsewhere, and its body under that mask.
    None when the body is not ASCII, where byte columns are not the
    per-line reader's character columns."""
    _, lo, hi = block
    body = raw[starts[lo]:starts[hi]]
    if body.max(initial=0) >= 0x80:
        return None
    rows = starts[np.asarray(kept, dtype=np.int64) - 1] - starts[lo]
    keep = np.full(len(body), 0xFF, dtype=np.uint8)
    for col in range(30, 54):
        keep[rows + col] = 0
    return keep, body & keep


def _cast_model(text: np.ndarray, layout, out: np.ndarray) -> bool:
    """Write the coordinates of the later model whose bytes are ``text``
    into the (n, 3) ``out`` and return True, when the model repeats the
    first model byte for byte outside the x, y, z columns of ``layout``
    (see :func:`_first_layout`) and every field reads as a finite number;
    return False, writing nothing, otherwise.

    The fields go through numpy's bytes-to-float cast, which rounds as
    ``float()`` does, to the same bits.  It also drops trailing NULs
    (``S`` padding), which ``float()`` rejects, and skips the line breaks
    of ``str.splitlines`` as blanks, where the per-line reader sees two
    lines; so a field that holds a byte below 0x20, a non-ASCII byte or a
    non-finite value is left to that reader.  What this writes is what
    that reader would return, and it would raise nothing.
    """
    keep, masked = layout
    if len(text) != len(keep) or not np.array_equal(text & keep, masked):
        return False
    fields = text[keep == 0]  # row by row, x, y, z
    if fields.min(initial=0x20) < 0x20 or fields.max(initial=0) >= 0x80:
        return False
    try:
        values = fields.view("S8").astype(np.float64)
    except ValueError:
        return False
    if not np.isfinite(values).all():
        return False
    out[...] = values.reshape(out.shape)
    return True


def parse_pdb_models(text: str | bytes) -> tuple[Structure, np.ndarray]:
    """Parse a multi-MODEL PDB into its first model and every model's coordinates.

    Returns ``(first, coords)``: the first model as a Structure and an
    (m, n, 3) array with the coordinates of all m models in file order
    (``coords[0]`` is the first model's).  A file without MODEL records is
    one model.  Every model gets the checks of :func:`parse_pdb`; later
    models keep only their coordinates.  Raises :class:`PdbParseError`,
    naming the MODEL record's line, when a MODEL has no ENDMDL or a later
    model does not list the first model's serials in the same order.

    ``text`` is the file's bytes, read as UTF-8 (a str is encoded first);
    UnicodeDecodeError names the offset of the first byte that is not.
    Besides the bytes and the result, the reader holds one int64 offset per
    line and the text of one model at a time: the first model is decoded
    and read line by line.  A later model whose bytes equal the first
    model's everywhere except the x, y, z columns (31-54) of its kept
    ATOM/HETATM rows is read from the bytes by :func:`_cast_model`, without
    decoding; any other goes through the per-line reader.  Results and
    errors (class, message and order) are therefore those of reading each
    model line by line.
    """
    data = _utf8(text)
    starts, blocks = _model_blocks(data)
    model = _read_model(_first_model_lines(data, starts, blocks))
    first = _structure(model)
    coords = np.empty((max(len(blocks), 1), first.n_atoms, 3))
    coords[0] = first.coords
    raw = np.frombuffer(data, dtype=np.uint8)
    layout = _first_layout(raw, starts, blocks[0], model[0]) if len(blocks) > 1 else None
    want = first.serials.tolist()
    for k, block in enumerate(blocks[1:], start=1):
        lo, hi = starts[block[1]], starts[block[2]]
        if layout is not None and _cast_model(raw[lo:hi], layout, coords[k]):
            continue
        _, _, serials, _, xyz, _, _ = _read_model(_numbered(data, starts, *block[1:]))
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


def _atom_lines(s: Structure, rows: slice = slice(None)):
    """Columns 7-26 of the ATOM record of each atom in ``rows`` (serial,
    name, residue, chain, number) and its columns 55-78 (occupancy,
    B-value, element).  Only the coordinates change per model."""
    elements = s.elements[rows].tolist()
    ids = [
        f"{_int_col(serial, 5, 'serial')} {_format_atom_name(name, element)} "
        f"{residue:>3s} {chain}{_int_col(seq, 4, 'residue number')}"
        for serial, name, element, residue, chain, seq in zip(
            s.serials[rows].tolist(), s.names[rows].tolist(), elements,
            s.residue_names[rows].tolist(), s.chain_ids[rows].tolist(),
            s.residue_seqs[rows].tolist())
    ]
    tails = [f"{1.0:6.2f}{b:6.2f}          {element:>2s}"
             for b, element in zip(s.b_iso[rows].tolist(), elements)]
    return ids, tails


# atoms rendered per write: a block's text, encoded once more by the file,
# and its coordinates as Python floats are all the writer holds besides the
# templates
_WRITE_ATOMS = 256


def _block_templates(s: Structure):
    """(first atom, end, template, width) of each block of ``_WRITE_ATOMS``
    atoms: one ``%``-template of the block's ATOM records and the length of
    its text when every coordinate fills its 8 columns."""
    blocks = []
    for lo in range(0, s.n_atoms, _WRITE_ATOMS):
        hi = min(lo + _WRITE_ATOMS, s.n_atoms)
        template = "".join(f"ATOM  {atom_id.replace('%', '%%')}    %8.3f%8.3f%8.3f"
                           f"{tail.replace('%', '%%')}\n"
                           for atom_id, tail in zip(*_atom_lines(s, slice(lo, hi))))
        blocks.append((lo, hi, template, len(template % ((0.0,) * (3 * (hi - lo))))))
    return blocks


def write_pdb_models(s: Structure, positions_list, file, model_numbers=None) -> None:
    """Write an ensemble to the open text ``file`` as a multi-MODEL PDB
    sharing ``s``'s atom metadata.

    The ATOM records of each block of ``_WRITE_ATOMS`` atoms come from one
    ``%``-template, filled with the block's coordinates at once (``%8.3f``
    renders as ``f"{v:8.3f}"``).  A block whose text is longer than its
    template predicts holds a coordinate that overflows its 8 columns:
    :class:`PdbFormatError` names the first such coordinate, in atom and
    x, y, z order.  A model of the wrong shape, or with a non-finite
    coordinate (named by atom serial, axis and value), raises ValueError.

    Besides its arguments the writer holds the templates (about one model's
    text) and one block at a time.  An error leaves what was written before
    it in ``file``; a caller that must not leave a partial file writes to a
    temporary one and renames it.
    """
    if model_numbers is None:
        model_numbers = range(1, len(positions_list) + 1)
    blocks = _block_templates(s)
    for num, positions in zip(model_numbers, positions_list):
        positions = np.asarray(positions, dtype=float)
        expected = f"model {num}: expected ({s.n_atoms}, 3) finite positions"
        if positions.shape != (s.n_atoms, 3):
            raise ValueError(f"{expected}, got shape {positions.shape}")
        if not np.isfinite(positions).all():
            i, axis = np.argwhere(~np.isfinite(positions))[0]
            raise ValueError(f"{expected}, atom {s.serials[i]} has {'xyz'[axis]} = "
                             f"{positions[i, axis]}")
        file.write(f"MODEL     {num:4d}\n")
        for lo, hi, template, width in blocks:
            atoms = template % tuple(positions[lo:hi].ravel().tolist())
            if len(atoms) != width:
                for value in positions[lo:hi].ravel().tolist():
                    _coord(value)  # raises at the first overflowing coordinate
            file.write(atoms)
        file.write("ENDMDL\n")
    file.write("END\n")


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


def bonded_exclusions(s: Structure) -> np.ndarray:
    """Exclusion codes (see moluq.pairs) of the bond list's 1-2 and 1-3 pairs."""
    pairs = set(s.bonds)  # each bond is stored once as (min, max)
    for nbrs in bond_adjacency(s.bonds, s.n_atoms):
        pairs.update(itertools.combinations(sorted(nbrs), 2))
    return exclusion_codes(pairs, s.n_atoms)
