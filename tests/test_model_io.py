"""Array paths of multi-model PDB I/O against verbatim copies of the per-line
model reader and per-atom writer they replaced.

``parse_pdb_models`` reads a later model as arrays when its text repeats the
first model's outside the coordinate columns, and ``write_pdb_models`` fills
one ``%``-template per model.  Both must reproduce the former code exactly:
the same first-model columns, bit-equal coordinates (``-0.0`` included),
byte-equal text, and on bad input the same error class and message.
"""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moluq import molio
from moluq.molio import (
    EIGHT_PI_SQ,
    PdbFormatError,
    PdbParseError,
    Structure,
    _coord,
    _float_field,
    _format_atom_name,
    _infer_element,
    _int_col,
    _int_field,
    _require_unique,
    parse_pdb_models,
)
from conftest import lattice, make_structure, models_text

GEN_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"


def _load_gen():
    spec = importlib.util.spec_from_file_location("perfbench_gen", GEN_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


gen = _load_gen()


# ---------------------------------------------------------------- former code, verbatim

def former_read_model(numbered_lines):
    """Read and check the ATOM/HETATM (+ trailing ANISOU) records of one model.

    Reading stops at the ENDMDL that closes a MODEL, so a multi-model text
    yields its first model.  Returns the kept ATOM lines with their serials,
    residue numbers, (x, y, z) and B-values, and {row: per-axis B from
    ANISOU}.  Alternate locations other than blank or 'A' are skipped.  A
    non-finite coordinate, a negative B-value or ANISOU diagonal and a
    repeated serial raise ValueError; malformed fields raise
    :class:`PdbParseError`.
    """
    lines, serials, residue_seqs, xyz, b_iso, b_aniso = [], [], [], [], [], {}
    last_serial: int | None = None  # serial of the most recent ATOM line, kept or skipped
    last_kept = in_model = False
    for lineno, line in numbered_lines:
        record = line[:6].strip()
        if record == "ENDMDL" and in_model:
            break
        in_model |= record == "MODEL"
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
            b_aniso[len(serials) - 1] = b_axes
    _require_unique(serials)
    return lines, serials, residue_seqs, xyz, b_iso, b_aniso


def former_structure(numbered_lines) -> Structure:
    """The atoms of one model, with placeholder parameters (radius 1.7 A)."""
    lines, serials, residue_seqs, xyz, b_iso, aniso = former_read_model(numbered_lines)
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


def former_parse_pdb_models(text: str) -> tuple[Structure, np.ndarray]:
    """Parse a multi-MODEL PDB into its first model and every model's coordinates.

    Returns ``(first, coords)``: the first model as a Structure and an
    (m, n, 3) array with the coordinates of all m models in file order
    (``coords[0]`` is the first model's).  A file without MODEL records is
    one model.  Every model gets the checks of :func:`parse_pdb`; later
    models keep only their coordinates.  Raises :class:`PdbParseError`,
    naming the MODEL record's line, when a MODEL has no ENDMDL or a later
    model does not list the first model's serials in the same order.
    """
    numbered = list(enumerate(text.splitlines(), start=1))
    blocks: list[tuple[int, list[tuple[int, str]]]] = []  # (MODEL line, numbered lines)
    current = None
    for lineno, line in numbered:
        record = line[:6].strip()
        if record == "MODEL":
            if current is not None:
                raise PdbParseError(f"line {current[0]}: MODEL without ENDMDL")
            current = (lineno, [])
            blocks.append(current)
        elif record == "ENDMDL":
            current = None
        elif current is not None:
            current[1].append((lineno, line))
    if current is not None:
        raise PdbParseError(f"line {current[0]}: MODEL without ENDMDL")
    first = former_structure(blocks[0][1] if blocks else numbered)
    coords = np.empty((max(len(blocks), 1), first.n_atoms, 3))
    coords[0] = first.coords
    want = first.serials.tolist()
    for k, (lineno, block) in enumerate(blocks[1:], start=2):
        _, serials, _, xyz, _, _ = former_read_model(block)
        if serials != want:
            pair = next(((got, ok) for got, ok in zip(serials, want) if got != ok), None)
            what = (f"serial {pair[0]} where model 1 lists serial {pair[1]}" if pair
                    else f"{len(serials)} atoms where model 1 lists {len(want)}")
            raise PdbParseError(f"line {lineno}: model {k} lists {what}")
        coords[k - 1] = xyz
    return first, coords


def former_atom_lines(s: Structure):
    """Columns 7-26 of each atom's records (serial, name, residue, chain,
    number; shared by ATOM and ANISOU) and a function rendering the ATOM
    records at given positions.  Only the coordinates are formatted per model."""
    ids = [
        f"{_int_col(serial, 5, 'serial')} {_format_atom_name(name, element)} "
        f"{residue:>3s} {chain}{_int_col(seq, 4, 'residue number')}"
        for serial, name, element, residue, chain, seq in zip(
            s.serials.tolist(), s.names.tolist(), s.elements.tolist(),
            s.residue_names.tolist(), s.chain_ids.tolist(), s.residue_seqs.tolist())
    ]
    tails = [f"{1.0:6.2f}{b:6.2f}          {element:>2s}"
             for b, element in zip(s.b_iso.tolist(), s.elements.tolist())]

    def at(positions) -> list[str]:
        return [f"ATOM  {atom_id}    {_coord(x)}{_coord(y)}{_coord(z)}{tail}"
                for atom_id, (x, y, z), tail in zip(ids, positions.tolist(), tails)]

    return ids, at


def former_write_pdb_models(s: Structure, positions_list, model_numbers=None) -> str:
    """Render an ensemble as a multi-MODEL PDB sharing ``s``'s atom metadata."""
    if model_numbers is None:
        model_numbers = range(1, len(positions_list) + 1)
    _, atom_lines = former_atom_lines(s)
    lines = []
    for num, positions in zip(model_numbers, positions_list):
        positions = np.asarray(positions, dtype=float)
        if positions.shape != (s.n_atoms, 3) or not np.all(np.isfinite(positions)):
            raise ValueError(f"model {num}: expected ({s.n_atoms}, 3) finite positions, "
                             f"got shape {positions.shape}")
        lines.append(f"MODEL     {num:4d}")
        lines.extend(atom_lines(positions))
        lines.append("ENDMDL")
    lines.append("END")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- reader

COLUMNS = ("serials", "names", "elements", "residue_names", "residue_seqs", "chain_ids",
           "coords", "b_iso", "b_aniso", "has_aniso", "charges", "radii", "lj_a", "lj_b")


def outcome(fn, *args):
    """The function's result, or (error class, message) when it raises one of
    the readers' and writers' errors (all ValueError subclasses)."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def assert_same_parse(text):
    got, want = outcome(parse_pdb_models, text), outcome(former_parse_pdb_models, text)
    if isinstance(want[0], type):
        assert got == want
        return want
    (first, coords), (first_0, coords_0) = got, want
    for name in COLUMNS:
        a, b = getattr(first, name), getattr(first_0, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert first.bonds == first_0.bonds
    assert coords.shape == coords_0.shape and coords.tobytes() == coords_0.tobytes()
    return want


@pytest.fixture
def reads(monkeypatch):
    """Counts the models that go through the per-line reader."""
    calls = []

    def counted(numbered_lines):
        calls.append(1)
        return reader(numbered_lines)

    reader = molio._read_model
    monkeypatch.setattr(molio, "_read_model", counted)
    return calls


def lattice_models(n_atoms, n_models, seed, sigma=0.5):
    pos, owner = gen.lattice(n_atoms)
    rng = np.random.default_rng(seed)
    chains = ["A" if c < (max(owner) + 1) // 2 else "B" for c in owner]
    models = [pos + rng.normal(0.0, sigma, pos.shape) for _ in range(n_models)]
    return gen.pdb_text(None, chains, models=models)


def ligand_models(seed):
    rng = np.random.default_rng(seed)
    base = gen.zigzag(12)
    models = [base + rng.uniform(-0.2, 0.2, base.shape) for _ in range(6)]
    return gen.pdb_text(None, ["L"] * 12, residue_name="LIG", models=models)


def record(serial, xyz, record="ATOM", altloc=" ", b="  20.00", name=" CA ", element=" C"):
    fields = "".join(x if isinstance(x, str) else f"{x:8.3f}" for x in xyz)
    return (f"{record:<6s}{serial:5d} {name}{altloc}GLY A{serial:4d}    {fields}"
            f"  1.00{b}          {element}")


def anisou(serial, u=(2500, 1200, 800)):
    return (f"ANISOU{serial:5d}  CA  GLY A{serial:4d}  "
            f"{u[0]:7d}{u[1]:7d}{u[2]:7d}{0:7d}{0:7d}{0:7d}       C")


def ensemble(bodies, numbers=None, newline="\n", between=()):
    lines = []
    for k, body in enumerate(bodies, start=1):
        lines.append(f"MODEL     {k if numbers is None else numbers[k - 1]:4d}")
        lines.extend(body)
        lines.append("ENDMDL")
        lines.extend(between)
    return newline.join(lines + ["END"]) + newline


def shifted(rows, k):
    """Three-atom model k: the coordinates move with k, nothing else does."""
    return [(0.25 * k + 1.0, -3.5 + k, 12.0 - 0.125 * k), (4.0 + k, 0.5, -0.75 * k),
            (8.0, 1.0 + 0.5 * k, 2.0)][:rows]


def test_lattice_ensemble_reads_later_models_as_arrays(reads):
    text = lattice_models(1000, 5, seed=3)
    assert_same_parse(text)
    reads.clear()
    parse_pdb_models(text)
    assert len(reads) == 1  # only the first model went line by line


def test_ligand_with_ter_in_every_model(reads):
    text = ligand_models(5)
    assert text.count("TER") == 6
    assert_same_parse(text)
    reads.clear()
    parse_pdb_models(text)
    assert len(reads) == 1


def test_crlf_line_endings(reads):
    text = lattice_models(60, 4, seed=4).replace("\n", "\r\n")
    assert_same_parse(text)
    reads.clear()
    parse_pdb_models(text)
    assert len(reads) == 1
    # one later model with other line endings repeats no bytes of the first
    lines = lattice_models(60, 4, seed=4).split("\n")
    mixed = "\r\n".join(lines[:130]) + "\r\n" + "\n".join(lines[130:])
    assert_same_parse(mixed)


@pytest.mark.parametrize("same_b_rows", [True, False])
def test_altloc_b_rows(same_b_rows):
    bodies = []
    for k in range(4):
        body = []
        for serial, xyz in enumerate(shifted(3, k), start=1):
            body.append(record(serial, xyz, altloc="A"))
            b_xyz = (1.0, 2.0, 3.0) if same_b_rows else (1.0 + k, 2.0, 3.0)
            body.append(record(serial, b_xyz, altloc="B"))
        bodies.append(body)
    assert_same_parse(ensemble(bodies))


@pytest.mark.parametrize("later_u", [(2500, 1200, 800), (2500, 1201, 800), (2500, -5, 800)])
def test_anisou_rows_in_later_models(later_u):
    bodies = []
    for k in range(3):
        body = []
        for serial, xyz in enumerate(shifted(3, k), start=1):
            body += [record(serial, xyz), anisou(serial, (2500, 1200, 800) if k == 0 else later_u)]
        bodies.append(body)
    assert_same_parse(ensemble(bodies))


def test_hetatm_records():
    bodies = [[record(s, xyz, record="HETATM", name=" O  ", element=" O")
               for s, xyz in enumerate(shifted(3, k), start=1)] for k in range(4)]
    assert_same_parse(ensemble(bodies))


@pytest.mark.parametrize("b", ["      ", "", "  -0.5"])
def test_blank_b_column(b):
    bodies = [[record(s, xyz, b=b)[:54 if b == "" else None] for s, xyz
               in enumerate(shifted(3, k), start=1)] for k in range(3)]
    assert_same_parse(ensemble(bodies))


def test_full_width_fields_and_negative_zero(reads):
    bodies = [[record(1, (-999.999, 9999.999, -0.0)), record(2, ("  -0.000", 0.0, "-999.999")),
               record(3, (-0.0004, 1e-4, 9999.9994))]]
    bodies += [[record(1, (9999.999, -999.999, 0.0)), record(2, (-0.0, "   +.500", "12345678")),
                record(3, ("-1234567", "   5.   ", "00012.50"))]]
    first, coords = assert_same_parse(ensemble(bodies))
    reads.clear()
    parse_pdb_models(ensemble(bodies))
    assert len(reads) == 1
    assert math.copysign(1.0, coords[0, 0, 2]) == -1.0
    assert math.copysign(1.0, coords[1, 1, 0]) == -1.0
    assert coords[1, 2].tolist() == [-1234567.0, 5.0, 12.5]


def test_non_ascii_remark_keeps_later_models_on_the_array_path(reads):
    bodies = [[record(s, xyz) for s, xyz in enumerate(shifted(3, k), start=1)] for k in range(3)]
    text = "REMARK   1 Å-scale ensemble\n" + ensemble(bodies)
    assert_same_parse(text)
    reads.clear()
    parse_pdb_models(text)
    assert len(reads) == 1  # the models themselves are ASCII


def test_non_ascii_first_model_reads_line_by_line(reads):
    # byte columns are the per-line reader's character columns only in ASCII
    # full-width fields that still read as numbers when taken a byte early
    bodies = [[record(1, (1234.567 + k, 2345.678, 3456.789 + 10 * k), name=" CÅ "),
               record(2, (4.0, 0.5, 1.0 + k))] for k in range(3)]
    text = ensemble(bodies)
    assert_same_parse(text)
    reads.clear()
    parse_pdb_models(text)
    assert len(reads) == 3


@pytest.mark.parametrize("field", [
    "1.2.3   ", "  1 2.00", "        ", "--1.000 ", "   +    ", "   .    ", "  1.5e3 ",
    "     nan", " 1_000.0", "  -1.-00", "   1.0- ", "+-1.0000",
])
def test_unreadable_later_field_goes_line_by_line(field, reads):
    bodies = [[record(s, xyz) for s, xyz in enumerate(shifted(3, k), start=1)] for k in range(4)]
    bodies[3][1] = record(2, (1.0, field, 2.0))
    assert_same_parse(ensemble(bodies))


@pytest.mark.parametrize("template", ["  -1.250", "12345678", "   5.   "])
def test_any_ascii_byte_in_a_later_field_reads_as_line_by_line(template):
    # numpy's cast reads NULs (as padding) and line breaks (as blanks) where
    # the per-line reader does not
    bodies = [[record(s, xyz) for s, xyz in enumerate(shifted(3, k), start=1)] for k in range(4)]
    for byte in range(128):
        for col in range(8):
            field = template[:col] + chr(byte) + template[col + 1:]
            bodies[2][1] = record(2, (1.0, field, 2.0))
            assert_same_parse(ensemble(bodies))


@pytest.mark.parametrize("field", [
    "1.000\x00\x00\x00", "   1.00\x00", "\x00\x00\x00\x001.00", "\x00  1.000", "\t  1.000",
    "  1.000\t",
    "     nan", "    -inf", "     inf", "   1e400", " 1_000.0", "  1.5E3 ",
])
def test_later_model_falls_back_on_control_bytes_and_non_finite_values(field, reads):
    # a model with a control byte (NUL, tab) or a non-finite value in its
    # fields goes line by line; other numbers float() reads are cast
    bodies = [[record(s, xyz) for s, xyz in enumerate(shifted(3, k), start=1)] for k in range(4)]
    bodies[3][1] = record(2, (1.0, field, 2.0))
    text = ensemble(bodies)
    assert_same_parse(text)
    reads.clear()
    outcome(parse_pdb_models, text)
    numeric = field in (" 1_000.0", "  1.5E3 ")  # finite numbers both read
    assert len(reads) == (1 if numeric else 2)


def test_model_structure_variants():
    bodies = [[record(s, xyz) for s, xyz in enumerate(shifted(3, k), start=1)] for k in range(4)]
    assert_same_parse(ensemble(bodies, numbers=[1, 20, 300, 4000]))
    assert_same_parse(ensemble(bodies, between=["REMARK   1 between models"]))
    assert_same_parse(ensemble(bodies).removesuffix("END\n").removesuffix("\n"))
    assert_same_parse(ensemble(bodies[:1] + [bodies[1][:2]] + bodies[2:]))
    swapped = [bodies[0], bodies[1], [bodies[2][0], bodies[2][2], bodies[2][1]], bodies[3]]
    assert_same_parse(ensemble(swapped))
    text = ensemble(bodies).split("\n")
    del text[-8]  # the third model loses its ENDMDL
    assert isinstance(assert_same_parse("\n".join(text))[0], type)
    assert_same_parse("\n".join(record(s, xyz) for s, xyz in enumerate(shifted(3, 0), 1)))
    assert_same_parse("")


# ---------------------------------------------------------------- writer

def lattice_structure(n_atoms, seed):
    rng = np.random.default_rng(seed)
    pos = lattice(n_atoms) + rng.uniform(-0.02, 0.02, (n_atoms, 3))
    return make_structure(pos, element=["C", "N", "O", "S", "C"] * (n_atoms // 5),
                          b_iso=rng.uniform(0.0, 99.0, n_atoms),
                          chain=["A" if i < n_atoms // 2 else "B" for i in range(n_atoms)],
                          residue_seq=np.arange(n_atoms) // 5 + 1, residue_name="LAT")


def test_writer_matches_former_text():
    s = lattice_structure(200, 6)
    rng = np.random.default_rng(6)
    frames = [s.positions() + rng.normal(0.0, 0.4, (200, 3)) for _ in range(4)]
    edge = s.positions()
    edge[:6] = [[-999.999, 9999.999, -0.0], [-0.0004, 0.0004, 9999.9994],
                [-999.9994, 0.0, -0.0005], [1e-12, -1e-12, 5.0005],
                [2.5e-4, -2.5e-4, 1234.5675], [0.1, 0.2, 0.3]]
    frames.append(edge)
    assert models_text(s, frames) == former_write_pdb_models(s, frames)
    numbers = [7, 70, 700, 7000, 70000]
    assert models_text(s, frames, numbers) == former_write_pdb_models(s, frames, numbers)
    assert models_text(s, []) == former_write_pdb_models(s, []) == "END\n"
    empty = make_structure(np.zeros((0, 3)))
    assert models_text(empty, [np.zeros((0, 3))] * 2) == former_write_pdb_models(
        empty, [np.zeros((0, 3))] * 2)


def test_writer_escapes_percent_in_names():
    s = make_structure([[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]], name=["%s", "C%"],
                       residue_name="%d%")
    frames = [s.positions(), s.positions() + 0.5]
    assert models_text(s, frames) == former_write_pdb_models(s, frames)


@pytest.mark.parametrize("value", [10000.0, -1000.0, 1e300, 9999.9995, -999.9995])
def test_writer_overflow_raises_former_error(value):
    s = lattice_structure(20, 7)
    bad = s.positions()
    bad[13, 1] = value
    frames = [s.positions(), bad, s.positions() + [[1e6, 0.0, 0.0]]]
    got = outcome(models_text, s, frames)
    assert got == outcome(former_write_pdb_models, s, frames)
    assert got[0] is PdbFormatError


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(lambda m: st.lists(
    st.floats(min_value=-999.999, max_value=9999.999), min_size=6 * m, max_size=6 * m)))
def test_round_trip_gives_rounded_coordinates(values):
    frames = np.array(values).reshape(-1, 2, 3)
    s = make_structure(np.zeros((2, 3)))
    text = models_text(s, frames)
    assert text == former_write_pdb_models(s, frames)
    _, coords = parse_pdb_models(text)
    want = np.array([float(f"{v:8.3f}") for v in values]).reshape(frames.shape)
    assert coords.tobytes() == want.tobytes()
