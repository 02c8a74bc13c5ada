"""The byte-level PDB reader, the streamed writer and the prefix read of the
Sobol table against verbatim copies of the code they replaced, plus
tracemalloc guards on what each holds in memory.

``parse_pdb_models`` reads the file's bytes and decodes only the first model
and the models that fall back to the per-line reader; ``write_pdb_models``
writes a block of atoms at a time into an open file.  On every input below,
valid or malformed, they must give what the former text-based code gave: the
same first-model columns, bit-equal coordinates and byte-equal text, or the
same error class and message.
"""

import importlib.util
import itertools
import os
import tracemalloc

import numpy as np
import pytest

from moluq import molio, sampling
from moluq.cli import _text
from moluq.molio import (
    PdbFormatError,
    PdbParseError,
    Structure,
    _atom_lines,
    _read_model,
    _structure,
    serial_mismatch,
)
from conftest import make_structure, models_text
from test_model_io import (
    COLUMNS,
    anisou,
    ensemble,
    lattice_models,
    lattice_structure,
    ligand_models,
    outcome,
    record,
    shifted,
)
from test_pdb_input import FAULTS, STRAY_RECORDS, ensemble_text, model_lines


# ---------------------------------------------------------------- former code, verbatim

def prior_model_blocks(text: str):
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
    marked = np.searchsorted(starts, [*prior_offsets(text, "MODEL"),
                                      *prior_offsets(text, "ENDMDL")], side="right") - 1
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
        for lineno, line in prior_numbered(text, starts, lo, hi):
            record = line[:6].strip()
            if record in ("ATOM", "HETATM", "ANISOU"):
                raise PdbParseError(f"line {lineno}: {record} record outside every "
                                    "MODEL/ENDMDL block")
    return starts, blocks


def prior_numbered(text: str, starts, lo: int, hi: int):
    """(line number, line) of the lines with index lo to hi - 1 (see
    :func:`prior_model_blocks`)."""
    return enumerate(text[starts[lo]:starts[hi]].splitlines(), start=lo + 1)


def prior_first_model_lines(text: str, starts, blocks):
    """(line number, line) of the first model: the first block's body, or
    every line of a text without MODEL records."""
    if blocks:
        return prior_numbered(text, starts, *blocks[0][1:])
    return enumerate(text.splitlines(), start=1)


def prior_offsets(text: str, word: str):
    at = text.find(word)
    while at >= 0:
        yield at
        at = text.find(word, at + 1)


def prior_cast_fields(fields: np.ndarray) -> np.ndarray | None:
    """float64 of each 8-byte field on the last axis of the uint8 ``fields``,
    by numpy's bytes-to-float cast; None when it cannot read one of them."""
    try:
        return fields.view("S8")[..., 0].astype(np.float64)
    except ValueError:
        return None


def prior_later_coords(text: str, starts: np.ndarray, blocks, kept: list[int]):
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
    values = prior_cast_fields(fields)
    if values is None:  # some field is no number: find the models that hold one
        values = [prior_cast_fields(f) for f in fields]
    control = (fields < 0x20).any(axis=(1, 2, 3))
    return {k: v for (k, _), v, bad in zip(same, values, control)
            if not bad and v is not None and np.isfinite(v).all()}


def prior_parse_pdb_models(text: str) -> tuple[Structure, np.ndarray]:
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
    starts, blocks = prior_model_blocks(text)
    model = _read_model(prior_first_model_lines(text, starts, blocks))
    first = _structure(model)
    coords = np.empty((max(len(blocks), 1), first.n_atoms, 3))
    coords[0] = first.coords
    fast = prior_later_coords(text, starts, blocks, model[0]) if len(blocks) > 1 else {}
    want = first.serials.tolist()
    for k, block in enumerate(blocks[1:], start=1):
        if k in fast:
            coords[k] = fast[k]
            continue
        _, _, serials, _, xyz, _, _ = _read_model(prior_numbered(text, starts, *block[1:]))
        if serials != want:
            raise PdbParseError(f"line {block[0] + 1}: model {k + 1} lists "
                                + serial_mismatch(serials, want, "model 1"))
        coords[k] = xyz
    return first, coords


def _atom_records(ids, tails, positions) -> list[str]:
    """The ATOM records at the given (n, 3) positions, one coordinate at a
    time; raises :class:`PdbFormatError` at the first that overflows (the
    per-atom path the writer once fell back to, verbatim)."""
    def coord(value: float) -> str:
        text = f"{value:8.3f}"
        if len(text) > 8:
            raise PdbFormatError(f"coordinate {value} does not fit fixed-column format")
        return text

    return [f"ATOM  {atom_id}    {coord(x)}{coord(y)}{coord(z)}{tail}"
            for atom_id, (x, y, z), tail in zip(ids, positions.tolist(), tails)]


def prior_write_pdb_models(s: Structure, positions_list, model_numbers=None) -> str:
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




# ---------------------------------------------------------------- reader

def same_result(got, want):
    if isinstance(want[0], type):
        assert got == want
        return
    (first, coords), (first_0, coords_0) = got, want
    for name in COLUMNS:
        a, b = getattr(first, name), getattr(first_0, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert first.bonds == first_0.bonds
    assert coords.shape == coords_0.shape and coords.tobytes() == coords_0.tobytes()


def assert_reads_as_before(text: str):
    """The reader on ``text`` and on its UTF-8 bytes gives what the former
    reader gave on ``text``; on the bytes of a file, what the former CLI
    gave, which read the file in text mode (universal newlines)."""
    want = outcome(prior_parse_pdb_models, text)
    same_result(outcome(molio.parse_pdb_models, text), want)
    data = text.encode("utf-8")
    same_result(outcome(molio.parse_pdb_models, data), want)
    same_result(outcome(molio.parse_pdb_models, data),
                outcome(prior_parse_pdb_models, _text(data)))


def three_atom_models(count=4):
    return [[record(s, xyz) for s, xyz in enumerate(shifted(3, k), start=1)]
            for k in range(count)]


def malformed_texts():
    """The malformed inputs of test_model_io.py and test_pdb_input.py."""
    texts = []
    for fault in sorted(FAULTS):
        for where in range(3):
            texts.append(ensemble_text([model_lines(float(k), fault=fault if k == where else None)
                                        for k in range(3)]))
        texts.append("\n".join(model_lines(fault=fault)) + "\n")
    for dropped in (1, 2, 3):
        texts.append(ensemble_text([model_lines(float(k)) for k in range(3)],
                                   drop_endmdl=(dropped,)))
    texts.append(ensemble_text([model_lines(), model_lines(1.0, serials=(1, 3, 2))]))
    texts.append(ensemble_text([model_lines(), model_lines(1.0)[:2]]))
    texts.append(ensemble_text([model_lines(), model_lines(1.0, serials=(4, 5, 6))]))
    texts += ["\n".join(lines) + "\n" for lines, _ in STRAY_RECORDS.values()]
    bodies = three_atom_models()
    for field in ("1.2.3   ", "     nan", "1.000\x00\x00\x00", "\t  1.000", "   1e400"):
        spoilt = [list(body) for body in bodies]
        spoilt[3][1] = record(2, (1.0, field, 2.0))
        texts.append(ensemble(spoilt))
    for later_u in ((2500, 1201, 800), (2500, -5, 800)):
        texts.append(ensemble([[line for serial, xyz in enumerate(shifted(3, k), start=1)
                                for line in (record(serial, xyz),
                                             anisou(serial, later_u if k else (2500, 1200, 800)))]
                               for k in range(3)]))
    text = ensemble(bodies).split("\n")
    del text[-8]
    texts.append("\n".join(text))
    return texts


MALFORMED = malformed_texts()


@pytest.mark.parametrize("case", range(len(MALFORMED)))
def test_malformed_inputs_fail_as_before(case):
    assert_reads_as_before(MALFORMED[case])


BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028",
          "\u2029"]


@pytest.mark.parametrize("newline", BREAKS)
def test_every_line_break_of_splitlines(newline):
    text = lattice_models(60, 4, seed=4)
    assert_reads_as_before(text.replace("\n", newline))
    # the last line without a break
    assert_reads_as_before(text.replace("\n", newline).removesuffix(newline))
    assert_reads_as_before(ligand_models(5).replace("\n", newline))


def test_mixed_line_breaks():
    lines = lattice_models(40, 3, seed=2).split("\n")
    text = "".join(line + BREAKS[i % len(BREAKS)] for i, line in enumerate(lines))
    assert_reads_as_before(text)


@pytest.mark.parametrize("model", [0, 2])
@pytest.mark.parametrize("byte", ["\x00", "\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028"])
def test_nul_or_line_break_inside_a_coordinate_field(model, byte):
    bodies = three_atom_models()
    bodies[model][1] = record(2, (1.0, f"  1.{byte}50", 2.0))
    assert_reads_as_before(ensemble(bodies))


@pytest.mark.parametrize("where", ["remark", "every model", "model 3", "field"])
def test_non_ascii_text(where):
    bodies = three_atom_models()
    text = ensemble(bodies)
    if where == "remark":
        text = "REMARK   1 Å-scale ensemble\n" + text
    elif where == "field":
        # two bytes in the field: the bytes outside it match model 1's
        bodies[2][1] = record(2, (1.0, "  1.0Å ", 2.0))
        text = ensemble(bodies)
        assert len(text.encode()) == len(ensemble(three_atom_models()).encode())
    else:
        # a two-byte character before the x column, then full-width fields
        # that still read as numbers when taken a byte early
        for k in (range(4) if where == "every model" else [2]):
            bodies[k][0] = record(1, (1234.567 + k, 2345.678, 3456.789 + 10 * k), name=" CÅ ")
        text = ensemble(bodies)
    assert_reads_as_before(text)


def test_later_models_read_from_the_bytes_decode_nothing(monkeypatch):
    # only model 1 (and the MODEL/ENDMDL lines, and the text outside the
    # models) is decoded; the other 31 models are cast from the bytes
    text = lattice_models(200, 32, seed=8)
    data = text.encode()
    decoded = []
    numbered = molio._numbered
    monkeypatch.setattr(molio, "_numbered", lambda data, starts, lo, hi: decoded.append(
        hi - lo) or numbered(data, starts, lo, hi))
    same_result(molio.parse_pdb_models(data), prior_parse_pdb_models(text))
    body = text.split("MODEL", 2)[1].count("\n") - 2  # model 1's ATOM and TER lines
    assert sorted(decoded)[-1] == body
    assert sum(decoded) == body + 2 * 32 + 1  # MODEL and ENDMDL lines, then END


def test_str_and_bytes_read_alike():
    text = "REMARK   1 Å\n" + lattice_models(50, 3, seed=9)
    same_result(molio.parse_pdb_models(text), molio.parse_pdb_models(text.encode()))
    first = molio.parse_pdb(text)
    second = molio.parse_pdb(text.encode())
    for name in COLUMNS:
        assert np.array_equal(getattr(first, name), getattr(second, name))


@pytest.mark.parametrize("reader", [molio.parse_pdb, molio.parse_pdb_models])
@pytest.mark.parametrize("bad, reason", [
    (b"\xe9", "invalid continuation byte"),
    (b"\xff", "invalid start byte"),
    (b"\xe2\x82", "invalid continuation byte"),
])
def test_bytes_that_are_not_utf8_are_named_by_offset(reader, bad, reason):
    text = ensemble(three_atom_models()).encode()
    at = text.index(b"\n") + 1 + 72  # column 73 of model 1's first ATOM line
    with pytest.raises(UnicodeDecodeError) as err:
        reader(text[:at] + bad + text[at + len(bad):])
    assert (err.value.start, err.value.reason) == (at, reason)


def test_a_character_cut_by_a_decoded_chunk_is_whole(monkeypatch):
    monkeypatch.setattr(molio, "_SCAN_BYTES", 7)
    for pad in range(7):  # the 4-byte character at every place against the chunks
        text = "REMARK   1 " + "x" * pad + "Å€😀\n" + ensemble(three_atom_models())
        same_result(molio.parse_pdb_models(text.encode()), prior_parse_pdb_models(text))
        data = text.encode()
        at = data.index("😀".encode())
        with pytest.raises(UnicodeDecodeError) as err:
            molio.parse_pdb_models(data[:at + 2] + b"A" + data[at + 3:])
        assert err.value.start == at


# ---------------------------------------------------------------- writer

def test_writer_joined_equals_former_text():
    s = lattice_structure(700, 6)  # three blocks of atoms, the last one short
    rng = np.random.default_rng(6)
    frames = [s.positions() + rng.normal(0.0, 0.4, s.coords.shape) for _ in range(3)]
    assert models_text(s, frames) == prior_write_pdb_models(s, frames)
    assert models_text(s, frames, [5, 50, 500]) == prior_write_pdb_models(s, frames, [5, 50, 500])
    assert models_text(s, []) == prior_write_pdb_models(s, [])
    empty = make_structure(np.zeros((0, 3)))
    frames = [np.zeros((0, 3))] * 2
    assert models_text(empty, frames) == prior_write_pdb_models(empty, frames)


@pytest.mark.parametrize("atom", [0, 255, 256, 699])
@pytest.mark.parametrize("value", [10000.0, -1000.0, 9999.9995, -999.9995, np.nan, np.inf])
def test_writer_errors_match_former(atom, value):
    s = lattice_structure(700, 7)
    bad = s.positions()
    bad[atom, 2] = value
    bad[650, 0] = -2000.0  # a later overflow, in another block
    frames = [s.positions(), bad]
    want = outcome(prior_write_pdb_models, s, frames)
    assert isinstance(want[0], type)
    assert outcome(models_text, s, frames) == want
    assert outcome(models_text, s, [s.positions(), s.positions()[:-1]]) == outcome(
        prior_write_pdb_models, s, [s.positions(), s.positions()[:-1]])


def test_writer_metadata_errors_match_former():
    s = make_structure(np.zeros((300, 3)), serials=np.arange(99_800, 100_100))
    assert outcome(models_text, s, [s.positions()]) == outcome(prior_write_pdb_models, s,
                                                               [s.positions()])


def test_writer_writes_a_block_at_a_time():
    s = lattice_structure(1000, 4)
    writes = []

    class Recorder:
        def write(self, text):
            writes.append(len(text))

    molio.write_pdb_models(s, [s.positions()] * 3, Recorder())
    assert max(writes) < len(prior_write_pdb_models(s, [s.positions()])) / 3


# ---------------------------------------------------------------- Sobol table

def test_direction_table_reads_what_np_load_gives():
    root = importlib.util.find_spec("scipy").submodule_search_locations[0]
    path = os.path.join(root, "stats", "_sobol_direction_numbers.npz")
    with np.load(path) as table:
        poly, vinit = table["poly"], table["vinit"]
    for d in (1, 2, 127, 128, 129, 3000, 21201):
        got_poly, got_vinit = sampling._direction_table(d)
        assert got_poly.dtype == poly.dtype and np.array_equal(got_poly, poly[:d])
        assert got_vinit.dtype == vinit.dtype and np.array_equal(got_vinit, vinit[:d])


# ---------------------------------------------------------------- memory

def traced_peak(fn):
    """Peak traced bytes above what was live when ``fn`` started."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_reading_an_ensemble_holds_its_file_less_than_twice(tmp_path):
    path = tmp_path / "ensemble.pdb"
    path.write_text(lattice_models(1000, 32, seed=3))
    peak = traced_peak(lambda: molio.parse_pdb_models(path.read_bytes()))
    assert peak < 2 * path.stat().st_size


def test_writing_an_ensemble_holds_a_tenth_of_the_file(tmp_path):
    s = lattice_structure(1000, 5)
    rng = np.random.default_rng(5)
    frames = s.positions() + rng.normal(0.0, 0.5, (32, 1000, 3))
    path = tmp_path / "ensemble.pdb"

    def write():
        with open(path, "w", encoding="utf-8") as fh:
            molio.write_pdb_models(s, frames, fh)

    peak = traced_peak(write)
    assert peak < path.stat().st_size / 10


def test_a_3000_dimension_stream_builds_in_under_2_mib():
    assert traced_peak(lambda: sampling.LowDiscrepancySequence(3000, 1)) < 2 * 2**20
