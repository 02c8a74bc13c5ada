"""Input checks of the PDB readers, alone and through the CLI.

A fault in a single-model file or in a later MODEL of an ensemble must stop
the run with the same error class, message and exit code: a non-finite
coordinate, a negative or non-finite B column, a negative or non-finite
ANISOU diagonal and a duplicate serial are domain errors (exit 3); a MODEL
with no ENDMDL and a model that lists other atoms than the first are parse
errors (exit 2).
"""

import json

import numpy as np
import pytest

from moluq import molio
from moluq.cli import main
from moluq.molio import PdbParseError, parse_pdb, parse_pdb_models

POSITIONS = [[0.0, 0.0, 0.0], [4.0, 0.0, 0.0], [8.0, 0.0, 0.0]]


def atom_line(serial, xyz, b=10.0, element="C"):
    x, y, z = xyz
    return (f"ATOM  {serial:5d}  {element:<3s} GLY A{serial:4d}    "
            f"{x:>8s}{y:>8s}{z:>8s}  1.00{b:6.2f}          {element:>2s}")


def anisou_line(serial, u=(2500, 2500, 2500), element="C"):
    return (f"ANISOU{serial:5d}  {element:<3s} GLY A{serial:4d}  "
            f"{u[0]:>7}{u[1]:>7}{u[2]:>7}{0:7d}{0:7d}{0:7d}      {element:>2s}")


def model_lines(shift=0.0, serials=(1, 2, 3), fault=None):
    """ATOM (+ ANISOU) records of one model; ``fault`` spoils atom 2."""
    lines = []
    for serial, pos in zip(serials, POSITIONS):
        xyz = [f"{v + shift:.3f}" for v in pos]
        b = 10.0
        if serial == 2 and fault in ("nan", "inf"):
            xyz[1] = fault
        if serial == 2 and fault in ("negative_b", "nan_b", "inf_b"):
            b = {"negative_b": -5.0, "nan_b": float("nan"), "inf_b": float("inf")}[fault]
        lines.append(atom_line(3 if serial == 2 and fault == "duplicate" else serial, xyz, b))
        if serial == 2 and fault == "negative_anisou":
            lines.append(anisou_line(serial, (2500, -100, 2500)))
        if serial == 2 and fault == "nan_anisou":
            lines.append(anisou_line(serial, (2500, "nan", 2500)))
    return lines


def ensemble_text(models, drop_endmdl=()):
    lines = []
    for k, body in enumerate(models, start=1):
        lines.append(f"MODEL     {k:4d}")
        lines.extend(body)
        if k not in drop_endmdl:
            lines.append("ENDMDL")
    return "\n".join(lines + ["END"]) + "\n"


# fault -> message of today's ValueError (exit 3); atom 2 carries the fault
FAULTS = {
    "nan": "atom 2: position must be a finite 3-vector",
    "inf": "atom 2: position must be a finite 3-vector",
    "negative_b": "atom 2: b_iso must be >= 0",
    "negative_anisou": "atom 2: b_aniso must be 3 non-negative values",
    "nan_b": "atom 2: b_iso must be finite",
    "inf_b": "atom 2: b_iso must be finite",
    "nan_anisou": "atom 2: b_aniso must be finite",
    "duplicate": "atom serials must be unique",
}


def run_qoi(tmp_path, structure_text, ensemble, capsys):
    (tmp_path / "input.pdb").write_text(structure_text)
    (tmp_path / "ensemble.pdb").write_text(ensemble)
    cfg = {"structure": str(tmp_path / "input.pdb"), "ensemble": str(tmp_path / "ensemble.pdb"),
           "qoi": ["area"], "out": str(tmp_path / "run")}
    (tmp_path / "config.json").write_text(json.dumps(cfg))
    capsys.readouterr()
    code = main(["qoi", "--config", str(tmp_path / "config.json")])
    return code, capsys.readouterr().err


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_single_model_fault_rejected(fault, tmp_path, capsys):
    text = "\n".join(model_lines(fault=fault)) + "\n"
    for parse in (parse_pdb, parse_pdb_models):
        with pytest.raises(ValueError) as err:
            parse(text)
        assert err.type is ValueError
        assert str(err.value) == FAULTS[fault]
    good = "\n".join(model_lines()) + "\n"
    code, stderr = run_qoi(tmp_path, text, ensemble_text([model_lines()]), capsys)
    assert (code, stderr) == (3, f"moluq: domain error: {FAULTS[fault]}\n")
    code, stderr = run_qoi(tmp_path, good, text, capsys)
    assert (code, stderr) == (3, f"moluq: domain error: {FAULTS[fault]}\n")


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_second_model_fault_rejected(fault, tmp_path, capsys):
    text = ensemble_text([model_lines(), model_lines(1.0, fault=fault), model_lines(2.0)])
    with pytest.raises(ValueError) as err:
        parse_pdb_models(text)
    assert err.type is ValueError
    assert str(err.value) == FAULTS[fault]
    good = "\n".join(model_lines()) + "\n"
    code, stderr = run_qoi(tmp_path, good, text, capsys)
    assert (code, stderr) == (3, f"moluq: domain error: {FAULTS[fault]}\n")


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_last_model_fault_rejected(fault, tmp_path, capsys, monkeypatch):
    # models 2-4 repeat model 1's text but for the coordinates, so they are read
    # as arrays; the spoilt last model falls back to the per-line reader
    models = [model_lines(float(k)) for k in range(4)] + [model_lines(4.0, fault=fault)]
    text = ensemble_text(models)
    reads = []
    reader = molio._read_model
    monkeypatch.setattr(molio, "_read_model", lambda lines: reads.append(1) or reader(lines))
    with pytest.raises(ValueError) as err:
        parse_pdb_models(text)
    assert err.type is ValueError
    assert str(err.value) == FAULTS[fault]
    assert len(reads) == 2
    good = "\n".join(model_lines()) + "\n"
    code, stderr = run_qoi(tmp_path, good, text, capsys)
    assert (code, stderr) == (3, f"moluq: domain error: {FAULTS[fault]}\n")


@pytest.mark.parametrize("dropped", [3, 2])
def test_model_without_endmdl_rejected(dropped, tmp_path, capsys):
    # three models of three atoms: MODEL records sit on lines 1, 6 and 11
    text = ensemble_text([model_lines(), model_lines(1.0), model_lines(2.0)],
                         drop_endmdl=(dropped,))
    model_line = 1 + 5 * (dropped - 1)
    assert text.splitlines()[model_line - 1].startswith("MODEL")
    message = f"line {model_line}: MODEL without ENDMDL"
    with pytest.raises(PdbParseError) as err:
        parse_pdb_models(text)
    assert str(err.value) == message
    good = "\n".join(model_lines()) + "\n"
    code, stderr = run_qoi(tmp_path, good, text, capsys)
    assert (code, stderr) == (2, f"moluq: data error: {message}\n")


def test_model_with_swapped_serials_rejected(tmp_path, capsys):
    text = ensemble_text([model_lines(), model_lines(1.0, serials=(1, 3, 2))])
    message = "line 6: model 2 lists serial 3 where model 1 lists serial 2"
    with pytest.raises(PdbParseError) as err:
        parse_pdb_models(text)
    assert str(err.value) == message
    good = "\n".join(model_lines()) + "\n"
    code, stderr = run_qoi(tmp_path, good, text, capsys)
    assert (code, stderr) == (2, f"moluq: data error: {message}\n")


def test_model_with_fewer_atoms_rejected():
    text = ensemble_text([model_lines(), model_lines(1.0)[:2]])
    with pytest.raises(PdbParseError, match="line 6: model 2 lists 2 atoms where model 1 lists 3"):
        parse_pdb_models(text)


def test_models_come_back_as_one_coordinate_array():
    text = ensemble_text([model_lines(), model_lines(1.0), model_lines(2.0)])
    first, coords = parse_pdb_models(text)
    assert first.serials.tolist() == [1, 2, 3]
    assert coords.shape == (3, 3, 3)
    for k in range(3):
        np.testing.assert_array_equal(coords[k], np.array(POSITIONS) + k)
    np.testing.assert_array_equal(first.positions(), coords[0])


# one rule for where model 1 is: parse_pdb reads the first MODEL ... ENDMDL
# block of parse_pdb_models' scan, and both reject the same texts
STRAY_RECORDS = {
    # an ATOM before the first MODEL: parse_pdb once read it into model 1
    "atom_before_model": (
        [atom_line(1, ["0.000", "0.000", "0.000"]), "MODEL        1",
         *model_lines(serials=(2, 3, 4)), "ENDMDL", "END"],
        "line 1: ATOM record outside every MODEL/ENDMDL block"),
    # a HETATM after the last ENDMDL: both readers once dropped it
    "hetatm_after_endmdl": (
        ensemble_text([model_lines(), model_lines(1.0)]).splitlines()[:-1]
        + ["HETATM    9  O   HOH A   9       1.000   1.000   1.000  1.00 10.00           O",
           "END"],
        "line 11: HETATM record outside every MODEL/ENDMDL block"),
    # a MODEL without ENDMDL: parse_pdb once read on into the next model
    "model_without_endmdl": (
        ensemble_text([model_lines(), model_lines(1.0)], drop_endmdl=(1,)).splitlines(),
        "line 1: MODEL without ENDMDL"),
}


@pytest.mark.parametrize("case", sorted(STRAY_RECORDS))
def test_both_readers_find_model_1_by_one_rule(case, tmp_path, capsys):
    lines, message = STRAY_RECORDS[case]
    text = "\n".join(lines) + "\n"
    for reader in (parse_pdb, parse_pdb_models):
        with pytest.raises(PdbParseError) as err:
            reader(text)
        assert str(err.value) == message, reader.__name__
    code, stderr = run_qoi(tmp_path, text, ensemble_text([model_lines()]), capsys)
    assert (code, stderr) == (2, f"moluq: data error: {message}\n")


def test_parse_pdb_reads_the_first_block_only(monkeypatch):
    # model 2 lists other atoms, which parse_pdb_models rejects; parse_pdb
    # reads lines 2-4 of model 1 and no later model
    text = ensemble_text([model_lines(), model_lines(1.0, serials=(4, 5, 6))])
    read = []
    reader = molio._read_model
    monkeypatch.setattr(molio, "_read_model",
                        lambda numbered: reader(read.append(list(numbered)) or read[-1]))
    assert parse_pdb(text).serials.tolist() == [1, 2, 3]
    assert [[n for n, _ in lines] for lines in read] == [[2, 3, 4]]
    with pytest.raises(PdbParseError, match="model 2 lists serial 4"):
        parse_pdb_models(text)
