import json
import math

import numpy as np
import pytest

from moluq.molio import (
    EIGHT_PI_SQ,
    ParamLookupError,
    ParamRow,
    ParamTable,
    PdbFormatError,
    PdbParseError,
    assign_params,
    bonded_exclusions,
    detect_bonds,
    parse_pdb,
    parse_pdb_models,
)
from conftest import make_structure, models_text, param_table_json, pdb_text

ATOM_LINE = "ATOM      1  N   ALA A   1      11.104   6.134  -6.504  1.00 20.00           N"
ANISOU_LINE = "ANISOU    1  N   ALA A   1     2500   2500   2500      0      0      0       N"


class TestParsePdb:
    def test_single_atom_fields(self):
        s = parse_pdb(ATOM_LINE)
        assert s.serials[0] == 1
        assert s.elements[0] == "N"
        assert s.residue_names[0] == "ALA"
        assert s.chain_ids[0] == "A"
        np.testing.assert_allclose(s.coords[0], [11.104, 6.134, -6.504])
        assert s.b_iso[0] == 20.0

    def test_anisou_conversion(self):
        s = parse_pdb(ATOM_LINE + "\n" + ANISOU_LINE)
        # U11 = 2500 file units = 0.25 A^2, B = 8 pi^2 * 0.25
        expected = 8.0 * math.pi**2 * 0.25
        np.testing.assert_allclose(s.b_aniso[0], [expected] * 3)
        assert abs(expected - 19.739) < 1e-3

    def test_empty_input(self):
        s = parse_pdb("")
        assert s.n_atoms == 0

    def test_hetatm_parsed_like_atom(self):
        line = "HETATM" + ATOM_LINE[6:]
        s = parse_pdb(line)
        assert s.n_atoms == 1

    def test_altloc_b_skipped(self):
        line = ATOM_LINE[:16] + "B" + ATOM_LINE[17:]
        assert parse_pdb(line).n_atoms == 0
        line_a = ATOM_LINE[:16] + "A" + ATOM_LINE[17:]
        assert parse_pdb(line_a).n_atoms == 1

    def test_short_line_error(self):
        with pytest.raises(PdbParseError, match="line 1"):
            parse_pdb(ATOM_LINE[:40])

    def test_non_numeric_coordinate_error(self):
        bad = ATOM_LINE[:30] + "  xx.xxx" + ATOM_LINE[38:]
        with pytest.raises(PdbParseError, match="non-numeric"):
            parse_pdb(bad)

    def test_orphan_anisou_error(self):
        with pytest.raises(PdbParseError, match="ANISOU"):
            parse_pdb(ANISOU_LINE)

    def test_anisou_serial_mismatch_error(self):
        other = ANISOU_LINE[:6] + "    2" + ANISOU_LINE[11:]
        with pytest.raises(PdbParseError, match="ANISOU"):
            parse_pdb(ATOM_LINE + "\n" + other)

    def test_parse_never_reorders(self):
        lines = []
        for i, serial in enumerate([5, 2, 9]):
            lines.append(
                f"ATOM  {serial:5d}  C   ALA A{i + 1:4d}    "
                f"{float(i):8.3f}{0.0:8.3f}{0.0:8.3f}  1.00  0.00           C"
            )
        s = parse_pdb("\n".join(lines))
        assert s.serials.tolist() == [5, 2, 9]

    def test_chain_partition(self):
        text = "\n".join([
            ATOM_LINE,
            ATOM_LINE[:6] + "    2" + ATOM_LINE[11:21] + "B" + ATOM_LINE[22:],
        ])
        s = parse_pdb(text)
        chains = s.chains
        assert set(chains) == {"A", "B"}
        assert sorted(i for idx in chains.values() for i in idx) == [0, 1]

    @pytest.mark.parametrize("name_field, element", [
        (" CA ", "C"), ("CA  ", "CA"), ("ZN  ", "ZN"), (" OG1", "O"), ("1HB ", "H"),
        (" N  ", "N"), ("HG21", "H"), ("FE  ", "FE"), ("    ", "C"),
    ])
    def test_element_inferred_from_name_columns(self, name_field, element):
        # no element column: the symbol is right-justified in columns 13-14
        line = ATOM_LINE[:12] + name_field + ATOM_LINE[16:66]
        assert parse_pdb(line).elements[0] == element

    def test_alpha_carbon_without_element_column_gets_parameters(self):
        lines = [ATOM_LINE[:12] + name + ATOM_LINE[16:66]
                 for name in (" N  ", " CA ", " C  ", " O  ")]
        lines = [ln[:6] + f"{i + 1:5d}" + ln[11:] for i, ln in enumerate(lines)]
        s = assign_params(parse_pdb("\n".join(lines)), ParamTable.default())
        assert s.elements.tolist() == ["N", "C", "C", "O"]
        assert s.radii[1] == ParamTable.default().elements["C"].vdw_radius


class TestWritePdb:
    def test_roundtrip_single_atom(self):
        s = parse_pdb(ATOM_LINE)
        rt = parse_pdb(pdb_text(s))
        np.testing.assert_allclose(s.coords[0], rt.coords[0], atol=5e-4)
        assert s.b_iso[0] == pytest.approx(rt.b_iso[0], abs=5e-3)
        assert ((s.serials[0], s.names[0], s.elements[0], s.chain_ids[0])
                == (rt.serials[0], rt.names[0], rt.elements[0], rt.chain_ids[0]))

    def test_coordinate_overflow(self):
        s = make_structure([[99999.0, 0.0, 0.0]])
        with pytest.raises(PdbFormatError):
            pdb_text(s)

    @pytest.mark.parametrize("field, value, fits", [
        ("serial", 100000, 99999), ("residue_seq", 10000, 9999),
    ])
    def test_integer_field_overflow(self, field, value, fits):
        # a value wider than its column would shift every later column
        def atom(v):
            column = {"serials": [v]} if field == "serial" else {"residue_seq": v}
            return make_structure([[0.0, 0.0, 0.0]], **column)

        assert parse_pdb(pdb_text(atom(fits))).coords[0][0] == 0.0
        with pytest.raises(PdbFormatError, match="does not fit"):
            pdb_text(atom(value))

    def test_parse_write_parse_idempotent(self):
        s0 = parse_pdb(ATOM_LINE)
        once = parse_pdb(pdb_text(s0))
        twice = parse_pdb(pdb_text(once))
        for i in range(once.n_atoms):
            np.testing.assert_array_equal(once.coords[i], twice.coords[i])
            assert once.b_iso[i] == twice.b_iso[i]

    def test_multi_model_roundtrip(self):
        s = make_structure([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        frames = [s.positions(), s.positions() + 1.0]
        text = models_text(s, frames)
        _, models = parse_pdb_models(text)
        assert len(models) == 2
        np.testing.assert_allclose(models[1], frames[1], atol=5e-4)

    def test_parse_pdb_reads_first_model_only(self):
        s = make_structure([[0.0, 0.0, 0.0]])
        text = models_text(s, [s.positions(), s.positions() + 3.0])
        first = parse_pdb(text)
        assert first.n_atoms == 1
        np.testing.assert_allclose(first.positions()[0], [0, 0, 0], atol=1e-6)


class TestParams:
    def test_carbon_fallback_radius(self):
        table = ParamTable.default()
        s = assign_params(make_structure([[0.0, 0.0, 0.0]]), table)
        assert s.radii[0] == pytest.approx(1.7)

    def test_override_beats_fallback(self):
        table = ParamTable.default()
        override = {("LIG", "C"): table.elements["O"]}
        table2 = ParamTable(elements=table.elements, overrides=override)
        s = assign_params(make_structure([[0.0, 0.0, 0.0]]), table2)
        assert s.radii[0] == pytest.approx(table.elements["O"].vdw_radius)

    def test_unknown_element_error_names_serial(self):
        s = make_structure([[0.0, 0.0, 0.0]], element="Xx")
        with pytest.raises(ParamLookupError, match="serial 1"):
            assign_params(s, ParamTable.default())

    def test_json_roundtrip(self):
        table = ParamTable.default()
        again = ParamTable.from_json(json.dumps(param_table_json(table)))
        assert again.elements["C"] == table.elements["C"]

    def test_fallback_rows_required(self):
        with pytest.raises(ValueError, match="fallback"):
            ParamTable(elements={})

    @pytest.mark.parametrize("row, message", [
        ((math.nan, 0.0, 0.0, 0.0), "vdw_radius must be finite and positive"),
        ((math.inf, 0.0, 0.0, 0.0), "vdw_radius must be finite and positive"),
        ((0.0, 0.0, 0.0, 0.0), "vdw_radius must be finite and positive"),
        ((None, 0.0, 0.0, 0.0), "vdw_radius must be finite and positive"),
        ((1.7, math.nan, 0.0, 0.0), "charge, lj_a and lj_b must be finite"),
        ((1.7, 0.0, -math.inf, 0.0), "charge, lj_a and lj_b must be finite"),
        ((1.7, 0.0, 0.0, None), "charge, lj_a and lj_b must be finite"),
    ])
    def test_non_finite_rows_rejected(self, row, message):
        with pytest.raises(ValueError, match=message):
            ParamRow(*row)

    def test_json_with_nan_radius_rejected(self):
        raw = param_table_json(ParamTable.default())
        raw["elements"]["C"]["radius"] = math.nan
        text = json.dumps(raw)
        assert '"radius": NaN' in text
        with pytest.raises(ValueError, match="vdw_radius must be finite and positive"):
            ParamTable.from_json(text)


class TestStructure:
    def test_duplicate_serials_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            make_structure([[0, 0, 0], [0, 0, 0]], serials=[1, 1])

    def test_bond_validation(self):
        s = make_structure([[0, 0, 0], [1, 0, 0]])
        with pytest.raises(ValueError):
            s.with_bonds([(0, 5)])
        with pytest.raises(ValueError):
            s.with_bonds([(0, 1), (1, 0)])

    def test_detect_bonds_simple(self):
        s = make_structure([[0, 0, 0], [1.5, 0, 0], [8.0, 0, 0]])
        assert detect_bonds(s).bonds == ((0, 1),)

    def test_bonded_exclusions_include_13(self):
        s = make_structure([[0, 0, 0], [1.5, 0, 0], [3.0, 0, 0]],
                           bonds=((0, 1), (1, 2)))
        # the codes i*3 + j of (0, 1), (0, 2) and (1, 2), sorted
        assert bonded_exclusions(s).tolist() == [0 * 3 + 1, 0 * 3 + 2, 1 * 3 + 2]

    def test_b_conversion_consistency(self):
        # downstream sigma must reproduce b_iso = 8 pi^2 sigma^2 to 1e-9 rel
        from moluq.sampling import sigma_from_b
        for b in [0.5, 20.0, 80.0, 180.0]:
            sigma = sigma_from_b(b)
            assert abs(EIGHT_PI_SQ * sigma**2 - b) <= 1e-9 * b
