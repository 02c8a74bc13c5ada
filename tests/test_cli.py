import json
import math
import os
import subprocess
import sys
import textwrap
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from moluq.cli import main
from moluq.molio import parse_pdb_models
from conftest import make_structure, models_text, param_table_json, pdb_text


def small_protein_pdb():
    """Two chains, mild B-values, comfortably clash-free."""
    positions = [
        [0.0, 0.0, 0.0], [1.5, 0.0, 0.0], [2.25, 1.3, 0.0],
        [6.0, 0.0, 0.0], [7.5, 0.0, 0.0],
    ]
    elements = ["C", "N", "O", "C", "N"]
    chains = ["A", "A", "A", "B", "B"]
    return pdb_text(make_structure(positions, element=elements, chain=chains, b_iso=10.0,
                                   residue_seq=range(1, 6), residue_name="GLY"))


def write_config(tmp_path, **extra):
    cfg = {"structure": str(tmp_path / "input.pdb"), "out": str(tmp_path / "run")}
    cfg.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


@pytest.fixture
def workspace(tmp_path):
    (tmp_path / "input.pdb").write_text(small_protein_pdb())
    return tmp_path


class TestSample:
    def test_writes_ensemble_and_manifest(self, workspace):
        cfg = write_config(workspace, samples=4, seed=3)
        assert main(["sample", "--config", str(cfg)]) == 0
        out = workspace / "run"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 3
        assert manifest["samples"] == 4
        assert manifest["sequence"] == "sobol-scrambled"
        _, models = parse_pdb_models((out / "ensemble.pdb").read_text())
        assert len(models) == len(manifest["accepted"])

    def test_manifest_names_the_fallback_sequence(self, workspace, monkeypatch):
        from moluq import sampling
        # 5 atoms need 16 unit coordinates, beyond a Sobol block limit of 8
        monkeypatch.setattr(sampling, "SOBOL_MAX_DIM", 8)
        cfg = write_config(workspace, samples=2, seed=3)
        assert main(["sample", "--config", str(cfg)]) == 0
        manifest = json.loads((workspace / "run" / "manifest.json").read_text())
        assert manifest["sequence"] == "sobol-supercube"

    def test_zero_variance_single_sample_identity(self, workspace, tmp_path):
        s = make_structure([[0.0, 0.0, 0.0], [4.0, 0.0, 0.0]], b_iso=0.0)
        (workspace / "flat.pdb").write_text(pdb_text(s))
        cfg = write_config(workspace, structure=str(workspace / "flat.pdb"),
                           samples=1, seed=0)
        assert main(["sample", "--config", str(cfg)]) == 0
        _, models = parse_pdb_models((workspace / "run" / "ensemble.pdb").read_text())
        np.testing.assert_allclose(models[0], s.positions(), atol=5e-4)

    def test_fixed_seed_identical_manifests(self, workspace):
        cfg = write_config(workspace, samples=5, seed=11)
        main(["sample", "--config", str(cfg)])
        first = (workspace / "run" / "manifest.json").read_text()
        main(["sample", "--config", str(cfg), "--out", str(workspace / "run2")])
        second = (workspace / "run2" / "manifest.json").read_text()
        assert first == second

    def test_all_clash_structure_fails_with_diagnostic(self, workspace, capsys):
        # 2.5 A apart: beyond the bond heuristic but inside a 0.9 clash factor
        s = make_structure([[0.0, 0.0, 0.0], [2.5, 0.0, 0.0]], b_iso=0.5)
        (workspace / "clash.pdb").write_text(pdb_text(s))
        cfg = write_config(workspace, structure=str(workspace / "clash.pdb"),
                           samples=3, seed=0, clash_factor=0.9)
        code = main(["sample", "--config", str(cfg)])
        assert code == 3
        assert "clash" in capsys.readouterr().err

    def test_samples_required(self, workspace):
        cfg = write_config(workspace)
        assert main(["sample", "--config", str(cfg)]) == 1

    def test_fixed_chains_do_not_move(self, workspace):
        cfg = write_config(workspace, samples=3, seed=6, fixed_chains=["A"],
                           clash_factor=None)
        assert main(["sample", "--config", str(cfg)]) == 0
        from moluq.molio import parse_pdb
        source = parse_pdb((workspace / "input.pdb").read_text())
        idx_a = source.chains["A"]
        idx_b = source.chains["B"]
        _, models = parse_pdb_models((workspace / "run" / "ensemble.pdb").read_text())
        moved_b = False
        for m in models:
            np.testing.assert_allclose(m[idx_a],
                                       source.positions()[idx_a], atol=5e-4)
            moved_b |= not np.allclose(m[idx_b],
                                       source.positions()[idx_b], atol=1e-3)
        assert moved_b

    def test_unknown_fixed_chain_is_a_usage_error(self, workspace, capsys):
        # it once exited 0 with every atom perturbed
        cfg = write_config(workspace, samples=2, fixed_chains=["Z"])
        capsys.readouterr()
        assert main(["sample", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "'Z'" in err and "'A', 'B'" in err
        assert not (workspace / "run" / "ensemble.pdb").exists()


    @pytest.mark.parametrize("value, message", [
        (math.nan, "model 3: expected (5, 3) finite positions, atom 2 has x = nan"),
        (1e4, "coordinate 10000.0 does not fit fixed-column format"),
    ])
    def test_a_model_that_fails_its_checks_leaves_no_ensemble(self, workspace, monkeypatch,
                                                              capsys, value, message):
        from moluq import conformers
        draw = conformers.sample_cartesian_ensemble

        def spoilt(*args, **kwargs):  # models 1 and 2 are written before model 3
            ens = draw(*args, **kwargs)
            ens.coords[2, 1, 0] = value
            return ens

        monkeypatch.setattr(conformers, "sample_cartesian_ensemble", spoilt)
        cfg = write_config(workspace, samples=4, seed=3, clash_factor=None)
        capsys.readouterr()
        assert main(["sample", "--config", str(cfg)]) == 3
        assert capsys.readouterr().err == f"moluq: domain error: {message}\n"
        assert list((workspace / "run").iterdir()) == []


class TestQoiCertifySaturate:
    def _sampled(self, workspace, n=24):
        cfg = write_config(workspace, samples=n, seed=5,
                           qoi=["area", "lj", "coulomb", "gb", "delta_coulomb"],
                           spacing=0.8)
        assert main(["sample", "--config", str(cfg)]) == 0
        return cfg

    def test_qoi_builds_parameter_sets_once(self, workspace, monkeypatch):
        from moluq import qoi
        cfg = self._sampled(workspace, n=6)
        calls = []
        real = qoi.bonded_exclusions
        monkeypatch.setattr(qoi, "bonded_exclusions", lambda s: calls.append(1) or real(s))
        assert main(["qoi", "--config", str(cfg)]) == 0
        # the full structure plus chains A and B, however many models there are
        assert len(calls) == 3

    def test_qoi_without_pair_energies_loads_no_numpy_ma(self, workspace):
        """A fresh process runs a qoi stage with no pair energy: every group's
        exclusion codes are built, by a sort and no np.unique, so numpy.ma
        (1.7 MiB of the stage's peak) is never imported."""
        import moluq
        cfg = self._sampled(workspace, n=3)
        cfg.write_text(json.dumps({**json.loads(cfg.read_text()),
                                   "qoi": ["area", "volume", "gb", "delta_area"]}))
        script = textwrap.dedent("""
            import sys
            import moluq.cli

            code = moluq.cli.main(["qoi", "--config", sys.argv[1]])
            print(code, "numpy.ma" in sys.modules)
        """)
        env = dict(os.environ, PYTHONPATH=str(Path(moluq.__file__).resolve().parents[1]))
        result = subprocess.run([sys.executable, "-c", script, str(cfg)], env=env,
                                capture_output=True, text=True, timeout=300)
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["0", "False"]

    @pytest.mark.parametrize("key", ["chain_a", "chain_b"])
    def test_qoi_rejects_unknown_chain(self, workspace, capsys, key):
        cfg = self._sampled(workspace, n=2)
        cfg.write_text(json.dumps({**json.loads(cfg.read_text()), key: "Z",
                                   "qoi": ["delta_area"]}))
        capsys.readouterr()
        assert main(["qoi", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "'Z'" in err and "'A', 'B'" in err
        assert not (workspace / "run" / "qoi_values.csv").exists()

    def test_delta_qois_on_one_chain_twice_are_a_usage_error(self, workspace, capsys):
        # this once exited 3 with AtomSet.union's "atom serials overlap between groups"
        cfg = self._sampled(workspace, n=2)
        cfg.write_text(json.dumps({**json.loads(cfg.read_text()), "chain_a": "B",
                                   "chain_b": "B", "qoi": ["lj", "delta_lj"]}))
        capsys.readouterr()
        assert main(["qoi", "--config", str(cfg)]) == 1
        assert ("usage error: delta QOIs need two different chains, and chain_a and chain_b "
                "are both 'B'\n") in capsys.readouterr().err
        assert not (workspace / "run" / "qoi_values.csv").exists()

    def test_a_chain_named_for_one_side_is_not_the_default_for_the_other(self, workspace):
        # "chain_a": "B" alone once defaulted chain_b to B too and exited 1
        cfg = self._sampled(workspace, n=3)
        base = {**json.loads(cfg.read_text()), "qoi": ["lj", "delta_lj"]}
        outputs = []
        for chains in ({"chain_a": "B", "chain_b": "A"}, {"chain_a": "B"}, {"chain_b": "A"}):
            cfg.write_text(json.dumps({**base, **chains}))
            assert main(["qoi", "--config", str(cfg)]) == 0, chains
            outputs.append((workspace / "run" / "qoi_values.csv").read_bytes())
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]

    def test_delta_qois_on_a_one_chain_structure_are_a_usage_error(self, workspace, capsys):
        # this once exited 3 as a domain error
        s = make_structure([[0.0, 0.0, 0.0], [1.5, 0.0, 0.0], [2.25, 1.3, 0.0]],
                           element=["C", "N", "O"], chain="A", b_iso=10.0)
        (workspace / "input.pdb").write_text(pdb_text(s))
        cfg = write_config(workspace, samples=2, seed=5, qoi=["area", "delta_area"])
        assert main(["sample", "--config", str(cfg)]) == 0
        capsys.readouterr()
        assert main(["qoi", "--config", str(cfg)]) == 1
        assert "usage error: delta QOIs need two chains, and the structure has one, 'A'\n" \
            in capsys.readouterr().err
        assert not (workspace / "run" / "qoi_values.csv").exists()
        # naming the one chain for either side leaves the other without one
        base = cfg.read_text()
        for key in ("chain_a", "chain_b"):
            cfg.write_text(json.dumps({**json.loads(base), key: "A"}))
            assert main(["qoi", "--config", str(cfg)]) == 1
            assert "usage error: delta QOIs need two chains, and the structure has one, 'A'\n" \
                in capsys.readouterr().err
            assert not (workspace / "run" / "qoi_values.csv").exists()
        cfg.write_text(base)
        # without a delta QOI the one chain is enough
        cfg.write_text(json.dumps({**json.loads(cfg.read_text()), "qoi": ["area"]}))
        assert main(["qoi", "--config", str(cfg)]) == 0

    @pytest.mark.parametrize("key, value, message", [
        ("dielectric", {"mode": "constant", "value": math.nan},
         "dielectric parameter must be finite and positive"),
        ("dielectric", {"mode": "distance_dependent", "value": math.inf},
         "dielectric parameter must be finite and positive"),
        ("solvent_dielectric", 0.0, "solvent dielectric must be finite and >= 1"),
        ("solvent_dielectric", math.nan, "solvent dielectric must be finite and >= 1"),
        ("solvent_dielectric", 0.5, "solvent dielectric must be finite and >= 1"),
        ("probe", math.nan, "probe radius must be finite and >= 0"),
        ("probe", math.inf, "probe radius must be finite and >= 0"),
    ])
    def test_qoi_rejects_unphysical_solvent_parameters(self, workspace, capsys, key, value,
                                                       message):
        # each once exited 0 with NaN, inf or sign-flipped rows, or as a bare
        # division by zero
        cfg = self._sampled(workspace, n=2)
        cfg.write_text(json.dumps({**json.loads(cfg.read_text()), key: value}))
        capsys.readouterr()
        assert main(["qoi", "--config", str(cfg)]) == 3
        assert f"domain error: {message}" in capsys.readouterr().err
        assert not (workspace / "run" / "qoi_values.csv").exists()

    def test_qoi_rejects_model_of_other_size(self, workspace):
        cfg = self._sampled(workspace, n=2)
        ensemble = workspace / "run" / "ensemble.pdb"
        first, _ = parse_pdb_models(ensemble.read_text())
        ensemble.write_text(pdb_text(first.subset(range(first.n_atoms - 1))))
        assert main(["qoi", "--config", str(cfg)]) == 3

    @pytest.mark.parametrize("change, what", [
        (lambda m: [m], " must be an object, not ["),
        (lambda m: {**m, "accepted": "abc"}, ': accepted must be an array, not "abc"'),
        (lambda m: {**m, "accepted": [0.5, 1, 2]}, ": accepted[0] must be an integer, not 0.5"),
        (lambda m: {**m, "accepted": [0, 0, 0]}, ": accepted lists a sample index twice"),
    ], ids=["array", "string", "fraction", "repeat"])
    def test_malformed_manifest_is_a_data_error(self, workspace, capsys, change, what):
        # each once ended in a traceback or exited 0 with made-up sample indices
        cfg = self._sampled(workspace, n=3)
        manifest = workspace / "run" / "manifest.json"
        assert len(json.loads(manifest.read_text())["accepted"]) == 3
        manifest.write_text(json.dumps(change(json.loads(manifest.read_text()))))
        capsys.readouterr()
        assert main(["qoi", "--config", str(cfg)]) == 2
        assert f"data error: {manifest}{what}" in capsys.readouterr().err
        assert not (workspace / "run" / "qoi_values.csv").exists()

    def test_manifest_of_another_ensemble_is_a_data_error(self, workspace, capsys):
        # it once exited 0, numbering the three models 0, 1 and 2
        cfg = self._sampled(workspace, n=3)
        manifest = workspace / "run" / "manifest.json"
        manifest.write_text(json.dumps({**json.loads(manifest.read_text()), "accepted": [7, 8]}))
        capsys.readouterr()
        assert main(["qoi", "--config", str(cfg)]) == 2
        ensemble = (workspace / "run" / "ensemble.pdb").resolve()
        assert (f"data error: {manifest}: accepted lists 2 sample indices for the 3 models "
                f"of {ensemble}\n") in capsys.readouterr().err
        assert not (workspace / "run" / "qoi_values.csv").exists()

    def test_ensemble_without_manifest_numbers_its_models(self, workspace):
        cfg = write_config(workspace, samples=3, seed=5, qoi=["lj"])
        assert main(["sample", "--config", str(cfg)]) == 0
        (workspace / "run" / "manifest.json").unlink()
        assert main(["qoi", "--config", str(cfg)]) == 0
        rows = (workspace / "run" / "qoi_values.csv").read_text().splitlines()[1:]
        assert [row.split(",")[1] for row in rows] == ["-1", "0", "1", "2"]

    def test_qoi_stream_then_certify(self, workspace):
        cfg = self._sampled(workspace)
        assert main(["qoi", "--config", str(cfg)]) == 0
        out = workspace / "run"
        lines = (out / "qoi_values.csv").read_text().strip().splitlines()
        assert lines[0] == "qoi,sample_index,value"
        names = {ln.split(",")[0] for ln in lines[1:]}
        assert names == {"area", "lj", "coulomb", "gb", "delta_coulomb"}
        # reference row present for every qoi
        refs = [ln for ln in lines[1:] if ln.split(",")[1] == "-1"]
        assert len(refs) == 5

        assert main(["certify", "--config", str(cfg)]) == 0
        cert = (out / "certificates.csv").read_text().strip().splitlines()
        assert cert[0] == "qoi,t,epsilon"
        assert len(cert) == 1 + 5 * 7
        eps = [float(ln.split(",")[2]) for ln in cert[1:]]
        assert all(0.0 <= e <= 1.0 for e in eps)
        zlines = (out / "zscores.csv").read_text().strip().splitlines()
        assert zlines[0] == "qoi,reference,mean,std,zscore"

    def test_constant_stream_all_zero_epsilon(self, workspace, tmp_path):
        out = workspace / "run"
        out.mkdir()
        rows = ["qoi,sample_index,value"] + [f"flat,{i},42.0" for i in range(20)]
        (out / "qoi_values.csv").write_text("\n".join(rows) + "\n")
        cfg = write_config(workspace)
        assert main(["certify", "--config", str(cfg)]) == 0
        cert = (out / "certificates.csv").read_text().strip().splitlines()[1:]
        assert all(float(ln.split(",")[2]) == 0.0 for ln in cert)

    def test_zero_mean_stream_beside_a_normal_one(self, workspace):
        # one stream of mean exactly 0 once made certify exit 3 for every QOI
        out = workspace / "run"
        out.mkdir()
        rows = (["qoi,sample_index,value", "area,-1,50.0", "delta_coulomb,-1,0.5"]
                + [f"area,{i},{100.0 + i}" for i in range(12)]
                + [f"delta_coulomb,{i},{(-1) ** i * 2.0}" for i in range(12)])
        (out / "qoi_values.csv").write_text("\n".join(rows) + "\n")
        assert main(["certify", "--config", str(write_config(workspace))]) == 0
        cert = (out / "certificates.csv").read_text().splitlines()[1:]
        assert len(cert) == 7 and all(ln.startswith("area,") for ln in cert)
        text = (out / "certificates.txt").read_text().splitlines()
        assert text[1].startswith("area ")
        assert text[2] == "delta_coulomb".ljust(16) + "relative error undefined at zero mean"
        zscores = (out / "zscores.csv").read_text().splitlines()
        assert [ln.split(",")[:3] for ln in zscores[1:]] == [
            ["area", "50.0", "105.5"], ["delta_coulomb", "0.5", "0.0"]]

    @pytest.mark.parametrize("command", ["certify", "saturate"])
    def test_non_finite_value_is_a_data_error(self, workspace, capsys, command):
        # certify once printed epsilon 0.000 at every t for a stream with a nan
        # and dropped its z-score row, with exit 0
        out = workspace / "run"
        out.mkdir()
        rows = ["qoi,sample_index,value"] + [
            f"area,{i},{'nan' if i == 6 else 100.0 + i}" for i in range(-1, 20)]
        (out / "qoi_values.csv").write_text("\n".join(rows) + "\n")
        cfg = write_config(workspace)
        capsys.readouterr()
        assert main([command, "--config", str(cfg)]) == 2
        assert "area at sample_index 6 is nan" in capsys.readouterr().err
        assert [f.name for f in out.iterdir()] == ["qoi_values.csv"]

    @pytest.mark.parametrize("command", ["certify", "saturate"])
    @pytest.mark.parametrize("repeat, what", [
        ("-1", "area has a second reference row, at sample_index -1"),
        ("3", "area lists sample_index 3 twice"),
    ], ids=["reference", "sample"])
    def test_repeated_row_is_a_data_error(self, workspace, capsys, command, repeat, what):
        # a second reference row once replaced the first, and a repeated sample
        # counted twice: both exited 0
        out = workspace / "run"
        out.mkdir()
        rows = ["qoi,sample_index,value"] + [f"area,{i},{100.0 + i}" for i in range(-1, 12)]
        rows.insert(6, f"area,{repeat},90.5")
        (out / "qoi_values.csv").write_text("\n".join(rows) + "\n")
        cfg = write_config(workspace)
        capsys.readouterr()
        assert main([command, "--config", str(cfg)]) == 2
        assert f"data error: {(out / 'qoi_values.csv').resolve()}: {what}\n" \
            in capsys.readouterr().err
        assert [f.name for f in out.iterdir()] == ["qoi_values.csv"]

    @pytest.mark.parametrize("command", ["certify", "saturate"])
    def test_negative_index_other_than_the_reference_is_a_data_error(self, workspace, capsys,
                                                                      command):
        # a reference row listed at -5 once made certify exit 0 with a z-score against it
        out = workspace / "run"
        out.mkdir()
        rows = ["qoi,sample_index,value", "area,-5,50.0"] + [
            f"area,{i},{100.0 + i}" for i in range(12)]
        (out / "qoi_values.csv").write_text("\n".join(rows) + "\n")
        cfg = write_config(workspace)
        capsys.readouterr()
        assert main([command, "--config", str(cfg)]) == 2
        assert (f"data error: {(out / 'qoi_values.csv').resolve()}: area has sample_index -5; "
                f"only the reference row, -1, has a negative index\n") in capsys.readouterr().err
        assert [f.name for f in out.iterdir()] == ["qoi_values.csv"]

    def test_reference_row_at_minus_one_gives_its_zscore(self, workspace):
        out = workspace / "run"
        out.mkdir()
        rows = ["qoi,sample_index,value", "area,-1,50.0"] + [
            f"area,{i},{100.0 + i}" for i in range(12)]
        (out / "qoi_values.csv").write_text("\n".join(rows) + "\n")
        assert main(["certify", "--config", str(write_config(workspace))]) == 0
        assert (out / "zscores.csv").read_text() == (
            "qoi,reference,mean,std,zscore\n"
            "area,50.0,105.5,3.452052529534663,-16.07739150118941\n")

    def test_saturate_skips_degenerate_streams(self, workspace):
        out = workspace / "run"
        out.mkdir()
        rows = ["qoi,sample_index,value"]
        for i in range(30):
            rows.append(f"good,{i},{100.0 + (i % 7) * 0.1}")
            rows.append(f"degenerate,{i},{(-1.0) ** i * 1e-13}")
        (out / "qoi_values.csv").write_text("\n".join(rows) + "\n")
        cfg = write_config(workspace)
        assert main(["saturate", "--config", str(cfg)]) == 0
        report = json.loads((out / "saturation.json").read_text())
        by_name = {r["qoi"]: r for r in report}
        assert "error" in by_name["degenerate"]
        assert by_name["good"]["saturated"] is True

    def test_saturate_constant_stream(self, workspace):
        out = workspace / "run"
        out.mkdir()
        rows = ["qoi,sample_index,value"] + [f"flat,{i},42.0" for i in range(30)]
        (out / "qoi_values.csv").write_text("\n".join(rows) + "\n")
        cfg = write_config(workspace)
        assert main(["saturate", "--config", str(cfg)]) == 0
        report = json.loads((out / "saturation.json").read_text())
        assert report[0]["r_star"] == 2
        assert report[0]["saturated"] is True
        curve = (out / "saturation_flat.csv").read_text().strip().splitlines()
        assert curve[0] == "r,error"


class TestTorsionMode:
    def test_sample_with_dihedral_file(self, workspace):
        from conftest import zigzag_chain
        chain = zigzag_chain(6)
        s = make_structure(chain, bonds=tuple((i, i + 1) for i in range(5)))
        (workspace / "chain.pdb").write_text(pdb_text(s))
        dihedrals = {"dihedrals": [
            {"atoms": [0, 1, 2, 3], "lower": -0.4, "upper": 0.4},
            {"atoms": [1, 2, 3, 4], "lower": -0.4, "upper": 0.4},
        ]}
        (workspace / "dihedrals.json").write_text(json.dumps(dihedrals))
        cfg = write_config(workspace, structure=str(workspace / "chain.pdb"),
                           mode="torsion", samples=5, seed=1, clash_factor=None,
                           torsion_dihedrals=str(workspace / "dihedrals.json"))
        assert main(["sample", "--config", str(cfg)]) == 0
        _, models = parse_pdb_models((workspace / "run" / "ensemble.pdb").read_text())
        assert 1 <= len(models) <= 5
        # bond lengths preserved by the kinematic chain
        for m in models:
            for i, j in s.bonds:
                d0 = np.linalg.norm(chain[i] - chain[j])
                d1 = np.linalg.norm(m[i] - m[j])
                assert abs(d0 - d1) < 2e-3  # PDB coordinates carry 3 decimals

    def test_fixed_chains_outside_cartesian_mode_is_a_usage_error(self, workspace, capsys):
        # torsion mode once ignored fixed_chains and moved the pinned chain's atoms
        cfg = write_config(workspace, mode="torsion", samples=2, fixed_chains=["A"])
        capsys.readouterr()
        assert main(["sample", "--config", str(cfg)]) == 1
        assert ("config key 'fixed_chains' pins chains in mode 'cartesian' only, "
                "not in mode 'torsion'") in capsys.readouterr().err
        assert not (workspace / "run" / "ensemble.pdb").exists()

    @pytest.mark.parametrize("spec, code, what", [
        ({"dihed": []}, 2, "dihed is not a known key; did you mean 'dihedrals'?"),
        ({"dihedrals": [{"atoms": [0, 1, 2]}]}, 2,
         "dihedrals[0].atoms must be 4 integers, not [0, 1, 2]"),
        ({"dihedrals": [{"atoms": [0, 1, 2, 3], "lower": "x"}]}, 2,
         'dihedrals[0].lower must be a number, not "x"'),
        ({"dihedrals": [{"atoms": [-1, 0, 1, 2]}]}, 3,
         "dihedral (-1, 0, 1, 2): atom indices must lie in [0, 6)"),
        ({"dihedrals": [{"atoms": [9, 0, 1, 2]}]}, 3,
         "dihedral (9, 0, 1, 2): atom indices must lie in [0, 6)"),
    ], ids=["misspelled_key", "three_atoms", "lower_string", "negative_index",
            "index_past_the_end"])
    def test_malformed_dihedral_file(self, workspace, capsys, spec, code, what):
        # these exited 3 naming only a key, ended in tracebacks, or (the
        # negative index) sampled a wrapped-around dihedral with exit 0
        from conftest import zigzag_chain
        s = make_structure(zigzag_chain(6), bonds=tuple((i, i + 1) for i in range(5)))
        (workspace / "chain.pdb").write_text(pdb_text(s))
        path = workspace / "dihedrals.json"
        path.write_text(json.dumps(spec))
        cfg = write_config(workspace, structure=str(workspace / "chain.pdb"), mode="torsion",
                           samples=2, clash_factor=None, torsion_dihedrals=str(path))
        capsys.readouterr()
        assert main(["sample", "--config", str(cfg)]) == code
        err = capsys.readouterr().err
        assert err.endswith(f"{what}\n"), err
        assert code == 3 or err.startswith(f"moluq: data error: {path}: ")

    def test_torsion_mode_autodetects_rotatable_bonds(self, workspace):
        from conftest import zigzag_chain
        chain = zigzag_chain(6)
        s = make_structure(chain, bonds=tuple((i, i + 1) for i in range(5)))
        (workspace / "chain.pdb").write_text(pdb_text(s))
        cfg = write_config(workspace, structure=str(workspace / "chain.pdb"),
                           mode="torsion", samples=3, seed=2, clash_factor=None)
        assert main(["sample", "--config", str(cfg)]) == 0


class TestBound:
    def test_pairwise_mode(self, workspace):
        bound_cfg = {
            "mode": "pairwise",
            "kernel": {"terms": [[1.0, 1.0]]},
            "boxes_a": [[[1.0, 1.5], [1.0, 1.5]]],
            "boxes_b": [[[5.0, 5.5], [5.0, 5.5]], [[6.0, 6.5], [6.0, 6.5]]],
            "t_grid": [0.05, 0.2],
        }
        (workspace / "bound.json").write_text(json.dumps(bound_cfg))
        cfg = write_config(workspace, bound_config=str(workspace / "bound.json"))
        assert main(["bound", "--config", str(cfg)]) == 0
        rows = (workspace / "run" / "bounds.csv").read_text().strip().splitlines()
        assert len(rows) == 3
        assert all(0.0 <= float(r.split(",")[1]) <= 1.0 for r in rows[1:])

    def test_azuma_mode(self, workspace):
        bound_cfg = {"mode": "azuma", "c": [1.0] * 10, "t_grid": [1.0, 5.0]}
        (workspace / "bound.json").write_text(json.dumps(bound_cfg))
        cfg = write_config(workspace, bound_config=str(workspace / "bound.json"))
        assert main(["bound", "--config", str(cfg)]) == 0
        rows = (workspace / "run" / "bounds.csv").read_text().strip().splitlines()
        b1, b5 = (float(r.split(",")[1]) for r in rows[1:])
        assert b1 == pytest.approx(min(1.0, 2 * math.exp(-1.0 / 20.0)))
        assert b5 == pytest.approx(2 * math.exp(-25.0 / 20.0))

    def test_d1_worked_example_csv(self, workspace):
        bound_cfg = {
            "mode": "single",
            "kernel": {"terms": [[1.0, 1.0]]},
            "box": [[1.0, 2.0], [1.0, 2.0]],
            "t_grid": [0.1, 0.3],
        }
        (workspace / "bound.json").write_text(json.dumps(bound_cfg))
        cfg = write_config(workspace, bound_config=str(workspace / "bound.json"))
        assert main(["bound", "--config", str(cfg)]) == 0
        out = workspace / "run"
        rows = (out / "bounds.csv").read_text().strip().splitlines()
        assert rows[0] == "t,bound"
        dx = 1 / math.sqrt(2) - 1 / math.sqrt(5)
        expected = min(1.0, 2 * math.exp(-2 * 0.3**2 / (2 * dx**2)))
        t_vals = [float(r.split(",")[0]) for r in rows[1:]]
        b_vals = [float(r.split(",")[1]) for r in rows[1:]]
        assert t_vals == [0.1, 0.3]
        assert b_vals[1] == pytest.approx(expected)
        devs = json.loads((out / "deviations.json").read_text())["deviations"]
        assert devs == pytest.approx([dx, dx])

    def test_bound_with_mc_column(self, workspace):
        bound_cfg = {
            "mode": "single",
            "kernel": {"terms": [[1.0, 1.0]]},
            "box": [[1.0, 2.0], [1.0, 2.0]],
            "t_grid": [0.05, 0.2],
            "mc_draws": 2000,
            "mc_seed": 1,
        }
        (workspace / "bound.json").write_text(json.dumps(bound_cfg))
        cfg = write_config(workspace, bound_config=str(workspace / "bound.json"))
        assert main(["bound", "--config", str(cfg)]) == 0
        rows = (workspace / "run" / "bounds.csv").read_text().strip().splitlines()
        assert rows[0] == "t,bound,mc_estimate"
        for row in rows[1:]:
            _t, bound, mc = (float(x) for x in row.split(","))
            assert bound >= mc - 0.05

    @pytest.mark.parametrize("missing", ["kernel", "boxes_a"])
    def test_bound_config_without_a_key_is_a_data_error(self, workspace, capsys, missing):
        # each once exited 3 with "domain error: 'kernel'" (or 'boxes_a')
        bound_cfg = {"mode": "pairwise", "kernel": {"terms": [[1.0, 1.0]]},
                     "boxes_a": [[[1.0, 1.5]]], "boxes_b": [[[5.0, 5.5]]]}
        del bound_cfg[missing]
        path = workspace / "bound.json"
        path.write_text(json.dumps(bound_cfg))
        cfg = write_config(workspace, bound_config=str(path))
        capsys.readouterr()
        assert main(["bound", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"moluq: data error: {path} has no {missing!r}\n"

    @pytest.mark.parametrize("change, what", [
        ({"boxes_a": [[1, 2]]}, "boxes_a[0][0] must be an array, not 1"),
        ({"kernel": {"terms": [[1.0]]}}, "kernel.terms[0] must be 2 numbers, not [1.0]"),
        ({"boxes_b": [[[5.0, 5.5, 6.0]]]},
         "boxes_b[0][0] must be 2 numbers, not [5.0, 5.5, 6.0]"),
        ({"t_grid": 0.1}, "t_grid must be an array or null, not 0.1"),
        ({"mc_draws": [100]}, "mc_draws must be an integer, not [100]"),
    ], ids=["box_of_numbers", "kernel_term_of_one_number", "interval_of_three_numbers",
            "t_grid_of_one_number", "mc_draws_array"])
    def test_malformed_bound_config_value_is_a_data_error(self, workspace, capsys, change,
                                                          what):
        # a box of numbers, a t_grid number and an mc_draws array ended in
        # TypeError tracebacks; the kernel term and the interval exited 3 with
        # "not enough" / "too many values to unpack", naming no file
        bound_cfg = {"mode": "pairwise", "kernel": {"terms": [[1.0, 1.0]]},
                     "boxes_a": [[[1.0, 1.5]]], "boxes_b": [[[5.0, 5.5]]], **change}
        path = workspace / "bound.json"
        path.write_text(json.dumps(bound_cfg))
        cfg = write_config(workspace, bound_config=str(path))
        capsys.readouterr()
        assert main(["bound", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"moluq: data error: {path}: {what}\n"
        assert not (workspace / "run" / "bounds.csv").exists()

    def test_malformed_single_box_interval_is_a_data_error(self, workspace, capsys):
        path = workspace / "bound.json"
        path.write_text(json.dumps({"mode": "single", "kernel": {"terms": [[1.0, 1.0]]},
                                    "box": [[1.0, 2.0], [1, 2, 3]]}))
        cfg = write_config(workspace, bound_config=str(path))
        capsys.readouterr()
        assert main(["bound", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == (f"moluq: data error: {path}: box[1] "
                                           f"must be 2 numbers, not [1, 2, 3]\n")


class TestNegativeSeed:
    """A negative seed is outside the config tables: a usage error (exit 1)
    in the run config, a data error (exit 2) in a bound_config file, each
    naming the key.  Both once exited 3 with "domain error: expected
    non-negative integer", naming no key."""

    @pytest.mark.parametrize("argv, raw, message", [
        (["sample"], {"seed": -1, "samples": 2}, "config key 'seed' must be >= 0, not -1"),
        (["sample", "--seed", "-3"], {"samples": 2}, "config key 'seed' must be >= 0, not -3"),
        (["bound"], {"seed": -1, "bound": {"kernel": {"terms": [[1.0, 1.0]]},
                                           "box": [[1.0, 2.0]], "mc_draws": 10}},
         "config key 'seed' must be >= 0, not -1"),
        (["bound"], {"bound": {"kernel": {"terms": [[1.0, 1.0]]}, "box": [[1.0, 2.0]],
                               "mc_draws": 10, "mc_seed": -2}},
         "config key 'bound.mc_seed' must be >= 0, not -2"),
    ], ids=["sample_seed", "sample_seed_flag", "bound_seed", "bound_inline_mc_seed"])
    def test_in_the_run_config_is_a_usage_error(self, workspace, capsys, argv, raw, message):
        cfg = write_config(workspace, **raw)
        capsys.readouterr()
        assert main([*argv, "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == f"moluq: usage error: {message}\n"
        assert not (workspace / "run").exists()

    def test_in_a_bound_config_file_is_a_data_error(self, workspace, capsys):
        path = workspace / "bound.json"
        path.write_text(json.dumps({"kernel": {"terms": [[1.0, 1.0]]}, "box": [[1.0, 2.0]],
                                    "mc_draws": 10, "mc_seed": -2}))
        cfg = write_config(workspace, bound_config=str(path))
        capsys.readouterr()
        assert main(["bound", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == (f"moluq: data error: {path}: mc_seed "
                                           f"must be >= 0, not -2\n")
        assert not (workspace / "run" / "bounds.csv").exists()


class TestBindsite:
    def test_multi_conformer_grouped_poses(self, workspace):
        lig = make_structure([[0.0, 3.0, 0.0]])
        frames = [lig.positions(), lig.positions() + [0.0, 200.0, 0.0]]
        (workspace / "ligand.pdb").write_text(models_text(lig, frames))
        identity = {"rank": 1, "rotation": [1, 0, 0, 0, 1, 0, 0, 0, 1],
                    "translation": [0.0, 0.0, 0.0]}
        grouped = [{"model": 0, "poses": [identity]}, {"model": 1, "poses": [identity]}]
        (workspace / "poses.json").write_text(json.dumps(grouped))
        cfg = write_config(workspace, ligand=str(workspace / "ligand.pdb"),
                           poses=str(workspace / "poses.json"))
        assert main(["bindsite", "--config", str(cfg)]) == 0
        rows = (workspace / "run" / "bindsite_atoms.csv").read_text().strip().splitlines()[1:]
        # first conformer contacts atom 1, far conformer contacts nothing -> 0.5
        assert float(rows[0].split(",")[4]) == pytest.approx(0.5)

    def test_flat_pose_list_equals_one_group(self, workspace):
        lig = make_structure([[0.0, 3.0, 0.0], [0.8, 3.9, 0.4]])
        (workspace / "ligand.pdb").write_text(pdb_text(lig))
        poses = [{"rank": r, "rotation": [1, 0, 0, 0, 1, 0, 0, 0, 1],
                  "translation": [dx, 0.0, 0.0]} for r, dx in enumerate((0.0, 2.5, 5.0), 1)]
        outputs = {}
        for label, raw in (("flat", poses), ("grouped", [{"model": 0, "poses": poses}])):
            (workspace / f"{label}.json").write_text(json.dumps(raw))
            cfg = write_config(workspace, ligand=str(workspace / "ligand.pdb"),
                               poses=str(workspace / f"{label}.json"),
                               out=str(workspace / label))
            assert main(["bindsite", "--config", str(cfg)]) == 0
            outputs[label] = {f.name: f.read_bytes() for f in (workspace / label).iterdir()
                              if not f.name.endswith("_meta.json")}
        assert len(outputs["flat"]) == 4 and outputs["flat"] == outputs["grouped"]

    def test_color_values_are_the_atoms_p_bs(self, workspace):
        # the value column once read np.float64(0.5)
        lig = make_structure([[0.0, 3.0, 0.0], [0.8, 3.9, 0.4]])
        (workspace / "ligand.pdb").write_text(pdb_text(lig))
        poses = [{"rotation": [1, 0, 0, 0, 1, 0, 0, 0, 1], "translation": [dx, 0.0, 0.0]}
                 for dx in (0.0, 2.5, 5.0)]
        (workspace / "poses.json").write_text(json.dumps(poses))
        cfg = write_config(workspace, ligand=str(workspace / "ligand.pdb"),
                           poses=str(workspace / "poses.json"))
        assert main(["bindsite", "--config", str(cfg)]) == 0
        out = workspace / "run"
        atoms = [row.split(",") for row in
                 (out / "bindsite_atoms.csv").read_text().splitlines()[1:]]
        colors = [row.split(",") for row in
                  (out / "bindsite_colors.csv").read_text().splitlines()[1:]]
        p_bs = {serial: float(p) for serial, *_, p in atoms}
        assert [serial for serial, *_ in colors] == list(p_bs)
        assert {serial: float(value) for serial, value, *_ in colors} == p_bs
        assert set(p_bs.values()) - {0.0, 1.0}  # a fraction, not just 0 and 1

    def test_groups_out_of_model_order_are_a_data_error(self, workspace, capsys):
        # groups pair with ligand models by position, so swapped groups were
        # silently mispaired
        lig = make_structure([[0.0, 3.0, 0.0]])
        frames = [lig.positions(), lig.positions() + [0.0, 200.0, 0.0]]
        (workspace / "ligand.pdb").write_text(models_text(lig, frames))
        identity = {"rank": 1, "rotation": [1, 0, 0, 0, 1, 0, 0, 0, 1],
                    "translation": [0.0, 0.0, 0.0]}
        swapped = [{"model": 1, "poses": [identity]}, {"model": 0, "poses": [identity]}]
        (workspace / "poses.json").write_text(json.dumps(swapped))
        cfg = write_config(workspace, ligand=str(workspace / "ligand.pdb"),
                           poses=str(workspace / "poses.json"))
        capsys.readouterr()
        assert main(["bindsite", "--config", str(cfg)]) == 2
        assert "pose group 0 names model 1" in capsys.readouterr().err
        assert not (workspace / "run" / "bindsite_atoms.csv").exists()

    def test_nan_contact_cutoff_exits_3(self, workspace, capsys):
        # NaN passed `cutoff <= 0`, so every p_bs came out 0 and bindsite exited 0
        lig = make_structure([[0.0, 3.0, 0.0]])
        (workspace / "ligand.pdb").write_text(pdb_text(lig))
        poses = [{"rank": 1, "rotation": [1, 0, 0, 0, 1, 0, 0, 0, 1],
                  "translation": [0.0, 0.0, 0.0]}]
        (workspace / "poses.json").write_text(json.dumps(poses))
        cfg = write_config(workspace, ligand=str(workspace / "ligand.pdb"),
                           poses=str(workspace / "poses.json"), contact_cutoff=math.nan)
        assert '"contact_cutoff": NaN' in cfg.read_text()
        capsys.readouterr()
        assert main(["bindsite", "--config", str(cfg)]) == 3
        assert "contact cutoff must be finite and positive" in capsys.readouterr().err
        assert not (workspace / "run" / "bindsite_atoms.csv").exists()

    def test_single_pose_binary_map(self, workspace):
        lig = make_structure([[0.0, 3.0, 0.0]])
        (workspace / "ligand.pdb").write_text(pdb_text(lig))
        poses = [{"rank": 1, "rotation": [1, 0, 0, 0, 1, 0, 0, 0, 1],
                  "translation": [0.0, 0.0, 0.0]}]
        (workspace / "poses.json").write_text(json.dumps(poses))
        cfg = write_config(workspace, ligand=str(workspace / "ligand.pdb"),
                           poses=str(workspace / "poses.json"))
        assert main(["bindsite", "--config", str(cfg)]) == 0
        out = workspace / "run"
        rows = (out / "bindsite_atoms.csv").read_text().strip().splitlines()[1:]
        probs = {float(r.split(",")[4]) for r in rows}
        assert probs <= {0.0, 1.0}
        assert (out / "bindsite_colors.pml").exists()
        res_rows = (out / "bindsite_residues.csv").read_text().strip().splitlines()
        assert res_rows[0] == "chain,residue_seq,residue_name,p_bs"

    @pytest.mark.parametrize("raw, what", [
        ([{"model": 0}], "[0].model is not a known key"),
        ({"a": 1}, 'must be an array, not {"a": 1}'),
        ([1, 2], "[0] must be an object, not 1"),
        ([{"model": 0, "poses": []}, {"model": 1}], "[1] has no 'poses'"),
        ([{"model": 0, "poses": [{"rotation": [1, 0, 0, 0, 1, 0, 0, 0, 1]}]}],
         "[0].poses[0] has no 'translation'"),
        # this one exited 3 with numpy's reshape message, naming no file
        ([{"rotation": [1, 0, 0, 0], "translation": [0, 0, 0]}],
         "[0].rotation must be 9 numbers, not [1, 0, 0, 0]"),
        ([{"rotation": [1, 0, 0, 0, 1, 0, 0, 0, 1], "translation": [0, "x", 0]}],
         '[0].translation[1] must be a number, not "x"'),
    ], ids=["pose_without_rotation", "top_level_object", "pose_not_an_object",
            "group_without_poses", "grouped_pose_without_translation",
            "rotation_of_four_numbers", "translation_not_numbers"])
    def test_malformed_pose_file_is_a_data_error(self, workspace, capsys, raw, what):
        # these once exited 3 naming only a key or index, or ended in a traceback
        lig = make_structure([[0.0, 3.0, 0.0]])
        (workspace / "ligand.pdb").write_text(models_text(lig, [lig.positions()] * 2))
        path = workspace / "poses.json"
        path.write_text(json.dumps(raw))
        cfg = write_config(workspace, ligand=str(workspace / "ligand.pdb"), poses=str(path))
        capsys.readouterr()
        assert main(["bindsite", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"moluq: data error: {path}") and err.endswith(f"{what}\n"), err
        assert not (workspace / "run" / "bindsite_atoms.csv").exists()


class TestVolmapModes:
    def test_volmap_and_modes(self, workspace):
        cfg = write_config(workspace, samples=6, seed=2, spacing=0.8)
        assert main(["sample", "--config", str(cfg)]) == 0
        assert main(["volmap", "--config", str(cfg)]) == 0
        assert main(["modes", "--config", str(cfg)]) == 0
        out = workspace / "run"
        dx_text = (out / "occupancy.dx").read_text()
        assert "object 1 class gridpositions" in dx_text
        modes = (out / "modes.csv").read_text().strip().splitlines()
        assert len(modes) == 1 + 5  # header + one row per atom
        var1 = [float(r.split(",")[1]) for r in modes[1:]]
        assert all(v >= 0 for v in var1)

    @pytest.mark.parametrize("key, message", [
        ("spacing", "spacing must be finite and positive"),
        ("radius_mode", "fixed radius must be finite and positive"),
    ])
    def test_volmap_rejects_nan_config(self, workspace, capsys, key, message):
        # json reads the bare NaN token; before, volmap wrote an all-zero 1x1x1 grid
        cfg = write_config(workspace, samples=4, seed=2, spacing=0.8)
        assert main(["sample", "--config", str(cfg)]) == 0
        cfg = write_config(workspace, samples=4, seed=2, **{"spacing": 0.8, key: math.nan})
        assert f'"{key}": NaN' in cfg.read_text()
        capsys.readouterr()
        assert main(["volmap", "--config", str(cfg)]) == 3
        assert message in capsys.readouterr().err
        assert not (workspace / "run" / "occupancy.dx").exists()

    @pytest.mark.parametrize("command", ["qoi", "volmap", "modes"])
    def test_rejects_ensemble_of_other_serials(self, workspace, capsys, command):
        # same atom count, serials 7..11 against the structure's 1..5
        cfg = write_config(workspace, samples=4, seed=2, spacing=0.8, qoi=["lj"])
        assert main(["sample", "--config", str(cfg)]) == 0
        ensemble = workspace / "run" / "ensemble.pdb"
        first, coords = parse_pdb_models(ensemble.read_text())
        shifted = replace(first, serials=first.serials + 6)
        ensemble.write_text(models_text(shifted, coords))
        capsys.readouterr()
        assert main([command, "--config", str(cfg)]) == 3
        assert "ensemble lists serial 7 where the structure lists serial 1" in capsys.readouterr().err


def test_bonds_are_detected_only_by_stages_that_read_them(workspace, monkeypatch):
    from moluq import molio
    lig = make_structure([[0.0, 3.0, 0.0]])
    (workspace / "ligand.pdb").write_text(pdb_text(lig))
    identity = {"rank": 1, "rotation": [1, 0, 0, 0, 1, 0, 0, 0, 1], "translation": [0, 0, 0]}
    (workspace / "poses.json").write_text(json.dumps([identity]))
    cfg = write_config(workspace, samples=4, seed=2, spacing=0.8, qoi=["lj", "delta_lj"],
                       ligand=str(workspace / "ligand.pdb"), poses=str(workspace / "poses.json"))
    calls = []
    real = molio.detect_bonds
    monkeypatch.setattr(molio, "detect_bonds", lambda s: calls.append(1) or real(s))
    for command, want in [("sample", 1), ("qoi", 1), ("volmap", 0), ("modes", 0),
                          ("bindsite", 0)]:
        calls.clear()
        assert main([command, "--config", str(cfg)]) == 0
        assert len(calls) == want, command


class TestReplayAndExitCodes:
    def test_replay_byte_identical(self, workspace):
        cfg = write_config(workspace, samples=8, seed=13, qoi=["lj", "coulomb"])
        assert main(["sample", "--config", str(cfg)]) == 0
        assert main(["qoi", "--config", str(cfg)]) == 0
        out = workspace / "run"
        original = (out / "qoi_values.csv").read_bytes()
        sidecar = out / "qoi_meta.json"
        assert sidecar.exists()
        # sidecar records resolved input paths, so replay works from anywhere
        replay_out = workspace / "replayed"
        assert main(["replay", str(sidecar), "--out", str(replay_out)]) == 0
        assert (replay_out / "qoi_values.csv").read_bytes() == original

    def _certify_sidecar(self, workspace):
        out = workspace / "run"
        out.mkdir()
        rows = ["qoi,sample_index,value"] + [f"x,{i},{i % 5}.0" for i in range(20)]
        (out / "qoi_values.csv").write_text("\n".join(rows) + "\n")
        assert main(["certify", "--config", str(write_config(workspace))]) == 0
        return out / "certify_meta.json", (out / "certificates.csv").read_bytes()

    @pytest.mark.parametrize("change, message", [
        ({"t_grid": "abc"}, "config key 't_grid' must be an array, not \"abc\""),
        ({"command": "nosuch"}, "not the sidecar of a moluq command (its command: 'nosuch')"),
        ({"config": [1]}, "config: a run config must be a JSON object, not list"),
    ], ids=["t_grid_string", "unknown_command", "config_not_an_object"])
    def test_replayed_sidecar_is_checked_like_a_config(self, workspace, capsys, change,
                                                       message):
        # the first two once exited 3 ("could not convert string to float: 'a'",
        # "'nosuch'")
        sidecar, _ = self._certify_sidecar(workspace)
        meta = json.loads(sidecar.read_text())
        if "t_grid" in change:
            meta["config"].update(change)
        else:
            meta.update(change)
        sidecar.write_text(json.dumps(meta))
        capsys.readouterr()
        assert main(["replay", str(sidecar), "--out", str(workspace / "again")]) == 1
        assert message in capsys.readouterr().err

    def test_replayed_sidecar_takes_defaults_for_missing_keys(self, workspace):
        # a sidecar without t_grid once exited 3 with "domain error: 't_grid'"
        sidecar, original = self._certify_sidecar(workspace)
        meta = json.loads(sidecar.read_text())
        del meta["config"]["t_grid"]
        sidecar.write_text(json.dumps(meta))
        assert main(["replay", str(sidecar), "--out", str(workspace / "again")]) == 0
        assert (workspace / "again" / "certificates.csv").read_bytes() == original

    @pytest.mark.parametrize("which", ["config", "manifest", "poses", "bound_config",
                                       "params"])
    def test_json_syntax_error_names_its_file(self, workspace, capsys, which):
        # each once printed only json's message, such as "Expecting ',' delimiter"
        workspace = workspace.resolve()  # input paths are named resolved
        lig = make_structure([[0.0, 3.0, 0.0]])
        (workspace / "ligand.pdb").write_text(pdb_text(lig))
        path = workspace / f"{which}.json"
        cfg = write_config(workspace, samples=3, seed=5, qoi=["lj"],
                           ligand=str(workspace / "ligand.pdb"),
                           **({which: str(path)} if which in ("poses", "bound_config", "params")
                              else {}))
        command = {"config": "certify", "manifest": "qoi", "poses": "bindsite",
                   "bound_config": "bound", "params": "sample"}[which]
        if which == "manifest":
            assert main(["sample", "--config", str(cfg)]) == 0
            path = workspace / "run" / "manifest.json"
        elif which == "config":
            path = cfg
        path.write_text('[{"rotation": [1, 0')  # a file cut short
        capsys.readouterr()
        assert main([command, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"moluq: data error: {path}: Expecting "), err

    def test_usage_error_exit_1(self, workspace):
        assert main(["sample"]) == 1  # no config/out at all

    def test_missing_input_exit_1(self, workspace):
        cfg = write_config(workspace, structure=str(workspace / "absent.pdb"), samples=2)
        assert main(["sample", "--config", str(cfg)]) == 1

    def test_parse_error_exit_2(self, workspace):
        (workspace / "bad.pdb").write_text("ATOM      1  C   GLY A   1     bad")
        cfg = write_config(workspace, structure=str(workspace / "bad.pdb"), samples=2)
        assert main(["sample", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("which", ["structure", "ensemble", "config"])
    def test_a_byte_that_is_not_utf8_is_a_data_error(self, workspace, capsys, which):
        cfg = write_config(workspace, samples=2, seed=3, qoi=["area"])
        assert main(["sample", "--config", str(cfg)]) == 0
        path = {"structure": workspace / "input.pdb", "config": cfg,
                "ensemble": workspace / "run" / "ensemble.pdb"}[which]
        data = path.read_bytes()
        # column 73 of the first ATOM line, or a byte inside a JSON string
        at = data.index(b"ATOM") + 72 if which != "config" else data.index(b"input.pdb")
        path.write_bytes(data[:at] + b"\xe9" + data[at + 1:])
        capsys.readouterr()
        assert main(["sample" if which == "structure" else "qoi", "--config", str(cfg)]) == 2
        named = str(path) if which == "config" else str(path.resolve())
        assert capsys.readouterr().err == (f"moluq: data error: {named}: byte {at} (0xe9) is "
                                           "not UTF-8 text: invalid continuation byte\n")

    @pytest.mark.parametrize("command, raw, message", [
        ("sample", [1, 2], "a run config must be a JSON object, not list"),
        ("sample", {"samples": "4"},
         "config key 'samples' must be an integer or null, not \"4\""),
        ("qoi", {"n_points": [960]}, "config key 'n_points' must be an integer, not [960]"),
        ("certify", {"t_grid": 5}, "config key 't_grid' must be an array, not 5"),
        ("qoi", {"dielectric": 1.0}, "config key 'dielectric' must be an object, not 1.0"),
    ], ids=["top_level_list", "samples_string", "n_points_list", "t_grid_number",
            "dielectric_number"])
    def test_config_value_of_wrong_json_type_exits_1(self, workspace, capsys, command, raw,
                                                     message):
        # each once ended in a TypeError traceback
        if isinstance(raw, dict):
            cfg = write_config(workspace, **raw)
        else:
            cfg = workspace / "config.json"
            cfg.write_text(json.dumps(raw))
        capsys.readouterr()
        assert main([command, "--config", str(cfg)]) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("argv, raw, message", [
        (["sample"], {"smaples": 3},
         "config key 'smaples' is not a known key; did you mean 'samples'?"),
        (["sample"], {"seed": 1.5}, "config key 'seed' must be an integer, not 1.5"),
        (["sample"], {"samples": True},
         "config key 'samples' must be an integer or null, not true"),
        (["sample", "--samples", "0"], {}, "config key 'samples' must be >= 1, not 0"),
        (["qoi"], {"workers": 0}, "config key 'workers' must be >= 1, not 0"),
        (["qoi"], {"n_points": 2.5}, "config key 'n_points' must be an integer, not 2.5"),
        (["certify"], {"t_grid": ["a"]}, "config key 't_grid[0]' must be a number, not \"a\""),
        (["qoi"], {"qoi": ["area", "bogus"]},
         "config key 'qoi[1]' must be one of \"area\", \"volume\", \"lj\", \"coulomb\""),
        (["qoi"], {"dielectric": {"mode": "weird"}}, "config key 'dielectric.mode' must be "
         "one of \"constant\", \"distance_dependent\", not \"weird\""),
        (["qoi"], {"dielectric": {"mode": "constant"}}, "config key 'dielectric' has no 'value'"),
        (["certify"], {"values": 7}, "config key 'values' must be a string or null, not 7"),
        (["saturate"], {"saturation_mode": "bogus"},
         "config key 'saturation_mode' must be one of \"incremental\", \"full\", not \"bogus\""),
        (["volmap"], {"radius_mode": "abc"},
         "config key 'radius_mode' must be one of \"vdw\", not \"abc\""),
        (["bound"], {"bound": {"kernel": {"terms": [[1.0, 1.0]]}, "box": [[1.0, 2.0]],
                               "mc_draws": -1}},
         "config key 'bound.mc_draws' must be >= 0, not -1"),
        (["bound"], {"bound": {"mode": "azuma"}}, "config key 'bound' has no 'c'"),
    ], ids=["misspelled_key", "seed_fraction", "samples_bool", "samples_flag_zero",
            "workers_zero", "n_points_fraction", "t_grid_string", "qoi_unknown",
            "dielectric_mode", "dielectric_without_value", "values_number",
            "saturation_mode", "radius_mode", "inline_mc_draws", "inline_azuma_without_c"])
    def test_config_outside_the_table_exits_1(self, workspace, capsys, argv, raw, message):
        # the misspelled key, the fractions and workers 0 once exited 0 (the
        # key ignored, the values truncated); the rest exited 2 or 3 naming no
        # key, or ended in a traceback
        cfg = write_config(workspace, **raw)
        capsys.readouterr()
        assert main([*argv, "--config", str(cfg)]) == 1
        assert message in capsys.readouterr().err
        assert not (workspace / "run").exists()

    @pytest.mark.parametrize("raw, what", [
        ([1, 2], " must be an object, not [1, 2]"),
        ({"elements": {"C": {"radius": 1.7, "lj_a": 1.0, "lj_b": 1.0}}},
         ": elements.C has no 'charge'"),
        ({"overrides": [{"residue": "GLY", "atom": "CA", "radius": "x", "charge": 0.0,
                         "lj_a": 1.0, "lj_b": 1.0}]},
         ': overrides[0].radius must be a number, not "x"'),
    ], ids=["top_level_list", "row_without_charge", "radius_string"])
    def test_malformed_parameter_file_is_a_data_error(self, workspace, capsys, raw, what):
        # the list ended in an AttributeError traceback, the missing charge
        # exited 3 with "domain error: 'charge'"
        path = workspace / "params.json"
        path.write_text(json.dumps(raw))
        cfg = write_config(workspace, samples=2, params=str(path))
        capsys.readouterr()
        assert main(["sample", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"moluq: data error: {path}{what}\n"

    def test_domain_error_exit_3(self, workspace):
        out = workspace / "run"
        out.mkdir()
        rows = ["qoi,sample_index,value"] + [f"zero,{i},0.0" for i in range(15)]
        (out / "qoi_values.csv").write_text("\n".join(rows) + "\n")
        cfg = write_config(workspace)
        assert main(["certify", "--config", str(cfg)]) == 3

    def test_nan_parameter_file_exits_3(self, workspace, capsys):
        from moluq.molio import ParamTable
        raw = param_table_json(ParamTable.default())
        raw["elements"]["C"]["radius"] = math.nan
        (workspace / "params.json").write_text(json.dumps(raw))
        cfg = write_config(workspace, samples=2, params=str(workspace / "params.json"))
        capsys.readouterr()
        assert main(["sample", "--config", str(cfg)]) == 3
        assert "vdw_radius must be finite and positive" in capsys.readouterr().err

    def test_unknown_command_exit_1(self):
        assert main(["frobnicate"]) == 1

    def test_workers_do_not_change_output(self, workspace):
        cfg = write_config(workspace, samples=6, seed=4, qoi=["lj", "gb"])
        main(["sample", "--config", str(cfg)])
        main(["qoi", "--config", str(cfg)])
        one = (workspace / "run" / "qoi_values.csv").read_bytes()
        main(["qoi", "--config", str(cfg), "--workers", "4",
              "--out", str(workspace / "run")])
        many = (workspace / "run" / "qoi_values.csv").read_bytes()
        assert one == many


def test_readme_lists_the_run_config_table():
    """README.md's run-config table lists exactly the schema's keys, each
    with its JSON type and default."""
    import re
    from moluq import schema
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Run config\n", 1)[1].split("\n#", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| ([^|]+) \| `([^`]*)` \|", section, re.MULTILINE)
    assert {key: (kind.strip(), json.loads(default)) for key, kind, default in rows} == {
        key: (spec.type.replace("|", " or "), spec.default)
        for key, spec in schema.CONFIG.items()}
    assert len(rows) == len(schema.CONFIG)


def test_schema_lists_every_qoi_kind():
    from moluq import qoi, schema
    assert list(schema.QOI_NAMES) == [k.value for k in qoi.QOIKind]


# the moluq modules besides the package, moluq.cli and moluq.schema that each
# command runs
STAGE_MODULES = {
    "sample": {"molio", "pairs", "conformers", "sampling"},
    "qoi": {"molio", "pairs", "qoi", "vizgrid"},
    "certify": {"certificates"},
    "saturate": {"certificates"},
    "bound": {"bounds", "sampling"},
    "bindsite": {"molio", "pairs", "vizgrid", "bindsite"},
    "volmap": {"molio", "pairs", "vizgrid"},
    "modes": {"molio", "pairs", "conformers", "sampling"},
}
# the commands that compute with pure Python only
NUMPY_FREE = {"certify", "saturate"}


class TestImportHygiene:
    def test_each_command_loads_only_the_modules_it_runs(self, workspace):
        """A fresh interpreter per command runs ``main`` and lists the moluq
        modules it loaded: a stage compiles no module it does not call, only
        ``--workers 2`` loads concurrent.futures, difflib, which only an
        unknown config key needs, never loads, certify and saturate load no
        numpy, and no command loads numpy.random: moluq draws from its own
        PCG64 stream."""
        import moluq
        lig = make_structure([[0.0, 3.0, 0.0]])
        (workspace / "ligand.pdb").write_text(pdb_text(lig))
        (workspace / "poses.json").write_text(json.dumps(
            [{"rotation": [1, 0, 0, 0, 1, 0, 0, 0, 1], "translation": [0, 0, 0]}]))
        cfg = write_config(workspace, samples=24, seed=2, qoi=["area", "volume", "lj"],
                           n_points=32, spacing=0.8, ligand=str(workspace / "ligand.pdb"),
                           poses=str(workspace / "poses.json"),
                           bound={"kernel": {"terms": [[1.0, 1.0]]}, "box": [[1.0, 2.0]]})
        runs = [[command, "--config", str(cfg)] for command in STAGE_MODULES]
        runs.append(["qoi", "--config", str(cfg), "--workers", "2"])
        script = textwrap.dedent("""
            import json, sys
            import moluq.cli

            code = moluq.cli.main(json.loads(sys.argv[1]))
            print(json.dumps({"exit": code, "futures": "concurrent.futures" in sys.modules,
                              "difflib": "difflib" in sys.modules,
                              "numpy": "numpy" in sys.modules,
                              "numpy.random": "numpy.random" in sys.modules,
                              "modules": sorted(m for m in sys.modules
                                                if m.split(".")[0] == "moluq")}))
        """)
        src = str(Path(moluq.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        for argv in runs:
            result = subprocess.run([sys.executable, "-c", script, json.dumps(argv)],
                                    env=env, capture_output=True, text=True, timeout=300)
            assert result.returncode == 0, result.stderr
            got = json.loads(result.stdout.splitlines()[-1])
            want = ["moluq", "moluq.cli", "moluq.schema"] + [
                f"moluq.{m}" for m in STAGE_MODULES[argv[0]]]
            assert got == {"exit": 0, "futures": argv[-1] == "2", "difflib": False,
                           "numpy": argv[0] not in NUMPY_FREE, "numpy.random": False,
                           "modules": sorted(want)}, argv

    def test_no_source_file_imports_scipy(self):
        """No module under src/moluq imports scipy, at any depth: its only
        runtime role is the Sobol direction-number table file it installs."""
        import ast
        import moluq
        found = []
        for path in sorted(Path(moluq.__file__).parent.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module or ""]
                else:
                    continue
                found += [f"{path.name}:{node.lineno} {name}" for name in names
                          if name.split(".")[0] == "scipy"]
        assert found == []

    def test_pipeline_stages_never_import_scipy(self, workspace):
        """A fresh interpreter runs sample (Cartesian with the clash filter,
        then torsion), qoi and saturate through ``main`` and checks after
        each that no scipy module was loaded: start-up stays numpy-only."""
        import moluq
        from conftest import zigzag_chain
        chain = make_structure(zigzag_chain(6), bonds=tuple((i, i + 1) for i in range(5)))
        (workspace / "chain.pdb").write_text(pdb_text(chain))
        cart = write_config(workspace, samples=16, seed=3, clash_factor=0.6,
                            qoi=["area", "lj", "delta_area"], n_points=32)
        tors = workspace / "torsion.json"
        tors.write_text(json.dumps({"structure": str(workspace / "chain.pdb"),
                                    "out": str(workspace / "torsion"), "mode": "torsion",
                                    "samples": 4, "seed": 2, "clash_factor": 0.6}))
        steps = [["sample", "--config", str(cart)], ["qoi", "--config", str(cart)],
                 ["saturate", "--config", str(cart)], ["sample", "--config", str(tors)]]
        script = textwrap.dedent("""
            import json, sys
            import moluq.cli

            def loaded_scipy():
                return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")[:3]

            assert not loaded_scipy(), ("import moluq.cli", loaded_scipy())
            for argv in json.loads(sys.argv[1]):
                assert moluq.cli.main(argv) == 0, argv
                assert not loaded_scipy(), (argv[0], loaded_scipy())
        """)
        src = str(Path(moluq.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        result = subprocess.run([sys.executable, "-c", script, json.dumps(steps)],
                                env=env, capture_output=True, text=True, timeout=300)
        assert result.returncode == 0, result.stderr
        assert (workspace / "run" / "saturation.json").exists()
        assert (workspace / "torsion" / "ensemble.pdb").exists()

    @pytest.mark.skipif(not Path("/proc/self/task").is_dir(),
                        reason="counts threads in Linux's /proc/self/task")
    @pytest.mark.skipif("openblas" not in np.__config__.CONFIG["Build Dependencies"]["blas"]
                        ["name"], reason="numpy's BLAS is not OpenBLAS")
    @pytest.mark.parametrize("caller, threads", [(None, 1), ("2", 2)],
                             ids=["unset", "caller_sets_2"])
    def test_a_stage_runs_one_blas_thread(self, workspace, caller, threads):
        """A fresh process that runs a qoi stage through ``main`` has one
        thread afterwards: OpenBLAS started none of its own, unless the
        caller chose its thread count."""
        import moluq
        cfg = write_config(workspace, samples=3, seed=2, qoi=["lj"])
        assert main(["sample", "--config", str(cfg)]) == 0
        script = textwrap.dedent("""
            import os, sys
            import moluq.cli

            code = moluq.cli.main(["qoi", "--config", sys.argv[1]])
            print(code, len(os.listdir("/proc/self/task")))
        """)
        src = str(Path(moluq.__file__).resolve().parents[1])
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
        env["PYTHONPATH"] = src
        if caller is not None:
            env["OPENBLAS_NUM_THREADS"] = caller
        result = subprocess.run([sys.executable, "-c", script, str(cfg)], env=env,
                                capture_output=True, text=True, timeout=300)
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["0", str(threads)]
