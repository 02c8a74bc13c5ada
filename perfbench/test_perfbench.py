"""Tests of the benchmark's own code: seeded inputs, output check and spans.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import check  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from moluq import cli  # noqa: E402

# a small chain that exercises every checked stage in a few seconds
TINY = {
    "shape": "lattice", "atoms": 60, "ligand_atoms": 4, "ligand_models": 2, "poses": 3,
    "config": {"seed": 3, "mode": "cartesian", "clash_factor": 0.5, "samples": 14,
               "qoi": ["volume", "lj"], "chain_a": "A", "chain_b": "B", "spacing": 1.0},
    "stages": [("sample", []), ("qoi", []), ("certify", []), ("saturate", []),
               ("volmap", []), ("modes", []), ("bindsite", []), ("bound", [])],
}


def _texts(files: dict, directory: Path) -> dict:
    return {role: path.read_text().replace(str(directory), "<dir>")
            for role, path in files.items()}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(name, tmp_path):
    spec = WORKLOADS[name]
    first = _texts(gen.write_inputs(spec, 5, tmp_path / "a"), tmp_path / "a")
    again = _texts(gen.write_inputs(spec, 5, tmp_path / "b"), tmp_path / "b")
    other = _texts(gen.write_inputs(spec, 6, tmp_path / "c"), tmp_path / "c")
    assert first == again
    assert first["structure"] != other["structure"]


def test_lattice_has_two_chains_and_cycling_elements(tmp_path):
    files = gen.write_inputs(WORKLOADS["energy"], 1, tmp_path)
    atoms = [ln for ln in files["structure"].read_text().splitlines() if ln.startswith("ATOM")]
    assert len(atoms) == 1000
    assert {ln[21] for ln in atoms} == {"A", "B"}
    assert [ln[76:78].strip() for ln in atoms[:5]] == ["C", "C", "N", "C", "O"]


@pytest.fixture(scope="module")
def tiny_outputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("tiny")
    files = gen.write_inputs(TINY, 2, directory)
    out = directory / "out"
    for command, flags in TINY["stages"]:
        assert cli.main([command, "--config", str(files["config"]), *flags]) == 0
    ctx = {**json.loads(files["config"].read_text()), "atoms": TINY["atoms"]}
    return out, ctx


def _copy(out: Path, tmp_path: Path) -> Path:
    dst = tmp_path / "out"
    dst.mkdir()
    for f in out.iterdir():
        (dst / f.name).write_bytes(f.read_bytes())
    return dst


def test_valid_outputs_pass_the_check(tiny_outputs):
    out, ctx = tiny_outputs
    reference = {cmd: check.snapshot(cmd, out) for cmd, _ in TINY["stages"]}
    for command, _flags in TINY["stages"]:
        assert check.check_stage(command, out, ctx, reference) == []


def _replace_line(path: Path, index: int, edit):
    lines = path.read_text().splitlines()
    lines[index] = edit(lines[index])
    path.write_text("\n".join(lines) + "\n")


CORRUPTIONS = {
    "epsilon_above_one": ("certify", lambda out: _replace_line(
        out / "certificates.csv", 1, lambda ln: ln.rsplit(",", 1)[0] + ",1.5")),
    "qoi_row_missing": ("qoi", lambda out: (out / "qoi_values.csv").write_text(
        "\n".join((out / "qoi_values.csv").read_text().splitlines()[:-1]) + "\n")),
    "qoi_not_finite": ("qoi", lambda out: _replace_line(
        out / "qoi_values.csv", 1, lambda ln: ln.rsplit(",", 1)[0] + ",nan")),
    "draw_lost": ("sample", lambda out: (out / "manifest.json").write_text(json.dumps(
        {**json.loads((out / "manifest.json").read_text()), "rejected": []}))),
    "modes_unsorted": ("modes", lambda out: _replace_line(
        out / "modes.csv", 1, lambda ln: ",".join(
            ln.split(",")[:1] + ["-1.0"] + ln.split(",")[2:]))),
    "occupancy_above_one": ("volmap", lambda out: _replace_line(
        out / "occupancy.dx", 7, lambda ln: " ".join(["2"] + ln.split()[1:]))),
    "bound_above_one": ("bound", lambda out: _replace_line(
        out / "bounds.csv", 1, lambda ln: ",".join(
            ln.split(",")[:1] + ["1.25"] + ln.split(",")[2:]))),
    "meta_missing": ("saturate", lambda out: (out / "saturate_meta.json").unlink()),
}


@pytest.mark.parametrize("case", sorted(CORRUPTIONS))
def test_corrupted_output_is_flagged(case, tiny_outputs, tmp_path):
    out, ctx = tiny_outputs
    command, corrupt = CORRUPTIONS[case]
    copy = _copy(out, tmp_path)
    corrupt(copy)
    assert check.check_stage(command, copy, ctx) != []


def test_reference_compares_qoi_values_to_1e12(tiny_outputs, tmp_path):
    out, ctx = tiny_outputs
    reference = {"qoi": check.snapshot("qoi", out)}
    copy = _copy(out, tmp_path)

    def scale_first_value(factor):
        _replace_line(copy / "qoi_values.csv", 1, lambda ln: ",".join(
            ln.split(",")[:2] + [repr(float(ln.split(",")[2]) * factor)]))

    scale_first_value(1 + 1e-14)
    assert check.check_stage("qoi", copy, ctx, reference) == []
    scale_first_value(1 + 1e-9)
    assert check.check_stage("qoi", copy, ctx, reference) != []


def test_reference_digest_catches_a_changed_certificate(tiny_outputs, tmp_path):
    out, ctx = tiny_outputs
    reference = {"certify": check.snapshot("certify", out)}
    copy = _copy(out, tmp_path)
    _replace_line(copy / "certificates.csv", 1, lambda ln: ln.rsplit(",", 1)[0] + ",0.0")
    assert check.check_stage("certify", copy, ctx, reference) != []


def test_traced_stage_spans_every_binding(tiny_outputs, tmp_path):
    """bonded_exclusions is called through conformers and qoi bindings; both count."""
    out, _ctx = tiny_outputs
    config = json.loads((out.parent / "config.json").read_text())
    config["out"] = str(tmp_path)
    (tmp_path / "config.json").write_text(json.dumps(config))
    spans_path = tmp_path / "spans.json"
    for command in ("sample", "qoi"):
        res = subprocess.run(
            [sys.executable, str(HERE / "traced_stage.py"), "0", str(spans_path), command,
             "--config", str(tmp_path / "config.json")],
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        summary = spans.summarize(json.loads(spans_path.read_text())["spans"])
        assert summary["molio.bonded_exclusions"]["calls"] > 0
        assert f"cli.{command}" in summary
    assert summary["qoi.lj_energy"]["calls"] > 0


def test_self_time_subtracts_parallel_children_once():
    # parent [0, 10] with two overlapping children on worker threads
    recorded = [(1, 0, "child", 1.0, 6.0), (2, 0, "child", 2.0, 7.0), (0, None, "parent", 0.0, 10.0)]
    summary = spans.summarize(recorded)
    assert summary["parent"]["self_s"] == pytest.approx(4.0)
    assert summary["child"]["self_s"] == pytest.approx(10.0)
    assert summary["child"]["calls"] == 2


def test_percentile_needs_ten_calls_beyond_it():
    assert "p90_s" not in spans.per_call([1.0] * 99)
    assert "p90_s" in spans.per_call([1.0] * 100)
    assert "p99_s" in spans.per_call([1.0] * 1000)


def test_benchmark_json_matches_the_metrics_the_runner_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
