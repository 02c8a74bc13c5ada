"""The benchmark's traced pass still fits the code under ``src/``.

``perfbench/spans.py`` names moluq functions in ``TARGETS``, and
``perfbench/memory_pass.py`` calls moluq's kernels and constructors directly;
a rename or a changed signature in ``src/`` would otherwise surface only when
the traced benchmark runs.
"""

import copy
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _targets():
    return [(mod, qual) for mod, names in _load("spans").TARGETS.items() for qual in names]


@pytest.mark.parametrize("mod_name, qual", _targets())
def test_span_target_resolves(mod_name, qual):
    mod = importlib.import_module(f"moluq.{mod_name}")
    if "." in qual:
        cls_name, meth = qual.split(".")
        assert meth in vars(getattr(mod, cls_name))
    else:
        assert callable(getattr(mod, qual))


@pytest.mark.parametrize("workload, peaks", [
    ("surface", ["molio.detect_bonds", "qoi.sasa", "qoi.volume"]),
    ("energy", ["molio.detect_bonds", "conformers.clash_filter", "qoi.lj_energy",
                "qoi.coulomb_energy", "qoi.born_radii", "qoi.gb_polarization"]),
])
def test_memory_pass_runs_on_a_small_workload(tmp_path, workload, peaks):
    spec = copy.deepcopy(_load("workloads").WORKLOADS[workload])
    spec["atoms"] = 60
    files = _load("gen").write_inputs(spec, 1, tmp_path / "inputs")
    out = tmp_path / "peaks.json"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(PERFBENCH / "memory_pass.py"),
                           str(files["config"]), str(out)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert sorted(json.loads(out.read_text())) == sorted(f"{p}.peak_mib" for p in peaks)


def test_span_target_modules_resolve_as_package_attributes():
    """``spans.install`` reads each target module as ``getattr(moluq, name)``
    after ``import moluq.cli``, which no longer imports them: the package
    loads a submodule on first attribute access, and only a submodule."""
    script = (
        "import json, sys\n"
        "import moluq, moluq.cli\n"
        "names = json.loads(sys.argv[1])\n"
        "mods = {name: getattr(moluq, name).__name__ for name in names}\n"
        "print(json.dumps([mods, hasattr(moluq, 'nosuch')]))\n"
    )
    names = list(_load("spans").TARGETS)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(names)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    mods, has_nosuch = json.loads(proc.stdout)
    assert mods == {name: f"moluq.{name}" for name in names}
    assert has_nosuch is False
