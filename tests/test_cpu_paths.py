"""QOI values that do not depend on the CPU path numpy and OpenBLAS take.

A small ``sample -> qoi`` chain runs in subprocesses, once with default
settings and once with numpy held to AVX2 (``NPY_DISABLE_CPU_FEATURES``) and
OpenBLAS to its Sandy Bridge kernels (``OPENBLAS_CORETYPE``).  Every energy
and area is an exact sum rounded once from IEEE-rounded terms, so the two
``qoi_values.csv`` files must be byte-identical.  On a CPU without AVX-512
the first variable disables nothing, and the test still holds.
"""

import hashlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import moluq

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
EMULATED = {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR",
            "OPENBLAS_CORETYPE": "Sandybridge"}
SPEC = {"shape": "lattice", "atoms": 200,
        "config": {"seed": 7, "mode": "cartesian", "clash_factor": None, "samples": 4,
                   "qoi": ["area", "lj", "coulomb", "gb",
                           "delta_area", "delta_lj", "delta_coulomb", "delta_gb"],
                   "chain_a": "A", "chain_b": "B", "n_points": 240, "workers": 1}}


def _write_inputs(directory: Path) -> Path:
    spec = importlib.util.spec_from_file_location("perfbench_gen", PERFBENCH / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen.write_inputs(SPEC, 1, directory)["config"]


def _qoi_values_digest(config: Path, out: Path, env: dict) -> str:
    for command in ("sample", "qoi"):
        proc = subprocess.run([sys.executable, "-m", "moluq.cli", command, "--config",
                               str(config), "--out", str(out)],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
    return hashlib.sha256((out / "qoi_values.csv").read_bytes()).hexdigest()


def test_qoi_values_do_not_depend_on_the_cpu_path(tmp_path):
    config = _write_inputs(tmp_path / "in")
    src = str(Path(moluq.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k not in EMULATED}
    env["PYTHONPATH"] = src
    default = _qoi_values_digest(config, tmp_path / "default", env)
    emulated = _qoi_values_digest(config, tmp_path / "emulated", {**env, **EMULATED})
    assert default == emulated
