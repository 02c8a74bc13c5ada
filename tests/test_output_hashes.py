"""``tools/output_hashes.py`` hashes the same outputs on every run."""

import copy
import hashlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _load():
    spec = importlib.util.spec_from_file_location("output_hashes",
                                                  ROOT / "tools" / "output_hashes.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def small_surface(module):
    spec = copy.deepcopy(module.WORKLOADS["surface"])
    spec["atoms"] = 60
    return spec


def test_workload_hashes_repeat(tmp_path):
    module = _load()
    spec = small_surface(module)
    first = module.workload_hashes("surface", spec, 1, tmp_path / "a")
    second = module.workload_hashes("surface", spec, 1, tmp_path / "b")
    assert first == second
    assert first
    assert not [line for line in first if line.endswith("_meta.json")]
    assert all(line.split("  ")[1].startswith("surface-1/") for line in first)


def test_failed_stage_is_named(tmp_path):
    module = _load()
    spec = small_surface(module)
    spec["config"]["probe"] = -1.0  # a domain error that only the qoi stage meets
    with pytest.raises(module.StageFailed, match=r"^surface-1 qoi: exit code 3: moluq: "):
        module.workload_hashes("surface", spec, 1, tmp_path)


def test_hashes_do_not_depend_on_the_blas_thread_count(tmp_path, monkeypatch):
    """Stages inherit the caller's environment: one thread by default, two
    when the caller asks OpenBLAS for two, and every output the same."""
    module = _load()
    spec = small_surface(module)
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(name, raising=False)
    default = module.workload_hashes("surface", spec, 1, tmp_path / "default")
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    two_threads = module.workload_hashes("surface", spec, 1, tmp_path / "two")
    assert default == two_threads
    assert default


def test_keep_copies_the_hashed_outputs(tmp_path):
    module = _load()
    spec = small_surface(module)
    lines = module.workload_hashes("surface", spec, 1, tmp_path / "run", tmp_path / "kept")
    kept = sorted(p for p in (tmp_path / "kept").rglob("*") if p.is_file())
    assert [f"{hashlib.sha256(p.read_bytes()).hexdigest()}  surface-1/"
            f"{p.relative_to(tmp_path / 'kept').as_posix()}" for p in kept] == lines
