"""SHA-256 of every stage output of the benchmark workloads.

For each workload in ``perfbench/workloads.py``, on seeds 1 and 4, this
writes the inputs with ``perfbench/gen.write_inputs`` and runs the stage
chain through ``python -m moluq.cli``.  Each seed of a workload with poses
(``maps``) adds one ``bindsite`` run on a flat pose list, the first group's
poses, whose outputs go to ``flat/``.  It prints one line
``<sha256>  <workload>-<seed>/<file>`` per output except ``*_meta.json``
(they record times and versions), sorted by file, and exits non-zero
naming the stage when one fails.

Each stage inherits the caller's environment and everything is written in a
temporary directory, so::

    PYTHONPATH=<checkout>/src python3 tools/output_hashes.py > hashes.txt

hashes that checkout's moluq; two checkouts give the same lines when their
outputs are byte-identical.  ``--keep DIR`` also copies the hashed outputs
to ``DIR/<workload>-<seed>/``, which must not exist yet, so that
``tools/output_diff.py`` can say how far two checkouts' outputs differ.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from gen import write_inputs  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEEDS = (1, 4)


class StageFailed(RuntimeError):
    pass


def _run(label: str, argv: list[str]) -> None:
    proc = subprocess.run([sys.executable, "-m", "moluq.cli", *argv],
                          stdin=subprocess.DEVNULL, capture_output=True, text=True)
    if proc.returncode != 0:
        raise StageFailed(f"{label}: exit code {proc.returncode}: {proc.stderr.strip()}")


def workload_hashes(name: str, spec: dict, seed: int, directory: Path,
                    keep: Path | None = None) -> list[str]:
    """Run ``spec``'s chain on inputs from ``seed`` in ``directory``; returns
    the ``<sha256>  <name>-<seed>/<file>`` lines of its outputs, sorted by file,
    and copies those outputs to ``keep`` when it is given."""
    files = write_inputs(spec, seed, directory)
    config = json.loads(files["config"].read_text())
    for command, flags in spec["stages"]:
        _run(f"{name}-{seed} {command}", [command, "--config", str(files["config"]), *flags])
    if "poses" in files:
        flat = directory / "poses_flat.json"
        flat.write_text(json.dumps(json.loads(files["poses"].read_text())[0]["poses"]) + "\n")
        flat_config = directory / "config_flat.json"
        flat_config.write_text(json.dumps(
            {**config, "poses": str(flat), "out": str(Path(config["out"]) / "flat")}))
        _run(f"{name}-{seed} bindsite (flat poses)", ["bindsite", "--config", str(flat_config)])
    out = Path(config["out"])
    if keep is not None:
        shutil.copytree(out, keep, ignore=shutil.ignore_patterns("*_meta.json"))
    return [f"{hashlib.sha256(path.read_bytes()).hexdigest()}  "
            f"{name}-{seed}/{path.relative_to(out).as_posix()}"
            for path in sorted(out.rglob("*"))
            if path.is_file() and not path.name.endswith("_meta.json")]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--keep", type=Path, metavar="DIR",
                        help="also copy the hashed outputs to DIR/<workload>-<seed>/")
    args = parser.parse_args(argv)
    if args.keep is not None and args.keep.exists():
        print(f"output_hashes: {args.keep} exists already", file=sys.stderr)
        return 1
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        try:
            for name, spec in WORKLOADS.items():
                for seed in SEEDS:
                    label = f"{name}-{seed}"
                    lines += workload_hashes(name, spec, seed, Path(tmp) / label,
                                             None if args.keep is None else args.keep / label)
        except StageFailed as err:
            print(f"output_hashes: {err}", file=sys.stderr)
            return 1
    print("\n".join(sorted(lines, key=lambda line: line.split("  ", 1)[1])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
