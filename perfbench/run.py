"""Benchmark moluq's CLI chain the way a user runs it, on seeded workloads.

Usage, from the repository root:

    python3 perfbench/run.py --workload surface --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # every workload, default seed
    python3 perfbench/run.py --workload energy --record-reference

One client runs the workload's stages in a closed loop, each as a fresh
``python -m moluq.cli`` process that starts only when the previous stage
has exited, under an address-space limit set in the child only.  Chains
repeat while another fits in ``--seconds``.  Every stage's outputs are
checked (see check.py); a stage that exits non-zero, is killed or writes
outputs that fail the check is a failed operation.

``--trace 1`` adds a traced chain (each stage runs ``moluq.cli.main`` in a
process with spans around every public function, see spans.py) and a
tracemalloc pass (memory_pass.py), and reports per-layer metrics instead of
end-to-end ones.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; a full record goes
to ``.perfbench_work/results/``.  README.md explains the workloads and
metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

import check
import spans
from gen import write_inputs
from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE = HERE / "reference.json"

# Well below the 7 GiB machine: a blow-up fails the stage, not the machine.
AS_LIMIT_BYTES = 3 * 2**30
DEADLINE_S = 170.0          # a run must end within 180 s
# set-up repeats: at least SETUP_MIN, then more until SETUP_BUDGET_S of
# generation or SETUP_MAX, so millisecond set-ups still get a steady median
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 9, 60, 0.5

END_TO_END = {"setup_s": "s", "pipeline_s": "s", "peak_rss_mib": "MiB"}
PER_LAYER = {
    "cli.startup_s": "s", "cli.sample.s": "s", "cli.sample.rss_mib": "MiB", "cli.self_s": "s",
    "molio.self_s": "s", "molio.parse_pdb.self_s": "s", "molio.assign_params.self_s": "s",
    "molio.detect_bonds.self_s": "s", "molio.write_pdb_models.self_s": "s",
    "sampling.self_s": "s", "conformers.self_s": "s",
    "trace.pipeline_s": "s", "trace.overhead": "ratio",
    "molio.detect_bonds.peak_mib": "MiB",
    "conformers.accepted": "count", "conformers.rejected": "count",
    "sampling.dimension": "count", "molio.pdb_bytes": "bytes",
    "molio.bonded_exclusions.calls": "count", "conformers.clash_filter.calls": "count",
    "qoi.sasa.calls": "count", "qoi.lj_energy.calls": "count", "qoi.pairs": "count",
    "qoi.sasa_points": "count", "certificates.stream_len": "count",
    "vizgrid.voxels": "count", "bindsite.contact_tests": "count",
}
LAYERS = ("cli", "molio", "sampling", "conformers", "qoi", "certificates", "bounds",
          "bindsite", "vizgrid")


class Deadline:
    def __init__(self, seconds: float):
        self.end = time.monotonic() + seconds

    def remaining(self) -> float:
        return max(1.0, self.end - time.monotonic())


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (AS_LIMIT_BYTES, AS_LIMIT_BYTES))


def run_process(argv: list[str], stderr_path: Path, timeout: float) -> tuple[int, float, float]:
    """Run ``argv`` under the address-space limit; kill it after ``timeout``.

    Returns (exit code, wall seconds, the child's own ru_maxrss in MiB).
    """
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = threading.Event()
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err,
                                preexec_fn=_limit_address_space)
        killer = threading.Timer(timeout, lambda: done.is_set() or proc.kill())
        killer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            done.set()
            killer.cancel()
            killer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def _tail(path: Path) -> str:
    lines = path.read_text(errors="replace").strip().splitlines()
    return lines[-1] if lines else ""


def run_chain(spec: dict, files: dict, out: Path, deadline: Deadline,
              reference: dict | None, traced: bool = False) -> dict:
    """One pass over the workload's stages; stops at the first failed stage."""
    ctx = {**json.loads(files["config"].read_text()), "atoms": spec["atoms"]}
    stages = []
    for command, flags in spec["stages"]:
        argv = [command, "--config", str(files["config"]), "--out", str(out), *flags]
        stderr = out.parent / f"{out.name}-{command}.stderr"
        spans_path = out.parent / f"{out.name}-{command}.spans.json"
        if traced:
            cmd = [sys.executable, str(HERE / "traced_stage.py"), repr(time.time()),
                   str(spans_path), *argv]
        else:
            cmd = [sys.executable, "-m", "moluq.cli", *argv]
        code, wall, rss = run_process(cmd, stderr, deadline.remaining())
        if code != 0:
            problems = [f"{command}: exit code {code}: {_tail(stderr)}"]
        else:
            problems = check.check_stage(command, out, ctx, reference)
        stage = {"command": command, "s": wall, "rss_mib": rss, "exit": code,
                 "problems": problems}
        if traced and code == 0:
            stage["trace"] = json.loads(spans_path.read_text())
        stages.append(stage)
        if problems:
            break
    return {"total_s": sum(s["s"] for s in stages), "stages": stages}


def _computed_counts(spec: dict, out: Path) -> dict:
    """Work counts derived from sizes and outputs, not from spans."""
    cfg = spec["config"]
    n = spec["atoms"]
    manifest = json.loads((out / "manifest.json").read_text())
    acc = len(manifest["accepted"])
    kinds = cfg.get("qoi", [])
    structures = acc + 1 if kinds else 0
    if cfg["mode"] == "cartesian":
        dimension = 2 * math.ceil(3 * n / 2)
    else:
        dimension = n - 3
    pair_kernels = {"lj", "coulomb", "gb"} & {k.removeprefix("delta_") for k in kinds}
    sasa_atoms = n * ("area" in kinds) + 2 * n * ("delta_area" in kinds)
    voxels = 0
    if (out / "occupancy.dx").exists():
        with open(out / "occupancy.dx") as fh:
            voxels = math.prod(int(x) for x in fh.readline().split("counts")[1].split())
    contact_tests = 0
    if spec.get("ligand_atoms"):
        contact_tests = n * spec["ligand_atoms"] * spec["ligand_models"] * spec["poses"]
    return {
        "conformers.accepted": acc, "conformers.rejected": len(manifest["rejected"]),
        "conformers.accept_ratio": acc / cfg["samples"],
        "sampling.dimension": dimension,
        "molio.pdb_bytes": (out / "ensemble.pdb").stat().st_size,
        "qoi.pairs": structures * n * (n - 1) // 2 if pair_kernels else 0,
        "qoi.sasa_points": structures * sasa_atoms * cfg.get("n_points", 960),  # CLI default
        "certificates.stream_len": acc if "certify" in dict(spec["stages"]) else 0,
        "vizgrid.voxels": voxels,
        "bindsite.contact_tests": contact_tests,
    }


COMPUTED = ("qoi.pairs", "qoi.sasa_points", "sampling.dimension", "bindsite.contact_tests")


def per_layer_metrics(spec: dict, chains: list[dict], traced: dict, peaks: dict,
                      out: Path) -> tuple[dict, dict]:
    """(metrics, per-function span summary) of one traced run."""
    all_spans = [s for st in traced["stages"] for s in st["trace"]["spans"]]
    functions = spans.summarize(all_spans)
    metrics: dict[str, float] = {}
    for name, f in functions.items():
        metrics[f"{name}.self_s"] = f["self_s"]
        metrics[f"{name}.calls"] = f["calls"]
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = sum(f["self_s"] for name, f in functions.items()
                                         if name.split(".")[0] == layer)
    for command, _flags in spec["stages"]:
        runs = [st for c in chains for st in c["stages"] if st["command"] == command]
        metrics[f"cli.{command}.s"] = statistics.median(st["s"] for st in runs)
        metrics[f"cli.{command}.rss_mib"] = max(st["rss_mib"] for st in runs)
    metrics["cli.startup_s"] = statistics.median(st["trace"]["startup_s"]
                                                 for st in traced["stages"])
    metrics["trace.pipeline_s"] = traced["total_s"]
    metrics["trace.overhead"] = traced["total_s"] / statistics.median(
        c["total_s"] for c in chains)
    metrics.update(peaks)
    metrics.update(_computed_counts(spec, out))
    for name in PER_LAYER:
        metrics.setdefault(name, 0)   # counts and calls of layers this chain skips
    return metrics, functions


def run_record() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True)
        commit = res.stdout.strip() or None
    src_lines = sum(len(p.read_text().splitlines()) for p in (SRC / "moluq").rglob("*.py"))
    return {
        "git_commit": commit,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "src_moluq_lines": src_lines,
        "as_limit_bytes": AS_LIMIT_BYTES,
    }


def _load_reference(name: str) -> dict | None:
    if not REFERENCE.exists():
        return None
    return json.loads(REFERENCE.read_text()).get(name)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 record_reference: bool = False) -> dict:
    spec = WORKLOADS[name]
    deadline = Deadline(DEADLINE_S)
    run_dir = WORK / f"{name}-s{seed}-t{int(trace)}-p{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        # set-up: one untimed warm-up CLI start, then the inputs several times
        code, _, _ = run_process([sys.executable, "-m", "moluq.cli", "--help"],
                                 run_dir / "warmup.stderr", deadline.remaining())
        if code != 0:
            raise RuntimeError(f"moluq CLI does not start: {_tail(run_dir / 'warmup.stderr')}")
        setup_times: list[float] = []
        while len(setup_times) < SETUP_MIN or (
                sum(setup_times) < SETUP_BUDGET_S and len(setup_times) < SETUP_MAX):
            start = time.perf_counter()
            files = write_inputs(spec, seed, run_dir / f"inputs-{len(setup_times)}")
            setup_times.append(time.perf_counter() - start)
        reference = None
        if seed == DEFAULT_SEED and not record_reference:
            reference = _load_reference(name)

        chains: list[dict] = []
        start = time.perf_counter()
        while True:
            out = run_dir / f"chain-{len(chains)}"
            chains.append(run_chain(spec, files, out, deadline, reference))
            if any(st["problems"] for st in chains[-1]["stages"]) or record_reference:
                break
            elapsed = time.perf_counter() - start
            if elapsed + statistics.median(c["total_s"] for c in chains) > seconds:
                break
        result = {"workload": name, "seed": seed, "trace": trace, "chains": chains}
        if record_reference:
            result["reference"] = {cmd: check.snapshot(cmd, out) for cmd, _ in spec["stages"]}

        all_chains = list(chains)
        if trace and not any(st["problems"] for st in chains[-1]["stages"]):
            out = run_dir / "traced"
            traced = run_chain(spec, files, out, deadline, reference, traced=True)
            all_chains.append(traced)
            peaks_path = run_dir / "peaks.json"
            code, _, _ = run_process(
                [sys.executable, str(HERE / "memory_pass.py"), str(files["config"]),
                 str(peaks_path)], run_dir / "memory.stderr", deadline.remaining())
            if not any(st["problems"] for st in traced["stages"]) and code == 0:
                metrics, functions = per_layer_metrics(
                    spec, chains, traced, json.loads(peaks_path.read_text()), out)
                result["metrics"] = metrics
                result["functions"] = functions
            elif code != 0:
                traced["stages"].append({"command": "memory_pass", "exit": code,
                                         "problems": [f"memory pass: exit code {code}: "
                                                      f"{_tail(run_dir / 'memory.stderr')}"]})
            for st in traced["stages"]:
                st.pop("trace", None)
        elif not trace:
            result["metrics"] = {
                "setup_s": statistics.median(setup_times),
                "pipeline_s": statistics.median(c["total_s"] for c in chains),
                "peak_rss_mib": max(st["rss_mib"] for c in chains for st in c["stages"]),
            }
        ops = [st for c in all_chains for st in c["stages"]]
        result["attempted"] = len(ops)
        result["failed"] = sum(1 for st in ops if st["problems"])
        result["problems"] = [p for st in ops for p in st["problems"]]
        result["setup_times_s"] = setup_times
        return result
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(result: dict) -> list[str]:
    name = result["workload"]
    fail_ratio = result["failed"] / result["attempted"]
    lines = [f"{name}: seed {result['seed']}, {len(result['chains'])} chain(s), "
             f"fail_ratio {fail_ratio:g} ({result['failed']}/{result['attempted']} stage runs)"]
    for p in result["problems"]:
        lines.append(f"  FAILED {p}")
    metrics = result.get("metrics", {})
    if not result["trace"]:
        for key, unit in END_TO_END.items():
            if key in metrics:
                lines.append(f"  {key:<14} {metrics[key]:12.6g} {unit}")
        return lines
    for key in sorted(metrics):
        # per-function self_s and calls are in the span table below
        if key.count(".") == 1 or not key.endswith((".self_s", ".calls")):
            tag = " (computed)" if key in COMPUTED else ""
            lines.append(f"  {key:<40} {_fmt(metrics[key])}{tag}")
    lines.append("  spans by self time (s), calls, per-call median and tail (s):")
    functions = sorted(result.get("functions", {}).items(), key=lambda kv: -kv[1]["self_s"])
    for fname, f in functions:
        tail = next(((k, v) for k, v in f.items() if k.startswith("p")), None)
        tail_txt = f"  {tail[0][:-2]} {tail[1]:.4g}" if tail else ""
        lines.append(f"    {fname:<42} {f['self_s']:9.4f} {f['calls']:7d} "
                     f"{f['median_s']:.4g}{tail_txt}")
    return lines


def save(result: dict) -> Path:
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = results / f"{result['workload']}-s{result['seed']}-t{int(result['trace'])}-{stamp}.json"
    path.write_text(json.dumps({"record": run_record(), **result}, indent=1) + "\n")
    return path


def _one_row_per_line(text: str) -> str:
    """Collapse every innermost JSON list onto one line."""
    return re.sub(r"\[\n\s+([^\[\]{}]*?)\n\s+\]",
                  lambda m: "[" + " ".join(m.group(1).split()) + "]", text) + "\n"


def summary_line(result: dict) -> str:
    units = PER_LAYER if result["trace"] else END_TO_END
    metrics = result.get("metrics", {})
    return json.dumps({
        "correct": result["failed"] == 0 and all(k in metrics for k in units),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items() if k in metrics},
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help=f"record the outputs of seed {DEFAULT_SEED} into reference.json")
    args = parser.parse_args(argv)
    if not (SRC / "moluq" / "cli.py").is_file():
        print(f"perfbench: no moluq sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    seed = DEFAULT_SEED if args.record_reference else args.seed
    results = []
    for name in names:
        result = run_workload(name, seed, args.seconds, bool(args.trace),
                              record_reference=args.record_reference)
        results.append(result)
        path = save(result)
        print("\n".join(report(result)))
        print(f"  record: {path.relative_to(ROOT)}")
    if args.record_reference:
        stored = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
        for result in results:
            if result["failed"]:
                print(f"not recorded: {result['workload']} failed", file=sys.stderr)
                return 1
            stored[result["workload"]] = {"seed": seed, **result["reference"]}
        REFERENCE.write_text(_one_row_per_line(json.dumps(stored, indent=1, sort_keys=True)))
        return 0
    ok = all(json.loads(summary_line(r))["correct"] for r in results)
    if args.workload == "all":
        print(json.dumps({r["workload"]: json.loads(summary_line(r)) for r in results}))
    else:
        print(summary_line(results[0]))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
