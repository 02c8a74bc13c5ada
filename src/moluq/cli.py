"""Command-line pipeline: sample ensembles, evaluate QOIs, certify, bound.

Every subcommand reads a JSON run config (flags override the common fields),
writes its documented output files into --out, and drops a metadata sidecar
(<command>_meta.json) containing the fully resolved configuration.  Feeding a
sidecar to ``moluq replay`` re-runs the exact command; outputs are
byte-deterministic given (inputs, seed).

Exit codes: 0 success, 1 usage error, 2 data/parse error, 3 numerical or
domain error.

Each command imports the moluq modules it runs when it runs, so a stage
loads (and, without cached bytecode, compiles) only those; ``certify`` and
``saturate`` load no numpy.  A stage's BLAS calls are all small (3x3
factorizations, short dot products), so ``main`` starts OpenBLAS with one
thread unless the caller set a thread count.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

import moluq
from moluq import schema

if TYPE_CHECKING:  # annotations only; the commands import these when they run
    import numpy as np

    from moluq import molio

# the run config's defaults (perfbench/memory_pass.py reads them)
DEFAULTS = {key: spec.default for key, spec in schema.CONFIG.items()}
_INT_FLAGS = ("seed", "samples", "workers")  # the config keys a flag sets, besides --out
# a caller who sets one of these chose OpenBLAS's thread count
_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


class UsageError(Exception):
    pass


class DataFormatError(ValueError):
    """Malformed input data (value streams, JSON data files)."""


def _check_file(raw, key: schema.Key, path: str):
    """``raw``, read from the data file ``path``, checked against ``key``."""
    try:
        return schema.check(raw, key)
    except schema.Invalid as exc:
        where, problem = exc.args
        raise DataFormatError(f"{path}: {where} {problem}" if where else f"{path} {problem}") \
            from None


def _fmt(x: float) -> str:
    return repr(float(x))


def _read_file(path: str, parse):
    """``parse`` applied to the bytes of the input file ``path``.  A byte
    that is not UTF-8 is a data error naming the file and the byte."""
    p = Path(path)
    if not p.exists():
        raise UsageError(f"input file not found: {path}")
    data = p.read_bytes()
    try:
        return parse(data)
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: byte {exc.start} ({data[exc.start]:#04x}) is not "
                              f"UTF-8 text: {exc.reason}") from None


def _text(data: bytes) -> str:
    # universal newlines, as a file opened in text mode reads them
    return data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")


def _read_text(path: str) -> str:
    return _read_file(path, _text)


def _parse_json(text: str, path: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{path}: {exc}") from None


def _load_json(path: str):
    return _parse_json(_read_text(path), path)


def load_config(args, raw=None, source: str | None = None) -> dict:
    """The run config ``raw`` (named ``source`` in errors; the --config file
    when no source is given) under the flags in ``args``, checked against
    CONFIG, with absent keys at their defaults."""
    if source is None and getattr(args, "config", None):
        raw, source = _load_json(args.config), args.config
    if source is not None and not isinstance(raw, dict):
        raise UsageError(f"{source}: a run config must be a JSON object, "
                         f"not {type(raw).__name__}")
    flags = {key: getattr(args, key, None) for key in (*_INT_FLAGS, "out")}
    try:
        cfg = schema.check({**(raw or {}), **{k: v for k, v in flags.items() if v is not None}},
                           schema.Key("object", keys=schema.CONFIG))
    except schema.Invalid as exc:
        raise UsageError(f"config key {exc.args[0]!r} {exc.args[1]}") from None
    if not cfg["out"]:
        raise UsageError("an output directory is required (--out or config 'out')")
    return cfg


def _write_csv(path: Path, header, rows) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    path.write_text(buf.getvalue())


def _write_meta(out: Path, command: str, cfg: dict, outputs: list[str]) -> None:
    meta = {"command": command, "version": moluq.__version__, "outputs": sorted(outputs),
            "config": {k: v for k, v in sorted(cfg.items()) if k != "out"}}
    (out / f"{command}_meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")


def _resolve_input(cfg: dict, key: str, default: str | None = None) -> str:
    """The absolute path of input ``key``, pinned into the config so that the
    sidecar replays the run from any output directory."""
    path = cfg[key] or default
    if not path:
        raise UsageError(f"config key {key!r} (an input path) is required")
    resolved = Path(path)
    if not resolved.exists():
        raise UsageError(f"input file not found: {path}")
    cfg[key] = str(resolved.resolve())
    return cfg[key]


def _load_input(cfg: dict, key: str, table: schema.Key):
    """The JSON data file that config key ``key`` names, checked against ``table``."""
    path = _resolve_input(cfg, key)
    return _check_file(_load_json(path), table, path)


def _load_structure(cfg) -> molio.Structure:
    from moluq import molio

    s = _read_file(_resolve_input(cfg, "structure"), molio.parse_pdb)
    if cfg["params"]:
        text = _read_text(_resolve_input(cfg, "params"))
        _check_file(_parse_json(text, cfg["params"]), schema.PARAMS, cfg["params"])
        table = molio.ParamTable.from_json(text)
    else:
        table = molio.ParamTable.default()
    return molio.assign_params(s, table)


def _map_workers(fn, items, workers: int):
    if workers <= 1:
        return [fn(x) for x in items]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def run_sample(cfg) -> list[str]:
    import numpy as np

    from moluq import conformers, molio

    out = Path(cfg["out"])
    if cfg["samples"] is None:
        raise UsageError("--samples is required for 'sample' (no built-in default: "
                         "use 'saturate' to pick a count)")
    if cfg["fixed_chains"] and cfg["mode"] != "cartesian":
        raise UsageError(f"config key 'fixed_chains' pins chains in mode 'cartesian' only, "
                         f"not in mode {cfg['mode']!r}")
    s = molio.detect_bonds(_load_structure(cfg))
    seed, n, clash = cfg["seed"], cfg["samples"], cfg["clash_factor"]
    if cfg["mode"] == "cartesian":
        _check_chains(s.chains, cfg["fixed_chains"])
        sigmas = conformers.cartesian_sigmas(s)
        for chain in cfg["fixed_chains"]:
            sigmas[s.chains[chain]] = 0.0
        ens = conformers.sample_cartesian_ensemble(s, seed, n, clash_factor=clash,
                                                   sigmas=sigmas)
    else:
        if cfg["torsion_dihedrals"]:
            spec = _load_input(cfg, "torsion_dihedrals", schema.DIHEDRALS)
            graph = conformers.torsion_graph_from_dihedrals(
                s, [(tuple(d["atoms"]), d["lower"], d["upper"]) for d in spec["dihedrals"]])
        else:
            graph = conformers.build_torsion_graph(s)
        ens = conformers.sample_torsion_ensemble(graph, seed, n, clash_factor=clash)

    kept = np.flatnonzero(ens.accepted)
    if not kept.size:
        raise ValueError("no conformer passed the clash filter; nothing to write")
    # row views, not coords[kept]: no copy of the ensemble is made; the file
    # is renamed into place once every model is written, so a model that
    # fails its checks leaves no partial ensemble.pdb behind
    partial = out / "ensemble.pdb.partial"
    try:
        with open(partial, "w", encoding="utf-8") as fh:
            molio.write_pdb_models(s, [ens.coords[i] for i in kept], fh, (kept + 1).tolist())
        os.replace(partial, out / "ensemble.pdb")
    finally:
        partial.unlink(missing_ok=True)
    manifest = {"seed": seed, "samples": n, "mode": cfg["mode"], "sequence": ens.sequence_kind,
                "clash_factor": clash, "accepted": kept.tolist(),
                "rejected": [{"sample_index": i, "reason": reason}
                             for i, reason in enumerate(ens.reasons) if reason is not None]}
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return ["ensemble.pdb", "manifest.json"]


def _check_chains(chains: dict[str, list[int]], names) -> None:
    for name in names:
        if name not in chains:
            raise UsageError(f"chain {name!r} is not in the structure "
                             f"(its chains: {', '.join(map(repr, chains))})")


def _split_chains(s: molio.Structure, cfg, delta: bool):
    """Atom indices of chains A and B; ``delta`` QOIs need two different chains.
    A key not set names the first chain, in file order, that the other does not."""
    chains = s.chains
    chain_a = cfg["chain_a"] or next((c for c in chains if c != cfg["chain_b"]), None)
    chain_b = cfg["chain_b"] or next((c for c in chains if c != chain_a), None)
    _check_chains(chains, [name for name in (chain_a, chain_b) if name is not None])
    if delta and None in (chain_a, chain_b):
        raise UsageError(f"delta QOIs need two chains, and the structure has one, "
                         f"{chain_a or chain_b!r}")
    if delta and chain_a == chain_b:
        raise UsageError(f"delta QOIs need two different chains, and chain_a and chain_b "
                         f"are both {chain_a!r}")
    return chains.get(chain_a, []), chains.get(chain_b, [])


def _ensemble_models(cfg, s: molio.Structure) -> tuple[str, np.ndarray]:
    """Path and (m, n, 3) models of the run's ensemble file, whose models must
    list the serials of the structure ``s`` in its order."""
    from moluq import molio

    ensemble_path = _resolve_input(cfg, "ensemble",
                                   default=str(Path(cfg["out"]) / "ensemble.pdb"))
    first, coords = _read_file(ensemble_path, molio.parse_pdb_models)
    got, want = first.serials.tolist(), s.serials.tolist()
    if got != want:
        raise ValueError(f"{ensemble_path}: ensemble lists "
                         + molio.serial_mismatch(got, want, "the structure"))
    return ensemble_path, coords


def run_qoi(cfg) -> list[str]:
    from moluq import molio, qoi

    out = Path(cfg["out"])
    s = molio.detect_bonds(_load_structure(cfg))
    kinds = [qoi.QOIKind(k) for k in cfg["qoi"]]
    idx_a, idx_b = _split_chains(s, cfg, any(k.is_delta for k in kinds))
    ensemble_path, coords = _ensemble_models(cfg, s)
    diel = cfg["dielectric"]
    qcfg = qoi.QOIConfig(
        probe=float(cfg["probe"]), n_points=cfg["n_points"], spacing=float(cfg["spacing"]),
        coulomb=qoi.CoulombModel(mode=diel["mode"], value=float(diel["value"])),
        solvent_dielectric=float(cfg["solvent_dielectric"]))
    evaluate = qoi.row_evaluator(kinds, s, idx_a, idx_b, qcfg)

    # the ensemble's manifest, when there is one, gives each model its sample index
    indices = list(range(len(coords)))
    manifest_path = str(Path(ensemble_path).parent / "manifest.json")
    if Path(manifest_path).exists():
        indices = _check_file(_load_json(manifest_path), schema.MANIFEST,
                              manifest_path)["accepted"]
        if len(set(indices)) != len(indices):
            raise DataFormatError(f"{manifest_path}: accepted lists a sample index twice")
        if len(indices) != len(coords):
            raise DataFormatError(f"{manifest_path}: accepted lists {len(indices)} sample "
                                  f"indices for the {len(coords)} models of {ensemble_path}")
    samples = [(-1, s.positions())] + list(zip(indices, coords))
    rows = _map_workers(lambda item: (item[0], evaluate(item[1])), samples, cfg["workers"])
    _write_csv(out / "qoi_values.csv", ["qoi", "sample_index", "value"],
               ([kind.value, sample_index, _fmt(row[kind.value])]
                for kind in kinds for sample_index, row in rows))
    return ["qoi_values.csv"]


def _read_value_streams(path: str):
    """qoi_values.csv -> {qoi: (reference or None, [values in sample order])}.
    A QOI with two reference rows (sample_index -1), another negative sample
    index or a sample index listed twice is a data error."""
    text = _read_text(path)
    streams: dict[str, dict] = {}
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames is None or {"qoi", "sample_index", "value"} - set(reader.fieldnames):
        raise DataFormatError(f"{path}: expected columns qoi,sample_index,value")
    for row in reader:
        entry = streams.setdefault(row["qoi"], {"reference": None, "values": {}})
        try:
            idx = int(row["sample_index"])
            val = float(row["value"])
        except ValueError:
            raise DataFormatError(f"{path}: non-numeric row {row}") from None
        if not math.isfinite(val):
            raise DataFormatError(f"{path}: {row['qoi']} at sample_index {idx} "
                                  f"is {row['value']}, not a finite number")
        if idx < -1:
            raise DataFormatError(f"{path}: {row['qoi']} has sample_index {idx}; only the "
                                  f"reference row, -1, has a negative index")
        if idx == -1:
            if entry["reference"] is not None:
                raise DataFormatError(f"{path}: {row['qoi']} has a second reference row, "
                                      f"at sample_index {idx}")
            entry["reference"] = val
        elif idx in entry["values"]:
            raise DataFormatError(f"{path}: {row['qoi']} lists sample_index {idx} twice")
        else:
            entry["values"][idx] = val
    for entry in streams.values():
        entry["values"] = [v for _i, v in sorted(entry["values"].items())]
    return streams


def _load_streams(cfg):
    """The run's value streams (see _read_value_streams) and its t grid."""
    values_path = _resolve_input(cfg, "values",
                                 default=str(Path(cfg["out"]) / "qoi_values.csv"))
    streams = _read_value_streams(values_path)
    if not streams:
        raise ValueError("no QOI streams found in values file")
    return streams, tuple(float(t) for t in cfg["t_grid"])


def run_certify(cfg) -> list[str]:
    from moluq import certificates

    out = Path(cfg["out"])
    streams, t_grid = _load_streams(cfg)

    cert_rows, z_rows = [], []
    text_lines = ["qoi".ljust(16) + "".join(f"{t:>9g}" for t in t_grid)]
    for name, entry in sorted(streams.items()):
        dist = certificates.EmpiricalDistribution.from_values(entry["values"])
        if dist.mean == 0.0:  # reported, not allowed to abort the other QOIs
            text_lines.append(name.ljust(16) + "relative error undefined at zero mean")
        else:
            table = certificates.chernoff_table(dist, t_grid)
            for t, eps in zip(table.t_values, table.epsilons):
                cert_rows.append([name, _fmt(t), _fmt(eps)])
            text_lines.append(name.ljust(16) + "".join(f"{e:>9.3f}" for e in table.epsilons))
        if entry["reference"] is not None and dist.std > 0:
            z = certificates.zscore(entry["reference"], dist)
            z_rows.append([name, _fmt(entry["reference"]), _fmt(dist.mean),
                           _fmt(dist.std), _fmt(z)])
    if not cert_rows:
        raise ValueError("relative-error certificate undefined for zero mean in every QOI")
    _write_csv(out / "certificates.csv", ["qoi", "t", "epsilon"], cert_rows)
    (out / "certificates.txt").write_text("\n".join(text_lines) + "\n")
    _write_csv(out / "zscores.csv", ["qoi", "reference", "mean", "std", "zscore"], z_rows)
    return ["certificates.csv", "certificates.txt", "zscores.csv"]


def run_saturate(cfg) -> list[str]:
    from moluq import certificates

    out = Path(cfg["out"])
    streams, t_grid = _load_streams(cfg)
    outputs = []
    reports = []
    for name, entry in sorted(streams.items()):
        try:
            report = certificates.saturation(entry["values"], tau=float(cfg["tau"]),
                                             t_values=t_grid, mode=cfg["saturation_mode"])
        except ValueError as exc:
            # degenerate streams (zero-mean blocks, too short) are reported,
            # not allowed to abort the rest of the batch
            reports.append({"qoi": name, "error": str(exc)})
            continue
        fname = f"saturation_{name}.csv"
        _write_csv(out / fname, ["r", "error"],
                   ([r, _fmt(err)] for r, err in report.error_curve))
        outputs.append(fname)
        reports.append({"qoi": name, "mode": report.mode, "tau": report.tau,
                        "r_star": report.r_star, "saturated": report.saturated})
    if not any("r_star" in r for r in reports):
        raise ValueError("no stream produced a saturation report: "
                         + "; ".join(f"{r['qoi']}: {r['error']}" for r in reports))
    (out / "saturation.json").write_text(json.dumps(reports, indent=2, sort_keys=True) + "\n")
    outputs.append("saturation.json")
    return outputs


def run_bound(cfg) -> list[str]:
    import numpy as np

    from moluq import bounds
    from moluq.sampling import PCG64Stream

    out = Path(cfg["out"])
    spec = cfg["bound"] or _load_input(cfg, "bound_config", schema.BOUND)
    mode, mc_draws = spec["mode"], spec["mc_draws"]
    t_grid = [float(t) for t in (cfg["t_grid"] if spec["t_grid"] is None else spec["t_grid"])]
    rng = PCG64Stream(cfg["seed"] if spec["mc_seed"] is None else spec["mc_seed"])

    def draw(box):  # mc_draws uniform points of the box
        return box.lowers() + rng.random((mc_draws, box.dim)) * (box.uppers() - box.lowers())

    deviations: list[float] = []
    if mode == "azuma":
        aspec = bounds.AzumaSpec(spec["c"])
        bound_at = lambda t: bounds.azuma_tail(aspec, t)
    else:
        kspec = bounds.KernelSpec(spec["kernel"]["terms"])
        if mode == "single":
            box = bounds.BoxDomain(spec["box"])
            deviations = [bounds.d3_bound(kspec, box, i) for i in range(box.dim)]
            bound_at = lambda t: bounds.mcdiarmid_tail(deviations, t)
            points = [draw(box)]
        else:
            boxes_a, boxes_b = ([bounds.BoxDomain(b) for b in spec[key]]
                                for key in ("boxes_a", "boxes_b"))
            bound_at = lambda t: bounds.pairwise_sum_tail(kspec, boxes_a, boxes_b, t)
            # one difference per pair of boxes, drawn lazily: a's point, then b's
            points = (draw(bb) - xa for xa in map(draw, boxes_a) for bb in boxes_b)

    header, mc_values = ["t", "bound"], None
    if mc_draws and mode != "azuma":
        mc_values = np.zeros(mc_draws)  # each draw sums the kernel over the points
        for x in points:
            norms = np.linalg.norm(x, axis=1)
            mc_values += sum(a / norms**b for a, b in kspec.terms)
        header.append("mc_estimate")
    rows = [[_fmt(t), _fmt(bound_at(t))] for t in t_grid]
    if mc_values is not None:
        mean = float(mc_values.mean())
        for t, row in zip(t_grid, rows):
            row.append(_fmt(float((np.abs(mc_values - mean) > t).mean())))
    _write_csv(out / "bounds.csv", header, rows)
    if not deviations:
        return ["bounds.csv"]
    (out / "deviations.json").write_text(json.dumps({"deviations": deviations}, indent=2) + "\n")
    return ["bounds.csv", "deviations.json"]


def run_bindsite(cfg) -> list[str]:
    import numpy as np

    from moluq import bindsite, molio, vizgrid

    out = Path(cfg["out"])
    receptor = _load_structure(cfg)
    ligand_coords = _read_file(_resolve_input(cfg, "ligand"), molio.parse_pdb_models)[1]
    poses_path = _resolve_input(cfg, "poses")
    raw = _load_json(poses_path)
    model = bindsite.ContactModel(cutoff=float(cfg["contact_cutoff"]))

    # a grouped file pairs group k with ligand model k; a flat pose list
    # places the first model only
    if isinstance(raw, list) and raw and isinstance(raw[0], dict) and "poses" in raw[0]:
        groups = _check_file(raw, schema.POSE_GROUPS, poses_path)
        for k, group in enumerate(groups):
            if group["model"] not in (None, k):
                raise DataFormatError(f"{poses_path}: pose group {k} names model "
                                      f"{group['model']!r}; group k must hold model k's poses")
    else:
        groups = [{"poses": _check_file(raw, schema.POSES, poses_path)}]
        ligand_coords = ligand_coords[:1]
    pose_lists = [[bindsite.Pose(rotation=np.reshape(pose["rotation"], (3, 3)),
                                 translation=pose["translation"]) for pose in group["poses"]]
                  for group in groups]
    site_map = bindsite.binding_site_prob_multi(receptor, ligand_coords, pose_lists, model)

    atoms = zip(receptor.serials.tolist(), receptor.chain_ids.tolist(),
                receptor.residue_seqs.tolist(), receptor.residue_names.tolist())
    _write_csv(out / "bindsite_atoms.csv",
               ["serial", "chain", "residue_seq", "residue_name", "p_bs"],
               ([*atom, _fmt(p)] for atom, p in zip(atoms, site_map.probabilities)))
    _write_csv(out / "bindsite_residues.csv", ["chain", "residue_seq", "residue_name", "p_bs"],
               ([chain, seq, name, _fmt(p)] for (chain, seq, name), p
                in bindsite.residue_site_probabilities(receptor, site_map)))

    colors_csv, script = vizgrid.colormap_export(receptor.serials.tolist(),
                                                 site_map.probabilities)
    (out / "bindsite_colors.csv").write_text(colors_csv)
    (out / "bindsite_colors.pml").write_text(script)
    return ["bindsite_atoms.csv", "bindsite_residues.csv",
            "bindsite_colors.csv", "bindsite_colors.pml"]


def run_volmap(cfg) -> list[str]:
    from moluq import vizgrid

    out = Path(cfg["out"])
    s = _load_structure(cfg)
    grid = vizgrid.occupancy_map(s, _ensemble_models(cfg, s)[1], spacing=float(cfg["spacing"]),
                                 radius_mode=cfg["radius_mode"])
    with open(out / "occupancy.dx", "w", encoding="utf-8") as fh:
        vizgrid.write_grid(grid, fh)
    return ["occupancy.dx"]


def run_modes(cfg) -> list[str]:
    from moluq import conformers

    out = Path(cfg["out"])
    s = _load_structure(cfg)
    variances, axes = conformers.atom_motion_modes(_ensemble_models(cfg, s)[1])
    _write_csv(out / "modes.csv",
               ["serial", "var1", "var2", "var3",
                "v1x", "v1y", "v1z", "v2x", "v2y", "v2z", "v3x", "v3y", "v3z"],
               ([serial] + [_fmt(v) for v in var] + [_fmt(x) for x in ax.reshape(-1)]
                for serial, var, ax in zip(s.serials.tolist(), variances, axes)))
    return ["modes.csv"]


COMMANDS = {"sample": run_sample, "qoi": run_qoi, "certify": run_certify,
            "saturate": run_saturate, "bound": run_bound, "bindsite": run_bindsite,
            "volmap": run_volmap, "modes": run_modes}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's default 2
        self.print_usage(sys.stderr)
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="moluq", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON run configuration")
        for flag in _INT_FLAGS:
            p.add_argument(f"--{flag}", type=int, default=None)
        p.add_argument("--out", default=None)
    replay = sub.add_parser("replay")
    replay.add_argument("sidecar", help="a <command>_meta.json from a previous run")
    replay.add_argument("--out", default=None)
    return parser


def main(argv=None) -> int:
    # OpenBLAS reads its thread count when numpy loads, so it is set only
    # before that; its idle thread would spin on a core the stage needs
    if "numpy" not in sys.modules and not any(v in os.environ for v in _BLAS_THREAD_VARIABLES):
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        args = build_parser().parse_args(argv)
        command = args.command
        if command == "replay":
            meta = _load_json(args.sidecar)
            command = meta.get("command") if isinstance(meta, dict) else None
            if command not in COMMANDS:
                raise UsageError(f"{args.sidecar}: not the sidecar of a moluq command "
                                 f"(its command: {command!r})")
            args.out = args.out or str(Path(args.sidecar).parent)
            cfg = load_config(args, meta.get("config"), f"{args.sidecar}: config")
        else:
            cfg = load_config(args)
        Path(cfg["out"]).mkdir(parents=True, exist_ok=True)
        outputs = COMMANDS[command](cfg)
        _write_meta(Path(cfg["out"]), command, cfg, outputs)
        return 0
    except UsageError as exc:
        print(f"moluq: usage error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ArithmeticError, KeyError) as exc:
        # a PDB parse error can only come from a stage that loaded molio
        molio = sys.modules.get("moluq.molio")
        data = isinstance(exc, DataFormatError) or (
            molio is not None and isinstance(exc, molio.PdbParseError))
        print(f"moluq: {'data' if data else 'domain'} error: {exc}", file=sys.stderr)
        return 2 if data else 3


if __name__ == "__main__":
    sys.exit(main())
