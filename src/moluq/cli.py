"""Command-line pipeline: sample ensembles, evaluate QOIs, certify, bound.

Every subcommand reads a JSON run config (flags override the common fields),
writes its documented output files into --out, and drops a metadata sidecar
(<command>_meta.json) containing the fully resolved configuration.  Feeding a
sidecar to ``moluq replay`` re-runs the exact command; outputs are
byte-deterministic given (inputs, seed).

Exit codes: 0 success, 1 usage error, 2 data/parse error, 3 numerical or
domain error.

Each command imports the moluq modules it runs when it runs, so a stage
loads (and, without cached bytecode, compiles) only those.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

import moluq

if TYPE_CHECKING:  # annotations only; the commands import these when they run
    from moluq import bindsite, bounds, conformers, molio, qoi

DEFAULTS = {
    "seed": 0,
    "samples": None,
    "mode": "cartesian",
    "clash_factor": 0.6,
    "fixed_chains": [],
    "qoi": ["area", "volume", "lj", "coulomb", "gb"],
    "chain_a": None,
    "chain_b": None,
    "probe": 1.4,
    "n_points": 960,
    "spacing": 0.5,
    "dielectric": {"mode": "constant", "value": 1.0},
    "solvent_dielectric": 80.0,
    "t_grid": list(moluq.DEFAULT_T_GRID),
    "tau": 0.05,
    "saturation_mode": "incremental",
    "contact_cutoff": 5.0,
    "workers": 1,
}


# the JSON type each config key takes: the Python types json.load gives it
# and the name an error message uses
_CONFIG_TYPES = {
    **dict.fromkeys(("seed", "samples", "clash_factor", "probe", "n_points", "spacing",
                     "solvent_dielectric", "tau", "contact_cutoff", "workers"),
                    ((int, float), "a number")),
    **dict.fromkeys(("fixed_chains", "qoi", "t_grid"), ((list,), "an array")),
    "dielectric": ((dict,), "an object"),
}


class UsageError(Exception):
    pass


class DataFormatError(ValueError):
    """Malformed tabular input (value streams, pose files)."""


def _fmt(x: float) -> str:
    return repr(float(x))


def _read_text(path: str) -> str:
    p = Path(path)
    if not p.exists():
        raise UsageError(f"input file not found: {path}")
    return p.read_text()


def _load_json(path: str):
    return json.loads(_read_text(path))


def _expect(value, kind: type, where: str):
    """``value`` when it is a JSON object (``dict``) or array (``list``), as
    ``kind`` asks; ``where`` names it in the error."""
    if not isinstance(value, kind):
        raise DataFormatError(f"{where} must be a JSON {'object' if kind is dict else 'array'}, "
                              f"not {type(value).__name__}")
    return value


def _numbers(value, where: str, count: int | None = None) -> np.ndarray:
    """``value`` as a flat float array of ``count`` numbers, or of any count
    when ``value`` is a JSON array and no count is given; ``where`` names it
    in the error."""
    if count is None:
        count = len(_expect(value, list, where))
    try:
        arr = np.array(value, dtype=float).reshape(-1)
    except (TypeError, ValueError):
        arr = None
    if arr is None or arr.size != count:
        raise DataFormatError(f"{where} must be {count} numbers, not {json.dumps(value)}")
    return arr


def _number(value, where: str):
    """``value`` when it is a JSON number; ``where`` names it in the error."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DataFormatError(f"{where} must be a number, not {json.dumps(value)}")
    return value


def _field(obj, key: str, where: str):
    """``obj[key]`` of the JSON object ``obj``, which ``where`` names in errors."""
    if key not in _expect(obj, dict, where):
        raise DataFormatError(f"{where} has no {key!r}")
    return obj[key]


def load_config(args, raw=None, source: str | None = None) -> dict:
    """DEFAULTS updated by the run config ``raw`` (named ``source`` in errors;
    the --config file when no source is given), then by the flags in ``args``;
    every key of DEFAULTS is type-checked."""
    cfg = dict(DEFAULTS)
    if source is None and getattr(args, "config", None):
        raw, source = _load_json(args.config), args.config
    if source is not None:
        if not isinstance(raw, dict):
            raise UsageError(f"{source}: a run config must be a JSON object, "
                             f"not {type(raw).__name__}")
        cfg.update(raw)
    for key in ("seed", "samples", "workers", "out"):
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    if "out" not in cfg or not cfg["out"]:
        raise UsageError("an output directory is required (--out or config 'out')")
    for key, (types, name) in _CONFIG_TYPES.items():
        value = cfg[key]
        if value is None and key in ("samples", "clash_factor"):
            continue  # no count given; clash filter off
        if isinstance(value, bool) or not isinstance(value, types):
            raise UsageError(f"config key {key!r} must be {name}, not {value!r}")
    if cfg["samples"] is not None and cfg["samples"] < 1:
        raise UsageError("samples must be >= 1")
    return cfg


def _out_dir(cfg) -> Path:
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_csv(path: Path, header, rows) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    path.write_text(buf.getvalue())


def _write_meta(out: Path, command: str, cfg: dict, outputs: list[str]) -> None:
    meta = {
        "command": command,
        "version": moluq.__version__,
        "config": {k: v for k, v in sorted(cfg.items()) if k != "out"},
        "outputs": sorted(outputs),
    }
    (out / f"{command}_meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")


def _resolve_input(cfg: dict, key: str, default: str | None = None) -> str:
    """Resolve an input path and pin the absolute form into the config.

    The pinned path lands in the metadata sidecar, which makes a sidecar
    sufficient to replay the run from any output directory.
    """
    path = cfg.get(key) or default
    if not path:
        raise UsageError(f"config key {key!r} (an input path) is required")
    resolved = Path(path)
    if not resolved.exists():
        raise UsageError(f"input file not found: {path}")
    cfg[key] = str(resolved.resolve())
    return cfg[key]


def _load_structure(cfg) -> molio.Structure:
    from moluq import molio

    path = _resolve_input(cfg, "structure")
    s = molio.parse_pdb(_read_text(path))
    if cfg.get("params"):
        table = molio.ParamTable.from_json(_read_text(_resolve_input(cfg, "params")))
    else:
        table = molio.ParamTable.default()
    return molio.assign_params(s, table)


def _map_workers(fn, items, workers: int):
    if workers <= 1:
        return [fn(x) for x in items]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


# ---------------------------------------------------------------- sample

def run_sample(cfg) -> list[str]:
    from moluq import conformers, molio

    out = _out_dir(cfg)
    if cfg["samples"] is None:
        raise UsageError("--samples is required for 'sample' (no built-in default: "
                         "use 'saturate' to pick a count)")
    s = molio.detect_bonds(_load_structure(cfg))
    seed, n = int(cfg["seed"]), int(cfg["samples"])
    clash = cfg["clash_factor"]
    _check_chains(s.chains, cfg["fixed_chains"])
    if cfg["mode"] == "cartesian":
        sigmas = conformers.cartesian_sigmas(s)
        for chain in cfg["fixed_chains"]:
            sigmas[s.chains[chain]] = 0.0
        ens = conformers.sample_cartesian_ensemble(s, seed, n, clash_factor=clash,
                                                   sigmas=sigmas)
    elif cfg["mode"] == "torsion":
        if cfg.get("torsion_dihedrals"):
            spec = _load_json(_resolve_input(cfg, "torsion_dihedrals"))
            dihedrals = [(tuple(d["atoms"]), d.get("lower", -np.pi), d.get("upper", np.pi))
                         for d in spec["dihedrals"]]
            graph = conformers.torsion_graph_from_dihedrals(s, dihedrals)
        else:
            graph = conformers.build_torsion_graph(s)
        ens = conformers.sample_torsion_ensemble(graph, seed, n, clash_factor=clash)
    else:
        raise UsageError(f"unknown sampling mode {cfg['mode']!r}")

    kept = np.flatnonzero(ens.accepted)
    if not kept.size:
        raise ValueError("no conformer passed the clash filter; nothing to write")
    # row views, not coords[kept]: a copy of the ensemble would be live at the
    # stage's memory peak while the text is built
    pdb_text = molio.write_pdb_models(s, [ens.coords[i] for i in kept], (kept + 1).tolist())
    (out / "ensemble.pdb").write_text(pdb_text)
    manifest = {
        "seed": seed,
        "samples": n,
        "mode": cfg["mode"],
        "sequence": ens.sequence_kind,
        "clash_factor": clash,
        "accepted": kept.tolist(),
        "rejected": [{"sample_index": i, "reason": reason}
                     for i, reason in enumerate(ens.reasons) if reason is not None],
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return ["ensemble.pdb", "manifest.json"]


# ---------------------------------------------------------------- qoi

def _qoi_config(cfg) -> qoi.QOIConfig:
    from moluq import qoi

    diel = cfg["dielectric"]
    return qoi.QOIConfig(
        probe=float(cfg["probe"]), n_points=int(cfg["n_points"]),
        spacing=float(cfg["spacing"]),
        coulomb=qoi.CoulombModel(mode=diel["mode"], value=float(diel["value"])),
        solvent_dielectric=float(cfg["solvent_dielectric"]),
    )


def _check_chains(chains: dict[str, list[int]], names) -> None:
    for name in names:
        if name not in chains:
            raise UsageError(f"chain {name!r} is not in the structure "
                             f"(its chains: {', '.join(map(repr, chains))})")


def _split_chains(s: molio.Structure, cfg):
    chains = s.chains
    names = list(chains)
    chain_a = cfg["chain_a"] or (names[0] if names else None)
    chain_b = cfg["chain_b"] or (names[1] if len(names) > 1 else None)
    _check_chains(chains, [name for name in (chain_a, chain_b) if name is not None])
    return chains.get(chain_a, []), chains.get(chain_b, [])


def _ensemble_models(cfg, s: molio.Structure) -> tuple[str, np.ndarray]:
    """Path and (m, n, 3) models of the run's ensemble file, whose models must
    list the serials of the structure ``s`` in its order."""
    from moluq import molio

    ensemble_path = _resolve_input(cfg, "ensemble",
                                   default=str(Path(cfg["out"]) / "ensemble.pdb"))
    first, coords = molio.parse_pdb_models(_read_text(ensemble_path))
    got, want = first.serials.tolist(), s.serials.tolist()
    if got != want:
        raise ValueError(f"{ensemble_path}: ensemble lists "
                         + molio.serial_mismatch(got, want, "the structure"))
    return ensemble_path, coords


def run_qoi(cfg) -> list[str]:
    from moluq import molio, qoi

    out = _out_dir(cfg)
    s = molio.detect_bonds(_load_structure(cfg))
    ensemble_path, coords = _ensemble_models(cfg, s)
    kinds = [qoi.QOIKind(k) for k in cfg["qoi"]]
    qcfg = _qoi_config(cfg)
    idx_a, idx_b = _split_chains(s, cfg)
    if any(k.is_delta for k in kinds) and not idx_b:
        raise ValueError("delta QOIs need two chains (set chain_a/chain_b)")
    evaluate = qoi.row_evaluator(kinds, s, idx_a, idx_b, qcfg)

    # keep original sample indices when the ensemble's manifest is available
    indices = list(range(len(coords)))
    manifest_path = Path(ensemble_path).parent / "manifest.json"
    if manifest_path.exists():
        recorded = json.loads(manifest_path.read_text()).get("accepted", [])
        if len(recorded) == len(coords):
            indices = recorded
    samples = [(-1, s.positions())] + list(zip(indices, coords))
    rows = _map_workers(lambda item: (item[0], evaluate(item[1])), samples,
                        int(cfg["workers"]))
    _write_csv(out / "qoi_values.csv", ["qoi", "sample_index", "value"],
               ([kind.value, sample_index, _fmt(row[kind.value])]
                for kind in kinds for sample_index, row in rows))
    return ["qoi_values.csv"]


def _read_value_streams(path: str):
    """qoi_values.csv -> {qoi: (reference or None, [values in sample order])}."""
    text = _read_text(path)
    streams: dict[str, dict] = {}
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames is None or {"qoi", "sample_index", "value"} - set(reader.fieldnames):
        raise DataFormatError(f"{path}: expected columns qoi,sample_index,value")
    for row in reader:
        entry = streams.setdefault(row["qoi"], {"reference": None, "values": []})
        try:
            idx = int(row["sample_index"])
            val = float(row["value"])
        except ValueError:
            raise DataFormatError(f"{path}: non-numeric row {row}") from None
        if not math.isfinite(val):
            raise DataFormatError(f"{path}: {row['qoi']} at sample_index {idx} "
                                  f"is {row['value']}, not a finite number")
        if idx < 0:
            entry["reference"] = val
        else:
            entry["values"].append((idx, val))
    for entry in streams.values():
        entry["values"] = [v for _i, v in sorted(entry["values"])]
    return streams


def _load_streams(cfg):
    """The run's value streams (see _read_value_streams) and its t grid."""
    values_path = _resolve_input(cfg, "values",
                                 default=str(Path(cfg["out"]) / "qoi_values.csv"))
    streams = _read_value_streams(values_path)
    if not streams:
        raise ValueError("no QOI streams found in values file")
    return streams, tuple(float(t) for t in cfg["t_grid"])


# ---------------------------------------------------------------- certify

def run_certify(cfg) -> list[str]:
    from moluq import certificates

    out = _out_dir(cfg)
    streams, t_grid = _load_streams(cfg)

    cert_rows, z_rows = [], []
    text_lines = ["qoi".ljust(16) + "".join(f"{t:>9g}" for t in t_grid)]
    for name, entry in sorted(streams.items()):
        dist = certificates.EmpiricalDistribution.from_values(entry["values"])
        table = certificates.chernoff_table(dist, t_grid)
        for t, eps in zip(table.t_values, table.epsilons):
            cert_rows.append([name, _fmt(t), _fmt(eps)])
        text_lines.append(name.ljust(16) + "".join(f"{e:>9.3f}" for e in table.epsilons))
        if entry["reference"] is not None and dist.std > 0:
            z = certificates.zscore(entry["reference"], dist)
            z_rows.append([name, _fmt(entry["reference"]), _fmt(dist.mean),
                           _fmt(dist.std), _fmt(z)])
    _write_csv(out / "certificates.csv", ["qoi", "t", "epsilon"], cert_rows)
    (out / "certificates.txt").write_text("\n".join(text_lines) + "\n")
    _write_csv(out / "zscores.csv", ["qoi", "reference", "mean", "std", "zscore"], z_rows)
    return ["certificates.csv", "certificates.txt", "zscores.csv"]


# ---------------------------------------------------------------- saturate

def run_saturate(cfg) -> list[str]:
    from moluq import certificates

    out = _out_dir(cfg)
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


# ---------------------------------------------------------------- bound

def _box(raw, where: str) -> bounds.BoxDomain:
    """The box of the JSON array ``raw`` of [lower, upper] intervals, which
    ``where`` names in errors."""
    from moluq import bounds

    return bounds.BoxDomain(tuple(tuple(_numbers(iv, f"{where}: interval {i}", 2))
                                  for i, iv in enumerate(_expect(raw, list, where))))


def run_bound(cfg) -> list[str]:
    from moluq import bounds

    out = _out_dir(cfg)
    spec_cfg, where = cfg.get("bound"), "config key 'bound'"
    if spec_cfg is None:
        where = _resolve_input(cfg, "bound_config")
        spec_cfg = _load_json(where)
    t_grid = _expect(spec_cfg, dict, where).get("t_grid", cfg["t_grid"])
    t_where = f"{where}: t_grid" if "t_grid" in spec_cfg else "config key 't_grid'"
    t_grid = _numbers(t_grid, t_where).tolist()
    mode = spec_cfg.get("mode", "single")
    mc_draws = int(_number(spec_cfg.get("mc_draws", 0), f"{where}: mc_draws"))
    rng = np.random.default_rng(int(_number(spec_cfg.get("mc_seed", cfg["seed"]),
                                            f"{where}: mc_seed")))

    def draw(box):  # mc_draws uniform points of the box
        return box.lowers() + rng.random((mc_draws, box.dim)) * (box.uppers() - box.lowers())

    deviations: list[float] = []
    if mode == "azuma":
        aspec = bounds.AzumaSpec(tuple(_numbers(_field(spec_cfg, "c", where), f"{where}: c")))
        bound_at = lambda t: bounds.azuma_tail(aspec, t)
    elif mode in ("single", "pairwise"):
        terms = _field(_field(spec_cfg, "kernel", where), "terms", f"{where}: kernel")
        kspec = bounds.KernelSpec(tuple(
            tuple(_numbers(term, f"{where}: kernel term {k}", 2))
            for k, term in enumerate(_expect(terms, list, f"{where}: kernel terms"))))
        if mode == "single":
            box = _box(_field(spec_cfg, "box", where), f"{where}: box")
            deviations = [bounds.d3_bound(kspec, box, i) for i in range(box.dim)]
            bound_at = lambda t: bounds.mcdiarmid_tail(deviations, t)
            points = [draw(box)]
        else:
            def boxes(key):
                entries = _expect(_field(spec_cfg, key, where), list, f"{where}: {key}")
                return [_box(b, f"{where}: {key} entry {k}") for k, b in enumerate(entries)]

            boxes_a, boxes_b = boxes("boxes_a"), boxes("boxes_b")
            bound_at = lambda t: bounds.pairwise_sum_tail(kspec, boxes_a, boxes_b, t)
            # one difference per pair of boxes, drawn lazily: a's point, then b's
            points = (draw(bb) - xa for xa in map(draw, boxes_a) for bb in boxes_b)
    else:
        raise UsageError(f"unknown bound mode {mode!r}")

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


# ---------------------------------------------------------------- bindsite

def _load_poses(raw, where: str) -> list[bindsite.Pose]:
    """The poses of the JSON array ``raw``, which ``where`` names in errors."""
    from moluq import bindsite

    poses = []
    for j, entry in enumerate(_expect(raw, list, where)):
        pose = f"{where}: pose {j}"
        poses.append(bindsite.Pose(
            rotation=_numbers(_field(entry, "rotation", pose), f"{pose}: rotation", 9)
            .reshape(3, 3),
            translation=_numbers(_field(entry, "translation", pose), f"{pose}: translation", 3)))
    return poses


def run_bindsite(cfg) -> list[str]:
    from moluq import bindsite, conformers, molio, vizgrid

    out = _out_dir(cfg)
    receptor = _load_structure(cfg)
    ligand, ligand_coords = molio.parse_pdb_models(_read_text(_resolve_input(cfg, "ligand")))
    poses_path = _resolve_input(cfg, "poses")
    raw = _expect(_load_json(poses_path), list, poses_path)
    model = bindsite.ContactModel(cutoff=float(cfg["contact_cutoff"]))

    # a grouped file pairs group k with ligand model k; a flat pose list
    # places the first model only
    if raw and isinstance(raw[0], dict) and "poses" in raw[0]:
        pose_lists = []
        for k, group in enumerate(raw):
            where = f"{poses_path}: pose group {k}"
            poses = _field(group, "poses", where)
            if group.get("model", k) != k:
                raise DataFormatError(f"{poses_path}: pose group {k} names model "
                                      f"{group['model']!r}; group k must hold model k's poses")
            pose_lists.append(_load_poses(poses, where))
    else:
        pose_lists = [_load_poses(raw, poses_path)]
        ligand_coords = ligand_coords[:1]
    site_map = bindsite.binding_site_prob_multi(
        receptor, conformers.Ensemble(ligand, ligand_coords), pose_lists, model)

    atoms = zip(receptor.serials.tolist(), receptor.chain_ids.tolist(),
                receptor.residue_seqs.tolist(), receptor.residue_names.tolist())
    _write_csv(out / "bindsite_atoms.csv",
               ["serial", "chain", "residue_seq", "residue_name", "p_bs"],
               ([*atom, _fmt(p)] for atom, p in zip(atoms, site_map.probabilities)))
    _write_csv(out / "bindsite_residues.csv", ["chain", "residue_seq", "residue_name", "p_bs"],
               ([chain, seq, name, _fmt(p)] for (chain, seq, name), p
                in bindsite.residue_site_probabilities(receptor, site_map)))

    colors_csv, script = vizgrid.colormap_export(
        receptor.serials.tolist(), site_map.probabilities, palette="rainbow")
    (out / "bindsite_colors.csv").write_text(colors_csv)
    (out / "bindsite_colors.pml").write_text(script)
    return ["bindsite_atoms.csv", "bindsite_residues.csv",
            "bindsite_colors.csv", "bindsite_colors.pml"]


# ---------------------------------------------------------------- volmap / modes

def _load_ensemble(cfg) -> conformers.Ensemble:
    from moluq import conformers

    s = _load_structure(cfg)
    return conformers.Ensemble(s, _ensemble_models(cfg, s)[1])


def run_volmap(cfg) -> list[str]:
    from moluq import vizgrid

    out = _out_dir(cfg)
    ens = _load_ensemble(cfg)
    grid = vizgrid.occupancy_map(ens, spacing=float(cfg["spacing"]),
                                 radius_mode=cfg.get("radius_mode", "vdw"))
    (out / "occupancy.dx").write_text(vizgrid.write_grid(grid))
    return ["occupancy.dx"]


def run_modes(cfg) -> list[str]:
    from moluq import conformers

    out = _out_dir(cfg)
    ens = _load_ensemble(cfg)
    variances, axes = conformers.atom_motion_modes(ens)
    _write_csv(out / "modes.csv",
               ["serial", "var1", "var2", "var3",
                "v1x", "v1y", "v1z", "v2x", "v2y", "v2z", "v3x", "v3y", "v3z"],
               ([serial] + [_fmt(v) for v in var] + [_fmt(x) for x in ax.reshape(-1)]
                for serial, var, ax in zip(ens.source.serials.tolist(), variances, axes)))
    return ["modes.csv"]


# ---------------------------------------------------------------- dispatch

COMMANDS = {
    "sample": run_sample,
    "qoi": run_qoi,
    "certify": run_certify,
    "saturate": run_saturate,
    "bound": run_bound,
    "bindsite": run_bindsite,
    "volmap": run_volmap,
    "modes": run_modes,
}


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
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--samples", type=int, default=None)
        p.add_argument("--workers", type=int, default=None)
        p.add_argument("--out", default=None)
    replay = sub.add_parser("replay")
    replay.add_argument("sidecar", help="a <command>_meta.json from a previous run")
    replay.add_argument("--out", default=None)
    return parser


def _data_errors() -> tuple[type[Exception], ...]:
    """The exceptions that exit 2.  Called only once an exception reaches
    ``main``'s handlers, so a stage that never reads a PDB loads no molio."""
    from moluq.molio import PdbParseError

    return PdbParseError, DataFormatError, json.JSONDecodeError


def main(argv=None) -> int:
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
        outputs = COMMANDS[command](cfg)
        _write_meta(_out_dir(cfg), command, cfg, outputs)
        return 0
    except UsageError as exc:
        print(f"moluq: usage error: {exc}", file=sys.stderr)
        return 1
    except _data_errors() as exc:
        print(f"moluq: data error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, KeyError) as exc:
        print(f"moluq: domain error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
