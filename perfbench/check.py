"""Output checks for one CLI stage, run after the stage exits.

``check_stage`` returns a list of problems; an empty list means the stage's
outputs are valid.  The checks are invariants that hold for any seed plus,
on a workload's default seed, a comparison with ``reference.json``
(digests for outputs that must match exactly, values compared to 1e-12
relative for QOIs and motion modes).  Parsing is done here, not with moluq,
so a broken reader in the program cannot hide a broken writer.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from pathlib import Path

OUTPUTS = {
    "sample": ["ensemble.pdb", "manifest.json"],
    "qoi": ["qoi_values.csv"],
    "certify": ["certificates.csv", "certificates.txt", "zscores.csv"],
    "saturate": ["saturation.json"],
    "volmap": ["occupancy.dx"],
    "modes": ["modes.csv"],
    "bindsite": ["bindsite_atoms.csv", "bindsite_residues.csv", "bindsite_colors.csv",
                 "bindsite_colors.pml"],
    "bound": ["bounds.csv"],
}
REL_TOL = 1e-12


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _rows(path: Path) -> list[dict]:
    return list(csv.DictReader(io.StringIO(path.read_text())))


def _in_unit(values, what: str) -> list[str]:
    bad = [v for v in values if not (0.0 <= v <= 1.0)]
    return [f"{what}: {len(bad)} value(s) outside [0, 1], e.g. {bad[0]!r}"] if bad else []


def read_dx_values(path: Path) -> list[float]:
    lines = path.read_text().splitlines()
    start = next(i for i, ln in enumerate(lines) if "data follows" in ln) + 1
    items = int(lines[start - 1].split("items")[1].split()[0])
    values = []
    for ln in lines[start:]:
        if ln.startswith(("attribute", "object")):
            break
        values += [float(x) for x in ln.split()]
    if len(values) != items:
        raise ValueError(f"grid declares {items} items, holds {len(values)}")
    return values


def accepted(out: Path) -> list[int]:
    return json.loads((out / "manifest.json").read_text())["accepted"]


def _check_sample(out: Path, ctx: dict) -> list[str]:
    manifest = json.loads((out / "manifest.json").read_text())
    problems = []
    n_acc, n_rej = len(manifest["accepted"]), len(manifest["rejected"])
    if n_acc + n_rej != ctx["samples"]:
        problems.append(f"accepted {n_acc} + rejected {n_rej} != draws {ctx['samples']}")
    models = sum(1 for ln in (out / "ensemble.pdb").read_text().splitlines()
                 if ln.startswith("MODEL"))
    if models != n_acc:
        problems.append(f"ensemble.pdb holds {models} models, manifest accepts {n_acc}")
    return problems


def _check_qoi(out: Path, ctx: dict) -> list[str]:
    rows = _rows(out / "qoi_values.csv")
    want = len(ctx["qoi"]) * (len(accepted(out)) + 1)
    problems = [] if len(rows) == want else [f"qoi_values.csv has {len(rows)} rows, want {want}"]
    if {r["qoi"] for r in rows} != set(ctx["qoi"]):
        problems.append("qoi_values.csv QOI names differ from the config")
    if not all(math.isfinite(float(r["value"])) for r in rows):
        problems.append("qoi_values.csv holds a non-finite value")
    return problems


def _check_certify(out: Path, ctx: dict) -> list[str]:
    streams: dict[str, list[tuple[float, float]]] = {}
    for r in _rows(out / "certificates.csv"):
        streams.setdefault(r["qoi"], []).append((float(r["t"]), float(r["epsilon"])))
    problems = [] if set(streams) == set(ctx["qoi"]) else ["certificates.csv QOI set differs"]
    for name, table in streams.items():
        table.sort()
        eps = [e for _t, e in table]
        problems += _in_unit(eps, f"epsilon of {name}")
        if any(b > a for a, b in zip(eps, eps[1:])):
            problems.append(f"epsilon of {name} increases with t")
    return problems


def _check_saturate(out: Path, ctx: dict) -> list[str]:
    reports = json.loads((out / "saturation.json").read_text())
    stream_len = len(accepted(out))
    problems = []
    for r in reports:
        if "r_star" not in r:
            continue
        if not (1 <= r["r_star"] <= stream_len):
            problems.append(f"r_star {r['r_star']} of {r['qoi']} exceeds stream length "
                            f"{stream_len}")
        curve = _rows(out / f"saturation_{r['qoi']}.csv")
        if not all(math.isfinite(float(c["error"])) for c in curve):
            problems.append(f"saturation_{r['qoi']}.csv holds a non-finite error")
    return problems


def _check_volmap(out: Path, ctx: dict) -> list[str]:
    return _in_unit(read_dx_values(out / "occupancy.dx"), "occupancy")


def _check_modes(out: Path, ctx: dict) -> list[str]:
    rows = _rows(out / "modes.csv")
    problems = [] if len(rows) == ctx["atoms"] else [f"modes.csv has {len(rows)} rows"]
    variances = [[float(r[f"var{k}"]) for k in (1, 2, 3)] for r in rows]
    # Atoms that never move (the first three of a torsion chain) have an
    # all-zero covariance, for which eigh returns round-off of either sign
    # (-2.6e-50 at this writing); a value within 1e-12 of the largest
    # variance counts as zero, anything more negative fails.
    floor = -1e-12 * max(max(v) for v in variances)
    for r, var in zip(rows, variances):
        if min(var) < floor or var != sorted(var, reverse=True):
            problems.append(f"mode variances of serial {r['serial']} negative or unsorted")
            break
    return problems


def _check_bindsite(out: Path, ctx: dict) -> list[str]:
    atoms = [float(r["p_bs"]) for r in _rows(out / "bindsite_atoms.csv")]
    residues = [float(r["p_bs"]) for r in _rows(out / "bindsite_residues.csv")]
    problems = [] if len(atoms) == ctx["atoms"] else [f"bindsite_atoms.csv has {len(atoms)} rows"]
    return problems + _in_unit(atoms, "atom p_bs") + _in_unit(residues, "residue p_bs")


def _check_bound(out: Path, ctx: dict) -> list[str]:
    rows = _rows(out / "bounds.csv")
    values = [float(r[k]) for r in rows for k in ("bound", "mc_estimate") if k in r]
    return _in_unit(values, "bounds")


CHECKS = {
    "sample": _check_sample, "qoi": _check_qoi, "certify": _check_certify,
    "saturate": _check_saturate, "volmap": _check_volmap, "modes": _check_modes,
    "bindsite": _check_bindsite, "bound": _check_bound,
}


def expected_outputs(command: str, out: Path) -> list[str]:
    names = list(OUTPUTS[command])
    if command == "saturate" and (out / "saturation.json").exists():
        reports = json.loads((out / "saturation.json").read_text())
        names += [f"saturation_{r['qoi']}.csv" for r in reports if "r_star" in r]
    return sorted(names)


def check_stage(command: str, out: Path, ctx: dict, reference: dict | None = None) -> list[str]:
    """Problems with ``command``'s outputs in ``out``; ``ctx`` holds the run config
    plus ``atoms``.  With ``reference`` the outputs must also match it."""
    return [f"{command}: {p}" for p in _stage_problems(command, out, ctx, reference)]


def _stage_problems(command, out, ctx, reference) -> list[str]:
    meta_path = out / f"{command}_meta.json"
    if not meta_path.exists():
        return [f"{meta_path.name} missing"]
    names = expected_outputs(command, out)
    missing = [n for n in names if not (out / n).exists()]
    if missing:
        return [f"missing outputs {missing}"]
    listed = json.loads(meta_path.read_text()).get("outputs")
    problems = [] if listed == names else [f"meta lists {listed}, want {names}"]
    try:
        problems += CHECKS[command](out, ctx)
        if reference is not None:
            problems += compare_reference(command, out, reference)
    except (ValueError, TypeError, KeyError, StopIteration, IndexError) as exc:
        problems.append(f"malformed output: {type(exc).__name__}: {exc}")
    return problems


# ---------------------------------------------------------------- reference data

VALUE_KEYS = {"qoi_values": ("qoi", "sample_index"), "modes": ("serial",)}


def _value_rows(path: Path, keys: tuple[str, ...]) -> list[list]:
    """Rows as [key columns..., float values...] for tolerance comparison."""
    out = []
    for r in _rows(path):
        out.append([r[k] for k in keys] + [float(v) for k, v in r.items() if k not in keys])
    return out


def snapshot(command: str, out: Path) -> dict:
    """The reference record of one stage's outputs (what ``compare_reference`` checks)."""
    if command == "sample":
        return {"accepted_sha256": sha256(json.dumps(accepted(out)).encode())}
    if command == "qoi":
        return {"qoi_values": _value_rows(out / "qoi_values.csv", VALUE_KEYS["qoi_values"])}
    if command == "certify":
        return {"certificates_sha256": sha256((out / "certificates.csv").read_bytes())}
    if command == "saturate":
        reports = json.loads((out / "saturation.json").read_text())
        return {"r_star": {r["qoi"]: r["r_star"] for r in reports if "r_star" in r}}
    if command == "volmap":
        return {"occupancy_sha256": sha256((out / "occupancy.dx").read_bytes())}
    if command == "modes":
        return {"modes": _value_rows(out / "modes.csv", VALUE_KEYS["modes"])}
    return {}


def _close_rows(got: list[list], want: list[list], what: str, n_keys: int) -> list[str]:
    """Rows equal in their key columns and within REL_TOL in their values.

    The tolerance scales with the largest magnitude of the value's column
    (within one QOI for QOI rows), so a value near zero (an axis component,
    a small delta) is held to 1e-12 of its column's scale, not of itself.
    """
    if len(got) != len(want):
        return [f"{what}: {len(got)} rows, reference has {len(want)}"]
    group = (lambda r: r[0]) if n_keys > 1 else (lambda r: None)
    scale: dict = {}
    for w in want:
        cur = scale.setdefault(group(w), [0.0] * (len(w) - n_keys))
        scale[group(w)] = [max(c, abs(v)) for c, v in zip(cur, w[n_keys:])]
    for g, w in zip(got, want):
        if g[:n_keys] != w[:n_keys]:
            return [f"{what}: row keys {g[:n_keys]} differ from reference {w[:n_keys]}"]
        for a, b, s in zip(g[n_keys:], w[n_keys:], scale[group(w)]):
            if not abs(a - b) <= REL_TOL * max(abs(a), abs(b), s):
                return [f"{what}: {g[:n_keys]} value {a!r} differs from reference {b!r}"]
    return []


def compare_reference(command: str, out: Path, reference: dict) -> list[str]:
    want = reference.get(command)
    if want is None:
        return []
    got = snapshot(command, out)
    problems = []
    for key, value in want.items():
        if key in VALUE_KEYS:
            problems += _close_rows(got[key], value, key, len(VALUE_KEYS[key]))
        elif got[key] != value:
            problems.append(f"{key} differs from reference data")
    return problems
