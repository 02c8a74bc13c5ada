"""The tables of every JSON input the command line reads, and their checker.

Each key of a table is a :class:`Key`: its JSON ``type`` ("a|b" takes either,
"null" included) and ``default`` (``...``: the key is required); an array's
element type or a map's value type (``items``); an object's own table
(``keys``; without one, the object maps any name to ``items``); the allowed
strings (``choices``; a dict also names the sibling keys each one needs); a
``minimum``; an array's exact ``length``.  Finite and positive ranges are not
copied here: the library's constructors and kernels check them.
"""

from __future__ import annotations

import json
import math
from typing import NamedTuple

import moluq


class Key(NamedTuple):
    type: str
    default: object = ...
    items: Key | None = None
    keys: dict | None = None
    choices: tuple | dict = ()
    minimum: int | None = None
    length: int | None = None

    def optional(self) -> Key:
        """This key, also taking null, which an absent key defaults to."""
        return self._replace(type=f"{self.type}|null", default=None)


NUMBER, INTEGER, STRING = Key("number"), Key("integer"), Key("string")
NUMBERS, PAIR = Key("array", items=NUMBER), Key("array", items=NUMBER, length=2)
BOX = Key("array", items=PAIR)  # [lower, upper] intervals
# the values of qoi.QOIKind, listed here so that a stage that runs no QOI loads no qoi
QOI_NAMES = ("area", "volume", "lj", "coulomb", "gb",
             "delta_area", "delta_volume", "delta_lj", "delta_coulomb", "delta_gb")

# a bound config, inline or a file; a null t_grid or mc_seed takes the run config's
BOUND = Key("object", keys={
    "mode": Key("string", "single", choices={"single": ("kernel", "box"), "azuma": ("c",),
                                             "pairwise": ("kernel", "boxes_a", "boxes_b")}),
    "kernel": Key("object", keys={"terms": Key("array", items=PAIR)}).optional(),
    "box": BOX.optional(),
    "boxes_a": Key("array", items=BOX).optional(),
    "boxes_b": Key("array", items=BOX).optional(),
    "c": NUMBERS.optional(),
    "t_grid": NUMBERS.optional(),
    "mc_draws": Key("integer", 0, minimum=0),
    "mc_seed": Key("integer", minimum=0).optional(),
})

# the run config: every key a command reads (README.md lists the same table)
CONFIG = {
    **dict.fromkeys(("structure", "params", "torsion_dihedrals", "ensemble", "values",
                     "bound_config", "ligand", "poses", "out"), STRING.optional()),  # paths
    "seed": Key("integer", 0, minimum=0),
    "samples": Key("integer", minimum=1).optional(),
    "workers": Key("integer", 1, minimum=1),
    "mode": Key("string", "cartesian", choices=("cartesian", "torsion")),
    "clash_factor": Key("number|null", 0.6),
    "fixed_chains": Key("array", [], items=STRING),
    "qoi": Key("array", ["area", "volume", "lj", "coulomb", "gb"],
               items=Key("string", choices=QOI_NAMES)),
    "chain_a": STRING.optional(),
    "chain_b": STRING.optional(),
    "probe": Key("number", 1.4),
    "n_points": Key("integer", 960),
    "spacing": Key("number", 0.5),
    "dielectric": Key("object", {"mode": "constant", "value": 1.0}, keys={
        "mode": Key("string", choices=("constant", "distance_dependent")), "value": NUMBER}),
    "solvent_dielectric": Key("number", 80.0),
    "t_grid": Key("array", list(moluq.DEFAULT_T_GRID), items=NUMBER),
    "tau": Key("number", 0.05),
    "saturation_mode": Key("string", "incremental", choices=("incremental", "full")),
    "bound": BOUND.optional(),
    "contact_cutoff": Key("number", 5.0),
    "radius_mode": Key("string|number", "vdw", choices=("vdw",)),
}

_ROW = dict.fromkeys(("radius", "charge", "lj_a", "lj_b"), NUMBER)
PARAMS = Key("object", keys={
    "elements": Key("object", {}, items=Key("object", keys=_ROW)),
    "overrides": Key("array", [], items=Key("object", keys={
        "residue": STRING, "atom": STRING, **_ROW}))})
DIHEDRALS = Key("object", keys={"dihedrals": Key("array", items=Key("object", keys={
    "atoms": Key("array", items=INTEGER, length=4),
    "lower": Key("number", -math.pi), "upper": Key("number", math.pi)}))})
POSES = Key("array", items=Key("object", keys={
    "rotation": Key("array", items=NUMBER, length=9),  # row-major
    "translation": Key("array", items=NUMBER, length=3),
    "rank": INTEGER.optional()}))  # accepted and ignored
POSE_GROUPS = Key("array", items=Key("object", keys={
    "model": INTEGER.optional(), "poses": POSES}))  # model null: the group's position
# the manifest.json that the sample command writes beside ensemble.pdb; accepted
# lists the sample index of each model, and qoi checks that none repeats
MANIFEST = Key("object", keys={
    "seed": INTEGER, "samples": INTEGER, "mode": STRING, "sequence": STRING,
    "clash_factor": Key("number|null"), "accepted": Key("array", items=Key("integer", minimum=0)),
    "rejected": Key("array", items=Key("object", keys={"sample_index": INTEGER,
                                                        "reason": STRING}))})

# each JSON type: the Python types json.load gives it, and its name in errors
_JSON_TYPES = {"number": ((int, float), "a number"), "integer": (int, "an integer"),
               "string": (str, "a string"), "array": (list, "an array"),
               "object": (dict, "an object"), "null": (type(None), "null")}


class Invalid(Exception):
    """A value that breaks its table: args are its key path and the problem."""


def check(value, key: Key, path: str = ""):
    """``value`` checked against ``key``, with every object's absent keys at
    their defaults; raises Invalid naming the path ("dielectric.value",
    "t_grid[0]") of the first value that breaks the table."""
    types = key.type.split("|")
    if isinstance(value, bool) or not any(isinstance(value, _JSON_TYPES[t][0]) for t in types):
        problem = "must be " + " or ".join(_JSON_TYPES[t][1] for t in types)
    elif isinstance(value, str) and key.choices and value not in key.choices:
        problem = "must be one of " + ", ".join(map(json.dumps, key.choices))
    elif key.minimum is not None and value is not None and value < key.minimum:
        problem = f"must be >= {key.minimum}"
    elif isinstance(value, list) and key.length not in (None, len(value)):
        problem = f"must be {key.length} {key.items.type}s"
    else:
        problem = None
    if problem:
        raise Invalid(path, f"{problem}, not {json.dumps(value)}")
    if isinstance(value, list):
        return [check(v, key.items, f"{path}[{i}]") for i, v in enumerate(value)]
    if not isinstance(value, dict):
        return value
    at = lambda name: f"{path}.{name}" if path else name  # noqa: E731
    if key.keys is None:
        return {name: check(v, key.items, at(name)) for name, v in value.items()}
    for name in value:
        if name not in key.keys:
            import difflib  # on this error path only: a stage that succeeds never loads it

            close = difflib.get_close_matches(name, key.keys, n=1)
            raise Invalid(at(name), "is not a known key"
                          + (f"; did you mean {close[0]!r}?" if close else ""))
    checked = {name: check(value[name], sub, at(name)) if name in value else sub.default
               for name, sub in key.keys.items()}
    needed = [name for name, v in checked.items() if v is ...] + [
        need for name, sub in key.keys.items() if isinstance(sub.choices, dict)
        for need in sub.choices[checked[name]] if checked[need] is None]
    if needed:
        raise Invalid(path, f"has no {needed[0]!r}")
    return checked
