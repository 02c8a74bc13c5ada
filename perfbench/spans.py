"""Spans around moluq's public functions, installed from outside the program.

``install`` replaces every module-level binding of each target function (and
each target method on its class) with a wrapper that records a span: name,
start, end and the span that was open when it started.  Spans stay in
memory; ``summarize`` turns them into per-function self time, call counts
and per-call timings.  Nothing under ``src/`` is changed on disk.
"""

from __future__ import annotations

import functools
import itertools
import statistics
import threading
import time
from collections import defaultdict

# module -> public functions (Class.method for methods) that get a span
TARGETS = {
    "molio": ("parse_pdb", "parse_pdb_models", "assign_params", "detect_bonds",
              "bonded_exclusions", "write_pdb_models"),
    "sampling": ("LowDiscrepancySequence.__init__", "LowDiscrepancySequence.next_points",
                 "normals_from_unit"),
    "conformers": ("sample_cartesian_ensemble", "sample_torsion_ensemble", "perturb_cartesian",
                   "apply_torsions", "clash_filter", "atom_motion_modes"),
    "qoi": ("AtomSet.from_structure", "evaluate_qoi", "delta_qoi", "sasa", "volume",
            "lj_energy", "coulomb_energy", "born_radii", "gb_polarization"),
    "certificates": ("chernoff_table", "saturation"),
    "bounds": ("pairwise_sum_tail",),
    "bindsite": ("binding_site_prob_multi",),
    "vizgrid": ("occupancy_map", "write_grid"),
    "cli": ("_map_workers",),
}


class Recorder:
    """Collects spans from every thread of one process.

    A span opened on a worker thread with nothing open on that thread takes
    the innermost span open on the main thread as its parent: that is the
    ``cli._map_workers`` call which handed the work out.
    """

    def __init__(self):
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main = threading.main_thread()

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else None
            span_id = next(self._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((span_id, parent, name, start, end))

        return traced


def install(recorder: Recorder) -> int:
    """Wrap every binding of every target; returns the number of bindings."""
    import moluq
    import moluq.cli  # noqa: F401  (loads every submodule the CLI uses)

    mods = {name: getattr(moluq, name) for name in TARGETS}
    everywhere = [moluq] + list(mods.values())
    count = 0
    for mod_name, names in TARGETS.items():
        mod = mods[mod_name]
        for qual in names:
            if "." in qual:
                cls_name, meth = qual.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                span = f"{mod_name}.{cls_name}" + ("" if meth == "__init__" else f".{meth}")
                if isinstance(raw, classmethod):
                    setattr(cls, meth, classmethod(recorder.wrap(span, raw.__func__)))
                else:
                    setattr(cls, meth, recorder.wrap(span, raw))
                count += 1
                continue
            original = getattr(mod, qual)
            wrapped = recorder.wrap(f"{mod_name}.{qual}", original)
            # from-imports copy the function into other modules' namespaces
            # (bonded_exclusions lives in molio, conformers and qoi)
            for other in everywhere:
                for key, value in list(vars(other).items()):
                    if value is original:
                        setattr(other, key, wrapped)
                        count += 1
    cli = mods["cli"]
    for command, fn in list(cli.COMMANDS.items()):
        wrapped = recorder.wrap(f"cli.{command}", fn)
        cli.COMMANDS[command] = wrapped
        setattr(cli, fn.__name__, wrapped)
        count += 1
    return count


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def per_call(durations: list[float]) -> dict:
    """Median plus the highest percentile with at least ten calls beyond it."""
    n = len(durations)
    out = {"calls": n, "median_s": statistics.median(durations)}
    for pct in (99.9, 99.0, 90.0):
        if n * (100.0 - pct) / 100.0 >= 10:
            ranked = sorted(durations)
            out[f"p{pct:g}_s"] = ranked[min(n - 1, int(pct / 100.0 * n))]
            break
    return out


def summarize(spans) -> dict[str, dict]:
    """Per span name: calls, self_s (duration minus the union of child spans
    inside it, so parallel children are not subtracted twice) and per-call
    inclusive timings."""
    children = defaultdict(list)
    for span_id, parent, _name, start, end in spans:
        children[parent].append((start, end))
    by_name: dict[str, dict] = defaultdict(lambda: {"self_s": 0.0, "durations": []})
    for span_id, _parent, name, start, end in spans:
        inner = [(max(s, start), min(e, end)) for s, e in children.get(span_id, ())
                 if min(e, end) > max(s, start)]
        entry = by_name[name]
        entry["self_s"] += (end - start) - _covered(inner)
        entry["durations"].append(end - start)
    return {name: {"self_s": e["self_s"], **per_call(e["durations"])}
            for name, e in sorted(by_name.items())}
