"""One corner rule, one tail and one Monte-Carlo path for the bounds.

``d2_bound`` evaluates the kernel at the two corners that maximize its
deviation, each corner's squared norm summed left to right, which is how the
grid-search oracles of the acceptance suite evaluate a corner; ``d1_bound``
is two ``d2_bound`` calls and ``pairwise_sum_tail`` ends in
``mcdiarmid_tail``.  The former expanded-square ``d2_bound`` fell below the
oracle's corner difference on some boxes; the tests here pin the new rule,
show how far the bound moved from the former code (verbatim copies below),
and check that the Monte-Carlo column of ``moluq bound`` kept its bytes.
"""

import csv
import importlib.util
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest

from moluq.bounds import (
    BoxDomain,
    KernelSpec,
    d1_bound,
    d2_bound,
    difference_box,
    pairwise_sum_tail,
)
from moluq.certificates import DEFAULT_T_GRID
from moluq.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


gen, workloads = _load("gen"), _load("workloads")


# ---------------------------------------------------------------- former code, verbatim

def _single_term(a: float, b: float, radius_sq: float) -> float:
    return a / radius_sq ** (b / 2.0)


def former_d2_bound(a: float, b: float, box: BoxDomain, i: int) -> float:
    if not (0 <= i < box.dim):
        raise ValueError(f"coordinate {i} outside box of dimension {box.dim}")
    if b < 0:
        raise ValueError("exponent b must be >= 0")
    lows = box.lowers()
    mag = abs(a)
    low_sq = float((lows**2).sum())
    hi_sq = low_sq - lows[i] ** 2 + box.uppers()[i] ** 2
    return abs(_single_term(mag, b, low_sq) - _single_term(mag, b, hi_sq))


def former_d3_bound(spec: KernelSpec, box: BoxDomain, i: int) -> float:
    return len(spec.terms) * max(former_d2_bound(a, b, box, i) for a, b in spec.terms)


def former_pairwise_sum_tail(spec: KernelSpec, boxes_a, boxes_b, t: float) -> float:
    if t <= 0:
        raise ValueError("t must be positive")
    boxes_a = list(boxes_a)
    boxes_b = list(boxes_b)
    if not boxes_a or not boxes_b:
        raise ValueError("both point sets must be non-empty")
    total = 0.0
    for ba in boxes_a:
        for bb in boxes_b:
            delta = difference_box(ba, bb)
            for i in range(delta.dim):
                total += former_d3_bound(spec, delta, i) ** 2
    if total == 0.0:
        return 0.0
    return min(1.0, 2.0 * math.exp(-2.0 * t * t / total))


def former_mc_values(spec_cfg: dict, seed: int):
    """The Monte-Carlo draws of the former ``run_bound``, its two loops verbatim."""
    rng = np.random.default_rng(int(spec_cfg.get("mc_seed", seed)))
    mode = spec_cfg.get("mode", "single")
    mc_draws = int(spec_cfg.get("mc_draws", 0))
    kspec = KernelSpec(tuple(tuple(t) for t in spec_cfg["kernel"]["terms"]))
    if mode == "single":
        box = BoxDomain(tuple(tuple(iv) for iv in spec_cfg["box"]))
        lo, hi = box.lowers(), box.uppers()
        pts = lo + rng.random((mc_draws, box.dim)) * (hi - lo)
        norms = np.linalg.norm(pts, axis=1)
        return sum(a / norms**b for a, b in kspec.terms)
    boxes_a = [BoxDomain(tuple(tuple(iv) for iv in b)) for b in spec_cfg["boxes_a"]]
    boxes_b = [BoxDomain(tuple(tuple(iv) for iv in b)) for b in spec_cfg["boxes_b"]]
    total = np.zeros(mc_draws)
    for ba in boxes_a:
        xa = ba.lowers() + rng.random((mc_draws, ba.dim)) * (ba.uppers() - ba.lowers())
        for bb in boxes_b:
            xb = bb.lowers() + rng.random((mc_draws, bb.dim)) * (bb.uppers() - bb.lowers())
            norms = np.linalg.norm(xb - xa, axis=1)
            total += sum(a / norms**b for a, b in kspec.terms)
    return total


# ---------------------------------------------------------------- corner rule

def corner_difference(a, b, box, i):
    """The acceptance suite's oracle at the two corners that bound coordinate i."""
    def kernel(corner):
        return a / sum(c * c for c in corner) ** (b / 2)

    low = [l for l, _u in box.intervals]
    high = low[:i] + [box.intervals[i][1]] + low[i + 1:]
    return abs(kernel(low) - kernel(high))


def random_boxes(seed, count, dims=(2, 3, 4)):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        d = int(rng.choice(dims))
        lows = rng.uniform(0.05, 5.0, d)
        widths = rng.uniform(0.0, 3.0, d) * (rng.random(d) < 0.9)
        a = float(rng.uniform(-4.0, 4.0))
        b = float(rng.choice([0.5, 1.0, 2.0, 3.0, 6.0, 12.0, rng.uniform(0.0, 8.0)]))
        yield a, b, BoxDomain(tuple(zip(lows.tolist(), (lows + widths).tolist())))


def test_d2_bound_dominates_the_corner_difference():
    # the former d2_bound fell below this on about 8% of such boxes
    checked = 0
    for a, b, box in random_boxes(seed=19, count=2500):
        for i in range(box.dim):
            assert d2_bound(a, b, box, i) >= corner_difference(a, b, box, i), (a, b, box, i)
            checked += 1
    assert checked > 5000


def test_d1_bound_is_two_d2_bounds_bit_for_bit():
    for a, b, box in random_boxes(seed=23, count=2000, dims=(2,)):
        got = [d.hex() for d in d1_bound(a, b, box)]
        assert got == [d2_bound(a, b, box, i).hex() for i in (0, 1)]


# ---------------------------------------------------------------- how far the bits moved

def ulps(x: float, y: float) -> float:
    return abs(x - y) / math.ulp(max(abs(x), abs(y)))


@pytest.mark.parametrize("seed", [1, 4])
def test_maps_bound_moved_at_most_4_ulp(tmp_path, seed):
    files = gen.write_inputs(workloads.WORKLOADS["maps"], seed, tmp_path)
    spec_cfg = json.loads(files["bound_config"].read_text())
    spec = KernelSpec(tuple(tuple(t) for t in spec_cfg["kernel"]["terms"]))
    boxes_a = [BoxDomain(tuple(tuple(iv) for iv in b)) for b in spec_cfg["boxes_a"]]
    boxes_b = [BoxDomain(tuple(tuple(iv) for iv in b)) for b in spec_cfg["boxes_b"]]
    t_grid = spec_cfg.get("t_grid", DEFAULT_T_GRID)
    for t in t_grid:
        new = pairwise_sum_tail(spec, boxes_a, boxes_b, t)
        old = former_pairwise_sum_tail(spec, boxes_a, boxes_b, t)
        assert ulps(new, old) <= 4, (t, new, old)
    # a deviation is the difference of two close kernel values, so it moves by
    # up to 16 of its own ulps here, but by at most 4 ulps of those values
    for ba in boxes_a:
        for bb in boxes_b:
            delta = difference_box(ba, bb)
            low_sq = sum(l * l for l, _u in delta.intervals)
            for i in range(delta.dim):
                for a, b in spec.terms:
                    moved = abs(d2_bound(a, b, delta, i) - former_d2_bound(a, b, delta, i))
                    assert moved <= 4 * math.ulp(abs(a) / low_sq ** (b / 2))


# ---------------------------------------------------------------- Monte-Carlo column

MC_CONFIGS = {
    "single": {"mode": "single", "kernel": {"terms": [[1.0, 1.0], [-0.5, 3.0]]},
               "box": [[1.0, 2.0], [1.5, 2.5], [0.5, 1.0]], "mc_draws": 3000, "mc_seed": 5},
    "pairwise": {"mode": "pairwise", "kernel": {"terms": [[1.0, 1.0], [0.5, 6.0]]},
                 "boxes_a": [[[1.0, 1.5], [1.2, 1.6], [0.9, 1.1]],
                             [[1.4, 1.9], [1.0, 1.3], [1.1, 1.5]]],
                 "boxes_b": [[[6.0, 6.5], [6.2, 6.4], [5.8, 6.3]],
                             [[5.5, 6.0], [6.1, 6.6], [6.0, 6.2]],
                             [[6.3, 6.8], [5.9, 6.1], [6.4, 6.9]]],
                 "mc_draws": 3000},
}


@pytest.mark.parametrize("mode", sorted(MC_CONFIGS))
def test_mc_column_keeps_its_bytes(tmp_path, mode):
    spec_cfg = dict(MC_CONFIGS[mode], t_grid=[0.001, 0.01, 0.05, 0.1, 0.3])
    (tmp_path / "bound.json").write_text(json.dumps(spec_cfg))
    (tmp_path / "config.json").write_text(json.dumps(
        {"bound_config": str(tmp_path / "bound.json"), "seed": 9, "out": str(tmp_path / "run")}))
    assert main(["bound", "--config", str(tmp_path / "config.json")]) == 0
    rows = list(csv.DictReader(io.StringIO((tmp_path / "run" / "bounds.csv").read_text())))
    values = former_mc_values(spec_cfg, seed=9)
    mean = float(values.mean())
    want = [repr(float((np.abs(values - mean) > t).mean())) for t in spec_cfg["t_grid"]]
    assert [row["mc_estimate"] for row in rows] == want
    assert len(set(want)) > 2
