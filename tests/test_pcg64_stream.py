"""moluq's PCG64 stream against numpy's ``default_rng``, bit for bit.

``sampling.PCG64Stream`` rebuilds numpy's seeding (``SeedSequence``), the
PCG64 generator and the four ``Generator`` draws moluq makes, so that no
stage imports ``numpy.random``.  The tests draw the same sequence from both
and compare with ==: numpy is the oracle, imported here only (one lane step
is checked against Python integers instead).
"""

import csv
import io
import json

import numpy as np
import pytest

from moluq import sampling
from moluq.certificates import expected_hypercube_distance_mc
from moluq.cli import main
from moluq.sampling import SOBOL_MAX_DIM, LowDiscrepancySequence, PCG64Stream
from test_bound_folds import MC_CONFIGS, former_mc_values

SEEDS = [0, 1, 2**32, 2**64 + 5]
LANES = sampling._PCG_LANES


def same_draws(seed, calls):
    """Apply each (method, argument) of ``calls`` to numpy's generator and to
    the stream, and assert that every pair of results is equal, dtype too."""
    rng, stream = np.random.default_rng(seed), PCG64Stream(seed)
    oracle = {"bits": lambda shape: rng.integers(2, size=shape, dtype=np.uint32),
              "seeds": lambda count: rng.integers(2**63, size=count),
              "permutation": rng.permutation,
              "random": rng.random}
    for k, (method, arg) in enumerate(calls):
        want, got = oracle[method](arg), getattr(stream, method)(arg)
        assert got.dtype == want.dtype and got.shape == want.shape, (k, method, arg)
        assert np.array_equal(got, want), (seed, k, method, arg)


# 2**160 + 7 has six 32-bit words, more than SeedSequence's pool of four
@pytest.mark.parametrize("seed", SEEDS + [2**160 + 7])
def test_seeding_gives_numpys_state_and_increment(seed):
    state = np.random.PCG64(seed).state["state"]
    assert sampling._pcg64_seed(seed) == (state["state"], state["inc"])


@pytest.mark.parametrize("seed", SEEDS)
def test_words_are_numpys_raw_stream(seed):
    stream = PCG64Stream(seed)
    got = np.concatenate([stream._words(k) for k in (1, 2, 5, LANES - 3, 2 * LANES + 7)])
    assert np.array_equal(got, np.random.PCG64(seed).random_raw(got.size))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("method, args", [
    ("bits", [(4, 30), (3, 30, 30), (LANES + 10, 30)]),
    ("seeds", [1, 3, 1000]),
    ("permutation", [0, 1, 2, 5, 64, 1000, 70_000]),
    ("random", [(1,), (7, 3), (LANES + 1, 2)]),
])
def test_each_draw(seed, method, args):
    same_draws(seed, [(method, arg) for arg in args])


@pytest.mark.parametrize("seed", SEEDS)
def test_odd_and_split_draws_share_the_waiting_half(seed):
    # an odd number of 32-bit draws leaves a word's high half waiting: the
    # 64-bit draws after it (seeds, random) pass it by, and the next 32-bit
    # draw, bits or permutation's bounded indices, takes it first
    same_draws(seed, [("bits", (3,)), ("seeds", 2), ("bits", (5,)), ("random", (3, 1)),
                      ("permutation", 6), ("bits", (1,)), ("permutation", 9),
                      ("random", (2,)), ("bits", (7, 3)), ("seeds", 1), ("bits", (2,)),
                      ("permutation", 1), ("bits", (LANES - 1,)), ("permutation", 3000),
                      ("bits", (0,)), ("random", (LANES + 3,)), ("bits", (2 * LANES + 1,)),
                      ("seeds", 5)])


def test_advance_carries_into_the_high_word():
    # lanes whose low word times the multiplier lands just below 2**64 minus
    # the increment's low word, so that one step carries into the high word
    # through every bit of the low one; Python integers are the oracle
    stream, steps, m64 = PCG64Stream(3), 5, 2**64 - 1
    mult, add = 1, 0
    for _ in range(steps):
        mult, add = mult * sampling._PCG_MULT % 2**128, (add * sampling._PCG_MULT
                                                          + stream._inc) % 2**128
    inverse = pow(mult & m64, -1, 2**64)
    lows = [(2**64 - (add & m64) + j) * inverse & m64 for j in range(-3, 4)] + [0, m64]
    states = [(h << 64) | lo for h, lo in zip([0, 1, m64, 2**63, 7, 12345, m64 - 1, 3, 5], lows)]
    hi = np.array([s >> 64 for s in states], dtype=np.uint64)
    lo = np.array([s & m64 for s in states], dtype=np.uint64)
    stream._scratch = np.empty((5, len(states)), dtype=np.uint64)
    stream._advance(hi, lo, steps)
    want = [(s * mult + add) % 2**128 for s in states]
    assert [(int(h) << 64) | int(lo) for h, lo in zip(hi, lo)] == want


def test_negative_seed_is_rejected():
    with pytest.raises(ValueError, match="seed must be >= 0, not -1"):
        PCG64Stream(-1)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        LowDiscrepancySequence(3, scramble_seed=-2)


def former_supercube(dimension, scramble_seed, n_samples):
    """Block edges, seeds and run orders of the former supercube
    construction, verbatim, on numpy's generator."""
    rng = np.random.default_rng(scramble_seed)
    n_blocks = -(-dimension // SOBOL_MAX_DIM)
    edges = [dimension * b // n_blocks for b in range(n_blocks + 1)]
    seeds = [int(s) for s in rng.integers(2**63, size=n_blocks)]
    blocks = tuple(zip(edges[:-1], edges[1:], seeds))
    return blocks, [rng.permutation(n_samples) for _ in blocks]


@pytest.mark.parametrize("dimension, seed, n_samples", [
    (SOBOL_MAX_DIM + 1, 2**64 + 5, 7), (2 * SOBOL_MAX_DIM + 5, 3, 40)])
def test_supercube_seeds_and_run_orders(dimension, seed, n_samples):
    seq = LowDiscrepancySequence(dimension, scramble_seed=seed, n_samples=n_samples)
    blocks, orders = former_supercube(dimension, seed, n_samples)
    assert seq.blocks == blocks
    for (_shift, _sv, order), want in zip(seq._nets, orders, strict=True):
        assert order.dtype == want.dtype and np.array_equal(order, want)


@pytest.mark.parametrize("seed", [1, 2**64 + 5])
def test_hypercube_distance_monte_carlo(seed):
    # 300,000 pairs run as a chunk of 250,000 and one of 50,000
    rng = np.random.default_rng(seed)
    dist = np.concatenate([np.linalg.norm(rng.random((m, 3)) - rng.random((m, 3)), axis=1)
                           for m in (250_000, 50_000)])
    mean = float(dist[:250_000].sum()) + float(dist[250_000:].sum())
    mean_sq = float((dist[:250_000] ** 2).sum()) + float((dist[250_000:] ** 2).sum())
    mean, mean_sq = mean / 300_000, mean_sq / 300_000
    est, se = expected_hypercube_distance_mc(3, n_pairs=300_000, seed=seed)
    assert est == mean
    assert se == np.sqrt(max(mean_sq - mean**2, 0.0) / 300_000)


@pytest.mark.parametrize("mode", sorted(MC_CONFIGS))
@pytest.mark.parametrize("mc_seed", [0, 2**32, 2**64 + 5])
def test_bound_monte_carlo_points(tmp_path, mode, mc_seed):
    # bounds.csv's mc_estimate column from the stream's points against the
    # former run_bound's draws from numpy's generator
    spec_cfg = dict(MC_CONFIGS[mode], mc_seed=mc_seed, mc_draws=501,
                    t_grid=[0.001, 0.01, 0.05, 0.1, 0.3])
    (tmp_path / "config.json").write_text(json.dumps(
        {"bound": spec_cfg, "seed": 9, "out": str(tmp_path / "run")}))
    assert main(["bound", "--config", str(tmp_path / "config.json")]) == 0
    rows = list(csv.DictReader(io.StringIO((tmp_path / "run" / "bounds.csv").read_text())))
    values = former_mc_values(spec_cfg, seed=9)
    mean = float(values.mean())
    assert [row["mc_estimate"] for row in rows] == [
        repr(float((np.abs(values - mean) > t).mean())) for t in spec_cfg["t_grid"]]
