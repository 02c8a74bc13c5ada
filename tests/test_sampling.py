import math
import os
import warnings

import numpy as np
import pytest

from moluq import sampling
from moluq.sampling import (
    SOBOL_MAX_DIM,
    LowDiscrepancySequence,
    gaussian_dimension,
    normals_from_unit,
    sigma_from_b,
    star_discrepancy_estimate,
)


def brute_force_discrepancy(points, resolution):
    """Independent loop over every anchored grid box."""
    pts = np.asarray(points, dtype=float)
    n, d = pts.shape
    worst = 0.0
    corners = [np.arange(1, resolution + 1) / resolution] * d
    grids = np.stack(np.meshgrid(*corners, indexing="ij"), axis=-1).reshape(-1, d)
    for g in grids:
        frac = np.all(pts < g, axis=1).mean()
        worst = max(worst, abs(frac - np.prod(g)))
    return worst


class TestSequence:
    def test_determinism(self):
        a = LowDiscrepancySequence(3, scramble_seed=7)
        b = LowDiscrepancySequence(3, scramble_seed=7)
        np.testing.assert_array_equal(a.next_points(10), b.next_points(10))

    def test_index_advances(self):
        seq = LowDiscrepancySequence(2, scramble_seed=0)
        seq.next_points(1)
        assert seq.index == 1
        seq.next_points(4)
        assert seq.index == 5

    def test_points_in_unit_cube(self):
        pts = LowDiscrepancySequence(5, scramble_seed=3).next_points(64)
        assert np.all(pts >= 0.0) and np.all(pts < 1.0)

    def test_zero_dimension_rejected(self):
        with pytest.raises(ValueError):
            LowDiscrepancySequence(0)

    def test_1d_beats_twice_centered_lattice(self):
        # 16 stream points vs 16 equispaced-offset points, same estimator
        stream = LowDiscrepancySequence(1, scramble_seed=11).next_points(16)
        centered = ((np.arange(16) + 0.5) / 16.0)[:, None]
        d_stream = star_discrepancy_estimate(stream, resolution=64)
        d_centered = star_discrepancy_estimate(centered, resolution=64)
        assert d_stream <= 2.0 * d_centered


def scipy_sobol_table():
    """Joe-Kuo polynomials as scipy ships them (read independently of moluq)."""
    import scipy.stats
    path = os.path.join(os.path.dirname(scipy.stats.__file__), "_sobol_direction_numbers.npz")
    with np.load(path) as table:
        return table["poly"]


def degree_edges(limit):
    """Smallest dimensions whose last coordinate has a new polynomial degree."""
    degree = np.frexp(scipy_sobol_table().astype(float))[1] - 1
    first = np.flatnonzero(np.diff(degree)) + 1
    return [int(i) + 1 for i in first if i + 1 <= limit]


def mixed_draws(draw_points, draw_point):
    """One fixed call pattern: a first batch of k > 1, single points, batches
    of odd and power-of-two sizes and an empty batch."""
    return np.vstack([draw_points(3), draw_point()[None], draw_points(0),
                      draw_points(8), draw_point()[None], draw_points(21)])


def scipy_draws(d, seed, first_single=False):
    from scipy.stats import qmc
    engine = qmc.Sobol(d, scramble=True, seed=seed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        head = [engine.random(1)] if first_single else []
        return np.vstack(head + [mixed_draws(engine.random, lambda: engine.random(1)[0])])


def own_draws(d, seed, first_single=False):
    seq = LowDiscrepancySequence(d, scramble_seed=seed)
    head = [seq.next_points(1)] if first_single else []
    return np.vstack(head + [mixed_draws(seq.next_points, lambda: seq.next_points(1)[0])])


class TestSobolMatchesScipy:
    """The in-repo stream against ``qmc.Sobol(d, scramble=True, seed=s)``, ==."""

    @pytest.mark.parametrize("seed", [0, 1, 7, 20240101])
    @pytest.mark.parametrize("d", [1, 2, 3, 5, 117])
    def test_small_dimensions_and_seeds(self, d, seed):
        for first_single in (False, True):
            assert np.array_equal(own_draws(d, seed, first_single),
                                  scipy_draws(d, seed, first_single))

    def test_dimensions_where_the_polynomial_degree_changes(self):
        edges = degree_edges(3000)
        assert len(edges) >= 15
        for d in edges + [e - 1 for e in edges if e > 2]:
            assert np.array_equal(own_draws(d, d), scipy_draws(d, d)), d

    @pytest.mark.parametrize("d, seed", [(3000, 4), (SOBOL_MAX_DIM, 5)])
    def test_large_dimensions(self, d, seed):
        assert np.array_equal(own_draws(d, seed), scipy_draws(d, seed))

    def test_long_stream_reaches_high_gray_code_bits(self):
        from scipy.stats import qmc
        engine = qmc.Sobol(3, scramble=True, seed=9)
        seq = LowDiscrepancySequence(3, scramble_seed=9)
        for count in (1, 1000, 3095, 1, 4096):
            assert np.array_equal(seq.next_points(count), engine.random(count))

    def test_point_limit(self):
        seq = LowDiscrepancySequence(2, scramble_seed=0)
        seq.index = 2**30 - 1
        assert seq.next_points(1).shape == (1, 2)
        with pytest.raises(ValueError, match="at most"):
            seq.next_points(1)
        capped = LowDiscrepancySequence(2, scramble_seed=0, n_samples=3)
        capped.next_points(3)
        with pytest.raises(ValueError, match="at most 3"):
            capped.next_points(1)


def sorted_rows(a):
    return a[np.lexsort(a.T[::-1])]


class TestSupercube:
    def test_blocks_are_permuted_sobol_streams(self, monkeypatch):
        monkeypatch.setattr(sampling, "SOBOL_MAX_DIM", 8)
        seq = LowDiscrepancySequence(20, scramble_seed=3, n_samples=12)
        assert seq.kind == "sobol-supercube"
        pts = np.vstack([seq.next_points(5), seq.next_points(1), seq.next_points(6)])
        starts = [lo for lo, _, _ in seq.blocks]
        stops = [hi for _, hi, _ in seq.blocks]
        assert starts == [0] + stops[:-1] and stops[-1] == 20
        assert all(hi - lo <= 8 for lo, hi, _ in seq.blocks)
        in_order = []
        for lo, hi, seed in seq.blocks:
            plain = LowDiscrepancySequence(hi - lo, scramble_seed=seed).next_points(12)
            assert np.array_equal(sorted_rows(pts[:, lo:hi]), sorted_rows(plain))
            in_order.append(np.array_equal(pts[:, lo:hi], plain))
        assert not any(in_order)
        assert len({seed for _, _, seed in seq.blocks}) == len(seq.blocks)
        with pytest.raises(ValueError, match="at most 12"):
            seq.next_points(1)

    def test_needs_the_draw_count(self, monkeypatch):
        monkeypatch.setattr(sampling, "SOBOL_MAX_DIM", 8)
        with pytest.raises(ValueError, match="n_samples"):
            LowDiscrepancySequence(9, scramble_seed=0)
        a = LowDiscrepancySequence(9, scramble_seed=4, n_samples=6).next_points(6)
        b = LowDiscrepancySequence(9, scramble_seed=4, n_samples=6).next_points(6)
        assert np.array_equal(a, b)

    def test_above_the_table_size(self):
        seq = LowDiscrepancySequence(SOBOL_MAX_DIM + 1, scramble_seed=1, n_samples=4)
        assert seq.kind == "sobol-supercube"
        assert [hi - lo for lo, hi, _ in seq.blocks] == [10601, 10601]
        pts = seq.next_points(4)
        assert pts.shape == (4, SOBOL_MAX_DIM + 1)
        assert np.all((pts >= 0.0) & (pts < 1.0))


class TestBoxMuller:
    def test_u1_one_gives_zero(self):
        assert normals_from_unit(np.array([1.0, 0.37]), 2).tolist() == [0.0, 0.0]

    def test_closed_form_cos(self):
        z1, z2 = normals_from_unit(np.array([math.exp(-2.0), 0.0]), 2)
        assert z1 == pytest.approx(2.0)
        assert z2 == pytest.approx(0.0, abs=1e-12)

    def test_closed_form_sin(self):
        z1, z2 = normals_from_unit(np.array([math.exp(-2.0), 0.25]), 2)
        assert z1 == pytest.approx(0.0, abs=1e-12)
        assert z2 == pytest.approx(2.0)

    def test_statistics_of_mapped_normals(self):
        n = 10**5
        seq = LowDiscrepancySequence(2, scramble_seed=5)
        pts = seq.next_points(n // 2)
        z = np.concatenate([normals_from_unit(p, 2) for p in pts])
        assert abs(z.mean()) < 0.02
        assert abs(z.var() - 1.0) < 0.02


class TestSigmaFromB:
    @pytest.mark.parametrize("b,expected", [(20.0, 0.5), (80.0, 1.0), (180.0, 1.5)])
    def test_reference_displacements(self, b, expected):
        assert sigma_from_b(b) == pytest.approx(expected, rel=0.01)

    def test_zero(self):
        assert sigma_from_b(0.0) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            sigma_from_b(-1.0)


class TestStarDiscrepancy:
    def test_centered_lattice_example(self):
        xs = (np.arange(4) + 0.5) / 4.0
        pts = np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1).reshape(-1, 2)
        est = star_discrepancy_estimate(pts, resolution=8)
        assert est <= 0.25
        assert est == pytest.approx(brute_force_discrepancy(pts, 8))

    def test_matches_brute_force_on_random_points(self):
        rng = np.random.default_rng(0)
        pts = rng.random((40, 2))
        assert star_discrepancy_estimate(pts, resolution=12) == pytest.approx(
            brute_force_discrepancy(pts, 12)
        )

    def test_single_point_origin(self):
        est = star_discrepancy_estimate(np.zeros((1, 2)), resolution=64)
        assert est > 0.95

    def test_point_outside_cube_rejected(self):
        with pytest.raises(ValueError):
            star_discrepancy_estimate(np.array([[0.5, 1.0]]))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            star_discrepancy_estimate(np.zeros((0, 2)))

    @pytest.mark.parametrize("d", [2, 5])
    def test_sequence_beats_random_mean(self, d):
        n = 512
        seq_pts = LowDiscrepancySequence(d, scramble_seed=1).next_points(n)
        d_seq = star_discrepancy_estimate(seq_pts)
        rng = np.random.default_rng(123)
        d_random = np.mean([
            star_discrepancy_estimate(rng.random((n, d))) for _ in range(20)
        ])
        assert d_seq < d_random


class TestGaussianDimension:
    def test_dimension_bookkeeping(self):
        assert gaussian_dimension(3) == 4
        assert gaussian_dimension(6) == 6
