import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from moluq.certificates import (
    DEFAULT_T_GRID,
    CertificateTable,
    EmpiricalDistribution,
    chernoff_table,
    expected_hypercube_distance,
    expected_hypercube_distance_mc,
    saturation,
    zscore,
)


def brute_epsilons(values, t_grid):
    mean = sum(values) / len(values)
    out = []
    for t in t_grid:
        count = sum(1 for v in values if abs(v - mean) / abs(mean) > t)
        out.append(count / len(values))
    return out


class TestChernoffTable:
    def test_identical_values_all_zero(self):
        d = EmpiricalDistribution.from_values([5.0] * 10)
        table = chernoff_table(d)
        assert all(e == 0.0 for e in table.epsilons)

    def test_hand_counted_example(self):
        d = EmpiricalDistribution.from_values([90.0, 100.0, 110.0])
        table = chernoff_table(d, (0.05,))
        assert table.epsilons[0] == pytest.approx(2.0 / 3.0)

    def test_zero_mean_rejected(self):
        d = EmpiricalDistribution.from_values([-1.0, 1.0])
        with pytest.raises(ValueError, match="zero mean"):
            chernoff_table(d)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            EmpiricalDistribution.from_values([])

    def test_t_grid_must_ascend(self):
        d = EmpiricalDistribution.from_values([1.0, 2.0])
        with pytest.raises(ValueError):
            chernoff_table(d, (0.1, 0.05))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=1, max_size=60))
    def test_matches_brute_force_counting(self, values):
        d = EmpiricalDistribution.from_values(values)
        if d.mean == 0.0:
            return
        table = chernoff_table(d)
        assert list(table.epsilons) == pytest.approx(
            brute_epsilons(list(d.values), DEFAULT_T_GRID))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(1.0, 1e3), min_size=2, max_size=60))
    def test_epsilon_non_increasing(self, values):
        d = EmpiricalDistribution.from_values(values)
        table = chernoff_table(d)
        eps = list(table.epsilons)
        assert all(b <= a for a, b in zip(eps, eps[1:]))

    def test_chebyshev_cross_check(self):
        rng = np.random.default_rng(0)
        values = rng.normal(loc=50.0, scale=3.0, size=500)
        d = EmpiricalDistribution.from_values(values)
        table = chernoff_table(d, (0.05, 0.1, 0.2, 0.4))
        for t, eps in zip(table.t_values, table.epsilons):
            cheb = (d.std / (t * abs(d.mean))) ** 2
            if cheb < 1.0:
                assert eps <= cheb + 1e-12

    def test_table_invariants_enforced(self):
        with pytest.raises(ValueError):
            CertificateTable(t_values=(0.1, 0.2), epsilons=(0.1, 0.5))
        with pytest.raises(ValueError):
            CertificateTable(t_values=(0.1,), epsilons=(1.5,))


class TestZScore:
    def test_at_mean(self):
        d = EmpiricalDistribution.from_values([1.0, 2.0, 3.0])
        assert zscore(d.mean, d) == 0.0

    def test_two_std_above(self):
        d = EmpiricalDistribution.from_values([1.0, 2.0, 3.0])
        assert zscore(d.mean + 2 * d.std, d) == pytest.approx(2.0)

    def test_zero_std_rejected(self):
        d = EmpiricalDistribution.from_values([4.0, 4.0])
        with pytest.raises(ValueError):
            zscore(4.0, d)

    def test_population_std_used(self):
        d = EmpiricalDistribution.from_values([0.0, 2.0])
        assert d.std == pytest.approx(1.0)  # population, not sample (ddof=0)


class TestHypercubeDistance:
    def test_d1_exact(self):
        assert expected_hypercube_distance(1) == pytest.approx(1.0 / 3.0)

    def test_d6_tabulated(self):
        assert expected_hypercube_distance(6) == 0.9689

    def test_d7_stored_value_is_the_seeded_mc_estimate(self):
        # the default t grid has 7 points, so saturation normalizes by d = 7
        assert len(DEFAULT_T_GRID) == 7
        assert expected_hypercube_distance(7) == expected_hypercube_distance_mc(7)[0]

    def test_d2_mc_matches_published_constant(self):
        published = 0.5214054331647207
        est, se = expected_hypercube_distance_mc(2, n_pairs=10**6)
        assert abs(est - published) <= 3 * se

    def test_exact_d2_d3_against_mc(self):
        for d in (2, 3):
            est, se = expected_hypercube_distance_mc(d, n_pairs=200_000)
            assert abs(expected_hypercube_distance(d) - est) <= 4 * se

    def test_mc_path_deterministic(self):
        assert expected_hypercube_distance(9) == expected_hypercube_distance(9)

    def test_bad_dimension(self):
        with pytest.raises(ValueError):
            expected_hypercube_distance(0)


class TestSaturation:
    def test_constant_stream_saturates_immediately(self):
        report = saturation([7.0] * 50, tau=0.05, mode="full")
        assert report.r_star == 2
        assert report.saturated
        assert all(err == 0.0 for _r, err in report.error_curve)

    def test_normal_stream_saturates(self):
        rng = np.random.default_rng(1)
        values = rng.normal(loc=100.0, scale=1.0, size=1000)
        full = saturation(values, tau=0.05, mode="full")
        incr = saturation(values, tau=0.05, mode="incremental")
        assert full.saturated and incr.saturated
        assert full.r_star < 1000 and incr.r_star < 1000
        assert incr.r_star >= full.r_star

    def test_standard_normal_stream(self):
        # near-zero mean makes every relative error huge, so the tables are
        # flat at 1 and saturation is immediate in both modes
        rng = np.random.default_rng(2)
        values = rng.standard_normal(1000)
        full = saturation(values, tau=0.05, mode="full")
        incr = saturation(values, tau=0.05, mode="incremental")
        assert full.r_star < 1000
        assert incr.r_star >= full.r_star

    def test_deterministic_curve(self):
        rng = np.random.default_rng(3)
        values = rng.normal(10.0, 1.0, size=100)
        a = saturation(values, tau=0.05, mode="incremental")
        b = saturation(values, tau=0.05, mode="incremental")
        assert a.error_curve == b.error_curve

    def test_failure_flag_when_never_below_tau(self):
        rng = np.random.default_rng(4)
        values = rng.normal(100.0, 30.0, size=40)
        report = saturation(values, tau=1e-12, mode="full")
        assert not report.saturated
        assert report.r_star == 40

    def test_short_stream_rejected(self):
        with pytest.raises(ValueError):
            saturation([1.0] * 11)

    def test_incremental_stops_ten_short(self):
        values = list(np.random.default_rng(5).normal(50.0, 1.0, size=30))
        report = saturation(values, tau=1e-12, mode="incremental")
        assert report.error_curve[-1][0] == 20
