import math
from fractions import Fraction

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


# ---------------------------------------------------------------------------
# Exact oracles, compared with ==: every mean is the exact rational mean of its
# values rounded once, the variance the exact mean of the rounded squared
# deviations, and each curve point sqrt(fsum) of the epsilons counted against
# those means.

def exact_mean(values):
    return float(sum(map(Fraction, values)) / len(values))


def exact_std(values):
    mean = exact_mean(values)
    squares = [(v - mean) * (v - mean) for v in values]
    if not all(map(math.isfinite, squares)):
        return math.inf
    return math.sqrt(float(sum(map(Fraction, squares)) / len(values)))


def same_bits(a, b):
    return [math.copysign(1.0, x) for x in a] == [math.copysign(1.0, x) for x in b] and \
        list(a) == list(b)


def oracle_streams(rng):
    """Streams with the shapes QOI streams take: values whose relative error
    equals a t of the default grid exactly (|90 - 100| / 100 == 0.1), smooth,
    rounded (ties), small integers, near-zero mean, negative mean, constant,
    and lengths around numpy's pairwise sum's 8- and 128-value blocks."""
    yield np.tile([90.0, 100.0, 110.0], 10)
    yield rng.normal(100.0, 1.0, 300)
    yield np.round(rng.normal(10.0, 1.0, 200), 1)
    yield rng.integers(1, 5, 150).astype(float)
    yield rng.normal(0.001, 1.0, 100)
    yield rng.normal(-50.0, 10.0, 129)
    yield np.full(40, 7.0)
    for n in (12, 13, 127, 128, 144, 257, 600):
        yield rng.normal(3.0, 2.0, n)


TINY = 5e-324  # the least subnormal
HUGE = 1.7976931348623157e308  # the greatest float

EDGE_STREAMS = [
    [1e308] * 3, [HUGE] * 5, [HUGE, -HUGE], [1e308, 1e308, -1e308], [1e308, 1.0, -1e308],
    [1e16, 1.0, -1e16], [TINY] * 7, [TINY, 2 * TINY, -TINY], [TINY, 0.0], [3 * TINY, 0.0],
    [2.2250738585072014e-308, -TINY, TINY], [1.0, TINY] * 9, [0.1, 0.2, 0.3],
    [HUGE, TINY, -HUGE, 1.0],
]


class TestExactSums:
    def test_mean_and_std_on_random_lengths(self):
        rng = np.random.default_rng(11)
        lengths = [*range(1, 41), 127, 128, 129, 10**4, *rng.integers(1, 2000, 20)]
        for k, n in enumerate(lengths):
            values = rng.normal(rng.uniform(-100, 100), 10.0 ** rng.integers(-3, 4), n)
            if k % 3 == 0:
                values = np.round(values, 2)
            values = values.tolist()
            d = EmpiricalDistribution.from_values(values)
            assert same_bits([d.mean, d.std], [exact_mean(values), exact_std(values)]), n

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 128, 129, 300])
    def test_signed_zeros(self, n):
        for values in ([-0.0] * n, [0.0] * n, [(-0.0, 0.0)[i % 2] for i in range(n)],
                       [(-0.0, 1.5, -1.5)[i % 3] for i in range(n)]):
            d = EmpiricalDistribution.from_values(values)
            assert same_bits([d.mean, d.std], [exact_mean(values), exact_std(values)])

    @pytest.mark.parametrize("values", EDGE_STREAMS)
    def test_subnormals_and_huge_values(self, values):
        d = EmpiricalDistribution.from_values(values)
        assert same_bits([d.mean, d.std], [exact_mean(values), exact_std(values)])

    def test_huge_values_have_a_certificate(self):
        # the sum overflowed before: mean inf, and certify failed with "the sum
        # of the values overflows"
        d = EmpiricalDistribution.from_values([1e308] * 3)
        assert (d.mean, d.std) == (1e308, 0.0)
        assert chernoff_table(d).epsilons == (0.0,) * len(DEFAULT_T_GRID)
        report = saturation([1e308] * 12, mode="full")
        assert report.r_star == 2 and report.saturated

    @pytest.mark.parametrize("mode", ["incremental", "full"])
    def test_every_head_and_witness_mean(self, mode, monkeypatch):
        from moluq import certificates
        rng = np.random.default_rng(12)
        streams = [*oracle_streams(rng), [1e308, 1.0, -1e308, 2.0] * 4 + [3.0] * 8]
        for values in streams:
            if len(values) > 300:  # the oracle is quadratic in exact sums
                continue
            values = list(map(float, values))
            n = len(values)
            heads = [values[:r] for r in range(2, n if mode == "full" else n - 9)]
            if mode == "full":
                blocks = [values, *heads]
            else:  # each head, then its witness, the last r + 10 values
                blocks = [values, *(b for h in heads for b in (h, values[n - len(h) - 10:]))]
            calls = []
            real = certificates._epsilons
            monkeypatch.setattr(certificates, "_epsilons", lambda ordered, mean, t:
                                calls.append((list(ordered), mean)) or real(ordered, mean, t))
            saturation(values, mode=mode)
            monkeypatch.undo()
            assert [ordered for ordered, _mean in calls] == [sorted(b) for b in blocks]
            assert same_bits([mean for _ordered, mean in calls], list(map(exact_mean, blocks)))

    @pytest.mark.parametrize("mode", ["incremental", "full"])
    def test_curve_is_sqrt_fsum_of_brute_force_epsilons(self, mode):
        def eps(block, t):
            mean = exact_mean(block)
            return [sum(abs(v - mean) / abs(mean) > tk for v in block) / len(block) for tk in t]

        rng = np.random.default_rng(14)
        grids = (DEFAULT_T_GRID, (0.05,), tuple(np.linspace(0.01, 0.5, 12)))
        for k, values in enumerate(oracle_streams(rng)):
            if len(values) > 300:  # the oracle is quadratic in exact sums
                continue
            values, t, n = values.tolist(), grids[k % 3], len(values)
            full = eps(values, t)
            want = []
            for r in range(2, n if mode == "full" else n - 9):
                cmp_eps = full if mode == "full" else eps(values[n - r - 10:], t)
                d = [a - b for a, b in zip(eps(values[:r], t), cmp_eps)]
                want.append((r, math.sqrt(math.fsum(x * x for x in d))
                             / expected_hypercube_distance(len(t))))
            assert list(saturation(values, t_values=t, mode=mode).error_curve) == want


# ---------------------------------------------------------------------------
# How far from the numpy code the certificates replaced (kept verbatim below):
# tables and r_star are equal; means, standard deviations and curves are
# within the bounds stated in the tests.

def former_from_values(values):
    arr = np.asarray(values, dtype=float)
    return tuple(float(v) for v in arr), float(arr.mean()), float(arr.std())


def former_table_of(arr, t):
    mean = arr.mean()
    if mean == 0.0:
        raise ValueError("certificate undefined for a zero-mean value block")
    rel = np.abs(arr - mean) / abs(mean)
    return (rel[:, None] > t[None, :]).mean(axis=0)


def former_saturation(values, tau=0.05, t_values=DEFAULT_T_GRID, mode="incremental"):
    arr = np.asarray(values, dtype=float)
    t = np.asarray(t_values, dtype=float)
    n = arr.size
    normalizer = expected_hypercube_distance(len(t))

    full_table = former_table_of(arr, t)
    last_r = n - 1 if mode == "full" else n - 10
    curve = []
    for r in range(2, last_r + 1):
        head = former_table_of(arr[:r], t)
        cmp_table = full_table if mode == "full" else former_table_of(arr[n - (r + 10):], t)
        curve.append((r, float(np.linalg.norm(head - cmp_table) / normalizer)))
    return curve


def former_r_star(curve, tau, n):
    above = [i for i, (_r, err) in enumerate(curve) if err >= tau]
    if not above:
        return curve[0][0]
    return curve[above[-1] + 1][0] if above[-1] + 1 < len(curve) else n


def ulps(a, b):
    """|a - b| in units in the last place of the larger."""
    return 0.0 if a == b else abs(a - b) / math.ulp(max(abs(a), abs(b)))


class TestAgainstFormerNumpyCode:
    def test_distribution_and_table(self):
        # numpy's pairwise sum of n values errs by at most about
        # (log2(n) + 26) u sum|x| (Higham 1993), the exact mean by half an ulp,
        # so the distance in ulps grows with the condition sum|x| / |sum x|;
        # on these 314 streams it is at most 7 ulps (126 means differ), at the
        # stream of condition 166.  Squared deviations are all >= 0, so their
        # sum is well conditioned and the square root halves its error: the
        # standard deviations differ by at most 1 ulp.
        rng = np.random.default_rng(13)
        cases = list(oracle_streams(rng)) + [
            rng.normal(rng.uniform(-50, 50), rng.uniform(0.1, 20), int(rng.integers(1, 700)))
            for _ in range(300)]
        grids = (DEFAULT_T_GRID, (0.05,), tuple(np.linspace(0.01, 0.5, 12)))
        for k, values in enumerate(cases):
            d = EmpiricalDistribution.from_values(values)
            former_values, former_mean, former_std = former_from_values(values)
            assert d.values == former_values
            assert ulps(d.mean, former_mean) <= 7 and ulps(d.std, former_std) <= 1
            if d.mean == 0.0:
                continue
            t = grids[k % 3]
            want = former_table_of(np.asarray(values, dtype=float), np.asarray(t))
            assert chernoff_table(d, t).epsilons == tuple(float(e) for e in want)

    @pytest.mark.parametrize("mode", ["incremental", "full"])
    def test_saturation_curves(self, mode):
        # Both distances are square roots of a sum of m = len(t) squares of the
        # same differences.  OpenBLAS's chain of m fused multiply-adds errs by
        # at most m u of the sum, fsum of the rounded squares by 2u, and each
        # side's square root and division add one rounding each: the curves
        # differ by at most (m / 2 + 5) u relative, u = 2**-53.
        rng = np.random.default_rng(14)
        grids = (DEFAULT_T_GRID, (0.05,), tuple(np.linspace(0.01, 0.5, 12)))
        for k, values in enumerate(oracle_streams(rng)):
            t = grids[k % 3]
            report = saturation(values, tau=0.05, t_values=t, mode=mode)
            former = former_saturation(values, 0.05, t, mode)
            assert [r for r, _err in report.error_curve] == [r for r, _err in former]
            bound = (len(t) / 2 + 5) * 2.0**-53
            for (_r, err), (_r, want) in zip(report.error_curve, former):
                assert abs(err - want) <= bound * max(err, want)
            assert report.r_star == former_r_star(former, 0.05, len(values))

    @pytest.mark.parametrize("mode", ["incremental", "full"])
    def test_zero_mean_block_raises_as_before(self, mode):
        values = [1.0, -1.0] + [5.0] * 20  # the first two values average to zero
        with pytest.raises(ValueError) as former:
            former_saturation(values, mode=mode)
        with pytest.raises(ValueError) as now:
            saturation(values, mode=mode)
        assert str(now.value) == str(former.value) == \
            "certificate undefined for a zero-mean value block"

    def test_ten_thousand_values_take_seconds_not_minutes(self):
        # about 0.5 s of CPU on a 2-vCPU Xeon VM, where the former loop took 6.4 s
        import time
        values = np.random.default_rng(15).normal(100.0, 1.0, 10**4)
        start = time.process_time()
        saturation(values, mode="incremental")
        assert time.process_time() - start < 3.0
