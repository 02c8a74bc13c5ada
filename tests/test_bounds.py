import math
from itertools import product

import numpy as np
import pytest

from moluq.bounds import (
    AzumaSpec,
    BoxDomain,
    KernelSpec,
    azuma_tail,
    d1_bound,
    d2_bound,
    d3_bound,
    difference_box,
    estimate_conditional_c,
    mcdiarmid_tail,
    pairwise_sum_tail,
)

GRID_PER_AXIS = 20


# ----------------------------------------------------------------- oracles

def kernel_fn(a, b):
    return lambda *coords: a / sum(c * c for c in coords) ** (b / 2)


def kernel_value(spec, x):
    """sum_k a_k / ||x||^{b_k} at a point."""
    norm = float(np.linalg.norm(np.asarray(x, dtype=float)))
    return sum(a / norm**b for a, b in spec.terms)


def grid_axes(box, n=GRID_PER_AXIS):
    return [np.linspace(l, u, n) for l, u in box.intervals]


def grid_max_deviation_single(a, b, box, i, n=GRID_PER_AXIS):
    """Brute-force max over the grid of |f(.. x_i=l ..) - f(.. x_i=u ..)|."""
    f = kernel_fn(a, b)
    axes = grid_axes(box, n)
    others = [axes[k] for k in range(box.dim) if k != i]
    l_i, u_i = box.intervals[i]
    worst = 0.0
    for combo in product(*others):
        coords_l = list(combo)
        coords_l.insert(i, l_i)
        coords_u = list(combo)
        coords_u.insert(i, u_i)
        worst = max(worst, abs(f(*coords_l) - f(*coords_u)))
    return worst


def grid_max_deviation_multi(spec, box, i, n=GRID_PER_AXIS):
    axes = grid_axes(box, n)
    others = [axes[k] for k in range(box.dim) if k != i]
    l_i, u_i = box.intervals[i]
    worst = 0.0
    for combo in product(*others):
        coords_l = list(combo)
        coords_l.insert(i, l_i)
        coords_u = list(combo)
        coords_u.insert(i, u_i)
        worst = max(worst, abs(kernel_value(spec, coords_l) - kernel_value(spec, coords_u)))
    return worst


def mc_tail_frequencies(values, t_grid):
    mean = values.mean()
    dev = np.abs(values - mean)
    freq = np.array([(dev > t).mean() for t in t_grid])
    se = np.sqrt(freq * (1 - freq) / values.size)
    return freq, se


def draw_uniform(rng, box, n):
    lo, hi = box.lowers(), box.uppers()
    return lo + rng.random((n, box.dim)) * (hi - lo)


# ----------------------------------------------------------------- types

class TestDomainTypes:
    def test_kernel_needs_terms(self):
        with pytest.raises(ValueError):
            KernelSpec(())

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            KernelSpec(((1.0, -1.0),))

    def test_box_requires_positive_lower(self):
        with pytest.raises(ValueError):
            BoxDomain(((0.0, 1.0),))
        with pytest.raises(ValueError):
            BoxDomain(((2.0, 1.0),))

    def test_azuma_constants_validated(self):
        with pytest.raises(ValueError):
            AzumaSpec((-1.0,))
        with pytest.raises(ValueError):
            AzumaSpec((math.inf,))


class TestD1:
    def test_worked_example(self):
        dx, dy = d1_bound(1.0, 1.0, BoxDomain(((1, 2), (1, 2))))
        expected = 1 / math.sqrt(2) - 1 / math.sqrt(5)
        assert dx == pytest.approx(expected)
        assert dy == pytest.approx(expected)

    def test_degenerate_interval_zero(self):
        dx, _dy = d1_bound(1.0, 1.0, BoxDomain(((1.5, 1.5), (1, 2))))
        assert dx == 0.0

    def test_sign_of_a_irrelevant(self):
        box = BoxDomain(((1, 3), (2, 4)))
        assert d1_bound(-2.5, 1.0, box) == d1_bound(2.5, 1.0, box)

    def test_dominates_grid_oracle(self):
        box = BoxDomain(((0.5, 2.0), (1.0, 3.0)))
        dx, dy = d1_bound(1.7, 2.0, box)
        assert dx >= grid_max_deviation_single(1.7, 2.0, box, 0)
        assert dy >= grid_max_deviation_single(1.7, 2.0, box, 1)


class TestD2:
    def test_reduces_to_d1_in_2d(self):
        box = BoxDomain(((1, 2), (1.5, 2.5)))
        dx, dy = d1_bound(1.0, 3.0, box)
        assert d2_bound(1.0, 3.0, box, 0) == dx
        assert d2_bound(1.0, 3.0, box, 1) == dy

    def test_3d_worked_example(self):
        box = BoxDomain(((1, 2),) * 3)
        assert d2_bound(1.0, 2.0, box, 0) == pytest.approx(1 / 3 - 1 / 6)

    @pytest.mark.parametrize("i", [0, 1, 2])
    def test_dominates_grid_oracle(self, i):
        box = BoxDomain(((1.0, 2.0), (0.5, 1.5), (2.0, 2.5)))
        assert d2_bound(1.3, 2.0, box, i) >= grid_max_deviation_single(1.3, 2.0, box, i)


class TestD3:
    def test_single_term_equals_d2(self):
        box = BoxDomain(((1, 2), (1, 2)))
        spec = KernelSpec(((2.0, 3.0),))
        assert d3_bound(spec, box, 0) == d2_bound(2.0, 3.0, box, 0)

    def test_duplicate_terms_double(self):
        box = BoxDomain(((1, 2), (1, 2)))
        single = KernelSpec(((2.0, 3.0),))
        double = KernelSpec(((2.0, 3.0), (2.0, 3.0)))
        assert d3_bound(double, box, 0) == pytest.approx(2 * d3_bound(single, box, 0))

    def test_dominates_grid_oracle_multi_term(self):
        box = BoxDomain(((1.0, 2.0), (1.5, 2.0), (1.0, 1.5)))
        spec = KernelSpec(((1.0, 1.0), (-0.5, 3.0), (2.0, 6.0)))
        for i in range(3):
            assert d3_bound(spec, box, i) >= grid_max_deviation_multi(spec, box, i)


class TestMcDiarmidTail:
    def test_large_t_goes_to_zero(self):
        assert mcdiarmid_tail([1.0, 1.0], 100.0) < 1e-30

    def test_closed_form_at_balance(self):
        # 2 t^2 = sum D^2  ->  bound = 2/e
        d = [1.0, 1.0]
        t = math.sqrt(sum(x * x for x in d) / 2.0)
        assert mcdiarmid_tail(d, t) == pytest.approx(2.0 * math.exp(-1.0))

    def test_zero_deviations_deterministic(self):
        assert mcdiarmid_tail([0.0, 0.0], 0.5) == 0.0

    def test_capped_at_one(self):
        assert mcdiarmid_tail([5.0, 5.0], 1e-6) == 1.0

    def test_monotone_decreasing_in_t(self):
        d = [0.3, 0.4]
        ts = np.linspace(0.01, 2.0, 25)
        vals = [mcdiarmid_tail(d, t) for t in ts]
        assert all(b <= a for a, b in zip(vals, vals[1:]))

    def test_dominates_mc_oracle_single_kernel(self):
        rng = np.random.default_rng(0)
        box = BoxDomain(((1.0, 2.0), (1.0, 2.0)))
        a, b = 1.0, 1.0
        draws = draw_uniform(rng, box, 10**5)
        values = a / np.linalg.norm(draws, axis=1) ** b
        dx, dy = d1_bound(a, b, box)
        t_grid = np.linspace(0.005, 0.5, 20) * values.std() / 0.2
        freq, se = mc_tail_frequencies(values, t_grid)
        for t, f, s in zip(t_grid, freq, se):
            assert mcdiarmid_tail([dx, dy], t) >= f - 3 * s


class TestPairwiseSumTail:
    def test_single_pair_reduces_to_single_kernel(self):
        spec = KernelSpec(((1.0, 1.0),))
        box_a = BoxDomain.point((4.0, 4.0))
        box_b = BoxDomain(((1.0, 2.0), (1.0, 2.0)))
        delta = difference_box(box_a, box_b)
        expected = mcdiarmid_tail(
            [d3_bound(spec, delta, i) for i in range(2)], 0.3)
        assert pairwise_sum_tail(spec, [box_a], [box_b], 0.3) == pytest.approx(expected)

    def test_doubling_points_weakens_bound(self):
        spec = KernelSpec(((1.0, 1.0),))
        box_a = BoxDomain(((1.0, 1.4), (1.0, 1.4)))
        box_b = BoxDomain(((4.0, 4.5), (4.0, 4.5)))
        one = pairwise_sum_tail(spec, [box_a], [box_b], 0.2)
        two = pairwise_sum_tail(spec, [box_a, box_a], [box_b], 0.2)
        assert two >= one

    def test_difference_box_reflects_negative(self):
        a = BoxDomain(((5.0, 6.0),))
        b = BoxDomain(((1.0, 2.0),))
        assert difference_box(a, b).intervals == ((3.0, 5.0),)

    def test_difference_straddling_zero_rejected(self):
        a = BoxDomain(((1.0, 2.0),))
        b = BoxDomain(((1.5, 2.5),))
        with pytest.raises(ValueError, match="contains 0"):
            difference_box(a, b)

    def test_dominates_mc_oracle_3x3(self):
        rng = np.random.default_rng(1)
        spec = KernelSpec(((1.0, 1.0),))
        boxes_a = [BoxDomain(tuple((c, c + 0.3) for c in center))
                   for center in ((0.5, 0.5, 0.5), (1.0, 0.6, 0.8), (0.7, 1.2, 0.5))]
        boxes_b = [BoxDomain(tuple((c, c + 0.3) for c in center))
                   for center in ((5.0, 5.0, 5.0), (5.5, 4.8, 5.2), (4.9, 5.4, 5.6))]
        n = 10**5
        total = np.zeros(n)
        for ba in boxes_a:
            xa = draw_uniform(rng, ba, n)
            for bb in boxes_b:
                xb = draw_uniform(rng, bb, n)
                total += 1.0 / np.linalg.norm(xb - xa, axis=1)
        t_grid = np.linspace(0.3, 3.0, 20) * total.std()
        freq, se = mc_tail_frequencies(total, t_grid)
        for t, f, s in zip(t_grid, freq, se):
            assert pairwise_sum_tail(spec, boxes_a, boxes_b, t) >= f - 3 * s


class TestAzuma:
    def test_closed_form(self):
        n = 16
        spec = AzumaSpec((1.0,) * n)
        assert azuma_tail(spec, float(n)) == pytest.approx(2 * math.exp(-n / 2))

    def test_doubling_c_weakens(self):
        t = 2.0
        weak = azuma_tail(AzumaSpec((2.0, 2.0)), t)
        strong = azuma_tail(AzumaSpec((1.0, 1.0)), t)
        assert weak >= strong

    def test_zero_constants(self):
        assert azuma_tail(AzumaSpec((0.0, 0.0)), 1.0) == 0.0

    def test_dominates_exact_random_walk_tail(self):
        n = 20
        spec = AzumaSpec((1.0,) * n)
        # exact tail of a +-1 walk by binomial enumeration
        probs = np.array([math.comb(n, k) for k in range(n + 1)], dtype=float) / 2**n
        sums = np.array([2 * k - n for k in range(n + 1)])
        for t in np.linspace(0.5, 20.0, 20):
            exact = probs[np.abs(sums) > t].sum()
            assert azuma_tail(spec, float(t)) >= exact - 1e-12


class TestConditionalC:
    @staticmethod
    def _kernel(x, y):
        return 1.0 / math.hypot(x, y)

    def test_independent_product_matches_direct_computation(self):
        xg = np.linspace(1.0, 2.0, 12)
        yg = np.linspace(1.5, 3.0, 10)
        px = np.full(12, 1 / 12)
        py = np.full(10, 1 / 10)
        w = np.outer(px, py)
        got = estimate_conditional_c(self._kernel, xg, yg, w)
        marg = np.array([sum(py[j] * self._kernel(x, yg[j]) for j in range(10)) for x in xg])
        expected = max(
            abs(marg[p] - self._kernel(xg[q], yg[j]))
            for p in range(12) for q in range(12) for j in range(10)
        )
        assert got == pytest.approx(expected)

    def test_point_mass_zero(self):
        xg = np.array([1.0, 2.0])
        yg = np.array([1.0, 2.0])
        w = np.zeros((2, 2))
        w[1, 0] = 1.0
        assert estimate_conditional_c(self._kernel, xg, yg, w) == 0.0

    def test_density_must_normalize(self):
        with pytest.raises(ValueError, match="normalized"):
            estimate_conditional_c(self._kernel, np.array([1.0]), np.array([1.0]),
                                   np.array([[0.5]]))

    def test_singular_kernel_on_support_rejected(self):
        xg = np.array([0.0, 1.0])
        yg = np.array([0.0, 1.0])
        w = np.full((2, 2), 0.25)
        with pytest.raises(ValueError, match="finite"):
            estimate_conditional_c(self._kernel, xg, yg, w)

    def test_azuma_with_c_dominates_correlated_mc(self):
        # correlated 2-d Gaussian, discretized; MC draws follow the same grid
        rng = np.random.default_rng(2)
        res = 32
        xg = np.linspace(1.0, 3.0, res)
        yg = np.linspace(1.0, 3.0, res)
        xx, yy = np.meshgrid(xg, yg, indexing="ij")
        rho = 0.6
        quad = (xx - 2.0) ** 2 - 2 * rho * (xx - 2.0) * (yy - 2.0) + (yy - 2.0) ** 2
        w = np.exp(-quad / (2 * 0.25 * (1 - rho**2)))
        w /= w.sum()
        c = estimate_conditional_c(self._kernel, xg, yg, w)
        spec = AzumaSpec((c, c))
        flat = w.ravel()
        cells = rng.choice(flat.size, size=10**5, p=flat)
        values = np.hypot(xx.ravel()[cells], yy.ravel()[cells]) ** -1.0
        t_grid = np.linspace(0.3, 3.0, 20) * values.std()
        freq, se = mc_tail_frequencies(values, t_grid)
        for t, f, s in zip(t_grid, freq, se):
            assert azuma_tail(spec, float(t)) >= f - 3 * s


class TestBoundRangeProperties:
    def test_all_bounds_in_unit_interval(self):
        box = BoxDomain(((1, 2), (1, 2)))
        spec = KernelSpec(((1.0, 1.0), (0.5, 2.0)))
        for t in np.linspace(0.001, 10.0, 50):
            v = mcdiarmid_tail([d3_bound(spec, box, i) for i in range(2)], float(t))
            assert 0.0 <= v <= 1.0

    def test_pairwise_monotone_in_t(self):
        spec = KernelSpec(((1.0, 1.0),))
        box_a = BoxDomain(((1.0, 1.5), (1.0, 1.5)))
        box_b = BoxDomain(((4.0, 4.5), (4.0, 4.5)))
        ts = np.linspace(0.01, 2.0, 30)
        vals = [pairwise_sum_tail(spec, [box_a], [box_b], float(t)) for t in ts]
        assert all(b <= a for a, b in zip(vals, vals[1:]))
