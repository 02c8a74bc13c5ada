"""Acceptance suite: one test per release criterion, each at its stated
tolerance, printing a PASS line on success (run with ``pytest -s`` to see
them)."""

import json
import math
from dataclasses import replace
from itertools import product

import numpy as np
import pytest

from moluq import bounds, certificates
from moluq.bindsite import ContactModel, Pose, binding_score, binding_site_prob_multi, \
    inhibit_score
from moluq.bounds import AzumaSpec, BoxDomain, KernelSpec, azuma_tail, d1_bound, \
    d2_bound, d3_bound, mcdiarmid_tail, pairwise_sum_tail, estimate_conditional_c
from moluq.certificates import EmpiricalDistribution, chernoff_table, \
    expected_hypercube_distance, expected_hypercube_distance_mc, saturation
from moluq.cli import main as cli_main
from moluq.conformers import apply_torsions, build_torsion_graph, rmsd, \
    sample_torsion_ensemble, torsion_graph_from_dihedrals, dihedral_angle
from moluq.qoi import QOIKind, born_radii, coulomb_energy, delta_qoi, \
    gb_polarization, lj_energy, sasa, volume
from moluq.sampling import LowDiscrepancySequence, sigma_from_b, \
    star_discrepancy_estimate
from conftest import make_structure, pdb_text, zigzag_chain
from test_qoi import brute_coulomb, brute_gb, brute_lj, random_atomset
from test_bindsite import naive_map, rotation_z

MC_DRAWS = 10**5
N_T_POINTS = 20


def _report(number: int, message: str) -> None:
    print(f"[acceptance] criterion {number:02d} PASS -- {message}")


def mc_check(bound_fn, values, label):
    """Bound must dominate the empirical tail at 20 t points (3 MC ses)."""
    mean = values.mean()
    dev = np.abs(values - mean)
    t_grid = np.linspace(0.05, 1.1, N_T_POINTS) * dev.max()
    for t in t_grid:
        freq = float((dev > t).mean())
        se = math.sqrt(freq * (1 - freq) / values.size)
        b = bound_fn(float(t))
        assert b >= freq - 3 * se, (
            f"{label}: bound {b:.4g} < MC tail {freq:.4g} - 3se at t={t:.4g}"
        )


def draw_box(rng, box, n):
    lo, hi = box.lowers(), box.uppers()
    return lo + rng.random((n, box.dim)) * (hi - lo)


def test_criterion_01_bfactor_conversion():
    for b, displacement in [(20.0, 0.5), (80.0, 1.0), (180.0, 1.5)]:
        assert sigma_from_b(b) == pytest.approx(displacement, rel=0.01)
    _report(1, "B of 20/80/180 A^2 maps to 0.5/1.0/1.5 A within 1%")


class TestCriterion02BoundValidity:
    """Every implemented tail bound dominates a 10^5-draw MC tail."""

    def test_f1_single_term_2d(self):
        rng = np.random.default_rng(101)
        box = BoxDomain(((1.0, 2.0), (1.0, 2.0)))
        a, b = 1.0, 1.0
        pts = draw_box(rng, box, MC_DRAWS)
        values = a / np.linalg.norm(pts, axis=1) ** b
        dx, dy = d1_bound(a, b, box)
        mc_check(lambda t: mcdiarmid_tail([dx, dy], t), values, "f1")

    def test_f2_single_term_3d(self):
        rng = np.random.default_rng(102)
        box = BoxDomain(((1.0, 2.0), (1.5, 3.0), (2.0, 2.5)))
        a, b = 2.0, 2.0
        pts = draw_box(rng, box, MC_DRAWS)
        values = a / np.linalg.norm(pts, axis=1) ** b
        dev = [d2_bound(a, b, box, i) for i in range(3)]
        mc_check(lambda t: mcdiarmid_tail(dev, t), values, "f2")

    def test_f3_three_terms_3d(self):
        rng = np.random.default_rng(103)
        box = BoxDomain(((1.0, 2.0), (1.5, 2.0), (1.0, 1.5)))
        spec = KernelSpec(((1.0, 1.0), (-0.5, 3.0), (2.0, 6.0)))
        pts = draw_box(rng, box, MC_DRAWS)
        norms = np.linalg.norm(pts, axis=1)
        values = sum(a / norms**b for a, b in spec.terms)
        dev = [d3_bound(spec, box, i) for i in range(3)]
        mc_check(lambda t: mcdiarmid_tail(dev, t), values, "f3")

    def test_f4_multi_point_single_center(self):
        rng = np.random.default_rng(104)
        spec = KernelSpec(((1.0, 1.0), (0.5, 2.0)))
        boxes_a = [BoxDomain(tuple((c, c + 0.4) for c in center))
                   for center in ((0.5, 0.8, 0.5), (1.2, 0.5, 1.0), (0.6, 1.4, 0.9))]
        y = BoxDomain.point((6.0, 6.0, 6.0))
        total = np.zeros(MC_DRAWS)
        for ba in boxes_a:
            xa = draw_box(rng, ba, MC_DRAWS)
            norms = np.linalg.norm(np.array([6.0, 6.0, 6.0]) - xa, axis=1)
            total += sum(a / norms**b for a, b in spec.terms)
        mc_check(lambda t: pairwise_sum_tail(spec, boxes_a, [y], t), total, "f4")

    def test_pairwise_3x3_point_sets(self):
        rng = np.random.default_rng(105)
        spec = KernelSpec(((1.0, 1.0),))
        boxes_a = [BoxDomain(tuple((c, c + 0.3) for c in center))
                   for center in ((0.5, 0.5, 0.5), (1.0, 0.6, 0.8), (0.7, 1.2, 0.5))]
        boxes_b = [BoxDomain(tuple((c, c + 0.3) for c in center))
                   for center in ((5.0, 5.0, 5.0), (5.5, 4.8, 5.2), (4.9, 5.4, 5.6))]
        total = np.zeros(MC_DRAWS)
        for ba in boxes_a:
            xa = draw_box(rng, ba, MC_DRAWS)
            for bb in boxes_b:
                xb = draw_box(rng, bb, MC_DRAWS)
                total += 1.0 / np.linalg.norm(xb - xa, axis=1)
        mc_check(lambda t: pairwise_sum_tail(spec, boxes_a, boxes_b, t), total, "F(A,B)")

    def test_azuma_random_walk(self):
        rng = np.random.default_rng(106)
        n = 20
        steps = rng.choice([-1.0, 1.0], size=(MC_DRAWS, n))
        walks = steps.sum(axis=1)
        spec = AzumaSpec((1.0,) * n)
        dev = np.abs(walks - walks.mean())
        t_grid = np.linspace(0.05, 1.1, N_T_POINTS) * dev.max()
        for t in t_grid:
            freq = float((dev > t).mean())
            se = math.sqrt(freq * (1 - freq) / MC_DRAWS)
            assert azuma_tail(spec, float(t)) >= freq - 3 * se

    def test_dependent_conditional_c(self):
        rng = np.random.default_rng(107)
        res = 48
        xg = np.linspace(1.0, 3.0, res)
        yg = np.linspace(1.0, 3.0, res)
        xx, yy = np.meshgrid(xg, yg, indexing="ij")
        rho = 0.55
        quad = (xx - 2) ** 2 - 2 * rho * (xx - 2) * (yy - 2) + (yy - 2) ** 2
        w = np.exp(-quad / (2 * 0.2 * (1 - rho**2)))
        w /= w.sum()
        kern = lambda x, y: 1.0 / math.hypot(x, y)
        c = estimate_conditional_c(kern, xg, yg, w)
        spec = AzumaSpec((c, c))
        cells = rng.choice(w.size, size=MC_DRAWS, p=w.ravel())
        values = 1.0 / np.hypot(xx.ravel()[cells], yy.ravel()[cells])
        mc_check(lambda t: azuma_tail(spec, t), values, "dependent-c")

    def test_report(self):
        _report(2, "7 tail bounds dominate 10^5-draw MC tails at 20 t points")


def test_criterion_03_bounded_difference_dominance():
    grid_n = 20

    def kernel(a, b, coords):
        return a / sum(c * c for c in coords) ** (b / 2)

    def grid_max(a, b, box, i):
        axes = [np.linspace(l, u, grid_n) for l, u in box.intervals]
        others = [axes[k] for k in range(box.dim) if k != i]
        l_i, u_i = box.intervals[i]
        worst = 0.0
        for combo in product(*others):
            lo = list(combo); lo.insert(i, l_i)
            hi = list(combo); hi.insert(i, u_i)
            worst = max(worst, abs(kernel(a, b, lo) - kernel(a, b, hi)))
        return worst

    box2 = BoxDomain(((1.0, 2.0), (1.0, 2.0)))
    dx, dy = d1_bound(1.0, 1.0, box2)
    assert dx >= grid_max(1.0, 1.0, box2, 0)
    assert dy >= grid_max(1.0, 1.0, box2, 1)

    box3 = BoxDomain(((1.0, 2.0), (1.5, 3.0), (2.0, 2.5)))
    for i in range(3):
        assert d2_bound(2.0, 2.0, box3, i) >= grid_max(2.0, 2.0, box3, i)

    spec = KernelSpec(((1.0, 1.0), (-0.5, 3.0), (2.0, 6.0)))
    box_m = BoxDomain(((1.0, 2.0), (1.5, 2.0), (1.0, 1.5)))

    def grid_max_multi(i):
        axes = [np.linspace(l, u, grid_n) for l, u in box_m.intervals]
        others = [axes[k] for k in range(3) if k != i]
        l_i, u_i = box_m.intervals[i]
        worst = 0.0
        for combo in product(*others):
            lo = list(combo); lo.insert(i, l_i)
            hi = list(combo); hi.insert(i, u_i)
            worst = max(worst, abs(
                sum(kernel(a, b, lo) for a, b in spec.terms)
                - sum(kernel(a, b, hi) for a, b in spec.terms)))
        return worst

    for i in range(3):
        assert d3_bound(spec, box_m, i) >= grid_max_multi(i)
    _report(3, "closed-form D1/D2/D3 dominate 20-per-axis grid maxima exactly")


def test_criterion_04_geometry_oracles():
    total, _ = sasa(np.zeros((1, 3)), [1.7], probe=1.4, n_points=960)
    analytic = 4 * math.pi * 3.1**2
    assert abs(total - analytic) / analytic < 0.01

    v = volume(np.zeros((1, 3)), [2.0], spacing=0.25)
    v_analytic = 4 / 3 * math.pi * 8.0
    assert abs(v - v_analytic) / v_analytic < 0.02

    r, probe, d = 1.7, 1.4, 3.0
    big_r = r + probe
    cap_h = big_r - d / 2
    cap_analytic = 2 * (4 * math.pi * big_r**2 - 2 * math.pi * big_r * cap_h)
    two, _ = sasa(np.array([[0.0, 0, 0], [d, 0, 0]]), [r, r], probe=probe, n_points=960)
    assert abs(two - cap_analytic) / cap_analytic < 0.02
    _report(4, "sphere SASA within 1%, sphere volume within 2%, cap formula within 2%")


def test_criterion_05_pairwise_oracle_equivalence():
    rng = np.random.default_rng(500)
    for trial in range(20):
        a = random_atomset(rng, n=20)
        v, w = lj_energy(a.positions, a.lj_a, a.lj_b), brute_lj(a.positions, a.lj_a, a.lj_b)
        assert abs(v - w) <= 1e-9 * max(abs(w), 1e-30)
        v, w = coulomb_energy(a.positions, a.charges), brute_coulomb(a.positions, a.charges)
        assert abs(v - w) <= 1e-9 * max(abs(w), 1e-30)
        rb = born_radii(a.positions, a.radii)
        v, w = gb_polarization(a.positions, a.charges, rb), brute_gb(a.positions, a.charges, rb)
        assert abs(v - w) <= 1e-9 * max(abs(w), 1e-30)
        # delta QOIs against a brute-force three-term oracle
        half = 10
        ga = random_atomset(rng, n=half)
        gb_set = random_atomset(rng, n=half)
        from moluq.qoi import AtomSet
        gb_set = AtomSet(positions=gb_set.positions + 7.0, radii=gb_set.radii,
                         charges=gb_set.charges, lj_a=gb_set.lj_a, lj_b=gb_set.lj_b,
                         serials=tuple(s + 50 for s in gb_set.serials),
                         exclusions=gb_set.exclusions)
        both = ga.union(gb_set)
        for kind, impl, brute in (
            (QOIKind.LJ, None, brute_lj(both.positions, both.lj_a, both.lj_b)
             - brute_lj(ga.positions, ga.lj_a, ga.lj_b)
             - brute_lj(gb_set.positions, gb_set.lj_a, gb_set.lj_b)),
            (QOIKind.COULOMB, None, brute_coulomb(both.positions, both.charges)
             - brute_coulomb(ga.positions, ga.charges)
             - brute_coulomb(gb_set.positions, gb_set.charges)),
        ):
            got = delta_qoi(kind, ga, gb_set)
            scale = max(abs(brute), abs(brute_lj(both.positions, both.lj_a, both.lj_b)), 1.0)
            assert abs(got - brute) <= 1e-9 * scale
        # delta GB with recomputed descreening in each term
        rb_union = born_radii(both.positions, both.radii)
        brute_delta_gb = (
            brute_gb(both.positions, both.charges, rb_union)
            - brute_gb(ga.positions, ga.charges, born_radii(ga.positions, ga.radii))
            - brute_gb(gb_set.positions, gb_set.charges,
                       born_radii(gb_set.positions, gb_set.radii)))
        got = delta_qoi(QOIKind.GB, ga, gb_set)
        assert abs(got - brute_delta_gb) <= 1e-9 * max(abs(brute_delta_gb), 1.0)
    _report(5, "LJ/Coulomb/GB/delta QOIs match brute-force loops to 1e-9 (20 configs)")


def test_criterion_06_certificate_exactness():
    rng = np.random.default_rng(600)
    t_grid = certificates.DEFAULT_T_GRID
    for _case in range(1000):
        n = int(rng.integers(1, 40))
        values = rng.normal(rng.uniform(-50, 50), rng.uniform(0.1, 20), size=n)
        d = EmpiricalDistribution.from_values(values)
        if d.mean == 0.0:
            continue
        table = chernoff_table(d, t_grid)
        mean = values.mean()
        for t, eps in zip(table.t_values, table.epsilons):
            count = sum(1 for v in values if abs(v - mean) / abs(mean) > t)
            assert eps == count / n
        eps_list = list(table.epsilons)
        assert all(b <= a for a, b in zip(eps_list, eps_list[1:]))
    _report(6, "chernoff_table equals brute-force counting on 1000 random cases")


def test_criterion_07_saturation_protocol():
    trials = 100
    wins = 0
    for seed in range(trials):
        values = np.random.default_rng(seed).normal(100.0, 1.0, size=1000)
        full = saturation(values, tau=0.05, mode="full")
        incr = saturation(values, tau=0.05, mode="incremental")
        assert full.saturated and full.r_star < 1000
        assert incr.r_star < 1000
        wins += incr.r_star >= full.r_star
    assert wins >= 95, f"incremental >= full in only {wins}/100 trials"
    _report(7, f"saturation r* exists < 1000; incremental >= full in {wins}/100 trials")


def test_criterion_08_expected_hypercube_distance():
    assert expected_hypercube_distance(1) == pytest.approx(1.0 / 3.0, abs=0)
    est, _se = expected_hypercube_distance_mc(6, n_pairs=10**6)
    assert abs(est - 0.9689) / 0.9689 < 0.005
    _report(8, "d=1 exact 1/3; d=6 MC within 0.5% of 0.9689")


def test_criterion_09_torsion_kinematics_and_recovery():
    chain = zigzag_chain(13, bond_length=2.0)
    bonds = tuple((i, i + 1) for i in range(12))
    s0 = make_structure(chain, bonds=bonds)
    g0 = build_torsion_graph(s0)
    assert g0.n_dihedrals == 10

    # rigid-chain property: bonds and angles preserved to 1e-6
    base = np.full(10, 2.8)
    start = apply_torsions(g0, base)
    for i, j in bonds:
        d0 = np.linalg.norm(chain[i] - chain[j])
        d1 = np.linalg.norm(start[i] - start[j])
        assert abs(d0 - d1) < 1e-6
    originals = np.array([dihedral_angle(*(chain[list(sp.atoms)])) for sp in g0.rotatable])
    back = apply_torsions(build_torsion_graph(replace(s0, coords=start)), originals)
    assert rmsd(back, chain) < 1e-6

    # recovery of a hidden target by low-discrepancy torsion sampling
    s = make_structure(start, bonds=bonds)
    wide = [0, 3, 6]
    delta = np.full(10, 0.03)
    delta[wide] = 0.3
    specs = [(sp.atoms, b - d, b + d) for sp, b, d in zip(g0.rotatable, base, delta)]
    g = torsion_graph_from_dihedrals(s, specs)
    eta = 0.5 * delta
    eta[wide] = 0.8 * delta[wide] * np.array([1.0, -1.0, 1.0])
    target = apply_torsions(g, base + eta)
    start_rmsd = rmsd(s.positions(), target)
    assert start_rmsd > 0.5
    ensemble = sample_torsion_ensemble(g, seed=7, n_samples=1000, clash_factor=None)
    best = min(rmsd(positions, target) for positions in ensemble.coords)
    assert best < 0.5
    assert best < start_rmsd
    _report(9, f"kinematics rigid to 1e-6; recovery {start_rmsd:.2f} A -> {best:.3f} A "
               "over 1000 samples")


def test_criterion_10_sampler_quality():
    for d in (2, 5):
        n = 512
        seq = star_discrepancy_estimate(
            LowDiscrepancySequence(d, scramble_seed=1).next_points(n))
        rng = np.random.default_rng(1000 + d)
        random_mean = np.mean([
            star_discrepancy_estimate(rng.random((n, d))) for _ in range(20)
        ])
        assert seq < random_mean
    _report(10, "512 sequence points beat the mean of 20 random sets (d=2 and d=5)")


def test_criterion_11_binding_site_suite():
    rng = np.random.default_rng(1100)
    receptor = make_structure(rng.uniform(0, 20, size=(50, 3)))
    lig_a = rng.uniform(4, 10, size=(8, 3))
    lig_b = rng.uniform(4, 10, size=(8, 3))
    model = ContactModel(cutoff=5.0)
    poses = [Pose(rotation=rotation_z(rng.uniform(0, 2 * math.pi)),
                  translation=rng.uniform(-4, 4, 3)) for _ in range(6)]

    # single-configuration site map vs naive loop
    site = binding_site_prob_multi(receptor, [lig_a], [poses], model)
    np.testing.assert_array_equal(
        site.probabilities, naive_map(receptor, [lig_a], [poses], 5.0))
    assert np.all((site.probabilities >= 0) & (site.probabilities <= 1))

    # multi-configuration site map vs naive loop
    pose_lists = [poses[:3], poses[3:]]
    multi = binding_site_prob_multi(receptor, np.array([lig_a, lig_b]), pose_lists, model)
    np.testing.assert_array_equal(
        multi.probabilities, naive_map(receptor, [lig_a, lig_b], pose_lists, 5.0))

    # inhibitor-overlap score vs naive sum
    known = (site.probabilities > 0.4).astype(float)
    got = inhibit_score(known, multi)
    want = sum(k * p for k, p in zip(known, multi.probabilities))
    assert abs(got - want) <= 1e-12 * max(want, 1.0)

    # pose binding score vs naive loop
    pose = poses[2]
    placed = lig_a @ pose.rotation.T + pose.translation
    want6 = sum(
        p for position, p in zip(receptor.coords, multi.probabilities)
        if min(math.dist(position, q) for q in placed) <= 5.0)
    got6 = binding_score(lig_a, pose, multi, receptor, model)
    assert abs(got6 - want6) <= 1e-12 * max(want6, 1.0)

    # rigid-motion invariance to 1e-9 under conjugated poses
    g_rot, g_tr = rotation_z(1.3), np.array([4.0, -6.0, 9.0])
    moved_receptor = make_structure(receptor.positions() @ g_rot.T + g_tr)
    conjugated = [Pose(rotation=g_rot @ p.rotation @ g_rot.T,
                       translation=g_rot @ p.translation + g_tr
                       - g_rot @ p.rotation @ g_rot.T @ g_tr)
                  for p in poses]
    moved = binding_site_prob_multi(moved_receptor, [lig_a @ g_rot.T + g_tr], [conjugated], model)
    np.testing.assert_allclose(moved.probabilities, site.probabilities, atol=1e-9)
    _report(11, "site-map/overlap/multi-config/pose-score ops match naive "
                "oracles; probabilities in [0,1]; rigid-motion invariant")


def test_criterion_12_determinism_and_replay(tmp_path):
    positions = [[0.0, 0.0, 0.0], [1.5, 0.0, 0.0], [2.25, 1.3, 0.0],
                 [6.0, 0.0, 0.0], [7.5, 0.0, 0.0]]
    s = make_structure(positions, element=["C", "N", "O", "C", "N"], chain=list("AAABB"),
                       b_iso=12.0, residue_seq=range(1, 6), residue_name="GLY")
    (tmp_path / "input.pdb").write_text(pdb_text(s))
    cfg = {
        "structure": str(tmp_path / "input.pdb"),
        "out": str(tmp_path / "run"),
        "samples": 10,
        "seed": 21,
        "qoi": ["area", "lj", "coulomb", "gb"],
        "spacing": 0.8,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    for command in ("sample", "qoi", "certify", "saturate", "volmap", "modes"):
        if command == "saturate":
            continue  # stream of 10 values is below the protocol minimum
        assert cli_main([command, "--config", str(cfg_path)]) == 0

    run = tmp_path / "run"
    tracked = ["ensemble.pdb", "manifest.json", "qoi_values.csv",
               "certificates.csv", "certificates.txt", "zscores.csv",
               "occupancy.dx", "modes.csv"]
    originals = {name: (run / name).read_bytes() for name in tracked}

    sidecar_to_outputs = {
        "sample_meta.json": ["ensemble.pdb", "manifest.json"],
        "qoi_meta.json": ["qoi_values.csv"],
        "certify_meta.json": ["certificates.csv", "certificates.txt", "zscores.csv"],
        "volmap_meta.json": ["occupancy.dx"],
        "modes_meta.json": ["modes.csv"],
    }
    for sidecar, names in sidecar_to_outputs.items():
        replay_dir = tmp_path / f"replay_{sidecar.split('_')[0]}"
        assert cli_main(["replay", str(run / sidecar), "--out", str(replay_dir)]) == 0
        for name in names:
            assert (replay_dir / name).read_bytes() == originals[name], name
    _report(12, "replayed CLI runs reproduce byte-identical CSV/grid outputs")
