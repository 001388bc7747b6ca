"""End-to-end verification checklist, one test per numbered criterion.

Each test prints a single visible PASS/FAIL line (bypassing capture) and
then asserts, so a red run still reports every criterion's status. The
tolerances are fixed here and are not derived from the code under test.
"""

import math
import time

import numpy as np
import pytest

from spectral_bounds import bounds, fem, geometry, special, sturm1d
from spectral_bounds import rearrangement

import oracles
import pipelines

J01 = special.bessel_first_zero(0.0)

_DOMAINS_MAIN = (pipelines.SQUARE, pipelines.RECT21,
                 geometry.make_rhombus(8), geometry.make_rhombus(16))


def _emit(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} {detail}")


def test_criterion_1_radial_profile_zeros(capsys):
    t0 = time.perf_counter()
    err_2d = abs(special.psi_profile(2.0, 2).first_zero - J01)
    err_3d = abs(special.psi_profile(2.0, 3).first_zero - math.pi)
    elapsed = time.perf_counter() - t0
    ok = err_2d <= 1e-8 and err_3d <= 1e-8 and elapsed < 1.0
    _emit(capsys, 1, ok,
          f"profile zeros vs Bessel: |d2|={err_2d:.2e} |d3|={err_3d:.2e} "
          f"({elapsed:.2f}s)")
    assert err_2d <= 1e-8
    assert err_3d <= 1e-8
    assert elapsed < 1.0


def test_criterion_2_fem_oracles(capsys):
    t0 = time.perf_counter()
    mu_err = [abs(pipelines.neumann(pipelines.SQUARE, lv).value
                  - math.pi ** 2) for lv in (3, 4, 5)]
    la_err = [abs(pipelines.dirichlet(pipelines.SQUARE, lv).value
                  - 2.0 * math.pi ** 2) for lv in (3, 4, 5)]
    mu_orders = [math.log2(a / b) for a, b in zip(mu_err, mu_err[1:])]
    la_orders = [math.log2(a / b) for a, b in zip(la_err, la_err[1:])]
    gon_lam = pipelines.dirichlet(pipelines.GON64, 3).value
    gon_rel = abs(gon_lam - J01 ** 2) / J01 ** 2
    elapsed = time.perf_counter() - t0
    orders_ok = all(1.8 <= o <= 2.2 for o in mu_orders + la_orders)
    ok = orders_ok and gon_rel <= 1e-2 and elapsed < 60.0
    _emit(capsys, 2, ok,
          f"mu1 orders {[f'{o:.2f}' for o in mu_orders]}, "
          f"lambda1 orders {[f'{o:.2f}' for o in la_orders]}, "
          f"64-gon rel {gon_rel:.2e} ({elapsed:.1f}s)")
    assert orders_ok
    assert gon_rel <= 1e-2
    assert elapsed < 60.0


def test_criterion_3_main_bound_validity(capsys):
    margins = {}
    for spec in _DOMAINS_MAIN:
        mu1 = pipelines.mu1_extrapolated(spec, 5)
        value = bounds.main_bound(2.0, 2, bounds.kn_lookup(spec).value,
                                  spec.area)
        margins[spec.label] = (mu1 - value) / mu1
    ok = all(margin >= -5e-3 for margin in margins.values())
    worst = min(margins, key=margins.get)
    _emit(capsys, 3, ok,
          f"main bound below mu1 on {len(margins)} domains, "
          f"worst margin {margins[worst]:+.3e} ({worst})")
    for label, margin in margins.items():
        assert margin >= -5e-3, label


def test_criterion_4_sharpness(capsys):
    t0 = time.perf_counter()
    ms = (8, 16, 32, 64)
    samples = [bounds.rhombus_sharpness(m, level=5) for m in ms]
    ratios = [sample.ratio for sample in samples]
    elapsed = time.perf_counter() - t0
    decreasing = all(a > b for a, b in zip(ratios, ratios[1:]))
    ok = (decreasing and ratios[-1] <= 2.05
          and all(s.ok for s in samples) and elapsed < 180.0)
    _emit(capsys, 4, ok,
          f"r_m {[f'{r:.4f}' for r in ratios]} decreasing, "
          f"sector sandwich ok {[s.ok for s in samples]} ({elapsed:.1f}s)")
    assert decreasing
    assert ratios[-1] <= 2.05
    for m, sample in zip(ms, samples):
        assert sample.ok, m
    assert elapsed < 180.0


def test_criterion_5_dominance_and_chains(capsys):
    ratios = [oracles.dominance_ratio(float(p), n)
              for p in range(2, 11) for n in range(2, 11)]
    dominance_ok = all(r > 1.0 for r in ratios)
    grid = [2.0, 2.5, 3.0, 4.0, 5.0, 7.0, 10.0]
    zeros = {p: special.psi_profile(p, 2).first_zero for p in grid}
    lindqvist_ok = all(q * zeros[q] <= p * zeros[p] + 1e-9
                       for q in grid for p in grid if q <= p)
    lorch_ok = all(
        special.bessel_first_zero(n / 2.0 - 1.0) ** 2
        > (n / 2.0) * (n / 2.0 + 4.0) for n in range(2, 21))
    ok = dominance_ok and lindqvist_ok and lorch_ok
    _emit(capsys, 5, ok,
          f"dominance>1 on 81 pairs (min {min(ratios):.4f}), "
          f"Lindqvist chain ok={lindqvist_ok}, Lorch n<=20 ok={lorch_ok}")
    assert dominance_ok
    assert lindqvist_ok
    assert lorch_ok


def test_criterion_6_power_mean_ratio_sup(capsys):
    grid = np.geomspace(1e-3, 20.0, 50)
    results = {}
    for p, n in ((2.0, 2), (2.0, 3), (3.0, 2)):
        values = [oracles.sup_ratio(p, n, r, q)
                  for i, r in enumerate(grid)
                  for q in grid[i + 1:]]
        results[(p, n)] = max(values)
    ok = all(1.0 - 1e-2 <= s <= 1.0 + 1e-6 for s in results.values())
    _emit(capsys, 6, ok,
          "sup of ratio powers in window: "
          + ", ".join(f"({p:g},{n}) {s:.6f}" for (p, n), s in results.items()))
    for key, sup in results.items():
        assert 1.0 - 1e-2 <= sup <= 1.0 + 1e-6, key


def test_criterion_7_chiti_domination(capsys):
    worst = -math.inf
    details = []
    for spec in (pipelines.SQUARE, geometry.make_rhombus(8)):
        pair = pipelines.neumann(spec, 5)
        profile = pipelines.oriented_profile(spec, 5)
        K = bounds.kn_lookup(spec).value
        ball = rearrangement.dirichlet_ball_profile(2.0, 2, K, pair.value)
        for q in (1.0, 2.0, 4.0):
            report = rearrangement.chiti_check(profile, ball, q)
            worst = max(worst, report.max_violation)
            details.append(((spec.label, q), report.max_violation))
    ok = worst <= 1e-3
    _emit(capsys, 7, ok,
          f"cumulative-power domination, worst violation {worst:.2e} "
          f"over {len(details)} cases")
    for key, violation in details:
        assert violation <= 1e-3, key


def test_criterion_8_reverse_holder(capsys):
    worst = -math.inf
    cases = []
    for spec in (pipelines.SQUARE, geometry.make_rhombus(16)):
        pair = pipelines.neumann(spec, 5)
        profile = pipelines.oriented_profile(spec, 5)
        K = bounds.kn_lookup(spec).value
        for q, r in ((2.0, 1.0), (4.0, 2.0), (3.0, 1.0)):
            report = rearrangement.reverse_holder_check(
                profile, rearrangement.dirichlet_ball_profile(
                    2.0, 2, K, pair.value), q, r)
            excess = report.lhs - report.rhs
            worst = max(worst, excess)
            cases.append(((spec.label, q, r), excess))
    ok = worst <= 1e-3
    _emit(capsys, 8, ok,
          f"higher norm below constant times lower norm, "
          f"worst excess {worst:+.2e} over {len(cases)} cases")
    for key, excess in cases:
        assert excess <= 1e-3, key


def test_criterion_9_sturm_consistency(capsys):
    rels = {}
    for spec in (pipelines.SQUARE, pipelines.GON64):
        mu1 = pipelines.mu1_extrapolated(spec, 5)
        K = bounds.kn_lookup(spec).value
        rels[spec.label] = oracles.sturm_round_trip(2.0, 2, K, mu1)[2]
    consistency_ok = all(rel <= 1e-3 for rel in rels.values())
    # Hardy bound on a spread of solved problems
    hardy_ok = True
    for gamma, beta in ((2.0, 1.0), (1.5, 0.8), (3.0, 1.2)):
        problem = sturm1d.SturmProblem(gamma=gamma, beta=beta, length=1.7,
                                       n_cells=1024)
        sol = sturm1d.solve(problem)
        hardy_ok = hardy_ok and (
            sol.sigma >= problem.hardy_lower_bound * (1 - 1e-9))
    # interval never longer than either nodal region or half the domain
    min_margin = math.inf
    for spec in _DOMAINS_MAIN + (pipelines.GON64,):
        mu1 = pipelines.mu1_extrapolated(spec, 5)
        profile = pipelines.oriented_profile(spec, 5)
        K = bounds.kn_lookup(spec).value
        ball = rearrangement.dirichlet_ball_profile(2.0, 2, K, mu1)
        margins = oracles.interval_margins(ball.measure,
                                           profile.positive_measure,
                                           profile.domain_measure)
        min_margin = min(min_margin, *margins)
    ok = consistency_ok and hardy_ok and min_margin >= -1e-3
    _emit(capsys, 9, ok,
          f"interval round trip rel {max(rels.values()):.2e}, "
          f"Hardy ok={hardy_ok}, interval-length margin {min_margin:+.4f}")
    for label, rel in rels.items():
        assert rel <= 1e-3, label
    assert hardy_ok
    assert min_margin >= -1e-3


def test_criterion_10_diameter_bound_improvement(capsys):
    spec = pipelines.SQUARE
    product, bound_d2 = oracles.thin_domain_products(spec, 0.75)
    hypothesis_holds = spec.area < product
    mu1 = pipelines.mu1_extrapolated(spec, 5)
    measured = mu1 * spec.diameter ** 2
    threshold = J01 ** 2 / 0.75 ** 2
    improves = bound_d2 >= threshold > math.pi ** 2
    chain_ok = measured >= threshold > math.pi ** 2
    ok = hypothesis_holds and improves and chain_ok
    _emit(capsys, 10, ok,
          f"thin-domain hypothesis holds; mu1*d^2={measured:.4f} >= "
          f"{threshold:.4f} > pi^2={math.pi ** 2:.4f}")
    assert hypothesis_holds
    assert improves
    assert chain_ok
