"""Closed-form bounds, their registry, and the sharpness studies.

The unit square and every unit-side rhombus make the main bound collapse
to j01^2 exactly, which pins most tolerances here to the accuracy of the
shot radial profile (~1e-10). Cross-bound identities (domain cancellation
in the dominance ratio, width-rule equality on symmetric domains) are
checked as identities, not near-misses.
"""

import math

import numpy as np
import pytest

from spectral_bounds import bounds, geometry, special
from spectral_bounds.errors import NumericError, ParameterError

import oracles
import pipelines

J01 = special.bessel_first_zero(0.0)


def test_kn_registry():
    square = bounds.kn_lookup(geometry.make_rectangle(1.0, 1.0))
    assert square.value == pytest.approx(math.sqrt(2.0), rel=1e-12)
    assert square.rule == bounds.RULE_SYMMETRIC_WIDTH

    rect = bounds.kn_lookup(geometry.make_rectangle(2.0, 1.0))
    assert rect.value == pytest.approx(1.0, rel=1e-12)

    rhomb = bounds.kn_lookup(geometry.make_rhombus(8))
    assert rhomb.value == pytest.approx(2.0 ** 0.25, rel=1e-12)
    # every rhombus takes the width rule, whose cut is the chord of length
    # w = sin(2 pi / m) across a side pair, on area sin(2 pi / m)
    for m in range(5, geometry.MAX_RHOMBUS_M + 1):
        entry = bounds.kn_lookup(geometry.make_rhombus(m))
        assert entry.rule == bounds.RULE_SYMMETRIC_WIDTH
        assert entry.value == pytest.approx(
            math.sqrt(2.0 * math.sin(2.0 * math.pi / m)), rel=1e-15)

    with pytest.raises(ParameterError):
        bounds.kn_lookup(geometry.make_regular_polygon(5, 1.0))


def test_kn_entry_invariant():
    too_big = special.classical_constant(2) * 1.01
    with pytest.raises(NumericError):
        bounds.KnEntry(value=too_big, rule=bounds.RULE_SYMMETRIC_WIDTH)
    with pytest.raises(NumericError):
        bounds.KnEntry(value=0.0, rule=bounds.RULE_SYMMETRIC_WIDTH)


def test_main_bound_square_and_rhombi():
    # all of these reduce to j01^2 after cancellation
    square = geometry.make_rectangle(1.0, 1.0)
    value = bounds.main_bound(2.0, 2, bounds.kn_lookup(square).value,
                              square.area)
    assert value == pytest.approx(J01 ** 2, rel=1e-9)
    for m in (8, 16, 64):
        spec = geometry.make_rhombus(m)
        value = bounds.main_bound(2.0, 2, bounds.kn_lookup(spec).value,
                                  spec.area)
        assert value == pytest.approx(J01 ** 2, rel=1e-9)


def test_main_bound_p3_square():
    # p = 3 on the square: 2^{3/2} alpha^{3/2}-free cancellation leaves
    # the cube of the p = 3 radial zero
    zero = special.psi_profile(3.0, 2).first_zero
    value = bounds.main_bound(3.0, 2, math.sqrt(2.0), 1.0)
    assert value == pytest.approx(zero ** 3, rel=1e-12)
    assert value == pytest.approx(9.8314984046, rel=1e-6)


def test_ashbaugh_mercado_and_dominance():
    assert bounds.ashbaugh_mercado(2.0, 2, math.sqrt(2.0), 1.0) \
        == pytest.approx(4.0, rel=1e-12)
    assert oracles.dominance_ratio(2.0, 2) == pytest.approx(J01 ** 2 / 4.0,
                                                            rel=1e-9)
    # the ratio of the two bounds is domain independent
    for p, n in ((2.0, 2), (3.0, 2), (2.0, 3), (5.0, 4)):
        ratio = (bounds.main_bound(p, n, 1.234, 0.77)
                 / bounds.ashbaugh_mercado(p, n, 1.234, 0.77))
        assert ratio == pytest.approx(oracles.dominance_ratio(p, n),
                                      rel=1e-12)
        assert ratio > 1.0


def test_bct_corollary():
    value = bounds.bct_corollary(2, math.sqrt(2.0), 1.0)
    assert value == pytest.approx(4.511934651818593, rel=1e-6)
    main = bounds.main_bound(2.0, 2, math.sqrt(2.0), 1.0)
    assert value < main
    assert main / value == pytest.approx(1.281753, rel=1e-4)


@pytest.mark.parametrize("n", [2, 3, 5, 32])
def test_bct_corollary_is_the_q_to_1_limit(n):
    # K = n omega_n^(1/n) and area = omega_n reduce the bound to 2^(2/n) j^2
    # times the supremum of the term (f(1)/f(q))^(2q/(n(q-1))) over q > 1
    prof = special.psi_profile(2.0, n)
    log_f1 = prof.log_power_mean(1.0)

    def log_term(q):
        return 2.0 * q / (n * (q - 1.0)) * (log_f1 - prof.log_power_mean(q))

    j = special.bessel_first_zero(n / 2.0 - 1.0)
    value = bounds.bct_corollary(n, special.classical_constant(n),
                                 special.omega_n(n))
    log_sup = math.log(value / (2.0 ** (2.0 / n) * j * j))
    # Richardson extrapolation to q -> 1, exact through (q - 1)^2: a single
    # halving from q - 1 = 1e-4 leaves a (q - 1)^2 error of 1e-9 relative
    t1, t2, t4 = (log_term(1.0 + h) for h in (1e-3, 5e-4, 2.5e-4))
    limit = (4.0 * (2.0 * t4 - t2) - (2.0 * t2 - t1)) / 3.0
    assert log_sup == pytest.approx(limit, rel=1e-9)
    # the term falls with q, so no q on a grid over (1, 50] exceeds the limit
    qs = 1.0 + np.logspace(-6.0, math.log10(49.0), 400)
    assert log_sup >= max(log_term(q) for q in qs)


def test_symmetric_planar_bound():
    # j01^2 w^2 / area^2 is the main bound at p = 2 with the width rule's
    # K, reached through bessel_first_zero instead of the shot profile
    for spec in (geometry.make_rectangle(1.0, 1.0),
                 geometry.make_rectangle(2.0, 1.0), geometry.make_rhombus(8),
                 geometry.make_rhombus(64),
                 geometry.make_regular_polygon(6, 1.0)):
        assert bounds.symmetric_planar_bound(spec.width, spec.area) \
            == pytest.approx(bounds.main_bound(
                2.0, 2, bounds.kn_lookup(spec).value, spec.area), rel=1e-9)
    assert bounds.symmetric_planar_bound(1.0, 2.0) == pytest.approx(
        J01 ** 2 / 4.0, rel=1e-9)


def test_validation_errors():
    with pytest.raises(ParameterError):
        bounds.main_bound(2.0, 2, 0.0, 1.0)
    with pytest.raises(ParameterError):
        bounds.main_bound(2.0, 2, 1.0, -1.0)
    with pytest.raises(ParameterError):
        bounds.ashbaugh_mercado(1.9, 2, 1.0, 1.0)
    with pytest.raises(ParameterError, match="need K, area > 0"):
        bounds.ashbaugh_mercado(2.0, 2, 1.0, 0.0)
    with pytest.raises(ParameterError):
        bounds.payne_weinberger(0.0)
    with pytest.raises(ParameterError):
        bounds.symmetric_planar_bound(0.0, 1.0)
    with pytest.raises(ParameterError):
        bounds.bct_corollary(2, -1.0, 1.0)
    with pytest.raises(ParameterError):
        bounds.lower_bounds(geometry.make_rectangle(1.0, 1.0), 1.5)
    with pytest.raises(ParameterError, match="level must be >= 1, got 0"):
        bounds.SharedSolves().mu1(geometry.make_rectangle(1.0, 1.0), 0)


def test_pw_improvement_square():
    square = geometry.make_rectangle(1.0, 1.0)
    product, bound_d2 = oracles.thin_domain_products(square, 0.75)
    threshold = J01 ** 2 / 0.75 ** 2
    assert product == pytest.approx(0.75 * math.sqrt(2.0), rel=1e-12)
    assert square.area < product
    assert bound_d2 == pytest.approx(2.0 * J01 ** 2, rel=1e-9)
    # the full chain: width bound >= j01^2/c^2 > pi^2
    assert bound_d2 >= threshold > math.pi ** 2
    # c may approach j01/pi from below
    product, bound_d2 = oracles.thin_domain_products(square, 0.76)
    assert square.area < product
    assert bound_d2 >= J01 ** 2 / 0.76 ** 2 > math.pi ** 2


def test_pw_improvement_rejects():
    # wide rectangle: the hypothesis fails, so no improvement is claimed
    rect = geometry.make_rectangle(2.0, 1.0)
    product, _ = oracles.thin_domain_products(rect, 0.75)
    assert rect.area >= product


def test_compare_report_square():
    square = geometry.make_rectangle(1.0, 1.0)
    mu1 = pipelines.mu1(square, 5)
    values = bounds.compare_report(square, mu1)
    assert mu1 == pytest.approx(math.pi ** 2, rel=1e-5)
    assert list(values) == ["main", "ashbaugh_mercado", "payne_weinberger",
                            "bct_corollary", "symmetric_planar"]
    assert values == bounds.lower_bounds(square, 2.0)
    for value in values.values():
        assert value <= mu1 * 1.01
    assert values["payne_weinberger"] == pytest.approx(
        math.pi ** 2 / 2.0, rel=1e-12)
    assert values["payne_weinberger"] / mu1 == pytest.approx(0.5, abs=1e-4)
    # on a centrally symmetric planar domain the width bound equals the
    # main bound; they differ only through the two routes to j01
    assert values["main"] == pytest.approx(values["symmetric_planar"],
                                           rel=1e-9)
    assert values["main"] == pytest.approx(J01 ** 2, rel=1e-9)


def test_lower_bounds_p3():
    values = bounds.lower_bounds(geometry.make_rhombus(8), 3.0)
    assert list(values) == ["main", "ashbaugh_mercado"]
    assert values["main"] > values["ashbaugh_mercado"]


def test_rhombus_sharpness_sequence():
    expected = {8: 2.242711, 16: 2.054796, 32: 2.013231, 64: 2.003268}
    mu1s = [pipelines.mu1(spec, 5)
            for spec in map(geometry.make_rhombus, expected)]
    samples = [bounds.rhombus_sharpness(geometry.make_rhombus(m), mu1)
               for m, mu1 in zip(expected, mu1s)]
    for m, mu1, sample in zip(expected, mu1s, samples):
        # the main bound is j01^2 on every rhombus
        assert sample.ratio == pytest.approx(mu1 / (J01 ** 2 / 2.0), rel=1e-9)
        assert sample.ratio == pytest.approx(expected[m], rel=2e-4)
    ratios = [sample.ratio for sample in samples]
    assert all(a > b for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] <= 2.05
    # the limit factor 2 is never crossed from below
    assert all(r > 2.0 for r in ratios)


@pytest.mark.parametrize("m", [8, 16])
def test_sector_sandwich(m):
    spec = geometry.make_rhombus(m)
    mu1 = pipelines.mu1(spec, 4)
    sample = bounds.rhombus_sharpness(spec, mu1)
    assert sample.ok
    assert sample.lower == pytest.approx(J01 ** 2, rel=1e-12)
    assert sample.upper == pytest.approx(
        J01 ** 2 / math.cos(math.pi / m) ** 2, rel=1e-12)
    assert sample.lower * 0.99 <= mu1 <= sample.upper * 1.01


def test_sector_sandwich_degeneration():
    # as the opening angle closes, the half-rhombus hugs the unit sector
    spec = geometry.make_rhombus(64)
    mu1 = pipelines.mu1(spec, 4)
    assert bounds.rhombus_sharpness(spec, mu1).ok
    assert mu1 <= J01 ** 2 * 1.01


def test_shared_solves_refuses_negative_levels():
    spec = geometry.make_rhombus(8)
    with pytest.raises(ParameterError, match="got -1"):
        bounds.SharedSolves().neumann(spec, -1)
