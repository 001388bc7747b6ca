"""Bessel oracles, radial profile shooting, power means, and inequalities."""

import math

import numpy as np
import pytest
from scipy import integrate
from scipy.special import jv

from spectral_bounds import special
from spectral_bounds.errors import ParameterError

import oracles

J01 = 2.404825557695773


def test_omega_n():
    assert special.omega_n(2) == pytest.approx(math.pi, abs=1e-13)
    assert special.omega_n(3) == pytest.approx(4.0 * math.pi / 3.0, abs=1e-13)
    assert special.omega_n(4) == pytest.approx(math.pi ** 2 / 2.0, abs=1e-13)
    # recursion omega_n = 2 pi / n * omega_{n-2} as an independent route
    for n in range(4, 11):
        assert special.omega_n(n) == pytest.approx(
            2.0 * math.pi / n * special.omega_n(n - 2), rel=1e-13)


def test_bessel_j_values():
    x = 1.0
    assert jv(0.5, x) == pytest.approx(
        math.sqrt(2.0 / (math.pi * x)) * math.sin(x), rel=1e-13)
    assert jv(0.0, 0.0) == 1.0
    assert abs(jv(0.0, J01)) <= 1e-12


def test_bessel_first_zero():
    assert special.bessel_first_zero(0.5) == pytest.approx(math.pi, abs=1e-10)
    assert special.bessel_first_zero(0.0) == pytest.approx(J01, abs=1e-10)
    j11 = special.bessel_first_zero(1.0)
    assert abs(jv(1.0, j11)) <= 1e-12
    # derivative relation: J0' = -J1, so J0 is stationary at the J1 zero
    h = 1e-6
    d = (jv(0.0, j11 + h) - jv(0.0, j11 - h)) / (2 * h)
    assert abs(d) <= 1e-8
    with pytest.raises(ParameterError):
        special.bessel_first_zero(-0.5)


def test_normalized_bessel_profile():
    r = np.linspace(0.0, 3.0, 7)
    two = oracles.normalized_bessel_profile(2, r)
    assert np.allclose(two, jv(0.0, r), atol=1e-14)
    three = oracles.normalized_bessel_profile(3, np.array([0.0, 1.0]))
    assert three[0] == pytest.approx(1.0, abs=1e-12)
    assert three[1] == pytest.approx(math.sin(1.0) / 1.0, rel=1e-12)


def test_psi_profile_oracles():
    assert special.psi_profile(2.0, 2).first_zero == pytest.approx(
        J01, abs=1e-8)
    assert special.psi_profile(2.0, 3).first_zero == pytest.approx(
        math.pi, abs=1e-8)
    psi32 = special.psi_profile(3.0, 2).first_zero
    assert psi32 > 4.0 / 3.0
    # frozen high-accuracy shooting pin (regression guard)
    assert psi32 == pytest.approx(2.1422652233407256, abs=1e-7)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_psi_profile_matches_bessel_at_p2(n):
    prof = special.psi_profile(2.0, n)
    grid = np.linspace(0.0, prof.first_zero, 4097)
    exact = oracles.normalized_bessel_profile(n, grid)
    assert np.abs(prof.value(grid) - exact).max() <= 1e-8


def test_dimension_range():
    n = special.N_MAX
    assert special.psi_profile(2.0, n).first_zero == pytest.approx(
        special.bessel_first_zero(n / 2.0 - 1.0), rel=1e-8)
    for bad in (1, n + 1):
        with pytest.raises(ParameterError, match=f"\\[2, {n}\\]"):
            special.psi_profile(2.0, bad)


def test_profile_shape_invariants():
    for p, n in ((2.0, 2), (3.0, 2), (2.5, 3)):
        prof = special.psi_profile(p, n)
        values = prof.value(np.linspace(0.0, prof.first_zero, 4097))
        assert values[0] == pytest.approx(1.0, abs=1e-12)
        assert abs(values[-1]) <= 1e-10
        assert np.all(np.diff(values) < 0.0)
        assert prof.value(0.0) == pytest.approx(1.0, abs=1e-12)


def test_value_keeps_the_input_shape():
    # a float only for a 0-d input; power_integral does the same
    prof = special.psi_profile(2.0, 2)
    one = np.array([0.5])
    assert isinstance(prof.value(0.5), float)
    for radii in (one, np.array([0.5, 1.0]), np.array([5e-5])):
        values = prof.value(radii)
        assert isinstance(values, np.ndarray) and values.shape == radii.shape
    assert prof.value(one)[0] == prof.value(0.5)
    assert prof.power_integral(2.0, one).shape == (1,)


@pytest.mark.parametrize("p, n", [(2.0, 2), (2.0, 3), (3.0, 2), (7.0, 4)])
def test_power_integral_ends(p, n):
    prof = special.psi_profile(p, n)
    psi = prof.first_zero
    for q in (0.5, 2.0, 3.7):
        assert prof.power_integral(q, 0.0) == 0.0
        assert prof.power_integral(q, -1.0) == 0.0
        # the total is the integral behind the power mean f(q)
        total = psi ** n / n * math.exp(q * prof.log_power_mean(q))
        assert prof.power_integral(q, psi) == pytest.approx(total, rel=1e-13)
        assert prof.power_integral(q, 2.0 * psi) == prof.power_integral(q, psi)
        x = np.linspace(0.0, psi, 257)
        values = prof.power_integral(q, x)
        assert np.all(np.diff(values) > 0.0)
    with pytest.raises(ParameterError):
        prof.power_integral(0.0, 1.0)


def test_classical_constant():
    assert special.classical_constant(2) == pytest.approx(
        2.0 * math.sqrt(math.pi), rel=1e-12)
    assert special.classical_constant(3) == pytest.approx(
        3.0 * (4.0 * math.pi / 3.0) ** (1.0 / 3.0), rel=1e-12)


def _ball(p, n, radius=1.0):
    """lambda1 of the radius-r ball, the ball of measure omega_n r^n."""
    return special.lambda1_sharp(p, n, special.omega_n(n) * radius ** n)


def test_lambda1_ball():
    assert _ball(2.0, 2) == pytest.approx(J01 ** 2, rel=1e-9)
    assert _ball(2.0, 3) == pytest.approx(math.pi ** 2, rel=1e-9)
    p = 2.7
    one = _ball(p, 2, radius=1.0)
    two = _ball(p, 2, radius=2.0)
    assert two == pytest.approx(one / 2.0 ** p, rel=1e-12)
    with pytest.raises(ParameterError):
        _ball(2.0, 2, radius=0.0)


def test_lambda1_sharp():
    beta = math.pi / 4.0
    assert special.lambda1_sharp(2.0, 2, math.sin(beta)) == pytest.approx(
        math.pi * J01 ** 2 / math.sin(beta), rel=1e-9)
    assert special.lambda1_sharp(2.0, 2, math.pi) == pytest.approx(
        J01 ** 2, rel=1e-9)
    p = 2.0
    assert special.lambda1_sharp(p, 2, 4.0) == pytest.approx(
        special.lambda1_sharp(p, 2, 1.0) / 2.0 ** p, rel=1e-12)
    with pytest.raises(ParameterError):
        special.lambda1_sharp(2.0, 2, -1.0)


def _f_qaws_oracle(s: float) -> float:
    """p=2, n=2 power mean by QUADPACK QAWS against the closed-form profile.

    J0(t)^s has a (j01 - t)^s endpoint factor; QAWS integrates the algebraic
    weight exactly, leaving a smooth remainder g(t)^s.
    """
    j0 = J01
    slope = jv(1.0, j0)  # -J0'(j01), limit of J0(t)/(j01-t)

    def smooth(t):
        gap = j0 - t
        ratio = slope if gap < 1e-9 else jv(0.0, t) / gap
        return t * ratio ** s

    val, _ = integrate.quad(smooth, 0.0, j0, weight="alg", wvar=(0.0, s),
                            limit=200, epsabs=1e-13, epsrel=1e-12)
    return (2.0 / j0 ** 2 * val) ** (1.0 / s)


@pytest.mark.parametrize("s", [0.5, 1.0, 2.7, 10.0])
def test_f_power_mean_qaws_oracle(s):
    prof = special.psi_profile(2.0, 2)
    assert math.exp(prof.log_power_mean(s)) == pytest.approx(
        _f_qaws_oracle(s), rel=1e-9)


@pytest.mark.parametrize("p", [2.0, 3.0])
@pytest.mark.parametrize("n", [2, 3])
def test_log_integral_slope_quadpack_oracle(p, n):
    """k'(1) = int t^(n-1) Psi log Psi / int t^(n-1) Psi by QUADPACK on
    prof.value. With g = Psi/(psi - t), Psi log Psi splits into the smooth
    Psi log g and g (psi - t) log(psi - t), whose endpoint factor QAWS
    takes as its weight."""
    prof = special.psi_profile(p, n)
    psi = prof.first_zero

    def g(t):
        gap = psi - t
        return prof._slope_at_zero if gap < 1e-9 else prof.value(t) / gap

    opts = dict(limit=200, epsabs=1e-14, epsrel=1e-13)
    smooth, _ = integrate.quad(
        lambda t: t ** (n - 1) * prof.value(t) * math.log(g(t)), 0.0, psi,
        **opts)
    endpoint, _ = integrate.quad(lambda t: t ** (n - 1) * g(t), 0.0, psi,
                                 weight="alg-logb", wvar=(0.0, 1.0), **opts)
    mass, _ = integrate.quad(lambda t: t ** (n - 1) * prof.value(t), 0.0,
                             psi, **opts)
    assert prof.log_integral_slope() == pytest.approx(
        (smooth + endpoint) / mass, rel=1e-9)


def test_f_power_mean_shape():
    # stable geometric-mean limit: f is smooth at s = 0+ with slope about
    # 0.165 for p = n = 2, so successive decades shrink the gap tenfold
    prof = special.psi_profile(2.0, 2)

    def f(s):
        return math.exp(prof.log_power_mean(s))

    assert abs(f(0.01) - f(0.001)) <= 2e-3
    assert abs(f(1e-3) - f(1e-4)) <= 2e-4
    # nondecreasing in s (power-mean inequality), and capped by max Psi = 1
    grid = [0.1, 0.5, 1.0, 2.0, 5.0, 10.0]
    for p, n in ((2.0, 2), (3.0, 2), (2.0, 3)):
        vals = [math.exp(special.psi_profile(p, n).log_power_mean(s))
                for s in grid]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))
        assert all(v <= 1.0 for v in vals)
    with pytest.raises(ParameterError):
        f(0.0)


def test_sup_ratio():
    for (r, q) in ((0.5, 1.0), (1.0, 2.0), (2.0, 17.0), (0.01, 49.0)):
        assert oracles.sup_ratio(2.0, 2, r, q) <= 1.0 + 1e-6
    assert oracles.sup_ratio(2.0, 2, 1e-3, 2e-3) >= 1.0 - 1e-2
    # exponent blow-up at q -> r is cancelled by the ratio -> 1
    near = oracles.sup_ratio(2.0, 2, 1.0, 1.0 + 1e-6)
    assert math.isfinite(near) and 0.0 < near <= 1.0 + 1e-6


def test_lindqvist_chain():
    grid = [2.0, 2.5, 3.0, 4.0, 5.0, 7.0, 10.0]
    zeros = {p: special.psi_profile(p, 2).first_zero for p in grid}
    for q in grid:
        for p in grid:
            if q <= p:
                assert q * zeros[q] <= p * zeros[p] + 1e-10


def test_lorch_bound():
    for n in range(2, 21):
        j = special.bessel_first_zero(n / 2.0 - 1.0)
        assert j * j > (n / 2.0) * (n / 2.0 + 4.0)


def test_psi_exceeds_threshold_on_grid():
    for p in range(2, 11):
        for n in range(2, 11):
            psi = special.psi_profile(float(p), n).first_zero
            assert psi > n ** 2 / (p * (n - 1.0))
