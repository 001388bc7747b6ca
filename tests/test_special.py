"""Bessel oracles, radial profile shooting, power means, and inequalities."""

import hashlib
import math

import numpy as np
import pytest
from scipy import integrate
from scipy.integrate._ivp.rk import DOP853
from scipy.special import jn_zeros, jv

from spectral_bounds import special
from spectral_bounds.errors import NumericError, ParameterError

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
    with pytest.raises(ParameterError, match="dimension must be >= 1, got 0"):
        special.omega_n(0)


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


def test_bessel_first_zero_to_a_few_ulp():
    zeros = [special.bessel_first_zero(float(nu)) for nu in range(16)]
    reference = [jn_zeros(nu, 1)[0] for nu in range(16)]
    assert np.abs(np.subtract(zeros, reference)).max() <= 4 * np.spacing(
        max(reference))
    assert abs(special.bessel_first_zero(0.5) - math.pi) <= 4 * np.spacing(
        math.pi)
    # a Python float, so overflow downstream raises instead of warning
    assert type(special.bessel_first_zero(0.0)) is float


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


@pytest.mark.parametrize("n", [2, 3, 4, 8])
def test_psi_profile_value_to_1e13_at_p2(n):
    prof = special.psi_profile(2.0, n)
    grid = np.linspace(0.0, prof.first_zero, 4097)
    exact = oracles.normalized_bessel_profile(n, grid)
    assert np.abs(prof.value(grid) - exact).max() <= 1e-13


@pytest.mark.parametrize("p", [2.0, 2.5, 3.0, 6.0, 10.0])
@pytest.mark.parametrize("n", [2, 3, 32])
def test_value_near_the_zero(p, n):
    """Psi(psi - u) keeps its relative accuracy as u -> 0: each radius is
    stepped back from the zero itself. u is the distance the float radius
    really has."""
    prof = special.psi_profile(p, n)
    psi = prof.first_zero
    r = psi - psi * np.geomspace(1e-12, 1e-8, 9)
    model = oracles.near_zero_profile(prof, psi - r)
    assert np.abs(prof.value(r) / model - 1.0).max() <= 1e-13
    # no negative value for the panel table's log Psi to meet
    assert prof.value(psi) == 0.0
    grid = np.concatenate([np.linspace(0.0, psi, 4097), r,
                           [np.nextafter(psi, 0.0)]])
    assert np.all(prof.value(grid) >= 0.0)


#: sha256 (first 12 hex digits) of the little-endian bytes of the march's
#: rows of psi_profile(p, n)._steps, for n = 2, 3, 5, 8, 16, 32, made on
#: x86-64 Linux (glibc pow). The Newton row is left out here and pinned on
#: its own in PINNED_ZERO_ROWS. Each of these shots rejects 2 to 30 steps.
#: On scipy 1.17.1 every row is the compiled route's to the bit, so these
#: pins hold the march to that route on any scipy, the floor's included.
PINNED_TABLES = {
    2.0: ("d247c64e4e62", "4627534d4643", "0a92bc35128b", "ef98813cf596",
          "73335c3f0613", "80e34df5fab6"),
    2.2: ("e971575b0c5b", "a412fbed6ef4", "c821737c2448", "318555937457",
          "91ac5f3163b8", "9a6a3cd1d357"),
    2.5: ("d4c049f209a4", "9eb956dc1f65", "34f29b2ec989", "e8b00b2c0f85",
          "814263804357", "ccac145061f1"),
    3.1: ("d89675558fc1", "9fdb9c7e5574", "47800c756b1b", "4a2dfb82fa05",
          "fe9d46c2d35c", "6f27a3b9aaaf"),
    4.0: ("dfc986424b79", "dc0ab77ec0d9", "6806eea621f5", "4439e1a86e81",
          "a89dbea42ed0", "f39e3a5a36d5"),
    6.5: ("4919fa9607a7", "151446b0a847", "810308900a5b", "0566cfa07829",
          "42a7c656a6d9", "a5439c7312a8"),
    10.0: ("078b34892926", "727292e22e44", "0b2b7d480d5e", "e7b031ddb814",
           "e1c0aecc4c5a", "7bc0cfee2159"),
}
PINNED_NS = (2, 3, 5, 8, 16, 32)
#: The Newton row (first_zero, 0, Q at the zero) of the same shots, as
#: float.hex of first_zero and of Q, made on the same platform. The Newton
#: iterates are float DOP853 steps, so no BLAS kernel rounds them.
PINNED_ZERO_ROWS = {
    2.0: (("0x1.33d152e971b57p+1", "-0x1.09cdb365512ccp-1"),
          ("0x1.921fb54442cb3p+1", "-0x1.45f306dc9c86fp-2"),
          ("0x1.1f9405435069fp+2", "-0x1.2908059894860p-3"),
          ("0x1.9854928f8b72ap+2", "-0x1.c398afd1c861cp-5"),
          ("0x1.62c38b0f00675p+3", "-0x1.b39f20ed888f0p-8"),
          ("0x1.3fe93017932d4p+4", "-0x1.91993c947ff3cp-13")),
    2.2: (("0x1.2c6273f95ab05p+1", "-0x1.b25df5345572ep-2"),
          ("0x1.83ff2b432d04bp+1", "-0x1.ea51c1dd4a2c7p-3"),
          ("0x1.120bafbcbe754p+2", "-0x1.84488dd7507b5p-4"),
          ("0x1.815d6a3105879p+2", "-0x1.ecb3dd74aade7p-6"),
          ("0x1.4b02e238e3b58p+3", "-0x1.3ab089827fb63p-9"),
          ("0x1.27fe9a4891e61p+4", "-0x1.1b4fdc8101d6dp-15")),
    2.5: (("0x1.21c25c52f4530p+1", "-0x1.478161d29e803p-2"),
          ("0x1.7102122d80b1cp+1", "-0x1.4a36c5b3d9158p-3"),
          ("0x1.008ee97c5401ap+2", "-0x1.af6e892185424p-5"),
          ("0x1.6450b3acac5bep+2", "-0x1.aaf47dca9d89cp-7"),
          ("0x1.2d8c00d856f64p+3", "-0x1.3507ac705cb79p-11"),
          ("0x1.0aad811fd9812p+4", "-0x1.9e2eb959361f7p-19")),
    3.1: (("0x1.0f6e0a5b5d42cp+1", "-0x1.901c27a3f02c4p-3"),
          ("0x1.5232feaad90a3p+1", "-0x1.4cc57e37b4f1dp-4"),
          ("0x1.cac273b70765ep+1", "-0x1.389e4240c71d1p-6"),
          ("0x1.38452563d9d0dp+2", "-0x1.93a90f1a8fb5cp-9"),
          ("0x1.01e9c461f6631p+3", "-0x1.b870fed8a3a8fp-15"),
          ("0x1.bfcdfe0128e31p+3", "-0x1.b1f26846c1bd6p-25")),
    4.0: (("0x1.f51c5194bc74ap+0", "-0x1.b8f40a558a10fp-4"),
          ("0x1.30f23895d5d8ep+1", "-0x1.23b16f5df0abbp-5"),
          ("0x1.92762b56ae398p+1", "-0x1.719365c2a1fb4p-8"),
          ("0x1.0bca579cb15e3p+2", "-0x1.1e6f8709ad502p-11"),
          ("0x1.ade5ffc085d23p+2", "-0x1.87671cd9ff2dfp-19"),
          ("0x1.6cf4a3b91b88ap+3", "-0x1.a18b6ce875b8dp-32")),
    6.5: (("0x1.b0ce706f1c988p+0", "-0x1.1d0c917e63f91p-5"),
          ("0x1.fa5ce086d5a75p+0", "-0x1.e989f2f440d57p-8"),
          ("0x1.3e687ff02edc0p+1", "-0x1.25c69b789b6dbp-11"),
          ("0x1.965d06b589cb9p+1", "-0x1.5ab3350e538abp-16"),
          ("0x1.34afb4f16d9fap+2", "-0x1.b02bebad802c1p-27"),
          ("0x1.f4e32bd0285d0p+2", "-0x1.7af047a2e3d1ap-45")),
    10.0: (("0x1.81fc1248553dep+0", "-0x1.ae0d6e99488d3p-7"),
           ("0x1.b619698428bfdp+0", "-0x1.f9961e70dd318p-10"),
           ("0x1.08ee2b0660dd2p+1", "-0x1.39b0579035692p-14"),
           ("0x1.4639004490cf0p+1", "-0x1.3bfa50e48ad68p-20"),
           ("0x1.d7654dd59daefp+1", "-0x1.de2a48d429a2bp-34"),
           ("0x1.6e0299d7a14ccp+2", "-0x1.346d17cf2e792p-56")),
}


@pytest.mark.parametrize("p", sorted(PINNED_TABLES))
@pytest.mark.parametrize("n", PINNED_NS)
def test_march_tables_are_pinned(p, n):
    steps = np.ascontiguousarray(special.psi_profile(p, n)._steps[:, :-1],
                                 "<f8")
    digest = hashlib.sha256(steps.tobytes()).hexdigest()[:12]
    assert digest == PINNED_TABLES[p][PINNED_NS.index(n)]


@pytest.mark.parametrize("p", sorted(PINNED_ZERO_ROWS))
@pytest.mark.parametrize("n", PINNED_NS)
def test_newton_rows_are_pinned(p, n):
    prof = special.psi_profile(p, n)
    zero, flux = PINNED_ZERO_ROWS[p][PINNED_NS.index(n)]
    assert prof.first_zero.hex() == zero
    assert [v.hex() for v in prof._steps[:, -1].tolist()] == [
        zero, "0x0.0p+0", flux]


def test_one_tableau_is_scipys():
    """The sparse rows rebuild scipy's dense DOP853 A, B, C, E3 and E5; E3
    is B less the _BHH multiples of stages 1, 9 and 12."""
    a = np.zeros((12, 12))
    b, e5 = np.zeros(12), np.zeros(13)
    for s, row in enumerate(special._A_ROWS):
        for j, weight in row:
            a[s, j] = weight
    for j, weight, error in special._B_ROW:
        b[j], e5[j] = weight, error
    e3 = np.append(b, 0.0)
    for j, weight in zip((0, 8, 11), special._BHH):
        e3[j] -= weight
    assert np.array_equal(a, DOP853.A[:12, :12])
    assert np.array_equal(b, DOP853.B)
    assert np.array_equal(special._C, DOP853.C[:12])
    assert np.array_equal(e3, DOP853.E3)
    assert np.array_equal(e5, DOP853.E5)


@pytest.mark.skipif(not oracles.COMPILED_DOP853_IS_C_PORT,
                    reason="scipy's f2py-wrapped Fortran dop853 sizes a "
                    "rejected step from its error; the march follows the "
                    "C port")
@pytest.mark.parametrize("p", sorted(PINNED_TABLES))
@pytest.mark.parametrize("n", PINNED_NS)
def test_march_is_the_compiled_dop853_to_the_bit(p, n):
    """Every step start of the table, then the zero placed from them, is
    the compiled route's to the bit."""
    steps = special.psi_profile(p, n)._steps
    compiled = oracles.compiled_profile_steps(p, n)
    assert np.array_equal(steps[:, :-1], compiled[:, :-1])
    assert steps[0, -1] == compiled[0, -1]


def test_march_refuses_a_step_lost_to_rounding():
    # a slope that turns to NaN past r = 1 rejects every step that crosses
    # it, until the step is below the rounding of r
    def rhs(r, y):
        return (-1.0, math.nan if r > 1.0 else 0.0)

    with pytest.raises(NumericError, match="lost its step size to rounding "
                       "at r = 1"):
        special._march(rhs, 0.5, (1.0, 0.0), 100.0)


def test_dimension_range():
    n = special.N_MAX
    assert special.psi_profile(2.0, n).first_zero == pytest.approx(
        special.bessel_first_zero(n / 2.0 - 1.0), rel=1e-8)
    for bad in (1, n + 1):
        with pytest.raises(ParameterError, match=f"\\[2, {n}\\]"):
            special.psi_profile(2.0, bad)


def test_profile_without_a_zero_is_a_numeric_error(monkeypatch):
    # a constant solution stands in for a profile that never reaches 0
    monkeypatch.setattr(special, "_profile_rhs",
                        lambda p, n: lambda r, y: (0.0, 0.0))
    with pytest.raises(NumericError, match="below r = 100"):
        special.psi_profile.__wrapped__(2.0, 2)


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
        return oracles.zero_slope(prof) if gap < 1e-9 else prof.value(t) / gap

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
