"""Decreasing rearrangement: hand oracles, dual routes, comparison checks.

The piecewise-quadratic distribution function is checked against cases
solvable in closed form (linear ramps, plateaus, staircases) and against
an independent per-element decomposition of the same power integrals.
"""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import jv

from spectral_bounds import bounds, fem, geometry, special
from spectral_bounds import rearrangement as rr
from spectral_bounds.errors import NumericError, ParameterError

import oracles
import pipelines

J01 = special.bessel_first_zero(0.0)


def _square_mesh(level):
    return pipelines.mesh(pipelines.SQUARE, level)


def _radial_bessel(level):
    """P1 interpolant of J0(j01 r) on the unit-radius 64-gon.

    The 64-fold symmetry reproduces each nodal value up to 1-2 ulp in
    every sector, which stresses the tie handling of the assembly.
    """
    mesh = pipelines.mesh(pipelines.GON64, level)
    r = np.hypot(mesh.nodes[:, 0], mesh.nodes[:, 1])
    return mesh, jv(0.0, J01 * np.minimum(r, 1.0))


def test_constant_function():
    # one break and no real piece: the general code with the zero top piece
    spec = geometry.make_rhombus(8)
    mesh = pipelines.mesh(spec, 2)
    area = spec.area
    for level in (-0.3, 0.0, 0.7):
        prof = rr.rearrange(mesh, np.full(mesh.node_count, level))
        s_tilde = area if level > 0.0 else 0.0
        assert prof.domain_measure == pytest.approx(area, rel=1e-12)
        assert prof.positive_measure == pytest.approx(s_tilde, rel=1e-12)
        assert prof.distribution(level - 0.4) == prof.domain_measure
        assert prof.distribution(level) == 0.0
        assert prof.distribution(level + 0.4) == 0.0
        assert np.all(prof.value(np.array([0.0, 0.5 * area])) == level)
        assert oracles.profile_integral(prof) == pytest.approx(
            level * area, rel=1e-12)
        s = np.array([0.0, 0.25 * area, 2.0 * area])
        for q in (2.0, 3.0):
            height = max(level, 0.0) ** q
            cum = rr.cumulative_power(prof, q)
            assert cum.total == pytest.approx(height * area, rel=1e-12)
            # saturates at the positive measure
            assert cum.value(s) == pytest.approx(
                height * np.minimum(s, s_tilde), rel=1e-12, abs=0.0)


def test_distribution_at_extreme_levels():
    # no piece is evaluated outside its range, so no level overflows
    mesh = _square_mesh(3)
    prof = rr.rearrange(mesh, np.hypot(mesh.nodes[:, 0] - 0.3,
                                       mesh.nodes[:, 1] - 0.4))
    big = np.finfo(float).max
    with np.errstate(all="raise"):
        for t in (-1e200, -big):
            assert prof.distribution(t) == prof.domain_measure == 1.0
        for t in (1e200, big):
            assert prof.distribution(t) == 0.0
        levels = np.array([-big, -1e200, 0.2, 1e200, big])
        out = prof.distribution(levels)
    assert out[[0, 1, 3, 4]].tolist() == [1.0, 1.0, 0.0, 0.0]
    assert 0.0 < out[2] < 1.0


def test_linear_ramp_exact():
    # u = x on the unit square: m(t) = 1 - t and u*(s) = 1 - s exactly
    mesh = _square_mesh(3)
    prof = rr.rearrange(mesh, mesh.nodes[:, 0].copy())
    ts = np.array([0.1, 0.25, 0.5, 0.9])
    ss = np.array([0.05, 0.3, 0.5, 0.97])
    assert np.max(np.abs(prof.distribution(ts) - (1.0 - ts))) == 0.0
    assert np.max(np.abs(prof.value(ss) - (1.0 - ss))) == 0.0
    assert oracles.profile_integral(prof) == pytest.approx(0.5, abs=1e-14)
    assert rr.cumulative_power(prof, 3.0).total == pytest.approx(0.25,
                                                                 abs=1e-14)
    assert oracles.profile_abs_power_integral(prof, 2.0) == pytest.approx(
        1.0 / 3.0, abs=1e-14)
    # roundtrip both ways (profile strictly decreasing, no plateaus)
    assert np.max(np.abs(prof.value(prof.distribution(ts)) - ts)) <= 1e-14
    assert np.max(np.abs(prof.distribution(prof.value(ss)) - ss)) <= 1e-14
    cum = rr.cumulative_power(prof, 1.0)
    assert np.max(np.abs(cum.value(ss) - (ss - ss ** 2 / 2))) <= 1e-14
    assert cum.total == pytest.approx(0.5, abs=1e-14)


def test_signed_ramp():
    # u = x - 1/2 splits the square into equal positive and negative parts
    mesh = _square_mesh(3)
    v = mesh.nodes[:, 0] - 0.5
    prof = rr.rearrange(mesh, v)
    assert prof.positive_measure == pytest.approx(0.5, abs=1e-14)
    assert oracles.profile_integral(prof) == pytest.approx(0.0, abs=1e-14)
    assert oracles.profile_abs_power_integral(prof, 1.0) == pytest.approx(
        0.25, abs=1e-14)
    assert rr.cumulative_power(prof, 2.0).total == pytest.approx(
        1.0 / 24.0, abs=1e-14)
    flipped = rr.rearrange(mesh, -v)
    assert (prof.positive_measure + flipped.positive_measure
            == pytest.approx(prof.domain_measure, abs=1e-14))


def test_plateau_and_atom():
    # v = 1 for x <= 1/2, 0 beyond: half the square is flat at level 1,
    # a width-h ramp crosses, the rest is flat at level 0
    mesh = _square_mesh(3)
    h = 1.0 / 8.0
    v = (mesh.nodes[:, 0] <= 0.5 + 1e-12).astype(float)
    prof = rr.rearrange(mesh, v)
    assert prof.positive_measure == pytest.approx(0.5 + h, abs=1e-14)
    assert oracles.profile_integral(prof) == pytest.approx(0.5 + h / 2,
                                                           abs=1e-14)
    assert rr.cumulative_power(prof, 2.0).total == pytest.approx(
        0.5 + h / 3, abs=1e-14)
    assert prof.value(0.25) == 1.0
    assert prof.value(0.5 + h / 2) == pytest.approx(0.5, abs=1e-14)
    assert prof.value(0.9) == 0.0
    assert prof.distribution(0.5) == pytest.approx(0.5 + h / 2, abs=1e-14)
    # left limit at the top atom: m(1-) = 1/2, m(1) = 0
    assert prof.distribution(1.0 - 1e-12) == pytest.approx(0.5, abs=1e-11)
    assert prof.distribution(1.0) == 0.0


def test_staircase_three_levels():
    # bands at values 1, 1/2, 0 with width-h ramps between them; every
    # quantity below is a closed-form sum of plateau and ramp pieces
    mesh = _square_mesh(3)
    x = mesh.nodes[:, 0]
    v = np.where(x <= 0.25 + 1e-12, 1.0,
                 np.where(x <= 0.625 + 1e-12, 0.5, 0.0))
    prof = rr.rearrange(mesh, v)
    assert prof.positive_measure == pytest.approx(0.75, abs=1e-14)
    assert oracles.profile_integral(prof) == pytest.approx(0.5, abs=1e-14)
    assert rr.cumulative_power(prof, 2.0).total == pytest.approx(
        19.0 / 48.0, abs=1e-14)
    assert prof.distribution(0.25) == pytest.approx(0.6875, abs=1e-14)
    assert prof.value(0.3) == pytest.approx(0.8, abs=1e-14)
    assert prof.value(0.5) == pytest.approx(0.5, abs=1e-14)   # plateau
    assert prof.value(0.7) == pytest.approx(0.2, abs=1e-14)
    vals = oracles.profile_samples(prof)
    assert np.all(np.diff(vals) <= 1e-14)


def test_oriented_sign_convention():
    mesh = _square_mesh(3)
    v = mesh.nodes[:, 0] - 0.25   # positive on 3/4 of the square
    prof = rr.rearrange_oriented(mesh, v)
    assert prof.positive_measure == pytest.approx(0.25, abs=1e-14)
    pair = pipelines.neumann(pipelines.SQUARE, 3)
    for sign in (1.0, -1.0):
        orient = rr.rearrange_oriented(mesh, sign * pair.vector)
        assert orient.positive_measure <= 0.5 * orient.domain_measure + 1e-12


def test_cavalieri_against_mass_matrix():
    # the mass matrix integrates P1 functions and their squares exactly,
    # which gives an independent route to integral() and |u|^2
    rng = np.random.default_rng(7)
    for spec in (pipelines.SQUARE, geometry.make_rhombus(8)):
        mesh = pipelines.mesh(spec, 3)
        v = rng.standard_normal(mesh.node_count)
        prof = rr.rearrange(mesh, v)
        mass = fem.assemble_mass(mesh)
        ones = np.ones(mesh.node_count)
        assert oracles.profile_integral(prof) == pytest.approx(
            float(ones @ (mass @ v)), abs=1e-10)
        assert oracles.profile_abs_power_integral(prof, 2.0) == pytest.approx(
            float(v @ (mass @ v)), rel=1e-10)


@pytest.mark.parametrize("q", [1, 2, 4])
def test_positive_power_dual_route(q):
    # profile route (exact piecewise quadratics of the distribution)
    # against the sub-triangle decomposition on the mesh itself
    rng = np.random.default_rng(11)
    mesh = _square_mesh(3)
    cases = [(mesh, rng.standard_normal(mesh.node_count)),
             (mesh, pipelines.neumann(pipelines.SQUARE, 3).vector)]
    # rhombus eigenfunctions vanish on the short diagonal, a mesh edge
    # chain whose nodal values are round-off zeros a few ulp apart: the
    # pieces between them carry curvatures near 1e10 that must cancel
    for m, level in ((16, 3), (8, 5)):
        spec = geometry.make_rhombus(m)
        v = pipelines.neumann(spec, level).vector
        cases += [(pipelines.mesh(spec, level), v),
                  (pipelines.mesh(spec, level), -v)]
    for mesh, v in cases:
        prof = rr.rearrange(mesh, v)
        a = rr.cumulative_power(prof, float(q)).total
        b = oracles.mesh_positive_power_integral(mesh, v, q)
        assert a == pytest.approx(b, rel=1e-8)
        # u*(0) = max u+; m(t) has a double root at the maximum, so the
        # root solve pins it down only to about sqrt(eps)
        assert prof.value(0.0) == pytest.approx(v.max(), rel=1e-7)
        # value() returns the top break there, so u*(0) is max u up to the
        # 64-ulp width within which breaks are merged
        snap = 64.0 * np.finfo(float).eps * np.abs(v).max()
        assert 0.0 <= v.max() - prof.value(0.0) <= snap
        assert prof.value(-1.0) == prof.value(0.0)


def _snap_breaks_loop(unique_vals):
    """Reference: the value-by-value walk that _snap_breaks replaced."""
    if len(unique_vals) < 2:
        return unique_vals
    scale = max(abs(unique_vals[0]), abs(unique_vals[-1]))
    snap = 64.0 * np.finfo(float).eps * scale
    keep = np.empty(len(unique_vals), dtype=bool)
    keep[0] = True
    rep = unique_vals[0]
    for i in range(1, len(unique_vals)):
        if unique_vals[i] - rep > snap:
            keep[i] = True
            rep = unique_vals[i]
        else:
            keep[i] = False
    return unique_vals[keep]


def test_snap_breaks_matches_loop_reference():
    rng = np.random.default_rng(5)
    ulp = np.finfo(float).eps
    cases = [np.array([0.5]), np.array([-1.0, 1.0])]
    for _ in range(20):
        # gaps of a few ulp to a few hundred, so near-ties come alone and
        # in runs long enough to reach past the snap width
        gaps = np.where(rng.random(400) < 0.7,
                        rng.integers(1, 40, 400) * ulp,
                        rng.random(400) * 1e-3)
        cases.append(np.unique(np.cumsum(gaps) - 0.2))
    for m, level in ((8, 5), (16, 3), (16, 6)):
        mesh = pipelines.mesh(geometry.make_rhombus(m), level)
        v = pipelines.neumann(geometry.make_rhombus(m), level).vector
        cases += [np.unique(v[mesh.elements]), np.unique(-v[mesh.elements])]
    merged = 0
    for vals in cases:
        expected = _snap_breaks_loop(vals)
        got = rr._snap_breaks(vals)
        assert got.tobytes() == expected.tobytes()
        merged += len(vals) - len(got)
    assert merged > 0


def test_power_diff_against_exact_differences():
    ulp = np.finfo(float).eps
    # both sides of hi = 2 lo, where the direct difference takes over
    lo = np.array([0.0, 0.0, 2.48e-16, 1e-300, 0.1, 0.25, 0.3, 0.3, 0.5,
                   0.7, 0.7])
    hi = np.array([0.0, 0.6, 0.8, 0.9, 0.9, 0.5, 0.3 * (1 + 4 * ulp), 0.31,
                   0.7, 0.7, 1.2])
    for e in (2, 3, 41, 42):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = rr._power_diff(lo, hi, float(e))
        exact = [float(Fraction(h) ** e - Fraction(l) ** e)
                 for l, h in zip(lo.tolist(), hi.tolist())]
        assert np.all(np.isfinite(got))
        assert got == pytest.approx(exact, rel=1e-13, abs=0.0)


def test_ulp_tie_robustness():
    # radial data on the symmetric polygon mesh: thousands of near-ties
    # must not destabilize the piece assembly
    mesh, v = _radial_bessel(3)
    prof = rr.rearrange(mesh, v)
    assert prof.value(1e-3) >= 0.99
    assert np.all(np.diff(oracles.profile_samples(prof)) <= 1e-12)
    for q in (1, 2):
        a = rr.cumulative_power(prof, float(q)).total
        b = oracles.mesh_positive_power_integral(mesh, v, q)
        assert a == pytest.approx(b, rel=1e-8)


def test_lq_norm_positive():
    mesh = _square_mesh(3)
    flat = rr.rearrange(mesh, (mesh.nodes[:, 0] <= 0.5 + 1e-12)
                        .astype(float))
    # indicator-like data: the norm of the ramp-plus-plateau is explicit
    assert rr.cumulative_power(flat, 2.0).total ** 0.5 == pytest.approx(
        math.sqrt(0.5 + 1.0 / 24.0), rel=1e-12)
    prof = pipelines.oriented_profile(pipelines.SQUARE, 4)
    qs = [0.5, 1.0, 2.0, 4.0, 8.0]
    normalized = [rr.cumulative_power(prof, q).total ** (1.0 / q)
                  * prof.positive_measure ** (-1.0 / q) for q in qs]
    # power mean inequality on the support of the positive part
    assert all(a <= b + 1e-12 for a, b in zip(normalized, normalized[1:]))
    with pytest.raises(ParameterError):
        rr.cumulative_power(prof, 0.0)


def test_cumulative_power_shape():
    prof = pipelines.oriented_profile(pipelines.SQUARE, 4)
    cum = rr.cumulative_power(prof, 2.0)
    s = np.linspace(0.0, prof.positive_measure, 257)
    vals = np.asarray(cum.value(s))
    assert vals[0] == 0.0
    assert np.all(np.diff(vals) >= -1e-12)
    # u* nonincreasing makes the cumulative concave
    second = np.diff(vals, 2)
    assert np.max(second) <= 1e-12
    assert vals[-1] == pytest.approx(cum.total, rel=1e-9)
    assert cum.value(prof.domain_measure) == pytest.approx(cum.total,
                                                           rel=1e-12)
    with pytest.raises(ParameterError):
        rr.cumulative_power(prof, -1.0)


def test_ball_profile_against_bessel():
    # classical constant and mu1 = j01^2 put the comparison ball at
    # radius 1, so its profile is J0(j01 r) itself
    K = 2.0 * math.sqrt(math.pi)
    ball = rr.dirichlet_ball_profile(2.0, 2, K, J01 ** 2)
    assert math.sqrt(ball.measure / math.pi) == pytest.approx(1.0, rel=1e-10)
    assert ball.measure == pytest.approx(math.pi, rel=1e-10)
    s = np.linspace(0.0, math.pi, 65)
    expect = jv(0.0, J01 * np.sqrt(s / math.pi))
    assert np.max(np.abs(oracles.ball_profile_value(ball, s) - expect)) <= 1e-8
    # int_disk J0(j01 r)^2 = pi J1(j01)^2
    j1 = jv(1.0, J01)
    assert ball.cumulative_power(2.0).total == pytest.approx(
        math.pi * j1 ** 2, rel=1e-6)
    with pytest.raises(ParameterError):
        rr.dirichlet_ball_profile(2.0, 2, -1.0, 4.0)
    with pytest.raises(ParameterError):
        rr.dirichlet_ball_profile(2.0, 2, 1.0, 0.0)


@pytest.mark.parametrize("n, K, mu1, radial", [
    # int_0^x t J0(t)^2 dt = x^2/2 (J0(x)^2 + J1(x)^2)
    (2, 2.0 * math.sqrt(math.pi), 3.0,
     lambda x: x ** 2 / 2.0 * (jv(0.0, x) ** 2
                               + jv(1.0, x) ** 2)),
    # Psi(t) = sin(t)/t, so int_0^x t^2 Psi^2 dt = x/2 - sin(2x)/4
    (3, 1.3, 7.0, lambda x: x / 2.0 - np.sin(2.0 * x) / 4.0),
])
def test_ball_cumulative_closed_form(n, K, mu1, radial):
    ball = rr.dirichlet_ball_profile(2.0, n, K, mu1)
    psi = special.psi_profile(2.0, n).first_zero
    # the ball of measure s holds the unit profile up to x = psi (s/L)^(1/n)
    s = np.linspace(0.0, ball.measure, 1001)
    x = psi * (s / ball.measure) ** (1.0 / n)
    exact = n * ball.measure / psi ** n * radial(x)
    cum = ball.cumulative_power(2.0)
    assert np.max(np.abs(cum.value(s) - exact)) <= 1e-10 * exact[-1]
    assert cum.total == pytest.approx(exact[-1], rel=1e-10)


@pytest.mark.parametrize("spec,q", [(pipelines.SQUARE, 1.0),
                                    (geometry.make_rhombus(8), 2.0)])
def test_chiti_domination_eigenfunctions(spec, q):
    level = 5
    pair = pipelines.neumann(spec, level)
    prof = pipelines.oriented_profile(spec, level)
    K = bounds.kn_lookup(spec).value
    ball = rr.dirichlet_ball_profile(2.0, 2, K, pair.value)
    report = rr.chiti_check(prof, ball, q)
    assert report.max_violation <= 1e-3
    assert not report.lemma_violated
    assert ball.measure < prof.positive_measure
    assert 0.0 <= report.s_at_max <= ball.measure


def test_chiti_disk_equality():
    mesh, v = _radial_bessel(4)
    prof = rr.rearrange(mesh, v)
    area = prof.domain_measure
    # fitted constant puts the ball measure exactly at the positive set
    ball = rr.dirichlet_ball_profile(2.0, 2, 2.0 * math.sqrt(area), J01 ** 2)
    report = rr.chiti_check(prof, ball, 2.0)
    assert report.max_violation <= 1e-6
    assert not report.lemma_violated
    assert ball.measure == pytest.approx(prof.positive_measure, abs=1e-9)
    # classical constant: the ball is the full disk, whose measure
    # genuinely exceeds the inscribed polygon, and the flag must fire
    strict = rr.chiti_check(
        prof, rr.dirichlet_ball_profile(2.0, 2, 2.0 * math.sqrt(math.pi),
                                        J01 ** 2), 2.0)
    assert strict.lemma_violated
    assert strict.max_violation <= 1e-6
    for q in (0.0, 50.5):
        with pytest.raises(ParameterError, match=r"\(0, 50\]"):
            rr.chiti_check(prof, ball, q)


def test_reverse_holder_eigenfunctions():
    pair = pipelines.neumann(pipelines.SQUARE, 4)
    prof = pipelines.oriented_profile(pipelines.SQUARE, 4)
    K = bounds.kn_lookup(pipelines.SQUARE).value
    ball = rr.dirichlet_ball_profile(2.0, 2, K, pair.value)
    report = rr.reverse_holder_check(prof, ball, 2.0, 1.0)
    assert report.ok
    # unit mass norm splits evenly between the two nodal domains
    assert report.lhs == pytest.approx(math.sqrt(0.5), abs=1e-3)
    spec = geometry.make_rhombus(16)
    pair = pipelines.neumann(spec, 4)
    prof = pipelines.oriented_profile(spec, 4)
    K = bounds.kn_lookup(spec).value
    ball = rr.dirichlet_ball_profile(2.0, 2, K, pair.value)
    assert rr.reverse_holder_check(prof, ball, 4.0, 2.0).ok
    # q -> r: the constant collapses to 1 and the check is trivial
    near = rr.reverse_holder_check(prof, ball, 2.0 * (1.0 + 1e-9), 2.0)
    assert near.ok
    assert near.constant == pytest.approx(1.0, abs=1e-6)
    with pytest.raises(ParameterError):
        rr.reverse_holder_check(prof, ball, 1.0, 2.0)
    with pytest.raises(ParameterError):
        rr.reverse_holder_check(prof, ball, 2.0, 0.0)


def test_reverse_holder_rhs_overflow_is_named(monkeypatch):
    # a finite constant times an L^r norm past the float range
    pair = pipelines.neumann(pipelines.SQUARE, 2)
    prof = pipelines.oriented_profile(pipelines.SQUARE, 2)
    K = bounds.kn_lookup(pipelines.SQUARE).value
    ball = rr.dirichlet_ball_profile(2.0, 2, K, pair.value)
    real = rr.cumulative_power

    def huge_lr(profile, q):
        cum = real(profile, q)
        return cum._replace(total=1e308) if q == 1.0 else cum

    monkeypatch.setattr(rr, "cumulative_power", huge_lr)
    with pytest.raises(NumericError, match="reverse Holder rhs"):
        rr.reverse_holder_check(prof, ball, 2.0, 1.0)


def test_reverse_holder_disk_sharpness():
    # radial Bessel data with the classical constant sits at the equality
    # case of the inequality, up to interpolation error
    mesh, v = _radial_bessel(4)
    prof = rr.rearrange(mesh, v)
    ball = rr.dirichlet_ball_profile(2.0, 2, 2.0 * math.sqrt(math.pi),
                                     J01 ** 2)
    for q, r in ((2.0, 1.0), (4.0, 2.0)):
        report = rr.reverse_holder_check(prof, ball, q, r)
        assert report.ok
        assert 0.0 <= 1.0 - report.lhs / report.rhs <= 1e-3


def test_input_validation():
    mesh = _square_mesh(2)
    with pytest.raises(ParameterError):
        rr.rearrange(mesh, np.ones(3))
    bad = np.ones(mesh.node_count)
    bad[0] = np.nan
    with pytest.raises(ParameterError):
        rr.rearrange(mesh, bad)
    empty = geometry.Mesh(nodes=np.zeros((0, 2)),
                          elements=np.zeros((0, 3), dtype=int))
    with pytest.raises(ParameterError):
        rr.rearrange(empty, np.zeros(0))
    v = np.ones(mesh.node_count)
    with pytest.raises(ParameterError):
        oracles.mesh_positive_power_integral(mesh, v, 0)
    with pytest.raises(ParameterError):
        oracles.mesh_positive_power_integral(mesh, v, 1.5)
