"""Radial eigenprofiles of the p-Laplacian and the power means built on them.

The central object is the decreasing radial profile Psi(r) solving

    -(p-1) |Psi'|^(p-2) Psi'' - (n-1)/r |Psi'|^(p-2) Psi' = Psi^(p-1),
    Psi(0) = 1,  Psi'(0) = 0,

integrated out to its first zero psi. The first Dirichlet eigenvalue of the
unit ball is then psi^p, and weighted power means of Psi over (0, psi) supply
the constants of the comparison machinery. For p = 2 everything collapses to
Bessel functions, which is what the tests check against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np
import scipy.special
from scipy.integrate import solve_ivp

from .errors import NumericError, ParameterError

#: Largest p accepted: the profile's first zero agrees with an independent
#: RK45 shooting to 7e-9 at p = 10, n = 2, and drifts apart beyond.
P_MAX = 10.0
#: Largest dimension n accepted: for 2 <= n <= 32 the first zero agrees with
#: the Bessel zero j_(n/2-1) (p = 2) and with an independent RK45 shooting
#: (17 p in [2, 10]) to 2.3e-9, and drifts apart beyond: 1.2e-8 at n = 39,
#: 4e-6 at n = 100, 5% at n = 150.
N_MAX = 32
#: Largest exponent q accepted by the power means and by the cumulative
#: power checks; past it (u+)^q of a discrete eigenfunction can overflow.
Q_MAX = 50.0

#: 16-point Gauss-Legendre nodes and weights on [-1, 1].
GL_NODES, GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
#: legvander(xi, 16) @ _GL_SHARE gives, per node, the share of its weighted
#: value w_j f_j that the degree-15 interpolant of f puts on [-1, xi].
_GL_SHARE = np.polynomial.legendre.legint(
    (np.arange(16) + 0.5)[:, None]
    * np.polynomial.legendre.legvander(GL_NODES, 15).T, lbnd=-1.0, axis=0)
_BULK_PANELS = 32
_TAIL_PANELS = 60
#: Distance from the zero (relative to psi) below which the local Taylor
#: model replaces the ODE interpolant when evaluating log Psi.
_TAIL_MODEL_CUT = 1e-6
#: Radius where the shooting starts from the series expansion, and below
#: which ``RadialProfile.value`` evaluates that expansion.
_SERIES_R0 = 1e-4


def omega_n(n: int) -> float:
    """Volume of the unit ball in R^n, pi^(n/2) / Gamma(n/2 + 1)."""
    if n < 1:
        raise ParameterError(f"dimension must be >= 1, got {n}")
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


def classical_constant(n: int) -> float:
    """Isoperimetric constant of full space, n * omega_n^(1/n)."""
    return n * omega_n(n) ** (1.0 / n)


def bessel_first_zero(nu: float) -> float:
    """First positive zero of J_nu by scanning for a bracket, then bisection
    to a bracket width of 1e-12."""
    if nu < 0:
        raise ParameterError(f"order must be >= 0, got {nu}")
    lo = max(nu, 0.5)
    flo = scipy.special.jv(nu, lo)
    if flo <= 0.0:
        # The scan start is left of the first zero for every nu >= 0; a
        # non-positive value here means the bracket assumption broke down.
        raise NumericError(f"unexpected sign of J_{nu} at scan start {lo}")
    step = 0.5
    hi = lo + step
    for _ in range(10_000):
        fhi = scipy.special.jv(nu, hi)
        if fhi <= 0.0:
            break
        lo, flo = hi, fhi
        hi += step
    else:
        raise NumericError(f"no sign change of J_{nu} found up to x = {hi}")
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if scipy.special.jv(nu, mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class RadialProfile:
    """Radial eigenprofile of the p-Laplacian on the ball, up to its zero.

    ``value`` evaluates the continuous solution; integrals of
    t^(n-1) Psi^q over (0, x) all run on one cached panel table.
    """

    p: float
    n: int
    first_zero: float
    _dense: object = field(repr=False)
    _slope_at_zero: float = field(repr=False)

    def value(self, r):
        """Evaluate Psi at radii in [0, first_zero] (0 beyond the zero); a
        float for a 0-d input, else an array of the input's shape."""
        arr = np.asarray(r, dtype=float)
        r = np.atleast_1d(arr)
        out = np.zeros_like(r)
        kappa, c, c2 = _series_coefficients(self.p, self.n)
        near = r < _SERIES_R0
        out[near] = 1.0 - c * r[near] ** kappa + c2 * r[near] ** (2.0 * kappa)
        mid = (~near) & (r <= self.first_zero)
        if np.any(mid):
            out[mid] = self._dense(r[mid])[0]
        return float(out[0]) if arr.ndim == 0 else out

    # -- radial power integrals ----------------------------------------------

    @cached_property
    def _panels(self):
        """Gauss-Legendre panels for int t^(n-1) Psi^s dt, uniform in s.

        Panels cover [0, psi/2] evenly; dyadic panels then halve toward the
        zero so the (psi - t)^s endpoint factor is resolved for every s at
        once; past about 52 halvings psi - psi/2^k rounds to psi, so the last
        panels have zero width. Returns (edges, base, logpsi), base = w
        t^(n-1), the node arrays holding one row per panel.
        """
        psi = self.first_zero
        edges = np.concatenate([
            np.arange(_BULK_PANELS + 1) * psi / (2 * _BULK_PANELS),
            psi - psi / 2.0 ** np.arange(2, _TAIL_PANELS + 2)])
        half = (0.5 * (edges[1:] - edges[:-1]))[:, None]
        t = (0.5 * (edges[:-1] + edges[1:]))[:, None] + half * GL_NODES
        w = half * GL_WEIGHTS
        u = psi - t
        deep = u < _TAIL_MODEL_CUT * psi
        logpsi = np.empty_like(t)
        vals = self.value(t[~deep])
        logpsi[~deep] = np.log(vals)
        # Near the zero the interpolant loses relative accuracy, but
        # Psi(psi - u) = a u (1 + b u + O(u^2)) with coefficients fixed by the
        # ODE at the zero, so switch to that model.
        a = self._slope_at_zero
        b = (self.n - 1.0) / (2.0 * (self.p - 1.0) * psi)
        with np.errstate(divide="ignore"):
            logpsi[deep] = (math.log(a) + np.log(u[deep])
                            + np.log1p(b * u[deep]))
        return edges, w * t ** (self.n - 1), logpsi

    def power_integral(self, q: float, x):
        """int_0^x t^(n-1) Psi^q dt, vectorized over x; 0 for x <= 0.

        Whole panels below x come from cumulative panel sums. The panel
        holding x integrates the degree-15 Legendre interpolant of its 16
        node values from its left edge to x, so Psi is not evaluated again.
        """
        if not q > 0.0:
            raise ParameterError(f"exponent must be positive, got {q}")
        edges, base, logpsi = self._panels
        terms = base * np.exp(q * logpsi)
        cum = np.concatenate([[0.0], np.cumsum(terms.sum(axis=1))])
        arr = np.asarray(x, dtype=float)
        x = np.atleast_1d(arr)
        out = np.where(x > 0.0, cum[-1], 0.0)
        # 0 < x < psi gives edges[k] <= x < edges[k+1], a panel of nonzero width
        inside = (x > 0.0) & (x < edges[-1])
        k = np.searchsorted(edges, x[inside], side="right") - 1
        xi = 2.0 * (x[inside] - edges[k]) / (edges[k + 1] - edges[k]) - 1.0
        share = np.polynomial.legendre.legvander(xi, 16) @ _GL_SHARE
        out[inside] = cum[k] + np.einsum("ij,ij->i", share, terms[k])
        return float(out[0]) if arr.ndim == 0 else out

    def log_power_mean(self, s: float) -> float:
        """log f(s) with f(s) = (n/psi^n int_0^psi t^(n-1) Psi^s dt)^(1/s)."""
        if not 0.0 < s <= Q_MAX:
            raise ParameterError(
                f"exponent must lie in (0, {Q_MAX:g}], got {s}")
        _, base, logpsi = self._panels
        integral = float(base.ravel() @ np.exp(s * logpsi.ravel()))
        return (math.log(self.n) - self.n * math.log(self.first_zero)
                + math.log(integral)) / s

    def log_integral_slope(self) -> float:
        """k'(1) for k(q) = log int_0^psi t^(n-1) Psi^q dt: the mean of
        log Psi under the weight t^(n-1) Psi.

        Nodes where Psi rounds to 0 (log Psi = -inf, at and past the zero)
        carry Psi log Psi = 0 and are left out of the sums.
        """
        _, base, logpsi = self._panels
        live = np.isfinite(logpsi)
        weight = base[live] * np.exp(logpsi[live])
        return float(weight @ logpsi[live] / weight.sum())


def _series_coefficients(p: float, n: int) -> tuple[float, float, float]:
    """(kappa, c, c2) of the start expansion 1 - c r^kappa + c2 r^(2 kappa)."""
    kappa = p / (p - 1.0)
    c = (p - 1.0) / p * n ** (-1.0 / (p - 1.0))
    c2 = c * c * n / (2.0 * (n + kappa))
    return kappa, c, c2


def _profile_rhs(p: float, n: int):
    """Flux form of the radial ODE: state (Psi, Q), Q = |Psi'|^(p-2) Psi'."""
    a = 1.0 / (p - 1.0)

    def rhs(r, y):
        psi, q = y
        dpsi = math.copysign(abs(q) ** a, q)
        dq = -math.copysign(abs(psi) ** (p - 1.0), psi) - (n - 1.0) / r * q
        return (dpsi, dq)

    return rhs


@lru_cache(maxsize=None)
def psi_profile(p: float, n: int) -> RadialProfile:
    """Shoot the radial profile from a series start to its first zero.

    Series start at _SERIES_R0 (second-order expansion), DOP853 with
    rtol 1e-11, first zero located by a terminal event on the dense output.
    """
    p = float(p)
    if not 2.0 <= p <= P_MAX:
        raise ParameterError(f"p must lie in [2, {P_MAX:g}], got {p}")
    if not 2 <= n <= N_MAX:
        raise ParameterError(f"dimension n must lie in [2, {N_MAX}], got {n}")
    kappa, c, c2 = _series_coefficients(p, n)
    q1 = (p - 1.0) * c / (n + kappa)
    r0 = _SERIES_R0
    y0 = (1.0 - c * r0 ** kappa + c2 * r0 ** (2.0 * kappa),
          -r0 / n + q1 * r0 ** (1.0 + kappa))

    def crossing(r, y):
        return y[0]

    crossing.terminal = True
    crossing.direction = -1
    sol = solve_ivp(_profile_rhs(p, n), (r0, 100.0), y0, method="DOP853",
                    rtol=1e-11, atol=1e-12, events=crossing, dense_output=True)
    if not sol.t_events[0].size:
        raise NumericError(f"no zero of the radial profile for p={p}, n={n} "
                           f"below r = 100")
    first_zero = float(sol.t_events[0][0])
    q_at_zero = float(sol.y_events[0][0][1])
    slope = -math.copysign(abs(q_at_zero) ** (1.0 / (p - 1.0)), q_at_zero)
    return RadialProfile(p=p, n=n, first_zero=first_zero, _dense=sol.sol,
                         _slope_at_zero=slope)


def lambda1_sharp(p: float, n: int, area: float) -> float:
    """Dirichlet eigenvalue of the ball with the given measure."""
    if area <= 0.0:
        raise ParameterError(f"measure must be positive, got {area}")
    return psi_profile(p, n).first_zero ** p * (omega_n(n) / area) ** (p / n)
