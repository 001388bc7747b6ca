"""Radial eigenprofiles of the p-Laplacian and the power means built on them.

The central object is the decreasing radial profile Psi(r) solving

    -(p-1) |Psi'|^(p-2) Psi'' - (n-1)/r |Psi'|^(p-2) Psi' = Psi^(p-1),
    Psi(0) = 1,  Psi'(0) = 0,

integrated out to its first zero psi. The first Dirichlet eigenvalue of the
unit ball is then psi^p, and weighted power means of Psi over (0, psi) supply
the constants of the comparison machinery. For p = 2 everything collapses to
Bessel functions, which is what the tests check against.

One integrator serves the whole module: Dormand and Prince's 12-stage,
order-8 Runge-Kutta step DOP853. Hairer's compiled code marches the ODE with
error control and keeps a table of its accepted step starts. Newton
iterates for the zero are DOP853 steps from the last start, and the zero's
own state ends the table; every value of Psi is then one more DOP853 step
from the table point nearest the radius, backward when that point lies
beyond it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np
import scipy.special
from scipy.integrate import DOP853, ode

from .errors import NumericError, ParameterError

#: Largest p accepted: the profile's first zero agrees with an independent
#: RK45 shooting from a first-order start at r = 1e-3 to 6.7e-9 at p = 10,
#: n = 2. That gap is the start's truncation: from r = 1e-6 the same RK45
#: agrees to 1.2e-13.
P_MAX = 10.0
#: Largest dimension n accepted: for 2 <= n <= 32 the first zero agrees with
#: the Bessel zero j_(n/2-1) (p = 2) to 4.1e-14 and with that RK45 shooting
#: (17 p in [2, 10]) to 6.7e-9, 7.1e-12 for n >= 4, and drifts from the
#: Bessel zero beyond: 2.5e-12 at n = 50, 1.9e-9 at n = 100, 1.7e-6 at
#: n = 150.
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
#: Radius where the shooting starts from the series expansion, and below
#: which ``RadialProfile.value`` evaluates that expansion.
_SERIES_R0 = 1e-4
#: Newton iterations allowed for the zero; 3 to 6 reach a step below 1e-15
#: relative over p in [2, P_MAX] and n in [2, N_MAX].
_NEWTON_CAP = 8
#: Butcher tableau of the DOP853 step: stage nodes C, stage weights A and
#: the weights B of the eighth-order solution.
_A, _B, _C = DOP853.A, DOP853.B, DOP853.C


def check_exponent(q: float) -> None:
    """Refuse an exponent of the power means and power checks outside
    (0, Q_MAX]."""
    if not 0.0 < q <= Q_MAX:
        raise ParameterError(f"exponent must lie in (0, {Q_MAX:g}], got {q}")


def omega_n(n: int) -> float:
    """Volume of the unit ball in R^n, pi^(n/2) / Gamma(n/2 + 1)."""
    if n < 1:
        raise ParameterError(f"dimension must be >= 1, got {n}")
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


def classical_constant(n: int) -> float:
    """Isoperimetric constant of full space, n * omega_n^(1/n)."""
    return n * omega_n(n) ** (1.0 / n)


def bessel_first_zero(nu: float) -> float:
    """First positive zero of J_nu by scanning for a bracket, bisection to a
    bracket width of 1e-12, then one Newton step, which squares that error
    to below the rounding of J_nu itself."""
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
    mid = 0.5 * (lo + hi)
    return float(mid - scipy.special.jv(nu, mid) / scipy.special.jvp(nu, mid))


@dataclass(frozen=True)
class RadialProfile:
    """Radial eigenprofile of the p-Laplacian on the ball, up to its zero.

    ``value`` evaluates the solution by one DOP853 step from the table
    point nearest each radius, so a radius near the zero steps back from
    the zero itself and keeps its relative accuracy; integrals of
    t^(n-1) Psi^q over (0, x) all run on one cached panel table.
    """

    p: float
    n: int
    first_zero: float
    #: rows r, Psi, Q of the accepted step starts of the shooting, from the
    #: series start to the last start with Psi > 0, then the zero's own
    #: state (first_zero, 0, Q(first_zero))
    _steps: np.ndarray = field(repr=False)

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
            grid = self._steps[0]
            # k midpoints lie below r, so table point k is the nearest
            k = np.searchsorted(0.5 * (grid[:-1] + grid[1:]), r[mid])
            start, psi, q = self._steps[:, k]
            out[mid] = _dop853_step(_profile_rhs(self.p, self.n), start,
                                    (psi, q), r[mid] - start)[0]
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
        # the zero-width panels' nodes sit on the zero, where log Psi = -inf
        with np.errstate(divide="ignore"):
            logpsi = np.log(self.value(t))
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
        # legvander takes about 0.13 ms even on an empty array, ten times the
        # panel sums, and log_power_mean asks only for the total
        if np.any(inside):
            k = np.searchsorted(edges, x[inside], side="right") - 1
            width = edges[k + 1] - edges[k]
            xi = 2.0 * (x[inside] - edges[k]) / width - 1.0
            share = np.polynomial.legendre.legvander(xi, 16) @ _GL_SHARE
            out[inside] = cum[k] + np.einsum("ij,ij->i", share, terms[k])
        return float(out[0]) if arr.ndim == 0 else out

    def log_power_mean(self, s: float) -> float:
        """log f(s) with f(s) = (n/psi^n int_0^psi t^(n-1) Psi^s dt)^(1/s)."""
        check_exponent(s)
        psi = self.first_zero
        return (math.log(self.n) - self.n * math.log(psi)
                + math.log(self.power_integral(s, psi))) / s

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
    """Flux form of the radial ODE: state (Psi, Q), Q = |Psi'|^(p-2) Psi'.

    x |x|^(s-1) is the signed power sign(x) |x|^s with plain operators, so
    one function takes float states and arrays of states alike. Q < 0 for
    every r > 0, so the negative power |Q|^(1/(p-1) - 1) stays finite.
    """
    a = 1.0 / (p - 1.0) - 1.0
    b = p - 2.0

    def rhs(r, y):
        psi, q = y
        return (q * abs(q) ** a, -psi * abs(psi) ** b - (n - 1.0) / r * q)

    return rhs


def _dop853_step(rhs, r, y, h):
    """The eighth-order DOP853 solution of y' = rhs(r, y) one step h on.

    y is one state, or one state per column with r and h one entry per
    column, so a single call steps every start of a table at once.
    """
    y = np.asarray(y, dtype=float)
    k = np.empty((len(_B),) + y.shape)
    k[0] = rhs(r, y)
    for s in range(1, len(_B)):
        k[s] = rhs(r + _C[s] * h, y + h * np.tensordot(_A[s, :s], k[:s], 1))
    return y + h * np.tensordot(_B, k, 1)


@lru_cache(maxsize=None)
def psi_profile(p: float, n: int) -> RadialProfile:
    """Shoot the radial profile from a series start to its first zero.

    Series start at _SERIES_R0 (second-order expansion). Hairer's compiled
    DOP853 marches out to r = 100 and stops after the first accepted step
    that ends with Psi <= 0; its rtol 1e-13 and atol 1e-14 hold the p = 2
    zeros to the Bessel zeros within 1e-13 relative for every n in
    [2, N_MAX]. Newton on the radius, r -= Psi / Psi' with
    Psi' = -|Q|^(1/(p-1)), then places the zero inside that step; each
    iterate is one DOP853 step from the step's start, and the last one's
    flux Q ends the table as the zero's state (psi, 0, Q).
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
    rhs = _profile_rhs(p, n)
    steps = []

    def record(r, y):
        steps.append((r, *y.tolist()))
        return -1 if y[0] <= 0.0 else 0

    solver = ode(lambda r, y: rhs(r, y.tolist()))
    solver.set_integrator("dop853", rtol=1e-13, atol=1e-14, nsteps=100_000)
    solver.set_solout(record)
    solver.set_initial_value(y0, r0).integrate(100.0)
    *starts, (x, psi_x, q_x) = steps
    if psi_x > 0.0:
        raise NumericError(f"no zero of the radial profile for p={p}, n={n} "
                           f"below r = 100")
    r, psi, q = starts[-1]
    for _ in range(_NEWTON_CAP):
        dx = psi_x / abs(q_x) ** (1.0 / (p - 1.0))
        x += dx
        if abs(dx) <= 1e-15 * x:
            break
        psi_x, q_x = _dop853_step(rhs, r, (psi, q), x - r).tolist()
    else:
        raise NumericError(f"Newton found no zero of the radial profile for "
                           f"p={p}, n={n}")
    return RadialProfile(p=p, n=n, first_zero=x,
                         _steps=np.array(starts + [(x, 0.0, q_x)]).T)


def lambda1_sharp(p: float, n: int, area: float) -> float:
    """Dirichlet eigenvalue of the ball with the given measure."""
    if area <= 0.0:
        raise ParameterError(f"measure must be positive, got {area}")
    return psi_profile(p, n).first_zero ** p * (omega_n(n) / area) ** (p / n)
