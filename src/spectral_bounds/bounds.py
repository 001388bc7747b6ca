"""Closed-form spectral lower bounds and comparison reports.

The registry half of this module knows the relative isoperimetric constant
in closed form for centrally symmetric convex planar domains, where it is
determined by the width; rhombi, rectangles and regular polygons with an
even number of sides all take that one rule. The bound half evaluates the
rearrangement-based lower bound for the first nontrivial Neumann eigenvalue
together with the older bounds it competes against, and aggregates everything
into one p = 2 report per domain against a finite element reference value.

The (domain, level) pipelines behind those reference values run through
SharedSolves, a keyed memo that shared_solves() shares within one scope.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass

from . import fem, geometry, rearrangement, special
from .errors import NumericError, ParameterError
from .geometry import DomainSpec

RULE_SYMMETRIC_WIDTH = "symmetric-convex-width"

# relative slack of the FEM reference values for leftover discretization error
_REPORT_TOL = 1e-2


@dataclass(frozen=True)
class KnEntry:
    """Relative isoperimetric constant of one domain, with the rule used."""

    value: float
    rule: str

    def __post_init__(self) -> None:
        ceiling = special.classical_constant(2)
        if not 0.0 < self.value <= ceiling * (1.0 + 1e-12):
            raise NumericError(
                f"isoperimetric constant {self.value} outside (0, {ceiling}]")


def kn_lookup(spec: DomainSpec) -> KnEntry:
    """Closed-form relative isoperimetric constant of a centrally symmetric
    convex planar domain: the width rule, sqrt(2 w^2 / area).

    On the unit-side rhombus with acute angle 2 pi / m the width and the
    area both equal sin(2 pi / m), so the rule gives sqrt(2 sin(2 pi / m)),
    the value of the cut along a chord of length w across a side pair, not
    of the short diagonal. Anything else has no known constant here:
    computing it would mean solving a shape optimization problem, which is
    out of scope.
    """
    if spec.centrally_symmetric:
        value = math.sqrt(2.0 * spec.width ** 2 / spec.area)
        return KnEntry(value, RULE_SYMMETRIC_WIDTH)
    raise ParameterError(f"no known isoperimetric constant for {spec.label}")


def main_bound(p: float, n: int, K: float, area: float) -> float:
    """Rearrangement lower bound for the first nontrivial Neumann eigenvalue.

    2^(p/n) (K / (n omega_n^(1/n)))^p times the first Dirichlet eigenvalue
    of the ball with the same measure as the domain.
    """
    if K <= 0.0 or area <= 0.0:
        raise ParameterError(f"need K, area > 0, got K={K}, area={area}")
    ratio = K / special.classical_constant(n)
    # the ball eigenvalue checks p before 2^(p/n) can overflow
    ball = special.lambda1_sharp(p, n, area)
    return 2.0 ** (p / n) * ratio ** p * ball


def payne_weinberger(diameter: float) -> float:
    """Diameter bound pi^2 / d^2 (p = 2, convex domains only)."""
    if diameter <= 0.0:
        raise ParameterError(f"diameter must be positive, got {diameter}")
    return math.pi ** 2 / diameter ** 2


def ashbaugh_mercado(p: float, n: int, K: float, area: float) -> float:
    """Older isoperimetric bound 2^(p/n) (n/(p(n-1)))^p K^p / area^(p/n)."""
    if p < 2.0:
        raise ParameterError(f"bound requires p >= 2, got p={p}")
    if K <= 0.0 or area <= 0.0:
        raise ParameterError(f"need K, area > 0, got K={K}, area={area}")
    factor = n / (p * (n - 1.0))
    return 2.0 ** (p / n) * factor ** p * K ** p / area ** (p / n)


def bct_corollary(n: int, K: float, area: float) -> float:
    """Older p = 2 bound built from a one-parameter power-mean supremum.

    With k(q) = log int_0^psi t^(n-1) Psi^q dt and f the power mean of the
    radial ball profile, the log of (f(1)/f(q))^(2q/(n(q-1))) is
    (2/n) (log f(1) - (k(q) - k(1))/(q - 1)). k is convex (Holder), so the
    secant slope grows with q and the term falls: the supremum over q > 1
    is the q -> 1 limit, with k'(1) from RadialProfile.log_integral_slope.
    """
    if K <= 0.0 or area <= 0.0:
        raise ParameterError(f"need K, area > 0, got K={K}, area={area}")
    profile = special.psi_profile(2.0, n)
    best = 2.0 / n * (profile.log_power_mean(1.0)
                      - profile.log_integral_slope())
    alpha = (K / special.classical_constant(n)) ** 2
    j = special.bessel_first_zero(n / 2.0 - 1.0)
    scale = 2.0 ** (2.0 / n) * alpha * j * j
    return scale * math.exp(best) / (area / special.omega_n(n)) ** (2.0 / n)


def symmetric_planar_bound(width: float, area: float) -> float:
    """Width bound j_{0,1}^2 w^2 / area^2 for centrally symmetric convex
    planar domains (p = 2)."""
    if width <= 0.0 or area <= 0.0:
        raise ParameterError(f"need width, area > 0, got w={width}, area={area}")
    j0 = special.bessel_first_zero(0.0)
    return j0 * j0 * width ** 2 / area ** 2


def lower_bounds(spec: DomainSpec, p: float) -> dict[str, float]:
    """Every closed-form lower bound that applies to one domain at p, by name.

    The main and Ashbaugh-Mercado bounds hold for every p >= 2; the others
    are p = 2 bounds. All three domain families here are convex, so the
    diameter bound applies whenever p = 2; the width bound additionally
    needs central symmetry, which kn_lookup already enforces.
    """
    K = kn_lookup(spec).value
    area = spec.area
    values = {"main": main_bound(p, 2, K, area),
              "ashbaugh_mercado": ashbaugh_mercado(p, 2, K, area)}
    if p == 2.0:
        values["payne_weinberger"] = payne_weinberger(spec.diameter)
        values["bct_corollary"] = bct_corollary(2, K, area)
        values["symmetric_planar"] = symmetric_planar_bound(spec.width, area)
    return values


class SharedSolves:
    """Keyed memo of the deterministic (domain, level) pipelines.

    Each key is computed at most once per instance. A level-L mesh is
    always geometry.refine of the memoized level-(L-1) mesh, so what a key
    computes does not depend on which caller asks first, and a chain costs
    the mesh work of one triangulate call. A key whose computation fails
    keeps its exception, which re-raises on every later call for the key.
    An instance is not locked: it belongs to one thread.
    """

    def __init__(self) -> None:
        self._values: dict[tuple, object] = {}
        self._errors: dict[tuple, Exception] = {}

    def _once(self, key: tuple, compute):
        if key in self._errors:
            raise self._errors[key]
        if key not in self._values:
            try:
                self._values[key] = compute()
            except Exception as ex:
                self._errors[key] = ex
                raise
        return self._values[key]

    def mesh(self, spec: DomainSpec, level: int) -> geometry.Mesh:
        """Level ``level`` of the chain of spec's base mesh; triangulate
        refuses level < 0."""
        def build():
            if level <= 0:
                return geometry.triangulate(spec, level)
            return geometry.refine(self.mesh(spec, level - 1))

        return self._once(("mesh", spec, level), build)

    def neumann(self, spec: DomainSpec, level: int) -> fem.EigenPair:
        return self._once(("neumann", spec, level), lambda: (
            fem.solve_neumann_mu1(self.mesh(spec, level))))

    def profile(self, spec: DomainSpec, level: int):
        """Oriented rearrangement of the Neumann eigenvector of (spec, level)."""
        return self._once(("profile", spec, level), lambda: (
            rearrangement.rearrange_oriented(self.mesh(spec, level),
                                             self.neumann(spec, level).vector)))


_SCOPE: ContextVar[SharedSolves | None] = ContextVar("shared_solves",
                                                     default=None)


@contextmanager
def shared_solves():
    """Open a shared-solve scope, or join the one already open, and yield
    its SharedSolves; the memo is dropped when the outermost scope closes.

    The scope is a context variable of the thread that opens it, and its
    memo is not locked: use a scope from that one thread only.
    """
    solves = _SCOPE.get()
    if solves is not None:
        yield solves
        return
    solves = SharedSolves()
    token = _SCOPE.set(solves)
    try:
        yield solves
    finally:
        _SCOPE.reset(token)


def _extrapolated_mu1(spec: DomainSpec, level: int) -> float:
    """Richardson value of the Neumann pairs at level - 1 and level."""
    if level < 1:
        raise ParameterError(f"level must be >= 1, got {level}")
    with shared_solves() as solves:
        return fem.richardson(solves.neumann(spec, level - 1).value,
                              solves.neumann(spec, level).value)


def compare_report(spec: DomainSpec,
                   level: int = 5) -> tuple[float, dict[str, float]]:
    """Every p = 2 lower bound of one domain (lower_bounds), against mu1.

    Returns (mu1, bounds): mu1 is the Richardson value of the Neumann
    eigenvalues at two consecutive refinements, and bounds maps each name
    to its value. Every bound is required to sit below mu1 with
    _REPORT_TOL relative slack.
    """
    values = lower_bounds(spec, 2.0)
    mu1 = _extrapolated_mu1(spec, level)
    for name, value in values.items():
        if value > mu1 * (1.0 + _REPORT_TOL):
            raise NumericError(
                f"lower bound {name} = {value:.6g} exceeds "
                f"reference mu1 = {mu1:.6g} on {spec.label}")
    return mu1, values


@dataclass(frozen=True)
class SharpnessSample:
    """One row of the degenerating-rhombus study: mu1, its sharpness ratio
    and its closed-form sandwich [lower, upper]."""

    mu1: float
    ratio: float
    lower: float
    upper: float
    ok: bool


def rhombus_sharpness(m: int, level: int = 5) -> SharpnessSample:
    """Richardson mu1 of the unit-side rhombus with acute angle 2 pi / m,
    its sharpness ratio and the sandwich j_{0,1}^2 <= mu1 <= j_{0,1}^2 /
    cos^2(pi / m).

    The ratio is 2 mu1 / main: mu1 over the main bound without its factor
    2^(p/n) = 2. It decreases toward 2 as the rhombus degenerates, which is
    exactly the factor the main bound cannot improve.

    The lower end is the paper's bound: width and area of the rhombus both
    equal sin(2 pi / m), so main is j_{0,1}^2 on every rhombus. The upper
    end is the Rayleigh quotient of a test function: the disc profile
    J_0(j_{0,1} r / c) on the sector of radius c = cos(pi / m) inscribed at
    an acute vertex, zero on the rest of that half of the rhombus, and
    extended oddly across the short diagonal, which gives it zero mean.
    Neither end comes from domain monotonicity. ok compares mu1 with both
    ends at _REPORT_TOL relative slack.
    """
    spec = geometry.make_rhombus(m)
    mu1 = _extrapolated_mu1(spec, level)
    main = main_bound(2.0, 2, kn_lookup(spec).value, spec.area)
    j0 = special.bessel_first_zero(0.0)
    lower = j0 * j0
    upper = lower / math.cos(math.pi / m) ** 2
    ok = bool(lower * (1.0 - _REPORT_TOL) <= mu1
              <= upper * (1.0 + _REPORT_TOL))
    return SharpnessSample(mu1, 2.0 * mu1 / main, lower, upper, ok)
