"""Radial eigenprofiles of the p-Laplacian and the power means built on them.

The central object is the decreasing radial profile Psi(r) solving

    -(p-1) |Psi'|^(p-2) Psi'' - (n-1)/r |Psi'|^(p-2) Psi' = Psi^(p-1),
    Psi(0) = 1,  Psi'(0) = 0,

integrated out to its first zero psi. The first Dirichlet eigenvalue of the
unit ball is then psi^p, and weighted power means of Psi over (0, psi) supply
the constants of the comparison machinery. For p = 2 everything collapses to
Bessel functions, which is what the tests check against.

One step routine serves the whole module: Dormand and Prince's 12-stage,
order-8 Runge-Kutta step DOP853, from one tableau held here, for a float
state or arrays of states alike. A march with the step control of scipy's
C port of Hairer's code, the same to the bit as scipy 1.17's compiled
``ode("dop853")``, takes these steps with error control and keeps a table
of its accepted step starts. Newton iterates for the zero are the same
step from the last start, and the zero's own state ends the table; every
value of Psi is then one more such step from the table point nearest the
radius, backward when that point lies beyond it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np
import scipy.special

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
#: Tolerances and step cap of the shooting march. On the grid p = 2, 2.1,
#: ..., 10 by n = 2, ..., 32 the longest march takes 823 steps, 812 of them
#: accepted.
_RTOL, _ATOL = 1e-13, 1e-14
_STEP_CAP = 100_000

#: Hairer's DOP853 tableau (Hairer, Norsett & Wanner, Solving Ordinary
#: Differential Equations I, II.10), as the decimal literals of his code:
#: the stage nodes _C; per stage, its nonzero weights as (earlier stage,
#: weight) pairs; and (stage, weight of the eighth-order solution, weight
#: of the fifth-order error) triples. The third-order error is the
#: eighth-order slope less the _BHH multiples of stages 1, 9 and 12.
_C = (
    0.0, 0.526001519587677318785587544488e-01,
    0.789002279381515978178381316732e-01, 0.118350341907227396726757197510,
    0.281649658092772603273242802490, 0.333333333333333333333333333333,
    0.25, 0.307692307692307692307692307692, 0.651282051282051282051282051282,
    0.6, 0.857142857142857142857142857142, 1.0)
_A_ROWS = (
    (),
    ((0, 5.26001519587677318785587544488e-2),),
    ((0, 1.97250569845378994544595329183e-2),
     (1, 5.91751709536136983633785987549e-2)),
    ((0, 2.95875854768068491816892993775e-2),
     (2, 8.87627564304205475450678981324e-2)),
    ((0, 2.41365134159266685502369798665e-1),
     (2, -8.84549479328286085344864962717e-1),
     (3, 9.24834003261792003115737966543e-1)),
    ((0, 3.7037037037037037037037037037e-2),
     (3, 1.70828608729473871279604482173e-1),
     (4, 1.25467687566822425016691814123e-1)),
    ((0, 3.7109375e-2), (3, 1.70252211019544039314978060272e-1),
     (4, 6.02165389804559606850219397283e-2), (5, -1.7578125e-2)),
    ((0, 3.70920001185047927108779319836e-2),
     (3, 1.70383925712239993810214054705e-1),
     (4, 1.07262030446373284651809199168e-1),
     (5, -1.53194377486244017527936158236e-2),
     (6, 8.27378916381402288758473766002e-3)),
    ((0, 6.24110958716075717114429577812e-1),
     (3, -3.36089262944694129406857109825),
     (4, -8.68219346841726006818189891453e-1),
     (5, 2.75920996994467083049415600797e1),
     (6, 2.01540675504778934086186788979e1),
     (7, -4.34898841810699588477366255144e1)),
    ((0, 4.77662536438264365890433908527e-1),
     (3, -2.48811461997166764192642586468),
     (4, -5.90290826836842996371446475743e-1),
     (5, 2.12300514481811942347288949897e1),
     (6, 1.52792336328824235832596922938e1),
     (7, -3.32882109689848629194453265587e1),
     (8, -2.03312017085086261358222928593e-2)),
    ((0, -9.3714243008598732571704021658e-1),
     (3, 5.18637242884406370830023853209),
     (4, 1.09143734899672957818500254654),
     (5, -8.14978701074692612513997267357),
     (6, -1.85200656599969598641566180701e1),
     (7, 2.27394870993505042818970056734e1),
     (8, 2.49360555267965238987089396762),
     (9, -3.0467644718982195003823669022)),
    ((0, 2.27331014751653820792359768449),
     (3, -1.05344954667372501984066689879e1),
     (4, -2.00087205822486249909675718444),
     (5, -1.79589318631187989172765950534e1),
     (6, 2.79488845294199600508499808837e1),
     (7, -2.85899827713502369474065508674),
     (8, -8.87285693353062954433549289258),
     (9, 1.23605671757943030647266201528e1),
     (10, 6.43392746015763530355970484046e-1)))
_B_ROW = (
    (0, 5.42937341165687622380535766363e-2,
     0.1312004499419488073250102996e-1),
    (5, 4.45031289275240888144113950566,
     -0.1225156446376204440720569753e+1),
    (6, 1.89151789931450038304281599044,
     -0.4957589496572501915214079952),
    (7, -5.8012039600105847814672114227,
     0.1664377182454986536961530415e+1),
    (8, 3.1116436695781989440891606237e-1,
     -0.3503288487499736816886487290),
    (9, -1.52160949662516078556178806805e-1,
     0.3341791187130174790297318841),
    (10, 2.01365400804030348374776537501e-1,
     0.8192320648511571246570742613e-1),
    (11, 4.47106157277725905176885569043e-2,
     -0.2235530786388629525884427845e-1))
_BHH = (0.244094488188976377952755905512, 0.733846688281611857341361741547,
        0.220588235294117647058823529412e-1)
#: the same rows regrouped once for the step: stage 2's one weight, then
#: stages 3 to 12 as (stage, node, first (stage, weight) pair, the rest)
(_, _A21), = _A_ROWS[1]
_STAGES = tuple((s, _C[s], row[0], row[1:])
                for s, row in enumerate(_A_ROWS[2:], 2))
_B_FIRST, *_B_REST = _B_ROW


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
                                    psi, q, r[mid] - start)[0][0]
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


def _dop853_step(rhs, r, psi, q, h):
    """One DOP853 step of y' = rhs(r, y), y = (Psi, Q), from r to r + h.

    Returns the eighth-order (Psi, Q) at r + h and the (Psi, Q) numerators
    of the third- and fifth-order error estimates. Every sum runs left to
    right over the nonzero weights; stage 2 alone scales its weight by h
    first. One float state (the march, Newton) and arrays of states with
    r and h one entry each (``RadialProfile.value``) share this code, and
    agree only to rounding: numpy's array power and Python's float power
    can differ in the last bit.
    """
    kp, kq = [0.0] * len(_C), [0.0] * len(_C)
    kp[0], kq[0] = rhs(r, (psi, q))
    ha = h * _A21
    kp[1], kq[1] = rhs(r + _C[1] * h, (psi + ha * kp[0], q + ha * kq[0]))
    for s, c, (j, a), rest in _STAGES:
        s_p, s_q = a * kp[j], a * kq[j]
        for j, a in rest:
            s_p += a * kp[j]
            s_q += a * kq[j]
        kp[s], kq[s] = rhs(r + c * h, (psi + h * s_p, q + h * s_q))
    j, b, e = _B_FIRST
    b_p, b_q, e_p, e_q = b * kp[j], b * kq[j], e * kp[j], e * kq[j]
    for j, b, e in _B_REST:
        b_p += b * kp[j]
        b_q += b * kq[j]
        e_p += e * kp[j]
        e_q += e * kq[j]
    bhh1, bhh2, bhh3 = _BHH
    return ((psi + h * b_p, q + h * b_q),
            (b_p - bhh1 * kp[0] - bhh2 * kp[8] - bhh3 * kp[11],
             b_q - bhh1 * kq[0] - bhh2 * kq[8] - bhh3 * kq[11]),
            (e_p, e_q))


def _march(rhs, r, y, r_end):
    """March y' = rhs(r, y), y = (Psi, Q), from r toward r_end with DOP853.

    Returns the rows (r, Psi, Q) of the start and of every accepted step,
    up to the first step that ends with Psi <= 0, or at r_end. This is the
    driver of scipy's C port of Hairer's DOP853 code for a two-component
    state, each sum taken left to right in the code's order, so the rows
    are those of scipy 1.17's compiled ``ode("dop853")`` to the bit:
    Hairer's initial step guess, his mixed third/fifth-order error norm, an
    accepted step followed by h / f with f = err^(1/8) / 0.9 held to
    [1/6, 1/0.3], a rejected step divided by 1/0.3 whatever its error, the
    derivative at each step start evaluated anew as the step's first
    stage, and a last step stretched to r_end. The rejection rule is the
    port's: Hairer's Fortran, which older scipy releases wrap, divides by
    min(1/0.3, err^(1/8) / 0.9), and h * 0.3 moves the bits too. Stiffness
    detection, which first runs at 1000 accepted steps, is left out.

    Raises NumericError at _STEP_CAP steps, or when a step shrinks below
    the rounding of r.
    """
    psi, q = y
    rows = [(r, psi, q)]
    h_max = r_end - r
    k1p, k1q = rhs(r, y)
    # first step: a hundredth of |y|/|y'|, then the step at which an
    # eighth-order error with an Euler estimate of y'' reaches 0.01
    sk_p, sk_q = _ATOL + _RTOL * abs(psi), _ATOL + _RTOL * abs(q)
    d_p, d_q = k1p / sk_p, k1q / sk_q
    dnf = d_p * d_p + d_q * d_q
    d_p, d_q = psi / sk_p, q / sk_q
    dny = d_p * d_p + d_q * d_q
    h = 1e-6 if dnf <= 1e-10 or dny <= 1e-10 else math.sqrt(dny / dnf) * 0.01
    h = min(h, h_max)
    f_p, f_q = rhs(r + h, (psi + h * k1p, q + h * k1q))
    d_p, d_q = (f_p - k1p) / sk_p, (f_q - k1q) / sk_q
    der2 = math.sqrt(d_p * d_p + d_q * d_q) / h
    der12 = max(abs(der2), math.sqrt(dnf))
    h1 = max(1e-6, h * 1e-3) if der12 <= 1e-15 else (0.01 / der12) ** 0.125
    h = min(100 * h, h1, h_max)
    rejected = last = False
    for _ in range(_STEP_CAP):
        if 0.1 * h <= abs(r) * 2.3e-16:
            raise NumericError(f"the DOP853 march of the radial profile "
                               f"lost its step size to rounding at "
                               f"r = {r:.12g}")
        if r + 1.01 * h - r_end > 0.0:
            h = r_end - r
            last = True
        (new_psi, new_q), (e3_p, e3_q), (e5_p, e5_q) = _dop853_step(
            rhs, r, psi, q, h)
        sk_p = _ATOL + _RTOL * max(abs(psi), abs(new_psi))
        sk_q = _ATOL + _RTOL * max(abs(q), abs(new_q))
        d_p, d_q = e3_p / sk_p, e3_q / sk_q
        err3 = d_p * d_p + d_q * d_q
        d_p, d_q = e5_p / sk_p, e5_q / sk_q
        err5 = d_p * d_p + d_q * d_q
        deno = err5 + 0.01 * err3
        if deno <= 0.0:
            deno = 1.0
        err = h * err5 * math.sqrt(1.0 / (2 * deno))
        # a NaN error rejects the step, as in Hairer's code
        if err <= 1.0:
            h_new = h / max(1 / 6.0, min(1 / 0.3, err ** 0.125 / 0.9))
            r = r + h
            psi, q = new_psi, new_q
            rows.append((r, psi, q))
            if psi <= 0.0 or last:
                return rows
            h_new = min(h_new, h_max)
            if rejected:
                h_new = min(h_new, h)
            rejected = False
        else:
            h_new = h / (1 / 0.3)
            rejected = True
            last = False
        h = h_new
    raise NumericError(f"the DOP853 march of the radial profile reached its "
                       f"cap of {_STEP_CAP} steps at r = {r:.12g}")


@lru_cache(maxsize=None)
def psi_profile(p: float, n: int) -> RadialProfile:
    """Shoot the radial profile from a series start to its first zero.

    Series start at _SERIES_R0 (second-order expansion). The DOP853 march
    (``_march``, the step control of scipy's C port) heads for r = 100
    and stops after the first accepted step that ends with Psi <= 0; its
    rtol 1e-13 and atol 1e-14 hold the p = 2 zeros to the Bessel zeros
    within 1e-13 relative for every n in [2, N_MAX]. Newton on the radius,
    r -= Psi / Psi' with Psi' = -|Q|^(1/(p-1)), then places the zero inside
    that step; each iterate is one DOP853 step from the step's start, and
    the last one's flux Q ends the table as the zero's state (psi, 0, Q).
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
    *starts, (x, psi_x, q_x) = _march(rhs, r0, y0, 100.0)
    if psi_x > 0.0:
        raise NumericError(f"no zero of the radial profile for p={p}, n={n} "
                           f"below r = 100")
    r, psi, q = starts[-1]
    for _ in range(_NEWTON_CAP):
        dx = psi_x / abs(q_x) ** (1.0 / (p - 1.0))
        x += dx
        if abs(dx) <= 1e-15 * x:
            break
        (psi_x, q_x), _, _ = _dop853_step(rhs, r, psi, q, x - r)
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
