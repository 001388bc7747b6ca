"""Decreasing rearrangement of piecewise-linear mesh functions.

The distribution function of a P1 function is piecewise quadratic in the
level t: slicing a triangle's linear interpolant at level t cuts off a
corner whose area is quadratic in t. Those per-element quadratics are
assembled exactly over the sorted nodal values, so Cavalieri's principle
and the L^q identities hold to roundoff rather than sampling error.

Pieces are stored in a locally anchored form (value, slope, curvature at
the left break): near-degenerate elements produce curvatures of order
1/gap^2 that cancel globally, and a monomial representation would lose
them to rounding. Accumulations that mix those scales split every term
error-free, so the huge terms cancel exactly. Exactly flat elements
contribute atoms of the level measure, which become plateaus of the
rearranged profile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .errors import NumericError, ParameterError
from .geometry import Mesh, element_areas
from .special import (check_exponent, classical_constant, omega_n,
                      psi_profile)

CHECK_TOL = 1e-3
_CHITI_GRID = 2048


def _binned_cumsum(index: np.ndarray, terms: np.ndarray,
                   size: int) -> np.ndarray:
    """out[k] = sum of the terms whose index is <= k, for k < size.

    Near-tied breaks give terms of order 1/gap^2 that cancel once their
    element is passed; plain sums would leave eps * |term| of each behind
    on every later piece. So each of two passes splits the terms error-free
    into high parts on the grid of ulp(sigma), sigma >= 2 len(terms)
    max|term|, where every sum of high parts is exact in any order, and low
    parts below ulp(sigma) (Rump, Ogita & Oishi, "Accurate floating-point
    summation", 2008). Only the final low parts, below (2 len(terms)
    eps)^2 max|term|, are summed with rounding.
    """
    terms = np.asarray(terms, dtype=float)
    out = np.zeros(size)
    for _ in range(2):
        top = float(np.max(np.abs(terms), initial=0.0))
        if top == 0.0:
            return out
        sigma = 2.0 ** math.ceil(math.log2(2.0 * len(terms) * top))
        high = (sigma + terms) - sigma
        out += np.cumsum(np.bincount(index, high, size))
        terms = terms - high
    return out + np.cumsum(np.bincount(index, terms, size))


def _power_diff(lo: np.ndarray, hi: np.ndarray, e: float) -> np.ndarray:
    """hi**e - lo**e for 0 <= lo <= hi, accurate when hi - lo is tiny.

    Where hi >= 2 lo, lo**e is at most 2**-e hi**e and the direct
    difference has no cancellation to lose; it also stays finite where lo**e
    underflows while (hi/lo)**e overflows. Only closer pairs take the
    expm1 form.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    out = hi ** e - lo ** e
    near = hi < 2.0 * lo
    out[near] = lo[near] ** e * np.expm1(e * np.log1p((hi[near] - lo[near])
                                                      / lo[near]))
    return out


@dataclass(frozen=True)
class _PieceData:
    """Distribution function between consecutive nodal values.

    m(t) = values[k] + slopes[k] (t - breaks[k]) + curvatures[k]
    (t - breaks[k])^2 on [breaks[k], breaks[k+1]); the last piece, from the
    top break on, is m = 0. atoms[k] is the jump of m down onto values[k]
    at breaks[k] (mass of flat elements).

    Two invariants let the lookups go unclamped: breaks[0] is the least
    nodal value (snapping keeps it), so a corner value's piece index lies
    in [0, len(breaks) - 1]; and values[-1] = 0, so every s > 0 finds a
    piece whose value is at most s.
    """

    breaks: np.ndarray
    values: np.ndarray
    slopes: np.ndarray
    curvatures: np.ndarray
    atoms: np.ndarray

    def power_integrals(self, k, lo, hi, q: float) -> np.ndarray:
        """Integral of t^q (-m'(t)) dt over [lo, hi] inside piece k, for
        0 <= lo <= hi.

        Grouped so that the huge-curvature pieces cancel in a stable way:
        the slope and curvature factors multiply accurate power
        differences of the (tiny) piece widths.
        """
        d1 = _power_diff(lo, hi, q + 1.0) / (q + 1.0)
        d2 = _power_diff(lo, hi, q + 2.0) / (q + 2.0)
        return -(self.slopes[k] * d1
                 + 2.0 * self.curvatures[k] * (d2 - self.breaks[k] * d1))


def _snap_breaks(unique_vals: np.ndarray) -> np.ndarray:
    """Merge breaks closer than a few ulp of the value range.

    Symmetric meshes produce nodal values that agree up to 1-2 ulp across
    copies of a node orbit; left as distinct breaks they create pieces of
    width ~1e-16 whose curvature 1/gap^2 is beyond what _binned_cumsum
    can cancel. Snapping them to one representative turns
    those elements into exact ties, which the assembly handles discretely.
    """
    scale = max(abs(unique_vals[0]), abs(unique_vals[-1]))
    snap = 64.0 * np.finfo(float).eps * scale
    near = np.diff(unique_vals) <= snap
    keep = np.concatenate([[True], ~near])
    # a lone near-tie merges into the value below; only runs of two or more
    # can reach past snap from their first value, so walk just those
    change = np.diff(np.concatenate([[0], near.astype(np.int8), [0]]))
    starts, ends = np.flatnonzero(change == 1), np.flatnonzero(change == -1)
    runs = ends - starts > 1
    for lo, hi in zip(starts[runs].tolist(), ends[runs].tolist()):
        rep = unique_vals[lo]
        for i in range(lo + 1, hi + 1):
            if unique_vals[i] - rep > snap:
                keep[i] = True
                rep = unique_vals[i]
    return unique_vals[keep]


def _distribution_pieces(mesh: Mesh,
                         nodal: np.ndarray) -> tuple[_PieceData, float]:
    """The pieces of m and the measure of the mesh."""
    tri = np.sort(nodal[mesh.elements], axis=1)
    areas = element_areas(mesh)
    total = float(np.sum(areas))
    breaks = _snap_breaks(np.unique(tri))
    npc = len(breaks) - 1

    # breaks[0] is the least corner value, so every index is in [0, npc]
    ia, ib, ic = (np.searchsorted(breaks, tri, side="right") - 1).T
    a, b, c = breaks[ia], breaks[ib], breaks[ic]

    atoms = np.zeros(len(breaks))
    flat = c == a
    np.add.at(atoms, ia[flat], areas[flat])

    lower = b > a
    w1 = areas[lower] / ((b[lower] - a[lower]) * (c[lower] - a[lower]))
    upper = c > b
    w2 = areas[upper] / ((c[upper] - b[upper]) * (c[upper] - a[upper]))
    curvatures = _binned_cumsum(
        np.concatenate([ia[lower], ib[lower], ib[upper], ic[upper]]),
        np.concatenate([-w1, w1, w2, -w2]), npc + 1)[:npc]

    # elements with two equal corner values kink the slope: a double low
    # corner starts at full steepness, a double high corner ends there;
    # away from those kinks the area function is C^1, so slopes
    # accumulate the curvature increments and values the slope increments
    low_pair = ~lower & upper
    high_pair = lower & ~upper
    widths = np.diff(breaks)
    slopes = _binned_cumsum(
        np.concatenate([ia[low_pair], ib[high_pair], np.arange(1, npc)]),
        np.concatenate([-2.0 * areas[low_pair] / (c[low_pair] - a[low_pair]),
                        2.0 * areas[high_pair] / (c[high_pair] - a[high_pair]),
                        2.0 * curvatures[:-1] * widths[:-1]]), npc + 1)[:npc]
    value_inc = (slopes * widths + curvatures * widths ** 2
                 - atoms[1:npc + 1])
    # a constant function has no real piece and passes no terms
    values = _binned_cumsum(
        np.arange(npc),
        np.concatenate([[total - atoms[0]], value_inc[:-1]])[:npc], npc)
    return _PieceData(breaks=breaks, values=np.append(values, 0.0),
                      slopes=np.append(slopes, 0.0),
                      curvatures=np.append(curvatures, 0.0),
                      atoms=atoms), total


def _stable_roots(c0, c1, c2):
    """Both roots of c2 x^2 + c1 x + c0 = 0 with c2 != 0, avoiding
    cancellation when c2 is tiny relative to c1."""
    disc = np.sqrt(np.maximum(c1 ** 2 - 4.0 * c2 * c0, 0.0))
    sgn = np.where(c1 >= 0.0, 1.0, -1.0)
    qq = -0.5 * (c1 + sgn * disc)
    with np.errstate(divide="ignore", invalid="ignore"):
        r1 = qq / c2
        r2 = np.where(qq != 0.0, c0 / qq, qq / c2)
    return r1, r2


class CumulativePower(NamedTuple):
    """s -> integral of the profile's positive part to power q on (0, s):
    value(s), and its limit total as s reaches the positive measure."""

    total: float
    value: Callable


@dataclass(frozen=True)
class RearrangedProfile:
    """Nonincreasing profile u*(s) on [0, |domain|] equimeasurable with u."""

    domain_measure: float
    pieces: _PieceData

    @cached_property
    def positive_measure(self) -> float:
        """|{u > 0}|."""
        return float(self.distribution(0.0))

    def distribution(self, t):
        """m(t) = measure of {u > t}, right-continuous."""
        arr = np.asarray(t, dtype=float)
        scalar = arr.ndim == 0
        t = np.atleast_1d(arr)
        p = self.pieces
        idx = np.maximum(np.searchsorted(p.breaks, t, side="right") - 1, 0)
        tau = np.clip(t, p.breaks[0], p.breaks[-1]) - p.breaks[idx]
        out = p.values[idx] + tau * (p.slopes[idx] + tau * p.curvatures[idx])
        out = np.where(t < p.breaks[0], self.domain_measure, out)
        return float(out[0]) if scalar else out

    def value(self, s):
        """u*(s) = sup{t : m(t) > s}."""
        arr = np.asarray(s, dtype=float)
        scalar = arr.ndim == 0
        s = np.atleast_1d(arr)
        p = self.pieces
        b = p.breaks
        # values[] is nonincreasing; find the first index with values[k] <= s
        count = np.searchsorted(p.values[::-1], s, side="right")
        # values[-1] = 0, so count >= 1 and k <= len(b) - 1 for s > 0
        k = len(b) - count
        # u*(s) = max u for s <= 0: m has a double root there, which the
        # quadratic below would only resolve to ~sqrt(eps)
        out = np.full(s.shape, b[-1])
        hit = s > 0.0
        kk = k[hit]
        # the level is crossed inside piece kk-1 only if that piece gets
        # down to s before its right end; otherwise the crossing is the
        # jump at break kk (kk == 0 jumps down from |domain|)
        jump = (p.values[kk] + p.atoms[kk] > s[hit]) | (kk == 0)
        res = np.where(jump, b[kk], 0.0)
        solve = ~jump
        if np.any(solve):
            ks = kk[solve] - 1
            c0 = p.values[ks] - s[hit][solve]
            c1 = p.slopes[ks]
            c2 = p.curvatures[ks]
            width = b[ks + 1] - b[ks]
            tau = np.empty_like(c0)
            lin = c2 == 0.0
            flat = lin & (c1 == 0.0)
            tau[flat] = width[flat]
            sl = lin & ~flat
            tau[sl] = -c0[sl] / c1[sl]
            qd = ~lin
            r1, r2 = _stable_roots(c0[qd], c1[qd], c2[qd])
            half = 0.5 * width[qd]
            tau[qd] = np.where(np.abs(r1 - half) <= np.abs(r2 - half), r1, r2)
            res[solve] = b[ks] + np.clip(tau, 0.0, width)
        out[hit] = res
        return float(out[0]) if scalar else out


def rearrange(mesh: Mesh, nodal) -> RearrangedProfile:
    """Exact decreasing rearrangement of a nodal P1 function."""
    nodal = np.asarray(nodal, dtype=float)
    if mesh.element_count == 0:
        raise ParameterError("mesh has no elements")
    if nodal.shape != (mesh.node_count,):
        raise ParameterError("nodal array does not match mesh nodes")
    if not np.all(np.isfinite(nodal)):
        raise ParameterError("nodal values must be finite")
    pieces, measure = _distribution_pieces(mesh, nodal)
    return RearrangedProfile(domain_measure=measure, pieces=pieces)


def rearrange_oriented(mesh: Mesh, nodal) -> RearrangedProfile:
    """Rearrange with the sign fixed so |{u > 0}| <= |domain|/2."""
    nodal = np.asarray(nodal, dtype=float)
    profile = rearrange(mesh, nodal)
    if profile.positive_measure > 0.5 * profile.domain_measure:
        profile = rearrange(mesh, -nodal)
    return profile


def cumulative_power(profile: RearrangedProfile, q: float) -> CumulativePower:
    """Exact s -> integral of (u*)^q over (0, s), saturating past s̃, for
    q in (0, Q_MAX]."""
    check_exponent(q)
    p = profile.pieces
    b = p.breaks
    s_tilde = profile.positive_measure
    positive = np.maximum(b, 0.0)
    piece_int = p.power_integrals(np.arange(len(b) - 1), positive[:-1],
                                  positive[1:], q)
    atom_terms = np.where(b > 0, p.atoms * positive ** q, 0.0)
    # tail[k] = integral of t^q over the part of -dm above b[k]
    tail = np.zeros(len(b))
    tail[:-1] = np.cumsum((piece_int + atom_terms[1:])[::-1])[::-1]
    total = float(tail[0] + atom_terms[0])

    def evaluate(s):
        arr = np.asarray(s, dtype=float)
        scalar = arr.ndim == 0
        s_eff = np.minimum(np.atleast_1d(arr), s_tilde)
        tstar = np.maximum(profile.value(s_eff), 0.0)
        idx = np.maximum(np.searchsorted(b, tstar, side="right") - 1, 0)
        # t* lies in piece idx, the zero top piece included, or below b[0]
        partial = p.power_integrals(
            idx, positive[idx], np.maximum(tstar, positive[idx]), q)
        plateau = tstar ** q * np.maximum(
            s_eff - profile.distribution(tstar), 0.0)
        out = tail[idx] - partial + plateau
        out = np.where(tstar <= 0.0, total, out)
        out = np.where(s_eff <= 0.0, 0.0, out)
        return float(out[0]) if scalar else out

    return CumulativePower(total, evaluate)


@dataclass(frozen=True)
class BallComparisonProfile:
    """Rearranged first Dirichlet eigenfunction of the comparison ball."""

    p: float
    n: int
    measure: float
    _scale: float

    def cumulative_power(self, q: float) -> CumulativePower:
        prof = psi_profile(self.p, self.n)
        wn = omega_n(self.n)
        factor = self.n * wn / self._scale ** self.n

        def evaluate(s):
            s = np.minimum(np.asarray(s, dtype=float), self.measure)
            x = self._scale * (s / wn) ** (1.0 / self.n)
            return factor * prof.power_integral(q, x)

        return CumulativePower(
            factor * prof.power_integral(q, prof.first_zero), evaluate)


def dirichlet_ball_profile(p: float, n: int, K: float,
                           mu1: float) -> BallComparisonProfile:
    """The comparison ball of the proof: its first Dirichlet eigenvalue is
    (n omega_n^{1/n}/K)^p mu1, so its measure is
    (K/n)^n (lambda1(B1)/mu1)^{n/p}. Every check reads this one object."""
    if K <= 0 or mu1 <= 0:
        raise ParameterError("K and mu1 must be positive")
    prof = psi_profile(p, n)
    wn = omega_n(n)
    alpha = (K / classical_constant(n)) ** p
    scale = (mu1 / alpha) ** (1.0 / p)
    radius = prof.first_zero / scale
    return BallComparisonProfile(p=p, n=n, measure=wn * radius ** n,
                                 _scale=scale)


@dataclass(frozen=True)
class ChitiReport:
    max_violation: float
    s_at_max: float
    lhs: float
    rhs: float
    lemma_violated: bool
    margin: float


def chiti_check(u_profile: RearrangedProfile,
                ball_profile: BallComparisonProfile,
                q: float) -> ChitiReport:
    """Max of the normalized cumulative-power gap on _CHITI_GRID points of
    [0, L], L = ball_profile.measure, for q in (0, Q_MAX].

    lemma_violated reports L > s̃ + CHECK_TOL |domain| with s̃ =
    u_profile.positive_measure; callers read both measures from the
    profiles. The ball cumulative is rescaled so the totals match, then
    both are normalized to unit total; a max_violation above CHECK_TOL
    means the domination fails at the reported measure. The grid holds
    s = 0, where both sides vanish, so max_violation >= 0: 0 means
    dominated on every grid point. The margin is the least relative gap
    (rhs - lhs)/rhs over the grid points s > 0, positive when the
    domination holds with room.
    """
    L = ball_profile.measure
    s_tilde = u_profile.positive_measure
    lemma_violated = L > s_tilde + CHECK_TOL * u_profile.domain_measure
    upper = cumulative_power(u_profile, q)
    lower = ball_profile.cumulative_power(q)
    s = np.linspace(0.0, L, _CHITI_GRID)
    u_side = upper.value(s) / upper.total
    ball_side = lower.value(s) / lower.total
    gap = u_side - ball_side
    k = int(np.argmax(gap))
    margin = np.min((ball_side[1:] - u_side[1:]) / ball_side[1:])
    return ChitiReport(max_violation=float(gap[k]), s_at_max=float(s[k]),
                       lhs=float(u_side[k]), rhs=float(ball_side[k]),
                       lemma_violated=bool(lemma_violated),
                       margin=float(margin))


@dataclass(frozen=True)
class ReverseHolderReport:
    lhs: float
    rhs: float
    constant: float
    ok: bool


def reverse_holder_check(u_profile: RearrangedProfile,
                         ball: BallComparisonProfile, q: float,
                         r: float) -> ReverseHolderReport:
    """Check that the L^q norm of u⁺ is below C times its L^r norm.

    C = L^{1/q - 1/r} f(q)/f(r) with f the normalized radial power mean of
    the ball's radial profile and L = ball.measure, the comparison ball
    that dirichlet_ball_profile builds.
    """
    if not 0.0 < r < q:
        raise ParameterError(f"need 0 < r < q, got r={r}, q={q}")
    prof = psi_profile(ball.p, ball.n)

    def finite(name, compute):
        # float powers raise OverflowError, products silently give inf
        try:
            value = compute()
        except OverflowError:
            value = math.inf
        if not math.isfinite(value):
            raise NumericError(f"reverse Holder {name} exceeds the float "
                               f"range at q = {q:g}, r = {r:g}")
        return value

    constant = finite("constant", lambda: (
        ball.measure ** (1.0 / q - 1.0 / r)
        * math.exp(prof.log_power_mean(q) - prof.log_power_mean(r))))
    lhs = cumulative_power(u_profile, q).total ** (1.0 / q)
    rhs = finite("rhs", lambda: (
        constant * cumulative_power(u_profile, r).total ** (1.0 / r)))
    return ReverseHolderReport(lhs=float(lhs), rhs=float(rhs),
                               constant=float(constant),
                               ok=bool(lhs <= rhs * (1.0 + CHECK_TOL)))
