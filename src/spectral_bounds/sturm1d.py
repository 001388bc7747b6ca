"""First eigenvalue of a weighted 1-D problem singular at the left end.

sigma1(0, A) minimizes int |phi'|^gamma ds / int |phi|^gamma s^(-beta) ds
over phi with phi(0) = 0, a zero-flux right end, and 0 < beta < gamma.
The grid is graded cubically toward 0 so the s^(-beta) weight is resolved.
For gamma = 2 the discrete problem is a generalized tridiagonal
eigenproblem solved by the same shift-invert eigensolver as the FEM
module; for other gamma the Rayleigh quotient is minimized by projected
gradient descent with an Armijo line search, preconditioned at every step
by the Hessian of the energy at the current iterate (the gamma-Laplacian
linearized there, a weighted tridiagonal stiffness factored afresh). One
builder fills the CSC arrays of both stiffness matrices directly. The
Hessian is factored in natural order, where a tridiagonal matrix has no
fill (nnz(L+U) = 4N - 2), so each factorization costs O(N) and runs no
ordering pass. The gamma = 2 grid is capped at MAX_LINEAR_CELLS, past
which its residual no longer certifies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sparse
from scipy.sparse.linalg import splu

from .errors import ConvergenceError, NumericError, ParameterError
from .fem import _inverse_iteration
from .geometry import MAX_LENGTH, MIN_LENGTH
from .rearrangement import (CHECK_TOL, BallComparisonProfile,
                            dirichlet_ball_profile)
from .special import GL_NODES, GL_WEIGHTS

_QUOTIENT_TOL = 1e-10
_MAX_STEPS = 50_000
_HARDY_SLACK = 1e-9
MAX_CELLS = 2 ** 16
# the gamma = 2 eigensolve's residual grows like N^2 on the graded grid and
# stays certifiable (below fem._RES_TOL) only up to this many cells
MAX_LINEAR_CELLS = 4096


@dataclass(frozen=True)
class SturmProblem:
    """Quotient data: exponent gamma, weight power beta, interval length."""

    gamma: float
    beta: float
    length: float
    n_cells: int = 4096

    def __post_init__(self):
        if not self.gamma > 1.0:
            raise ParameterError("gamma must exceed 1")
        if not 0.0 < self.beta < self.gamma:
            raise ParameterError("beta must lie in (0, gamma)")
        if not MIN_LENGTH <= self.length <= MAX_LENGTH:
            raise ParameterError(
                f"length must lie in [{MIN_LENGTH:g}, {MAX_LENGTH:g}], "
                f"got {self.length}")
        if not 4 <= self.n_cells <= MAX_CELLS:
            raise ParameterError(
                f"cell count must lie in [4, {MAX_CELLS}], got {self.n_cells}")
        if self.gamma == 2.0 and self.n_cells > MAX_LINEAR_CELLS:
            raise ParameterError(
                f"at gamma = 2 the cell count must be at most "
                f"{MAX_LINEAR_CELLS}, got {self.n_cells}")

    @property
    def hardy_lower_bound(self) -> float:
        g, b = self.gamma, self.beta
        return self.length ** (b - g) * (g - 1.0) ** g / g ** g


@dataclass(frozen=True)
class SturmSolution:
    sigma: float
    grid: np.ndarray
    minimizer: np.ndarray
    hardy_lower_bound: float
    iterations: int


def _graded_grid(length: float, n_cells: int) -> np.ndarray:
    return length * (np.arange(n_cells + 1) / n_cells) ** 3


def _moment(lo: np.ndarray, hi: np.ndarray, e: float) -> np.ndarray:
    """int s^(e-1) ds over [lo, hi] for positive lo, stable as e -> 0."""
    if abs(e) < 1e-12:
        return np.log(hi / lo)
    return lo ** e * np.expm1(e * np.log1p((hi - lo) / lo)) / e


def _stiffness(w: np.ndarray) -> sparse.csc_matrix:
    """Stiffness with cell weights w over nodes 1..n (node 0 constrained
    to zero); w = 1/h is the gamma = 2 matrix.

    The tridiagonal CSC arrays are filled directly: column j holds rows
    j-1, j and j+1, so a full three-slot layout per column, less its first
    and last slot, is the canonical (sorted, duplicate-free) matrix.
    """
    n = w.size
    cols = np.empty((n, 3))
    cols[:, 0] = -w
    cols[:, 1] = w
    cols[:-1, 1] += w[1:]
    cols[:-1, 2] = -w[1:]
    rows = np.arange(n, dtype=np.int32)[:, None] \
        + np.array([-1, 0, 1], dtype=np.int32)
    indptr = np.arange(-1, 3 * n, 3, dtype=np.int32)
    indptr[0], indptr[-1] = 0, 3 * n - 2
    return sparse.csc_matrix((cols.ravel()[1:-1], rows.ravel()[1:-1], indptr),
                             shape=(n, n))


def _solve_hessian(w: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve the Hessian, the stiffness with cell weights w, for rhs.

    A tridiagonal matrix fills nothing in natural order, so an ordering
    pass and supernode relaxation would be pure overhead. The factor is
    freed on return: kept alive among the line search's large temporaries
    it fragments the heap and raises the peak resident size.
    """
    try:
        lu = splu(_stiffness(w), permc_spec="NATURAL", relax=1, panel_size=1)
    except RuntimeError as ex:
        # SuperLU reports an exactly singular pivot this way
        raise ConvergenceError(
            f"descent Hessian could not be factored: {ex}") from None
    return lu.solve(rhs)


def _solve_linear(problem: SturmProblem) -> SturmSolution:
    s = _graded_grid(problem.length, problem.n_cells)
    beta = problem.beta
    n = problem.n_cells
    h = np.diff(s)
    K = _stiffness(1.0 / h)

    # weighted mass entries from exact cell moments of s^(-beta)
    lo, hi = s[1:-1], s[2:]
    m0 = _moment(lo, hi, 1.0 - beta)
    m1 = _moment(lo, hi, 2.0 - beta)
    m2 = _moment(lo, hi, 3.0 - beta)
    hh = h[1:] ** 2
    d_left = (hi * hi * m0 - 2.0 * hi * m1 + m2) / hh
    d_right = (m2 - 2.0 * lo * m1 + lo * lo * m0) / hh
    off = (-hi * lo * m0 + (hi + lo) * m1 - m2) / hh
    diag = np.zeros(n)
    diag[0] = s[1] ** (1.0 - beta) / (3.0 - beta)
    diag[:-1] += d_left
    diag[1:] += d_right
    M = sparse.diags([diag, off, off], [0, 1, -1], format="csr")

    pair = _inverse_iteration(K, M, np.arange(n), "dirichlet", 0.0)
    phi = np.concatenate([[0.0], pair.vector])
    if phi[np.argmax(np.abs(phi))] < 0:
        phi = -phi
    return SturmSolution(sigma=pair.value, grid=s, minimizer=phi,
                         hardy_lower_bound=problem.hardy_lower_bound,
                         iterations=pair.iterations)


def _solve_gradient(problem: SturmProblem) -> SturmSolution:
    s = _graded_grid(problem.length, problem.n_cells)
    gamma, beta = problem.gamma, problem.beta
    h = np.diff(s)
    h_pow = h ** (1.0 - gamma)

    # per-cell quadrature of the weight against linear shape functions;
    # the first cell has the closed form |phi_1|^gamma s_1^(1-beta)/(gamma-beta+1)
    mid = 0.5 * (s[1:-1] + s[2:])
    half = 0.5 * np.diff(s[1:])
    sg = mid[:, None] + half[:, None] * GL_NODES[None, :]
    wq = (half[:, None] * GL_WEIGHTS[None, :]) * sg ** (-beta)
    xi = (sg - s[1:-1, None]) / np.diff(s[1:])[:, None]
    first_w = s[1] ** (1.0 - beta) / (gamma - beta + 1.0)

    def odd_power(x, e):
        return np.sign(x) * np.abs(x) ** e

    def energy_parts(phi):
        d = np.diff(phi, prepend=0.0)
        e_val = float(np.sum(np.abs(d) ** gamma * h_pow))
        vals = phi[:-1, None] * (1.0 - xi) + phi[1:, None] * xi
        f_val = float(np.sum(wq * np.abs(vals) ** gamma)) \
            + first_w * abs(phi[0]) ** gamma
        return e_val, f_val, d, vals

    def gradients(d, vals, phi0):
        flux = odd_power(d, gamma - 1.0) * h_pow
        g_e = gamma * (flux - np.concatenate([flux[1:], [0.0]]))
        pw = wq * odd_power(vals, gamma - 1.0)
        g_f = np.zeros(problem.n_cells)
        g_f[:-1] = gamma * np.sum(pw * (1.0 - xi), axis=1)
        g_f[1:] += gamma * np.sum(pw * xi, axis=1)
        g_f[0] += gamma * first_w * odd_power(phi0, gamma - 1.0)
        return g_e, g_f

    def finish(phi, quotient, iteration):
        full = np.concatenate([[0.0], phi])
        if full[np.argmax(np.abs(full))] < 0:
            full = -full
        return SturmSolution(sigma=quotient, grid=s, minimizer=full,
                             hardy_lower_bound=problem.hardy_lower_bound,
                             iterations=iteration)

    phi = s[1:].copy()
    e_val, f_val, d, vals = energy_parts(phi)
    phi /= f_val ** (1.0 / gamma)
    e_val, f_val, d, vals = energy_parts(phi)
    quotient = e_val / f_val
    step = 1.0
    change = math.inf
    for iteration in range(1, _MAX_STEPS + 1):
        if change <= _QUOTIENT_TOL * quotient:
            return finish(phi, quotient, iteration)
        g_e, g_f = gradients(d, vals, phi[0])
        grad = (g_e - quotient * g_f) / f_val
        # precondition with the energy Hessian at phi; slopes are floored so
        # that flat cells near the zero-flux end keep a finite weight
        cell_slope = np.abs(d) / h
        cell_slope = np.maximum(cell_slope, 1e-6 * cell_slope.max())
        direction = _solve_hessian(
            gamma * (gamma - 1.0) * cell_slope ** (gamma - 2.0) / h, grad)
        slope = float(grad @ direction)
        accepted = False
        if slope > 0.0:
            while step > 1e-14:
                cand = phi - step * direction
                e_c, f_c, d_c, vals_c = energy_parts(cand)
                if f_c > 0.0 and e_c / f_c <= quotient - 1e-4 * step * slope:
                    accepted = True
                    break
                step *= 0.5
        if not accepted:
            # descent exhausted at floating point resolution; only accept
            # if the quotient had already stabilized
            if change <= 1e-6 * quotient:
                return finish(phi, quotient, iteration)
            raise NumericError(
                "quotient minimization stalled at "
                f"{quotient!r} after {iteration} steps")
        new_quotient = e_c / f_c
        change = abs(quotient - new_quotient)
        norm = f_c ** (1.0 / gamma)
        phi = cand / norm
        e_val, f_val = new_quotient, 1.0
        d, vals = d_c / norm, vals_c / norm
        quotient = new_quotient
        step *= 1.3
    raise NumericError(
        f"quotient minimization did not settle within {_MAX_STEPS} steps: "
        f"last value {quotient!r}")


def solve(problem: SturmProblem) -> SturmSolution:
    """Minimize the quotient; checks the scale-invariant lower bound."""
    if problem.gamma == 2.0:
        solution = _solve_linear(problem)
    else:
        solution = _solve_gradient(problem)
    if solution.sigma < problem.hardy_lower_bound * (1.0 - _HARDY_SLACK):
        raise NumericError(
            "computed eigenvalue fell below the scale-invariant lower bound: "
            f"{solution.sigma!r} < {problem.hardy_lower_bound!r}")
    return solution


def sigma1(problem: SturmProblem) -> float:
    return solve(problem).sigma


@dataclass(frozen=True)
class ConsistencyReport:
    L: float
    sigma_target: float
    sigma_computed: float
    rel_err: float


def sturm_consistency(p: float, n: int, K: float,
                      mu1: float) -> ConsistencyReport:
    """Round trip: the interval eigenvalue on (0, L) must reproduce
    mu1/K^p once raised back to the p-1 power."""
    if p < 2:
        raise ParameterError("p must be at least 2")
    L = dirichlet_ball_profile(p, n, K, mu1).measure
    gamma = p / (p - 1.0)
    beta = gamma * (1.0 - 1.0 / n)
    sigma = sigma1(SturmProblem(gamma=gamma, beta=beta, length=L))
    computed = sigma ** (p - 1.0)
    target = mu1 / K ** p
    return ConsistencyReport(L=L, sigma_target=target,
                             sigma_computed=computed,
                             rel_err=abs(computed - target) / target)


@dataclass(frozen=True)
class LBoundReport:
    L: float
    s_tilde: float
    margins: tuple
    min_margin: float
    ok: bool


def check_L_bound(ball: BallComparisonProfile, s_tilde: float,
                  area: float) -> LBoundReport:
    """Check L <= min(s_tilde, area - s_tilde, area/2) for L = ball.measure,
    the measure of the comparison ball from dirichlet_ball_profile; margins
    in units of the domain measure, up to CHECK_TOL."""
    if not 0.0 < s_tilde < area:
        raise ParameterError("s_tilde must lie strictly inside (0, area)")
    L = ball.measure
    margins = ((s_tilde - L) / area, (area - s_tilde - L) / area,
               (0.5 * area - L) / area)
    min_margin = min(margins)
    return LBoundReport(L=L, s_tilde=s_tilde, margins=margins,
                        min_margin=min_margin,
                        ok=bool(min_margin >= -CHECK_TOL))
