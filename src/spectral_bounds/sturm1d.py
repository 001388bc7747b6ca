"""First eigenvalue of a weighted 1-D problem singular at the left end.

sigma1(0, A) minimizes int |phi'|^gamma ds / int |phi|^gamma s^(-beta) ds
over phi with phi(0) = 0, a zero-flux right end, and 0 < beta < gamma.
The grid is graded cubically toward 0 so the s^(-beta) weight is resolved.
For gamma = 2 the discrete problem is a generalized tridiagonal
eigenproblem solved by the same shift-invert eigensolver as the FEM
module; for other gamma the Rayleigh quotient is minimized by projected
gradient descent with an Armijo line search, preconditioned at every step
by the Hessian of the energy at the current iterate (the gamma-Laplacian
linearized there, a weighted tridiagonal stiffness factored afresh). The
descent is nested: while N // 4 is at least _COARSE_FLOOR it first solves
the same problem on N // 4 cells and starts from that minimizer, which
the graded grids hold exactly (s_4N[::4] == s_N). So N = 4096 runs a
chain of 256, 1024 and 4096 cells, with the same step and stop rules on
each grid, and the finest grid takes a few steps; a solution's step count
is the sum over the chain. Both paths read one Gauss-Legendre table of
the weight, so the gamma = 2 mass matrix is the descent's denominator at
gamma = 2. One builder fills the CSC arrays of both stiffness matrices
directly. A descent builds the Hessian's CSC pattern and two N x 16
quadrature scratch arrays once per grid, after the coarser grid's arrays
are freed; each step rewrites the Hessian's values in place and writes the
iterate's values at the quadrature nodes, and the terms of the
denominator and its gradient, into the scratch arrays. The Hessian is
factored in natural order, where a tridiagonal matrix has no fill
(nnz(L+U) = 4N - 2), so each factorization costs O(N) and runs no
ordering pass. The gamma = 2 grid is capped at MAX_LINEAR_CELLS, past
which its residual no longer certifies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sparse
from scipy.sparse.linalg import splu

from .errors import ConvergenceError, NumericError, ParameterError
from .fem import _inverse_iteration
from .geometry import MAX_LENGTH, MIN_LENGTH
from .special import GL_NODES, GL_WEIGHTS

_QUOTIENT_TOL = 1e-10
_MAX_STEPS = 50_000
_HARDY_SLACK = 1e-9
# the descent on N cells starts from the one on N // 4 cells while N // 4
# is at least this
_COARSE_FLOOR = 256
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
    """Discrete sigma1 with the graded grid, the minimizer's nodal values
    on it (node 0 included, signed so the largest is positive) and the
    step count. solve checks sigma against the problem's own Hardy floor,
    SturmProblem.hardy_lower_bound."""

    sigma: float
    grid: np.ndarray
    minimizer: np.ndarray
    iterations: int


def _graded_grid(length: float, n_cells: int) -> np.ndarray:
    return length * (np.arange(n_cells + 1) / n_cells) ** 3


def _weight_quadrature(s: np.ndarray, beta: float):
    """Gauss-Legendre table of the weight s^(-beta) on cells 2..N.

    Returns (wq, xi): per cell and node the weight times the quadrature
    weight, and the node's position in the cell as a fraction of its
    width, the argument of the linear shape functions 1 - xi and xi.
    The first cell, where the weight is singular, has a closed form.
    """
    mid = 0.5 * (s[1:-1] + s[2:])
    half = 0.5 * np.diff(s[1:])
    sg = mid[:, None] + half[:, None] * GL_NODES[None, :]
    wq = (half[:, None] * GL_WEIGHTS[None, :]) * sg ** (-beta)
    xi = (sg - s[1:-1, None]) / np.diff(s[1:])[:, None]
    return wq, xi


def _solution(s: np.ndarray, phi: np.ndarray, sigma: float,
              iterations: int) -> SturmSolution:
    """Package the nodal values phi at nodes 1..N, signed nonnegative."""
    full = np.concatenate([[0.0], phi])
    if full[np.argmax(np.abs(full))] < 0:
        full = -full
    return SturmSolution(sigma=sigma, grid=s, minimizer=full,
                         iterations=iterations)


def _stiffness(w: np.ndarray) -> sparse.csc_matrix:
    """Stiffness with cell weights w over nodes 1..n (node 0 constrained
    to zero); w = 1/h is the gamma = 2 matrix.

    The tridiagonal CSC arrays are filled directly: column j holds rows
    j-1, j and j+1, so a full three-slot layout per column, less its first
    and last slot, is the canonical (sorted, duplicate-free) matrix.
    """
    n = w.size
    rows = np.arange(n, dtype=np.int32)[:, None] \
        + np.array([-1, 0, 1], dtype=np.int32)
    indptr = np.arange(-1, 3 * n, 3, dtype=np.int32)
    indptr[0], indptr[-1] = 0, 3 * n - 2
    matrix = sparse.csc_matrix((np.empty(3 * n - 2), rows.ravel()[1:-1],
                                indptr), shape=(n, n))
    _refill(matrix, w)
    return matrix


def _refill(matrix: sparse.csc_matrix, w: np.ndarray) -> None:
    """Write the cell weights w into a _stiffness matrix's data in place.

    In the three-slot layout data[3j] is column j's diagonal, data[3j+1]
    its entry below and data[3j+2] the next column's entry above.
    """
    data = matrix.data
    diag = data[0::3]
    diag[:] = w
    diag[:-1] += w[1:]
    np.negative(w[1:], out=data[1::3])
    np.negative(w[1:], out=data[2::3])


def _abs_power(x: np.ndarray, e: float, out: np.ndarray) -> None:
    """Write |x|^e into out, through the ufunc ``np.abs(x) ** e`` picks:
    ``**=`` keeps the special cases of ``**`` (e = 0.5 is a square root)."""
    np.abs(x, out=out)
    out **= e


def _solve_linear(problem: SturmProblem) -> SturmSolution:
    s = _graded_grid(problem.length, problem.n_cells)
    beta = problem.beta
    n = problem.n_cells
    K = _stiffness(1.0 / np.diff(s))

    # the descent's weighted mass at gamma = 2, from the same quadrature
    wq, xi = _weight_quadrature(s, beta)
    diag = np.zeros(n)
    diag[0] = s[1] ** (1.0 - beta) / (3.0 - beta)
    diag[:-1] += np.sum(wq * (1.0 - xi) ** 2, axis=1)
    diag[1:] += np.sum(wq * xi ** 2, axis=1)
    off = np.sum(wq * xi * (1.0 - xi), axis=1)
    M = sparse.diags([diag, off, off], [0, 1, -1], format="csr")

    pair = _inverse_iteration(K, M, np.arange(n), 0.0)
    return _solution(s, pair.vector, pair.value, pair.iterations)


def _solve_gradient(problem: SturmProblem) -> SturmSolution:
    s = _graded_grid(problem.length, problem.n_cells)
    # nested iteration: start from the minimizer on a quarter of the cells,
    # solved before this grid's scratch is built; the graded grids nest,
    # s_4N[::4] == s_N, so the start is that minimizer's P1 interpolant
    if problem.n_cells // 4 >= _COARSE_FLOOR:
        coarse = _solve_gradient(
            replace(problem, n_cells=problem.n_cells // 4))
        phi = np.interp(s[1:], coarse.grid, coarse.minimizer)
        coarse_steps = coarse.iterations
    else:
        phi = s[1:].copy()
        coarse_steps = 0
    gamma, beta = problem.gamma, problem.beta
    h = np.diff(s)
    h_pow = h ** (1.0 - gamma)

    # the first cell has the closed form |phi_1|^gamma s_1^(1-beta)/(gamma-beta+1)
    wq, xi = _weight_quadrature(s, beta)
    first_w = s[1] ** (1.0 - beta) / (gamma - beta + 1.0)
    one_minus_xi = 1.0 - xi
    # per-solve scratch: phi at the quadrature nodes, written by each
    # energy_parts call, and the per-node terms of the denominator and of
    # its gradient
    node_vals = np.empty_like(wq)
    terms = np.empty_like(wq)
    # the Hessian's tridiagonal pattern; each step refills its data
    hessian = _stiffness(h)

    def odd_power(x, e):
        return np.sign(x) * np.abs(x) ** e

    def energy_parts(phi):
        d = np.diff(phi, prepend=0.0)
        e_val = float(np.sum(np.abs(d) ** gamma * h_pow))
        vals = node_vals
        np.multiply(phi[:-1, None], one_minus_xi, out=vals)
        np.multiply(phi[1:, None], xi, out=terms)
        np.add(vals, terms, out=vals)
        _abs_power(vals, gamma, terms)
        np.multiply(terms, wq, out=terms)
        f_val = float(np.sum(terms)) + first_w * abs(phi[0]) ** gamma
        # vals is the scratch node_vals, valid until the next energy_parts
        # or gradients call
        return e_val, f_val, d, vals

    def gradients(d, vals, phi0):
        flux = odd_power(d, gamma - 1.0) * h_pow
        g_e = gamma * (flux - np.concatenate([flux[1:], [0.0]]))
        # wq sign(vals) |vals|^(gamma - 1): a product with sign(vals) only
        # negates, so negating where vals < 0 gives the same bits
        _abs_power(vals, gamma - 1.0, terms)
        np.multiply(terms, wq, out=terms)
        np.negative(terms, out=terms, where=vals < 0.0)
        g_f = np.zeros(problem.n_cells)
        # vals is spent: reuse it for the first product
        np.multiply(terms, one_minus_xi, out=vals)
        g_f[:-1] = gamma * np.sum(vals, axis=1)
        np.multiply(terms, xi, out=terms)
        g_f[1:] += gamma * np.sum(terms, axis=1)
        g_f[0] += gamma * first_w * odd_power(phi0, gamma - 1.0)
        return g_e, g_f

    e_val, f_val, d, vals = energy_parts(phi)
    phi /= f_val ** (1.0 / gamma)
    e_val, f_val, d, vals = energy_parts(phi)
    quotient = e_val / f_val
    step = 1.0
    change = math.inf
    for iteration in range(1, _MAX_STEPS + 1):
        if change <= _QUOTIENT_TOL * quotient:
            return _solution(s, phi, quotient, coarse_steps + iteration)
        g_e, g_f = gradients(d, vals, phi[0])
        grad = (g_e - quotient * g_f) / f_val
        # precondition with the energy Hessian at phi; slopes are floored so
        # that flat cells near the zero-flux end keep a finite weight
        cell_slope = np.abs(d) / h
        cell_slope = np.maximum(cell_slope, 1e-6 * cell_slope.max())
        _refill(hessian,
                gamma * (gamma - 1.0) * cell_slope ** (gamma - 2.0) / h)
        # a tridiagonal matrix fills nothing in natural order, so an
        # ordering pass and supernode relaxation would be pure overhead
        try:
            lu = splu(hessian, permc_spec="NATURAL", relax=1, panel_size=1)
        except RuntimeError as ex:
            # SuperLU reports an exactly singular pivot this way
            raise ConvergenceError(
                f"descent Hessian could not be factored: {ex}") from None
        direction = lu.solve(grad)
        # freed now, not when the next step rebinds lu: two live factors
        # would raise the peak resident size
        del lu
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
                return _solution(s, phi, quotient, coarse_steps + iteration)
            raise NumericError(
                "quotient minimization stalled at "
                f"{quotient!r} after {iteration} steps")
        new_quotient = e_c / f_c
        change = abs(quotient - new_quotient)
        norm = f_c ** (1.0 / gamma)
        phi = cand / norm
        f_val = 1.0
        d = d_c / norm
        # vals_c is node_vals: the accepted candidate's energy_parts call
        # was the last one that wrote it
        vals = np.divide(vals_c, norm, out=vals_c)
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
