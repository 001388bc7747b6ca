"""Weighted interval eigenvalue: closed forms, scaling, dual routes.

For gamma = 2, beta = 1 the minimizer is sqrt(s) J1(2 sqrt(sigma s)) and
the zero-flux condition at s = A pins sigma = j01^2/(4A), which fixes
every tolerance below. Other exponents are checked through scale
covariance, refinement stability, and the scale-invariant weighted
Hardy bound.
"""

import hashlib
import math

import numpy as np
import pytest
import scipy.sparse as sparse
from scipy import integrate

from spectral_bounds import fem, special, sturm1d
from spectral_bounds.errors import ConvergenceError, ParameterError
from spectral_bounds.rearrangement import CHECK_TOL, dirichlet_ball_profile
from spectral_bounds.sturm1d import (MAX_CELLS, MAX_LINEAR_CELLS,
                                     SturmProblem, solve)

import oracles

J01 = special.bessel_first_zero(0.0)


@pytest.mark.parametrize("length", [1.0, math.pi])
def test_linear_closed_form(length):
    problem = SturmProblem(gamma=2.0, beta=1.0, length=length)
    assert solve(problem).sigma == pytest.approx(J01 ** 2 / (4.0 * length),
                                                 rel=1e-4)


@pytest.mark.parametrize("length", [0.5, 1.0, 2.0])
def test_linear_residual_certified(monkeypatch, length):
    """The gamma = 2 route runs the FEM eigensolver, whose residual gate
    holds on the graded grid at every scale."""
    pairs = []

    def recording(*args):
        pairs.append(fem._inverse_iteration(*args))
        return pairs[-1]

    monkeypatch.setattr(sturm1d, "_inverse_iteration", recording)
    sol = solve(SturmProblem(gamma=2.0, beta=1.0, length=length))
    assert len(pairs) == 1 and pairs[0].residual <= fem._RES_TOL
    assert sol.sigma == pairs[0].value
    assert sol.sigma == pytest.approx(J01 ** 2 / (4.0 * length), rel=1e-4)


def _cell_mass(s, beta, i):
    """int of s^(-beta) (1 - x)^2, x^2 and x (1 - x) over the cell
    [s_i, s_(i+1)], x its relative coordinate, by per-cell QUADPACK."""
    lo, hi = s[i], s[i + 1]
    return [integrate.quad(lambda t: t ** (-beta) * shape((t - lo) / (hi - lo)),
                           lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)[0]
            for shape in (lambda x: (1.0 - x) ** 2, lambda x: x * x,
                          lambda x: x * (1.0 - x))]


@pytest.mark.parametrize("beta", [0.3, 1.0, 1.7])
def test_linear_mass_matches_quadpack(monkeypatch, beta):
    """The gamma = 2 mass is the descent's Gauss-Legendre denominator. Row
    r holds node r + 1; rows 0 and 1 touch the first two cells, where the
    weight is most singular, and are left out."""
    masses = []

    def recording(K, M, *args):
        masses.append(M.tocsr())
        return fem._inverse_iteration(K, M, *args)

    monkeypatch.setattr(sturm1d, "_inverse_iteration", recording)
    n = 4096
    problem = SturmProblem(gamma=2.0, beta=beta, length=1.3, n_cells=n)
    solve(problem)
    M = masses[0]
    s = sturm1d._graded_grid(problem.length, n)
    for r in [*range(2, 9), *range(64, n - 1, 128), n - 1]:
        # node r + 1 closes cell r and, except at the last node, opens r + 1
        diag = _cell_mass(s, beta, r)[1]
        if r < n - 1:
            left, _, off = _cell_mass(s, beta, r + 1)
            diag += left
            assert M[r, r + 1] == M[r + 1, r] == pytest.approx(off, rel=1e-11)
        assert M[r, r] == pytest.approx(diag, rel=1e-11)


def test_solution_contract():
    problem = SturmProblem(gamma=2.0, beta=1.0, length=1.0, n_cells=512)
    sol = solve(problem)
    assert sol.sigma > 0.0
    assert sol.iterations >= 1
    assert sol.grid[0] == 0.0 and sol.grid[-1] == 1.0
    assert sol.minimizer[0] == 0.0
    assert np.min(sol.minimizer) >= -1e-10
    assert sol.sigma >= problem.hardy_lower_bound * (1.0 - 1e-9)


@pytest.mark.parametrize("gamma,beta,rel", [(2.0, 1.0, 1e-9),
                                            (1.5, 1.0, 1e-5),
                                            (1.5, 1.0, 1e-9)])
def test_scale_covariance(gamma, beta, rel):
    # phi(s/c) maps the quotient on (0, A) to the one on (0, cA) times
    # c^(beta - gamma)
    n = 2048
    base = solve(SturmProblem(gamma=gamma, beta=beta, length=1.0,
                              n_cells=n)).sigma
    scaled = solve(SturmProblem(gamma=gamma, beta=beta, length=2.0,
                                n_cells=n)).sigma
    assert scaled == pytest.approx(base * 2.0 ** (beta - gamma), rel=rel)


@pytest.mark.parametrize("p", [2.2, 2.8, 3.4, 4.0])
def test_descent_step_count(p):
    # preconditioned with the energy Hessian, the descent needs a few dozen
    # steps however strongly the graded grid weights its cells
    gamma = p / (p - 1.0)
    sol = solve(SturmProblem(gamma=gamma, beta=gamma / 2.0, length=1.0))
    assert sol.iterations <= 60


def test_descent_near_singular_weight():
    # beta close to gamma is the slowest case; the reference is this
    # grid's minimum from a run at _QUOTIENT_TOL = 1e-14
    gamma = 1.3
    sol = solve(SturmProblem(gamma=gamma, beta=0.95 * gamma, length=1.0,
                             n_cells=1024))
    assert sol.sigma == pytest.approx(0.2778903805, rel=1e-4)


def test_descent_reaches_minimum(monkeypatch):
    # the per-step stopping rule must not stop short of the minimum: a far
    # tighter tolerance moves the value by less than 1e-9, at the corners
    # of the p and N range the benchmark's descent workload draws from
    problems = [SturmProblem(gamma=p / (p - 1.0), beta=p / (p - 1.0) / 2.0,
                             length=1.0, n_cells=n)
                for p in (2.2, 3.4) for n in (1024, 4096)]
    default = [solve(problem).sigma for problem in problems]
    monkeypatch.setattr(sturm1d, "_QUOTIENT_TOL", 1e-14)
    for problem, value in zip(problems, default):
        assert value == pytest.approx(solve(problem).sigma, rel=1e-9)


@pytest.mark.parametrize("n", [1, 2, 5, 1024])
def test_stiffness_matches_diags_reference(n):
    # the direct CSC build must be the sparse.diags matrix, bit for bit
    w = np.random.default_rng(n).random(n) + 0.1
    main = w.copy()
    main[:-1] += w[1:]
    ref = sparse.diags([main, -w[1:], -w[1:]], [0, 1, -1], format="csc")
    got = sturm1d._stiffness(w)
    assert got.format == "csc" and got.shape == (n, n)
    assert np.array_equal(got.indptr, ref.indptr)
    assert np.array_equal(got.indices, ref.indices)
    assert np.array_equal(got.data, ref.data)
    # computed from the arrays: sorted indices, no duplicates
    assert got.has_canonical_format
    # rewriting the values of another matrix in place gives the same data
    refilled = sturm1d._stiffness(w[::-1] + 1.0)
    sturm1d._refill(refilled, w)
    assert refilled.data.tobytes() == ref.data.tobytes()


def _grid_chain(n):
    """Cell counts of the grids a descent on n cells solves, coarsest
    first: each grid starts from the minimizer on a quarter of its cells."""
    chain = [n]
    while chain[0] // 4 >= sturm1d._COARSE_FLOOR:
        chain.insert(0, chain[0] // 4)
    return chain


@pytest.mark.parametrize("n", [1, 255, 256, 1000, 1024, 4096])
@pytest.mark.parametrize("length", [1e-6, 0.7, 1.0, 1e6])
def test_graded_grids_nest(n, length):
    # the nodes of a grid are every fourth node of the grid with four times
    # the cells, bit for bit, so a coarse minimizer prolongs to itself
    coarse = sturm1d._graded_grid(length, n)
    fine = sturm1d._graded_grid(length, 4 * n)
    assert fine[::4].tobytes() == coarse.tobytes()


def test_descent_factors_in_natural_order_without_fill(monkeypatch):
    # every descent factor, on every grid of the chain, keeps both
    # permutations the identity and has the fill-free tridiagonal
    # nnz(L + U) = 4N - 2; the grids are solved coarsest first, and each
    # has one step more than factors
    factors = []
    real_splu = sturm1d.splu

    def recording(matrix, **options):
        lu = real_splu(matrix, **options)
        factors.append((matrix.shape[0], lu))
        return lu

    monkeypatch.setattr(sturm1d, "splu", recording)
    n = 4096
    chain = _grid_chain(n)
    assert chain == [256, 1024, 4096]
    gamma = 3.0 / 2.0
    sol = solve(SturmProblem(gamma=gamma, beta=gamma / 2.0, length=1.0,
                             n_cells=n))
    assert len(factors) == sol.iterations - len(chain)
    sizes = [size for size, _ in factors]
    assert sizes == sorted(sizes) and sorted(set(sizes)) == chain
    for size, lu in factors:
        assert np.array_equal(lu.perm_c, np.arange(size))
        assert np.array_equal(lu.perm_r, np.arange(size))
        assert lu.L.nnz + lu.U.nnz == 4 * size - 2


def test_descent_refills_one_hessian_pattern(monkeypatch):
    # each grid builds the Hessian's CSC pattern once: every factor on a
    # grid reads the same index arrays, and only the values change from
    # step to step
    handed = []
    real_splu = sturm1d.splu

    def recording(matrix, **options):
        handed.append((matrix.indptr, matrix.indices, matrix.data.copy()))
        return real_splu(matrix, **options)

    monkeypatch.setattr(sturm1d, "splu", recording)
    gamma = 2.6 / 1.6
    n = 1024
    solve(SturmProblem(gamma=gamma, beta=gamma / 2.0, length=1.0,
                       n_cells=n))
    for size in _grid_chain(n):
        grid = [entry for entry in handed if entry[0].size == size + 1]
        indptr, indices, first = grid[0]
        assert len(grid) >= 2
        for ptr, ind, _ in grid[1:]:
            assert ptr is indptr and ind is indices
        assert not np.array_equal(grid[-1][2], first)


@pytest.mark.parametrize("e", [0.5, 0.6, 1.0, 1.5])
def test_in_place_quadrature_terms_match_the_expressions(e):
    # the descent writes wq sign(v) |v|^e into a scratch array by abs,
    # power, product and a negation where v < 0: the same bits as the plain
    # expression, zeros, signed zeros and e = 0.5 (a square root) included
    rng = np.random.default_rng(7)
    v = rng.standard_normal((64, 16))
    v[0, :4] = [0.0, -0.0, 1e-300, -1e-300]
    wq = rng.random((64, 16))
    out = np.empty_like(v)
    sturm1d._abs_power(v, e, out)
    np.multiply(out, wq, out=out)
    np.negative(out, out=out, where=v < 0.0)
    assert out.tobytes() == (wq * (np.sign(v) * np.abs(v) ** e)).tobytes()
    sturm1d._abs_power(v, e + 1.0, out)
    assert out.tobytes() == (np.abs(v) ** (e + 1.0)).tobytes()


def _fingerprint(gamma, beta, length, n):
    sol = solve(SturmProblem(gamma=gamma, beta=beta, length=length,
                             n_cells=n))
    return (sol.sigma.hex(), sol.iterations,
            hashlib.sha256(sol.minimizer.tobytes()).hexdigest())


def test_descent_keeps_no_state_between_solves():
    # the pattern and the quadrature scratch belong to one solve: solving
    # another problem first moves no bit of the next solve
    first = (1.5, 0.75, 0.8, 1024)
    second = (2.8 / 1.8, 1.4 / 1.8, 1.7, 512)
    before = _fingerprint(*second)
    _fingerprint(*first)
    after = _fingerprint(*second)
    assert before == after


def test_descent_singular_factor_is_a_convergence_error(monkeypatch):
    def singular(matrix, **options):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(sturm1d, "splu", singular)
    with pytest.raises(ConvergenceError, match="exactly singular"):
        solve(SturmProblem(gamma=1.5, beta=0.75, length=1.0, n_cells=64))


# sigma1 at the CLI's 12 significant digits and the step count, summed
# over the descent's grid chain; a change to the matrix build or the
# factorization must leave both as they are.
# p = 2 gives gamma = 2, the linear eigensolve; its row is also the value
# with the mass built from per-cell QUADPACK entries.
GOLDEN = [
    # p, A, N, sigma1, iterations (gamma = p/(p-1), beta = gamma/2)
    (2.0, 1.0, 1024, "1.44579769059", 22),
    (2.2, 0.5, 1024, "2.53073620805", 15),
    (2.2, 1.3, 4096, "1.05403333566", 18),
    (3.0, 1.0, 4096, "1.10857448356", 21),
    (4.0, 1.0, 1024, "0.971743707325", 27),
    (2.5, 0.7, 4096, "1.65480624567", 19),
    (2.9, 1.6, 4096, "0.788344929729", 23),
    (3.4, 2.0, 4096, "0.638237051805", 25),
    (5.0, 2.0, 4096, "0.5790206715", 52),
    (6.0, 0.5, 1024, "1.27375033188", 53),
]


@pytest.mark.parametrize("p,length,n,sigma,iterations", GOLDEN)
def test_golden_rows(p, length, n, sigma, iterations):
    gamma = p / (p - 1.0)
    sol = solve(SturmProblem(gamma=gamma, beta=gamma / 2.0, length=length,
                             n_cells=n))
    assert (f"{sol.sigma:.12g}", sol.iterations) == (sigma, iterations)


def test_refinement_cauchy():
    vals = [solve(SturmProblem(gamma=2.0, beta=1.0, length=1.0,
                               n_cells=n)).sigma
            for n in (512, 1024, 2048)]
    d1 = abs(vals[1] - vals[0])
    d2 = abs(vals[2] - vals[1])
    assert d2 < d1 / 2.0


def test_gradient_matches_linear_solver():
    # the descent path is exercised for every gamma != 2; at gamma = 2 it
    # must reproduce the tridiagonal eigensolve on the same grid
    problem = SturmProblem(gamma=2.0, beta=1.0, length=1.0, n_cells=512)
    direct = sturm1d._solve_linear(problem)
    descent = sturm1d._solve_gradient(problem)
    assert descent.sigma == pytest.approx(direct.sigma, rel=1e-8)


@pytest.mark.parametrize("gamma,beta", [(2.0, 1.0), (1.5, 0.8), (3.0, 1.2)])
def test_hardy_bound_every_solve(gamma, beta):
    problem = SturmProblem(gamma=gamma, beta=beta, length=1.7, n_cells=512)
    sol = solve(problem)
    expect = 1.7 ** (beta - gamma) * ((gamma - 1.0) / gamma) ** gamma
    assert problem.hardy_lower_bound == pytest.approx(expect, rel=1e-12)
    assert sol.sigma >= problem.hardy_lower_bound * (1.0 - 1e-9)


@pytest.mark.parametrize("gamma", [2.0, 1.5])
def test_hardy_inequality_random_profiles(gamma):
    # direct check of the weighted Hardy inequality behind the lower
    # bound, on random piecewise-linear functions vanishing at 0
    beta = 1.0
    length = 1.7
    cells = 64
    s = length * (np.arange(cells + 1) / cells) ** 3
    h = np.diff(s)
    nodes, weights = np.polynomial.legendre.leggauss(16)
    rng = np.random.default_rng(42)
    constant = length ** (gamma - beta) * (gamma / (gamma - 1.0)) ** gamma
    for _ in range(100):
        phi = np.concatenate([[0.0], np.cumsum(rng.standard_normal(cells))])
        num = float(np.sum(np.abs(np.diff(phi)) ** gamma * h ** (1.0 - gamma)))
        mid = 0.5 * (s[:-1] + s[1:])
        sg = mid[:, None] + 0.5 * h[:, None] * nodes[None, :]
        xi = (sg - s[:-1, None]) / h[:, None]
        vals = phi[:-1, None] * (1.0 - xi) + phi[1:, None] * xi
        den = float(np.sum(0.5 * h[:, None] * weights[None, :]
                           * np.abs(vals) ** gamma * sg ** (-beta)))
        assert den <= constant * num * (1.0 + 1e-9)


def test_consistency_round_trips():
    # p = 2: sigma on (0, L) equals mu1/K^2 identically, for any pair
    _, target, rel_err = oracles.sturm_round_trip(2.0, 2, math.sqrt(2.0),
                                                  math.pi ** 2)
    assert rel_err <= 1e-3
    assert target == pytest.approx(math.pi ** 2 / 2.0, rel=1e-12)
    jp11 = 1.8411837813406595
    _, _, rel_err = oracles.sturm_round_trip(2.0, 2, 2.0 * math.sqrt(math.pi),
                                             jp11 ** 2)
    assert rel_err <= 1e-3


def test_consistency_p3():
    # choosing mu1 = lambda1(B1) K^3 / 8 makes the interval length 1 and
    # the target the nonlinear ball eigenvalue over 8
    K = 1.3
    mu1 = special.psi_profile(3.0, 2).first_zero ** 3 * K ** 3 / 8.0
    L, target, rel_err = oracles.sturm_round_trip(3.0, 2, K, mu1)
    assert L == pytest.approx(1.0, rel=1e-12)
    assert target == pytest.approx(1.2289373005746385, rel=1e-7)
    assert rel_err <= 1e-4


@pytest.mark.parametrize("p", [3.0, 4.0])
@pytest.mark.parametrize("n", [2, 3])
def test_consistency_converged(p, n):
    # the round trip is exact up to discretisation and the descent's stop
    assert oracles.sturm_round_trip(p, n, 1.0, 10.0)[2] <= 1e-6


def test_comparison_ball_measure():
    # square data: L = (j01/pi)^2 / 2
    L = dirichlet_ball_profile(2.0, 2, math.sqrt(2.0), math.pi ** 2).measure
    # the ball eigenvalue comes from the shot profile, good to ~1e-10
    assert L == pytest.approx(0.5 * J01 ** 2 / math.pi ** 2, rel=1e-9)
    with pytest.raises(ParameterError):
        dirichlet_ball_profile(2.0, 2, 0.0, 1.0)
    with pytest.raises(ParameterError):
        dirichlet_ball_profile(2.0, 2, 1.0, -1.0)


def test_L_bound_square():
    L = dirichlet_ball_profile(2.0, 2, math.sqrt(2.0), math.pi ** 2).measure
    margins = oracles.interval_margins(L, s_tilde=0.5, area=1.0)
    assert min(margins) >= -CHECK_TOL
    assert min(margins) == pytest.approx(0.20702037650077665, abs=1e-10)
    assert min(oracles.interval_margins(L, s_tilde=1e-9, area=1.0)) \
        < -CHECK_TOL


def test_parameter_validation():
    with pytest.raises(ParameterError):
        SturmProblem(gamma=1.0, beta=0.5, length=1.0)
    with pytest.raises(ParameterError):
        SturmProblem(gamma=2.0, beta=2.0, length=1.0)
    with pytest.raises(ParameterError):
        SturmProblem(gamma=2.0, beta=-0.1, length=1.0)
    with pytest.raises(ParameterError):
        SturmProblem(gamma=2.0, beta=1.0, length=0.0)
    with pytest.raises(ParameterError):
        SturmProblem(gamma=2.0, beta=1.0, length=1.0, n_cells=3)
    SturmProblem(gamma=1.5, beta=1.0, length=1.0, n_cells=MAX_CELLS)
    with pytest.raises(ParameterError):
        SturmProblem(gamma=1.5, beta=1.0, length=1.0, n_cells=MAX_CELLS + 1)
    # gamma = 2 has the smaller budget its residual gate certifies
    SturmProblem(gamma=2.0, beta=1.0, length=1.0, n_cells=MAX_LINEAR_CELLS)
    for cells in (MAX_LINEAR_CELLS + 1, MAX_CELLS):
        with pytest.raises(ParameterError, match="at gamma = 2"):
            SturmProblem(gamma=2.0, beta=1.0, length=1.0, n_cells=cells)
