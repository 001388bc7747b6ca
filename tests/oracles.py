"""Reference routes, checks and mesh helpers that only the tests use.

Each reference route computes a quantity the library also computes, by an
independent route: the tests compare the two. Each check returns the
numbers of one inequality of the paper, which the tests hold to their own
tolerances. The ``*_closed_form`` functions give each domain family's
area, width and diameter by formula, against the ring formulas of
geometry.DomainSpec. ``validate_mesh`` checks a mesh's topology and area;
``scaled`` rescales a mesh for covariance tests; ``half_rhombus`` cuts the
mesh of the mixed problem whose eigenvalue is the rhombus mu1, and
``constrained_pair`` solves that problem and the Dirichlet one, which the
library does not. ``dense_pair`` is the second route for the library's
sparse eigensolver, on the FEM matrices or on ``sturm_linear_pencil``.
``near_zero_profile`` is the local model of the radial profile at its zero
that ``RadialProfile.value`` is held to there. ``compiled_profile_steps``
shoots the profile through scipy's compiled DOP853, the reference for the
library's own march.
"""

import dataclasses
import math
from unittest import mock

import numpy as np
import scipy.sparse as sparse
from scipy.integrate import _dop, ode
from scipy.linalg import eigh
from scipy.special import jv

from spectral_bounds import (bounds, fem, geometry, rearrangement, special,
                             sturm1d)
from spectral_bounds.errors import ParameterError
from spectral_bounds.rearrangement import (_power_diff, cumulative_power,
                                           dirichlet_ball_profile)


def rhombus_closed_form(m: int) -> tuple[float, float, float]:
    """(area, width, diameter) of the unit-side rhombus with acute angle
    2 pi / m: its area and width are both sin(2 pi / m), its long diagonal
    2 cos(pi / m)."""
    beta = 2.0 * math.pi / m
    return math.sin(beta), math.sin(beta), 2.0 * math.cos(beta / 2.0)


def rectangle_closed_form(a: float, b: float) -> tuple[float, float, float]:
    """(area, width, diameter) of the a x b rectangle, a >= b."""
    return a * b, b, math.hypot(a, b)


def polygon_closed_form(k: int, r: float) -> tuple[float, float | None,
                                                   float | None]:
    """(area, width, diameter) of the regular k-gon of circumradius r;
    width and diameter are None for odd k, which has no centre of
    symmetry."""
    area = 0.5 * k * r ** 2 * math.sin(2.0 * math.pi / k)
    if k % 2:
        return area, None, None
    return area, 2.0 * r * math.cos(math.pi / k), 2.0 * r


def max_edge_length(mesh: geometry.Mesh) -> float:
    p = mesh.nodes[mesh.elements]
    lengths = [np.linalg.norm(p[:, i] - p[:, j], axis=1)
               for i, j in ((0, 1), (1, 2), (2, 0))]
    return float(np.max(lengths))


def undirected_edges(mesh: geometry.Mesh) -> dict[tuple[int, int], int]:
    """Multiplicity of each undirected element edge."""
    table = geometry.edge_table(mesh)
    counts = np.bincount(table.element_edges.ravel())
    return dict(zip(map(tuple, table.edges.tolist()), counts.tolist()))


def validate_mesh(mesh: geometry.Mesh, area: float | None = None) -> float:
    """Check orientation, conformity and the Euler relation; return the area.

    Raises ParameterError on any violation. The Euler count V - E + F = 1
    holds for a simply connected triangulated disk.
    """
    areas = geometry.element_areas(mesh)
    if np.any(areas <= 0.0):
        raise ParameterError("mesh has non-positive element areas")
    counts = np.bincount(geometry.edge_table(mesh).element_edges.ravel())
    if np.any(counts > 2):
        raise ParameterError("mesh edge shared by more than two elements")
    euler = mesh.node_count - len(counts) + mesh.element_count
    if euler != 1:
        raise ParameterError(f"Euler relation violated: V - E + F = {euler}")
    total = float(np.sum(areas))
    if area is not None and abs(total - area) > 1e-12 * max(area, 1.0):
        raise ParameterError(f"mesh area {total} != domain area {area}")
    return total


def scaled(mesh: geometry.Mesh, factor: float) -> geometry.Mesh:
    """Mesh with all coordinates multiplied by ``factor``."""
    if factor <= 0.0:
        raise ParameterError(f"scale factor must be positive, got {factor}")
    return dataclasses.replace(mesh, nodes=mesh.nodes * factor)


def boundary_nodes(mesh: geometry.Mesh) -> np.ndarray:
    """Nodes on the mesh's topological boundary: the ends of the edges only
    one element has."""
    table = geometry.edge_table(mesh)
    counts = np.bincount(table.element_edges.ravel())
    return np.unique(table.edges[counts == 1])


def constrained_pair(mesh: geometry.Mesh, zero) -> fem.EigenPair:
    """First eigenpair with u = 0 on the nodes ``zero`` and the natural
    (Neumann) condition on the rest of the boundary: the Dirichlet pair
    when ``zero`` is the whole boundary.

    Solves the assembled matrices restricted to the free nodes with the
    library's eigensolver and re-embeds the vector, zero on ``zero``. An
    empty ``zero`` is refused, as that is the Neumann problem, and so is a
    mesh with fewer than 3 free nodes: ARPACK needs more unknowns than the
    solver's 2 Ritz pairs.
    """
    if not len(zero):
        raise ParameterError("mixed problem needs at least one zero node")
    free = np.setdiff1d(np.arange(mesh.node_count), zero)
    if free.size < 3:
        raise ParameterError(
            f"{free.size} of the 3 free nodes the eigensolver needs; "
            "refine the mesh")
    pair = fem._inverse_iteration(fem.assemble_stiffness(mesh)[free][:, free],
                                  fem.assemble_mass(mesh)[free][:, free], 0.0)
    vector = np.zeros(mesh.node_count)
    vector[free] = pair.vector
    return dataclasses.replace(pair, vector=vector)


def dense_pair(K, M) -> tuple[np.ndarray, np.ndarray]:
    """Every eigenvalue of the pencil (K, M), ascending, with M-orthonormal
    eigenvectors, from scipy's dense generalized eigensolver."""
    return eigh(K.toarray(), M.toarray())


def sturm_linear_pencil(problem: sturm1d.SturmProblem):
    """(K, M) of the gamma = 2 quotient on the problem's graded grid, over
    nodes 1..N: the stiffness with cell weights 1/h, and the mass of the
    weight s^(-beta) from the descent's Gauss-Legendre table, in closed
    form on the first cell."""
    s = sturm1d._graded_grid(problem.length, problem.n_cells)
    w = 1.0 / np.diff(s)
    main = w.copy()
    main[:-1] += w[1:]
    K = sparse.diags([main, -w[1:], -w[1:]], [0, 1, -1], format="csc")
    beta = problem.beta
    wq, xi = sturm1d._weight_quadrature(s, beta)
    diag = np.zeros(problem.n_cells)
    diag[0] = s[1] ** (1.0 - beta) / (3.0 - beta)
    diag[:-1] += np.sum(wq * (1.0 - xi) ** 2, axis=1)
    diag[1:] += np.sum(wq * xi ** 2, axis=1)
    off = np.sum(wq * xi * (1.0 - xi), axis=1)
    M = sparse.diags([diag, off, off], [0, 1, -1], format="csc")
    return K, M


def half_rhombus(mesh: geometry.Mesh) -> tuple[geometry.Mesh, np.ndarray]:
    """Triangle A B D of a rhombus mesh, and its nodes on the short diagonal.

    Keeps the elements whose nodes all have x <= c, with c = 0.5 * max x
    the abscissa of the short diagonal, on their nodes renumbered in index
    order. The cut is exact: C is (2c, 0), so O and every refinement
    midpoint on the diagonal have x == c bit for bit. The second value
    holds the half's nodes with x == c, where the mixed problem is zero.
    """
    x = mesh.nodes[:, 0]
    c = 0.5 * x.max()
    left = np.all(x[mesh.elements] <= c, axis=1)
    kept, elements = np.unique(mesh.elements[left], return_inverse=True)
    nodes = mesh.nodes[kept]
    return (geometry.Mesh(nodes=nodes, elements=elements.reshape(-1, 3)),
            np.flatnonzero(nodes[:, 0] == c))


def normalized_bessel_profile(n: int, r):
    """The p = 2 radial profile in closed form, normalized to 1 at r = 0.

    Equals Gamma(n/2) (2/r)^(n/2-1) J_(n/2-1)(r); for n = 2 this is J_0(r)
    and for n = 3 it is sin(r)/r.
    """
    r = np.asarray(r, dtype=float)
    nu = n / 2.0 - 1.0
    out = np.ones_like(r)
    nz = r != 0.0
    out[nz] = math.gamma(n / 2.0) * (2.0 / r[nz]) ** nu * jv(nu, r[nz])
    return out if out.ndim else float(out)


def zero_slope(profile: special.RadialProfile) -> float:
    """-Psi'(psi) = |Q(psi)|^(1/(p-1)), read from the zero's state, the last
    row of the profile's shooting table."""
    return abs(profile._steps[2, -1]) ** (1.0 / (profile.p - 1.0))


def near_zero_profile(profile: special.RadialProfile, u):
    """Psi(psi - u) = a u (1 + b u) + O(u^3), a the zero slope and
    b = (n-1) / (2 (p-1) psi): at the zero the ODE reduces to
    (p-1) Psi'' = -(n-1)/psi Psi', which fixes the second-order term."""
    psi = profile.first_zero
    b = (profile.n - 1.0) / (2.0 * (profile.p - 1.0) * psi)
    u = np.asarray(u, dtype=float)
    return zero_slope(profile) * u * (1.0 + b * u)


#: Whether scipy's ode("dop853") runs the C port of Hairer's code, the
#: _dop.dopri853 of scipy 1.17, rather than the f2py wrapper of his
#: Fortran, _dop.dop853. The C port divides a rejected step by 1/0.3
#: whatever its error; the Fortran divides it by min(1/0.3, err^(1/8)/0.9).
#: special._march follows the C port, so only there is the compiled route
#: its oracle to the bit.
COMPILED_DOP853_IS_C_PORT = hasattr(_dop, "dopri853")


def _compiled_march(rhs, r, y, r_end):
    """special._march through scipy's compiled ``ode("dop853")``: a
    solout callback records the start and every accepted step, and stops
    the march after the first step that ends with Psi <= 0."""
    steps = []

    def record(r, y):
        steps.append((r, *y.tolist()))
        return -1 if y[0] <= 0.0 else 0

    solver = ode(lambda r, y: rhs(r, y.tolist()))
    solver.set_integrator("dop853", rtol=special._RTOL, atol=special._ATOL,
                          nsteps=special._STEP_CAP)
    solver.set_solout(record)
    solver.set_initial_value(y, r).integrate(r_end)
    return steps


def compiled_profile_steps(p: float, n: int) -> np.ndarray:
    """The shooting table of psi_profile(p, n), its series start, Newton
    and zero row unchanged, with the march taken by scipy's compiled
    DOP853 instead of special._march. The cache is bypassed."""
    with mock.patch.object(special, "_march", _compiled_march):
        return special.psi_profile.__wrapped__(p, n)._steps


def ball_profile_value(ball: rearrangement.BallComparisonProfile,
                       s) -> np.ndarray:
    """The comparison ball's rearranged eigenfunction at measures s, from
    its public fields: Psi at psi (s / measure)^(1/n)."""
    prof = special.psi_profile(ball.p, ball.n)
    r = prof.first_zero * (np.asarray(s, dtype=float)
                           / ball.measure) ** (1.0 / ball.n)
    return np.asarray(prof.value(r))


def _homogeneous_sum(values: np.ndarray, q: int) -> np.ndarray:
    """Complete homogeneous symmetric polynomial h_q of each value triple."""
    out = np.zeros(values.shape[0])
    v0, v1, v2 = values[:, 0], values[:, 1], values[:, 2]
    for i in range(q + 1):
        inner = np.zeros_like(out)
        for j in range(q - i + 1):
            inner += v1 ** j * v2 ** (q - i - j)
        out += v0 ** i * inner
    return out


def mesh_positive_power_integral(mesh: geometry.Mesh, nodal, q: int) -> float:
    """Integral of the positive part to power q directly on the mesh.

    Independent route from the rearranged-profile integral: per element
    the region where the linear interpolant is positive is decomposed
    into sub-triangles and integrated with the barycentric moment
    formula, exact for integer q.
    """
    if int(q) != q or q < 1:
        raise ParameterError("mesh route requires integer q >= 1")
    q = int(q)
    nodal = np.asarray(nodal, dtype=float)
    tri = np.sort(nodal[mesh.elements], axis=1)[:, ::-1]
    areas = geometry.element_areas(mesh)
    scale = 2.0 * math.factorial(q) / math.factorial(q + 2)
    v0, v1, v2 = tri[:, 0], tri[:, 1], tri[:, 2]
    total = 0.0

    full = v2 >= 0.0
    if np.any(full):
        total += scale * float(np.sum(areas[full]
                                      * _homogeneous_sum(tri[full], q)))

    one = (v0 > 0.0) & (v1 <= 0.0) & (v2 < 0.0)
    if np.any(one):
        frac = (v0[one] / (v0[one] - v1[one])) * (v0[one] / (v0[one] - v2[one]))
        total += scale * float(np.sum(areas[one] * frac * v0[one] ** q))

    two = (v1 > 0.0) & (v2 < 0.0)
    if np.any(two):
        whole = areas[two] * _homogeneous_sum(tri[two], q)
        frac = (v2[two] / (v2[two] - v0[two])) * (v2[two] / (v2[two] - v1[two]))
        total += scale * float(np.sum(whole - frac * areas[two]
                                      * v2[two] ** q))
    return total


def profile_samples(profile) -> np.ndarray:
    """u* sampled on [0, |domain|]: a uniform 4096-point grid plus both
    one-sided values of the distribution function at every break."""
    p = profile.pieces
    grid = np.unique(np.concatenate(
        [np.linspace(0.0, profile.domain_measure, 4096), p.values,
         p.values + p.atoms]))
    grid = grid[(grid >= 0.0) & (grid <= profile.domain_measure)]
    return profile.value(grid)


def profile_integral(profile) -> float:
    """Exact integral of u over the domain, by Cavalieri from the pieces of
    its rearrangement."""
    p = profile.pieces
    lo, hi = p.breaks[:-1], p.breaks[1:]
    width = hi - lo
    d1 = width * (hi + lo) / 2.0
    # exact grouping of int t(t - lo) dt over the piece; the top piece is 0
    d2_anchor = width ** 2 * (2.0 * hi + lo) / 6.0
    return float(np.sum(p.atoms * p.breaks)) + float(np.sum(
        -(p.slopes[:-1] * d1 + 2.0 * p.curvatures[:-1] * d2_anchor)))


def profile_abs_power_integral(profile, q: float) -> float:
    """Exact integral of |u|^q over the domain: the profile's positive part
    plus the mirrored negative side of its pieces."""
    if q <= 0:
        raise ParameterError("exponent must be positive")
    total = cumulative_power(profile, q).total
    p = profile.pieces
    # mirror the negative side: w = -t runs over [-hi, -lo]
    w_lo = np.maximum(-p.breaks[1:], 0.0)
    w_hi = np.maximum(-p.breaks[:-1], 0.0)
    d1 = _power_diff(w_lo, w_hi, q + 1.0) / (q + 1.0)
    d2 = _power_diff(w_lo, w_hi, q + 2.0) / (q + 2.0)
    anchor = p.breaks[:-1]
    total += float(np.sum(2.0 * p.curvatures[:-1] * (anchor * d1 + d2)
                          - p.slopes[:-1] * d1))
    neg = p.breaks < 0
    total += float(np.sum(p.atoms[neg] * (-p.breaks[neg]) ** q))
    return total


def dominance_ratio(p: float, n: int) -> float:
    """main_bound / ashbaugh_mercado in closed form, (psi_p p (n-1) / n^2)^p:
    the domain data cancels in the quotient."""
    psi = special.psi_profile(p, n).first_zero
    return (psi * p * (n - 1.0) / n ** 2) ** p


def sup_ratio(p: float, n: int, r: float, q: float) -> float:
    """(f(r)/f(q))^(p q r / (n (q - r))) for 0 < r < q, in log space, with
    f the power mean of the radial profile. Each value is <= 1 up to
    quadrature noise, and the supremum equals 1 (as r, q -> 0 together)."""
    profile = special.psi_profile(p, n)
    exponent = p * q * r / (n * (q - r))
    return math.exp(exponent * (profile.log_power_mean(r)
                                - profile.log_power_mean(q)))


def thin_domain_products(spec: geometry.DomainSpec,
                         c: float) -> tuple[float, float]:
    """(c w d, width bound times d^2) of a centrally symmetric domain.

    The thin-domain hypothesis is area < c w d with 0 < c < j01/pi. Where
    it holds, the width bound times d^2 clears j01^2/c^2 > pi^2, so the
    width bound beats the diameter bound pi^2/d^2.
    """
    width, diameter = spec.width, spec.diameter
    return (c * width * diameter,
            bounds.symmetric_planar_bound(width, spec.area) * diameter ** 2)


def sturm_round_trip(p: float, n: int, K: float,
                     mu1: float) -> tuple[float, float, float]:
    """(L, mu1/K^p, relative error) of the interval round trip: sigma1 on
    (0, L), L the comparison ball's measure, raised to the power p - 1 must
    reproduce mu1/K^p."""
    L = dirichlet_ball_profile(p, n, K, mu1).measure
    gamma = p / (p - 1.0)
    beta = gamma * (1.0 - 1.0 / n)
    sigma = sturm1d.solve(sturm1d.SturmProblem(gamma=gamma, beta=beta,
                                               length=L)).sigma
    target = mu1 / K ** p
    return L, target, abs(sigma ** (p - 1.0) - target) / target


def interval_margins(L: float, s_tilde: float,
                     area: float) -> tuple[float, float, float]:
    """Margins of L <= min(s_tilde, area - s_tilde, area/2), in units of
    the domain measure: the interval is never longer than either nodal
    region or half the domain."""
    return ((s_tilde - L) / area, (area - s_tilde - L) / area,
            (0.5 * area - L) / area)
