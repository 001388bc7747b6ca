"""P1 finite elements for the Neumann eigenvalue problem (p = 2 only).

Assembly produces scipy CSC matrices, the format the sparse LU factors:
the stiffness matrix from the exact per-element gradient formula and the
consistent mass matrix (area/12) [[2,1,1],[1,2,1],[1,1,2]]. The eigen
solve factors the shifted stiffness matrix once and runs ARPACK
shift-invert Lanczos on that factor at every problem size, then polishes
the pair with one inverse-iteration step on the same factor, deflating the
constant mode in that step for the Neumann problem. Everything is
deterministic: the start vector is drawn from a fixed-seed generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sparse
from scipy.sparse.linalg import ArpackError, LinearOperator, cg, eigsh, splu

from .errors import ConvergenceError, ParameterError
from .geometry import Mesh, element_areas

_SEED = 42
_RES_TOL = 1e-9


@dataclass
class EigenPair:
    """Converged eigenvalue/eigenvector.

    The vector spans the solve's own unknowns (for a mesh, all its nodes),
    has unit mass norm, and satisfies the residual bound checked at
    convergence.
    ``iterations`` counts the solves with the single LU factor: ARPACK's
    shift-invert applications plus the polishing step, at every size.
    """

    value: float
    vector: np.ndarray
    residual: float
    iterations: int


def _element_geometry(mesh: Mesh):
    areas = element_areas(mesh)
    if np.any(areas <= 0.0):
        raise ParameterError("assembly requires positively oriented elements")
    p = mesh.nodes[mesh.elements]
    # Gradient of the barycentric basis: rotated opposite edge over 2A.
    edges = np.stack([p[:, 2] - p[:, 1], p[:, 0] - p[:, 2], p[:, 1] - p[:, 0]],
                     axis=1)
    grads = np.stack([-edges[:, :, 1], edges[:, :, 0]], axis=2)
    grads /= (2.0 * areas)[:, None, None]
    return areas, grads


def assemble_stiffness(mesh: Mesh) -> sparse.csc_matrix:
    """Stiffness matrix int grad(u) . grad(v); rows sum to zero."""
    areas, grads = _element_geometry(mesh)
    local = np.einsum("eid,ejd->eij", grads, grads) * areas[:, None, None]
    return _scatter(mesh, local)


def assemble_mass(mesh: Mesh) -> sparse.csc_matrix:
    """Consistent mass matrix; entries sum to the mesh area."""
    areas = element_areas(mesh)
    pattern = (np.full((3, 3), 1.0) + np.eye(3)) / 12.0
    local = areas[:, None, None] * pattern
    return _scatter(mesh, local)


def _scatter(mesh: Mesh, local: np.ndarray) -> sparse.csc_matrix:
    rows = np.repeat(mesh.elements, 3, axis=1).ravel()
    cols = np.tile(mesh.elements, (1, 3)).ravel()
    mat = sparse.coo_matrix((local.ravel(), (rows, cols)),
                            shape=(mesh.node_count, mesh.node_count))
    return mat.tocsc()


def _inverse_iteration(K, M, shift: float, neumann: bool = False) -> EigenPair:
    """Lowest eigenpair (above the constant mode for Neumann) on one factor.

    K and M are CSC matrices. ARPACK runs Lanczos on (K + shift M)^-1 M
    with the single sparse LU of the shifted matrix and a fixed start
    vector; three Ritz pairs (two without the constant mode) resolve the
    nearly degenerate first pairs that symmetric domains split by a high
    power of h. ARPACK caps its Lanczos basis at the n unknowns, so this
    one path serves every n above the k Ritz pairs: a Neumann mesh has at
    least 4 nodes for k = 3, a 1-D grid at least 4 cells for k = 2.
    One inverse-iteration step on the same factor polishes the pair. The
    residual is measured in the M^-1 norm by Jacobi-preconditioned CG on M
    (on P1 triangles the Jacobi-scaled mass matrix has condition number at
    most 4), relative to the eigenvalue, and must be below _RES_TOL; the
    eigenvalue itself must be positive.
    """
    try:
        lu = splu((K + shift * M) if shift else K)
    except RuntimeError as ex:
        # SuperLU reports an exactly singular pivot this way
        raise ConvergenceError(
            f"eigen solve could not factor its shifted stiffness: {ex}"
        ) from None
    solves = 0

    def solve(x):
        nonlocal solves
        solves += 1
        return lu.solve(x)

    k = 3 if neumann else 2
    n = K.shape[0]
    v0 = np.random.default_rng(_SEED).standard_normal(n)
    try:
        values, vectors = eigsh(
            K, k, M=M, sigma=-shift, v0=v0, tol=0,
            OPinv=LinearOperator((n, n), matvec=solve, dtype=float))
    except ArpackError as ex:
        raise ConvergenceError(f"ARPACK failed: {ex}") from None
    v = solve(M @ vectors[:, np.argsort(values)[1 if neumann else 0]])
    if neumann:
        mass_ones = M @ np.ones(n)
        v -= (mass_ones @ v) / mass_ones.sum()
    v /= math.sqrt(float(v @ (M @ v)))
    value = float(v @ (K @ v))
    r = K @ v - value * (M @ v)
    z, info = cg(M, r, rtol=1e-12, M=sparse.diags(1.0 / M.diagonal()))
    residual = math.sqrt(max(float(r @ z), 0.0)) / abs(value)
    # a non-positive Rayleigh quotient is roundoff on a degenerate mesh,
    # however small its residual
    if info != 0 or not (value > 0.0 and residual <= _RES_TOL):
        raise ConvergenceError(
            f"eigen solve not certified: residual {residual:.3g} "
            f"(tolerance {_RES_TOL:g})")
    return EigenPair(value=value, vector=v, residual=residual,
                     iterations=solves)


def solve_neumann_mu1(mesh: Mesh) -> EigenPair:
    """First nontrivial Neumann eigenvalue (constant mode deflated)."""
    K = assemble_stiffness(mesh)
    M = assemble_mass(mesh)
    span = mesh.nodes.max(axis=0) - mesh.nodes.min(axis=0)
    shift = math.pi ** 2 / float(span @ span)
    return _inverse_iteration(K, M, shift, neumann=True)


def richardson(coarse: float, fine: float) -> float:
    """Second-order Richardson extrapolation across one refinement level."""
    return (4.0 * fine - coarse) / 3.0
