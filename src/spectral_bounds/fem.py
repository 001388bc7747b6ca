"""P1 finite elements for the Laplacian eigenvalue problems (p = 2 only).

Assembly produces scipy CSR matrices: the stiffness matrix from the exact
per-element gradient formula and the consistent mass matrix
(area/12) [[2,1,1],[1,2,1],[1,1,2]]. Every eigen solve factors the shifted
stiffness matrix once and runs ARPACK shift-invert Lanczos on that factor,
then polishes the pair with one inverse-iteration step on the same factor;
the Neumann solve deflates the constant mode in that step. Everything is
deterministic: the start vector is drawn from a fixed-seed generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sparse
from scipy.linalg import eigh
from scipy.sparse.linalg import ArpackError, LinearOperator, cg, eigsh, splu

from .errors import ConvergenceError, ParameterError
from .geometry import Mesh, edge_table, element_areas

_SEED = 42
_RES_TOL = 1e-9
# up to this many unknowns ARPACK's default 20-vector Lanczos basis does not
# fit; a dense generalized eigensolve is exact and cheap there
_DENSE_SIZE = 20


@dataclass
class EigenPair:
    """Converged eigenvalue/eigenvector with its boundary condition tag.

    The vector spans all mesh nodes (zeros on constrained ones), has unit
    mass norm, and satisfies the residual bound checked at convergence.
    ``iterations`` counts the solves with the single LU factor: ARPACK's
    shift-invert applications plus the polishing step.
    """

    value: float
    vector: np.ndarray
    bc: str
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


def assemble_stiffness(mesh: Mesh) -> sparse.csr_matrix:
    """Stiffness matrix int grad(u) . grad(v); rows sum to zero."""
    areas, grads = _element_geometry(mesh)
    local = np.einsum("eid,ejd->eij", grads, grads) * areas[:, None, None]
    return _scatter(mesh, local)


def assemble_mass(mesh: Mesh) -> sparse.csr_matrix:
    """Consistent mass matrix; entries sum to the mesh area."""
    areas = element_areas(mesh)
    pattern = (np.full((3, 3), 1.0) + np.eye(3)) / 12.0
    local = areas[:, None, None] * pattern
    return _scatter(mesh, local)


def _scatter(mesh: Mesh, local: np.ndarray) -> sparse.csr_matrix:
    rows = np.repeat(mesh.elements, 3, axis=1).ravel()
    cols = np.tile(mesh.elements, (1, 3)).ravel()
    mat = sparse.coo_matrix((local.ravel(), (rows, cols)),
                            shape=(mesh.node_count, mesh.node_count))
    return mat.tocsr()


def _true_boundary_nodes(mesh: Mesh) -> np.ndarray:
    table = edge_table(mesh)
    return np.unique(table.edges[table.counts == 1])


def _inverse_iteration(K, M, free: np.ndarray, bc: str,
                       shift: float) -> EigenPair:
    """Lowest eigenpair (above the constant mode for Neumann) on one factor.

    ARPACK runs Lanczos on (K + shift M)^-1 M with the single sparse LU of
    the shifted matrix and a fixed start vector; three Ritz pairs (two
    without the constant mode) resolve the nearly degenerate first pairs
    that symmetric domains split by a high power of h. One
    inverse-iteration step on the same factor polishes the pair. The
    residual is measured in the M^-1 norm by Jacobi-preconditioned CG on M
    (on P1 triangles the Jacobi-scaled mass matrix has condition number at
    most 4), relative to the eigenvalue, and must be below _RES_TOL; the
    eigenvalue itself must be positive.
    """
    Kff = K[free][:, free].tocsc()
    Mff = M[free][:, free].tocsc()
    try:
        lu = splu((Kff + shift * Mff) if shift else Kff)
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

    neumann = bc == "neumann"
    k = 3 if neumann else 2
    n = free.size
    if n <= _DENSE_SIZE:
        values, vectors = eigh(Kff.toarray(), Mff.toarray())
    else:
        v0 = np.random.default_rng(_SEED).standard_normal(n)
        try:
            values, vectors = eigsh(
                Kff, k, M=Mff, sigma=-shift, v0=v0, tol=0,
                OPinv=LinearOperator((n, n), matvec=solve, dtype=float))
        except ArpackError as ex:
            raise ConvergenceError(f"ARPACK failed: {ex}") from None
    v = solve(Mff @ vectors[:, np.argsort(values)[1 if neumann else 0]])
    if neumann:
        mass_ones = Mff @ np.ones(n)
        v -= (mass_ones @ v) / mass_ones.sum()
    v /= math.sqrt(float(v @ (Mff @ v)))
    value = float(v @ (Kff @ v))
    r = Kff @ v - value * (Mff @ v)
    z, info = cg(Mff, r, rtol=1e-12, M=sparse.diags(1.0 / Mff.diagonal()))
    residual = math.sqrt(max(float(r @ z), 0.0)) / abs(value)
    # a non-positive Rayleigh quotient is roundoff on a degenerate mesh,
    # however small its residual
    if info != 0 or not (value > 0.0 and residual <= _RES_TOL):
        raise ConvergenceError(
            f"eigen solve not certified: residual {residual:.3g} "
            f"(tolerance {_RES_TOL:g})")
    full = np.zeros(K.shape[0])
    full[free] = v
    return EigenPair(value=value, vector=full, bc=bc, residual=residual,
                     iterations=solves)


def solve_neumann_mu1(mesh: Mesh) -> EigenPair:
    """First nontrivial Neumann eigenvalue (constant mode deflated)."""
    K = assemble_stiffness(mesh)
    M = assemble_mass(mesh)
    span = mesh.nodes.max(axis=0) - mesh.nodes.min(axis=0)
    shift = math.pi ** 2 / float(span @ span)
    free = np.arange(mesh.node_count)
    return _inverse_iteration(K, M, free, "neumann", shift)


def solve_dirichlet_lambda1(mesh: Mesh) -> EigenPair:
    """First Dirichlet eigenvalue; constrains the true topological boundary."""
    K = assemble_stiffness(mesh)
    M = assemble_mass(mesh)
    constrained = _true_boundary_nodes(mesh)
    free = np.setdiff1d(np.arange(mesh.node_count), constrained)
    if free.size == 0:
        raise ParameterError("no interior nodes; refine the mesh")
    return _inverse_iteration(K, M, free, "dirichlet", 0.0)


def solve_mixed_dn(mesh: Mesh) -> EigenPair:
    """First eigenvalue with u = 0 on the mesh's diagonal chain only.

    The rest of the boundary carries the natural (Neumann) condition. A mesh
    with an empty diagonal is refused.
    """
    if not len(mesh.diagonal):
        raise ParameterError("mesh has no diagonal chain to constrain")
    K = assemble_stiffness(mesh)
    M = assemble_mass(mesh)
    free = np.setdiff1d(np.arange(mesh.node_count), mesh.diagonal)
    return _inverse_iteration(K, M, free, "mixed", 0.0)


def richardson(coarse: float, fine: float) -> float:
    """Second-order Richardson extrapolation across one refinement level."""
    return (4.0 * fine - coarse) / 3.0
