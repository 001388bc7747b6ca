"""P1 finite elements for the Laplacian eigenvalue problems (p = 2 only).

Assembly produces scipy CSR matrices: the stiffness matrix from the exact
per-element gradient formula and the consistent mass matrix
(area/12) [[2,1,1],[1,2,1],[1,1,2]]. Eigenvalues come from shift-inverted
power iteration with a sparse direct inner solve; the Neumann solve deflates
the constant mode every iteration. Everything is deterministic: the start
vector is drawn from a fixed-seed generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sparse
from scipy.sparse.linalg import splu

from .errors import ConvergenceError, ParameterError
from .geometry import Mesh, edge_table, element_areas

_SEED = 42
_EIG_TOL = 1e-10
_RES_TOL = 1e-9
_MAX_ITER = 10_000


@dataclass
class EigenPair:
    """Converged eigenvalue/eigenvector with its boundary condition tag.

    The vector spans all mesh nodes (zeros on constrained ones), has unit
    mass norm, and satisfies the residual bound checked at convergence.
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


def _tagged_nodes(mesh: Mesh, tag: str) -> np.ndarray:
    nodes = {idx for i, j, t in mesh.boundary_edges if t == tag
             for idx in (i, j)}
    return np.array(sorted(nodes), dtype=int)


def _inverse_iteration(K, M, free: np.ndarray, bc: str, shift: float,
                       block: int = 2, max_iter: int = _MAX_ITER) -> EigenPair:
    """Block shift-invert power iteration with per-step Rayleigh-Ritz.

    A two-column block keeps the contraction rate tied to the third
    eigenvalue, so nearly degenerate first pairs (symmetric domains split the
    continuum double eigenvalue by O(h^4)) still converge. Stops when the
    smallest Ritz value is stationary to _EIG_TOL relative AND its
    M^-1-weighted residual is below _RES_TOL relative to the eigenvalue.
    """
    Kff = K[free][:, free].tocsc()
    Mff = M[free][:, free].tocsc()
    lu = splu((Kff + shift * Mff) if shift else Kff)
    lu_mass = None
    rng = np.random.default_rng(_SEED)
    width = min(block, free.size)
    V = rng.standard_normal((free.size, width))
    ones = np.ones(free.size)
    mass_ones = Mff @ ones
    ones_norm = float(ones @ mass_ones)

    def deflate(W):
        if bc == "neumann":
            W -= np.outer(ones, mass_ones @ W) / ones_norm
        return W

    def orthonormalize(W):
        # Cholesky QR against M, applied twice to restore orthonormality
        # after the block columns collapse toward the dominant direction.
        for _ in range(2):
            gram = W.T @ (Mff @ W)
            W = W @ np.linalg.inv(np.linalg.cholesky(gram)).T
        return W

    V = orthonormalize(deflate(V))
    value = math.inf
    residual = math.inf
    for iteration in range(1, max_iter + 1):
        V = orthonormalize(deflate(lu.solve(Mff @ V)))
        ritz_values, rotation = np.linalg.eigh(V.T @ (Kff @ V))
        V = V @ rotation
        new_value = float(ritz_values[0])
        stationary = abs(new_value - value) <= _EIG_TOL * abs(new_value)
        value = new_value
        if stationary:
            if lu_mass is None:
                lu_mass = splu(Mff)
            v = V[:, 0]
            r = Kff @ v - value * (Mff @ v)
            residual = math.sqrt(max(float(r @ lu_mass.solve(r)), 0.0)) / value
            if residual <= _RES_TOL:
                full = np.zeros(K.shape[0])
                full[free] = v / math.sqrt(float(v @ (Mff @ v)))
                return EigenPair(value=value, vector=full, bc=bc,
                                 residual=residual, iterations=iteration)
    raise ConvergenceError(
        f"eigen iteration did not converge in {max_iter} steps",
        residual=residual)


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


def solve_mixed_dn(mesh: Mesh, dirichlet_tag: str = "diagonal") -> EigenPair:
    """First eigenvalue with u = 0 on edges carrying ``dirichlet_tag`` only."""
    constrained = _tagged_nodes(mesh, dirichlet_tag)
    if constrained.size == 0:
        raise ParameterError(f"mesh has no edges tagged {dirichlet_tag!r}")
    K = assemble_stiffness(mesh)
    M = assemble_mass(mesh)
    free = np.setdiff1d(np.arange(mesh.node_count), constrained)
    pair = _inverse_iteration(K, M, free, "mixed", 0.0)
    return pair


def richardson(coarse: float, fine: float) -> float:
    """Second-order Richardson extrapolation across one refinement level."""
    return (4.0 * fine - coarse) / 3.0
