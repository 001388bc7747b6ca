"""Reference routes and mesh helpers that only the tests use.

Each reference route computes a quantity the library also computes, by an
independent route: the tests compare the two. ``validate_mesh`` checks a
mesh's topology and area; ``scaled`` rescales a mesh for covariance tests.
"""

import dataclasses
import math

import numpy as np

from spectral_bounds import geometry, special
from spectral_bounds.errors import ParameterError
from spectral_bounds.rearrangement import _power_diff, cumulative_power


def max_edge_length(mesh: geometry.Mesh) -> float:
    p = mesh.nodes[mesh.elements]
    lengths = [np.linalg.norm(p[:, i] - p[:, j], axis=1)
               for i, j in ((0, 1), (1, 2), (2, 0))]
    return float(np.max(lengths))


def undirected_edges(mesh: geometry.Mesh) -> dict[tuple[int, int], int]:
    """Multiplicity of each undirected element edge."""
    table = geometry.edge_table(mesh)
    return dict(zip(map(tuple, table.edges.tolist()), table.counts.tolist()))


def validate_mesh(mesh: geometry.Mesh, area: float | None = None) -> float:
    """Check orientation, conformity and the Euler relation; return the area.

    Raises ParameterError on any violation. The Euler count V - E + F = 1
    holds for a simply connected triangulated disk.
    """
    areas = geometry.element_areas(mesh)
    if np.any(areas <= 0.0):
        raise ParameterError("mesh has non-positive element areas")
    table = geometry.edge_table(mesh)
    if np.any(table.counts > 2):
        raise ParameterError("mesh edge shared by more than two elements")
    euler = mesh.node_count - len(table.counts) + mesh.element_count
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


def normalized_bessel_profile(n: int, r):
    """The p = 2 radial profile in closed form, normalized to 1 at r = 0.

    Equals Gamma(n/2) (2/r)^(n/2-1) J_(n/2-1)(r); for n = 2 this is J_0(r)
    and for n = 3 it is sin(r)/r.
    """
    r = np.asarray(r, dtype=float)
    nu = n / 2.0 - 1.0
    out = np.ones_like(r)
    nz = r != 0.0
    out[nz] = (math.gamma(n / 2.0) * (2.0 / r[nz]) ** nu
               * special.bessel_j(nu, r[nz]))
    return out if out.ndim else float(out)


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
    right = np.concatenate([profile.pieces.values, [0.0]])
    grid = np.unique(np.concatenate(
        [np.linspace(0.0, profile.domain_measure, 4096), right,
         profile._left_limits()]))
    grid = grid[(grid >= 0.0) & (grid <= profile.domain_measure)]
    return profile.value(grid)


def profile_integral(profile) -> float:
    """Exact integral of u over the domain, by Cavalieri from the pieces of
    its rearrangement."""
    p = profile.pieces
    total = float(np.sum(p.atoms * p.breaks))
    if len(p.values) == 0:
        return total
    lo, hi = p.breaks[:-1], p.breaks[1:]
    width = hi - lo
    d1 = width * (hi + lo) / 2.0
    # exact grouping of int t(t - lo) dt over the piece
    d2_anchor = width ** 2 * (2.0 * hi + lo) / 6.0
    total += float(np.sum(-(p.slopes * d1 + 2.0 * p.curvatures * d2_anchor)))
    return total


def profile_abs_power_integral(profile, q: float) -> float:
    """Exact integral of |u|^q over the domain: the profile's positive part
    plus the mirrored negative side of its pieces."""
    if q <= 0:
        raise ParameterError("exponent must be positive")
    total = cumulative_power(profile, q).total
    p = profile.pieces
    if len(p.values) > 0:
        # mirror the negative side: w = -t runs over [-hi, -lo]
        w_lo = np.maximum(-p.breaks[1:], 0.0)
        w_hi = np.maximum(-p.breaks[:-1], 0.0)
        d1 = _power_diff(w_lo, w_hi, q + 1.0) / (q + 1.0)
        d2 = _power_diff(w_lo, w_hi, q + 2.0) / (q + 2.0)
        anchor = p.breaks[:-1]
        total += float(np.sum(
            2.0 * p.curvatures * (anchor * d1 + d2) - p.slopes * d1))
    neg = p.breaks < 0
    total += float(np.sum(p.atoms[neg] * (-p.breaks[neg]) ** q))
    return total
