"""Planar domains and structured triangle meshes.

A domain is its label, a hand-built base triangulation and the node ids of
its counterclockwise boundary ring. Area, width, diameter and central
symmetry come from the ring, by one set of formulas; only the family
constructors (``make_*``) know a family, and each builds a convex ring.

Meshes are produced by uniform midpoint (red) refinement of the base
triangulation (``triangulate``), so every refinement is nested in the
previous one; ``level_mesh`` rebuilds the chain up to a level, so a mesh is
a pure function of (domain, level) and nothing holds it. A mesh is
its nodes and its elements; its outer boundary is not stored: it is the set
of edges that one element has. The short diagonal of a rhombus lies on the
line x = cos(pi/m) and is made of mesh edges at every level, so the tests
cut the half rhombus of the mixed eigenvalue problem from the rhombus mesh.

A mesh's topology lives in one edge table (``edge_table``), built in a
single ``np.unique`` pass over the element edges. Edges are numbered in
first-encounter order, element by element with sides (0,1), (1,2), (2,0),
and red refinement names the midpoint of edge e node ``node_count + e``;
that rule fixes the node numbering of every refined mesh, and with it the
bytes of everything computed downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import ParameterError

# smallest length the solvers are validated at; far below it 1/h overflows
MIN_LENGTH = 1e-6
# largest length, the mirror of MIN_LENGTH; far above it areas and powers
# of the length overflow
MAX_LENGTH = 1e6
# most cells of the graded grid of the 1-D quotient (sturm1d); this cap and
# the next sit with the lengths so the CLI's help reads them without
# importing sturm1d
MAX_CELLS = 2 ** 16
# most cells at gamma = 2: the eigensolve's residual grows like N^2 on the
# graded grid and stays certifiable (below fem._RES_TOL) only up to here
MAX_LINEAR_CELLS = 4096
# most elements refine may build (square and rhombus level 8, 64-gon level
# 6); far past it a mesh needs gigabytes, so refine refuses before allocating
MAX_ELEMENTS = 2 ** 18
# largest rhombus m: compare-bounds and verify-rhombus at level 1 still
# certify their eigen solves at m = 4096, but not at m = 5289 nor at any
# larger m tried up to 1e8. The cap does not make every input below it
# certify: at m = 4096 both commands exit 1 at level 2 (residual 1.44e-09),
# since on thin rhombi the residual is roundoff-sized and erratic in m
# around the fixed 1e-9 gate; ROADMAP item 3 replaces the gate by a
# certificate, after which the cap is to be re-measured
MAX_RHOMBUS_M = 4096


# largest distance of ring[i] + ring[i + k/2] from twice the centre, as a
# fraction of the ring's extent about the centre, for which the ring is
# centrally symmetric; regular polygons of every even k to 2000, and of
# larger even k to 262144, at radii 1e-6 to 1e6 reach 2.0e-15
_SYMMETRY_TOL = 1e-12


@dataclass(frozen=True)
class DomainSpec:
    """A planar domain: its label, its hand-built base mesh (nodes,
    elements) and the node ids of its counterclockwise boundary ring.
    Width and diameter are measured from the centre, the midpoint of ring
    vertices 0 and k/2, and need a centrally symmetric ring.

    Equality and hashing read key alone, the constructor's name and exact
    arguments: the label rounds them, and comparing arrays would make a
    memo lookup cost grow with the vertex count.
    """

    key: tuple
    label: str = field(compare=False)
    nodes: np.ndarray = field(compare=False)
    elements: np.ndarray = field(compare=False)
    ring: np.ndarray = field(compare=False)

    def __post_init__(self) -> None:
        # every mesh chain shares the base arrays: none may change them
        for array in (self.nodes, self.elements, self.ring):
            array.flags.writeable = False

    @cached_property
    def area(self) -> float:
        """Shoelace area of the ring."""
        x, y = self.nodes[self.ring].T
        return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))

    @cached_property
    def centrally_symmetric(self) -> bool:
        """Vertex i + k/2 mirrors vertex i through the centre, k even."""
        points = self.nodes[self.ring]
        half, odd = divmod(len(points), 2)
        if odd:
            return False
        sums = points[:half] + points[half:]
        extent = np.max(np.abs(points - 0.5 * sums[0]))
        return bool(np.max(np.abs(sums - sums[0])) <= _SYMMETRY_TOL * extent)

    def _centred(self) -> np.ndarray:
        """Ring vertices less the centre of a centrally symmetric ring."""
        if not self.centrally_symmetric:
            raise ParameterError(f"{self.label} is not centrally symmetric")
        points = self.nodes[self.ring]
        return points - 0.5 * (points[0] + points[len(points) // 2])

    @cached_property
    def width(self) -> float:
        """Minimal distance between parallel supporting lines: twice the
        least distance from the centre to an edge line."""
        points = self._centred()
        edges = np.roll(points, -1, axis=0) - points
        cross = points[:, 0] * edges[:, 1] - points[:, 1] * edges[:, 0]
        return 2.0 * float(np.min(np.abs(cross)
                                  / np.hypot(edges[:, 0], edges[:, 1])))

    @cached_property
    def diameter(self) -> float:
        """Twice the largest distance from the centre to a vertex."""
        points = self._centred()
        return 2.0 * float(np.max(np.hypot(points[:, 0], points[:, 1])))


def make_rhombus(m: int) -> DomainSpec:
    """Unit-side rhombus with acute angle 2*pi/m (5 <= m <= MAX_RHOMBUS_M)."""
    if m < 5:
        raise ParameterError(f"rhombus requires m >= 5, got {m}")
    if m > MAX_RHOMBUS_M:
        raise ParameterError(
            f"rhombus requires m <= {MAX_RHOMBUS_M}, got {m}")
    # A B C D with A at the origin and the long diagonal on the positive x
    # axis; both diagonals meet at O, giving four triangles
    m = int(m)
    c, s = math.cos(math.pi / m), math.sin(math.pi / m)
    return DomainSpec(
        key=("rhombus", m), label=f"rhombus_{m}",
        nodes=np.array([[0.0, 0.0], [c, s], [2 * c, 0.0], [c, -s], [c, 0.0]]),
        elements=np.array([[0, 4, 1], [4, 2, 1], [0, 3, 4], [4, 3, 2]]),
        ring=np.array([0, 3, 2, 1]))   # A D C B


def make_rectangle(a: float, b: float) -> DomainSpec:
    """Axis-aligned a x b rectangle with a corner at the origin."""
    if not (MAX_LENGTH >= a >= b >= MIN_LENGTH):
        raise ParameterError(f"rectangle requires {MAX_LENGTH:g} >= a >= b "
                             f">= {MIN_LENGTH:g}, got a={a}, b={b}")
    a, b = float(a), float(b)
    return DomainSpec(
        key=("rectangle", a, b), label=f"rectangle_{a:g}x{b:g}",
        nodes=np.array([[0.0, 0.0], [a, 0.0], [a, b], [0.0, b]]),
        elements=np.array([[0, 1, 2], [0, 2, 3]]), ring=np.arange(4))


def make_regular_polygon(k: int, radius: float = 1.0) -> DomainSpec:
    """Regular k-gon inscribed in the circle of the given radius about the
    origin, fanned from the centre into k elements (k <= MAX_ELEMENTS)."""
    if k < 3:
        raise ParameterError(f"polygon requires k >= 3, got {k}")
    if not MIN_LENGTH <= radius <= MAX_LENGTH:
        raise ParameterError(
            f"polygon radius must lie in [{MIN_LENGTH:g}, {MAX_LENGTH:g}], "
            f"got {radius}")
    # refused before the vertex arrays are allocated
    if k > MAX_ELEMENTS:
        raise ParameterError(
            f"a {k}-gon mesh has {k} elements, past the budget of "
            f"{MAX_ELEMENTS}; use fewer vertices")
    k, r = int(k), float(radius)
    angles = 2.0 * math.pi * np.arange(k) / k
    ring = 1 + np.arange(k)
    return DomainSpec(
        key=("polygon", k, r), label=f"polygon_{k}_r{r:g}",
        nodes=np.vstack([[0.0, 0.0], np.column_stack([r * np.cos(angles),
                                                      r * np.sin(angles)])]),
        elements=np.column_stack([np.zeros(k, dtype=int), ring,
                                  np.roll(ring, -1)]),
        ring=ring)


@dataclass
class Mesh:
    """Conforming triangle mesh with counterclockwise elements."""

    nodes: np.ndarray
    elements: np.ndarray

    @property
    def node_count(self) -> int:
        return self.nodes.shape[0]

    @property
    def element_count(self) -> int:
        return self.elements.shape[0]


def element_areas(mesh: Mesh) -> np.ndarray:
    """Signed areas; positive for counterclockwise elements."""
    p = mesh.nodes[mesh.elements]
    d1 = p[:, 1] - p[:, 0]
    d2 = p[:, 2] - p[:, 0]
    return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


class EdgeTable(NamedTuple):
    """Undirected edges of one mesh, numbered in first-encounter order.

    edges[e] is the vertex pair (lo, hi) of edge e with lo < hi, and
    element_edges[f] the ids of the sides (0,1), (1,2), (2,0) of element f:
    the two arrays refine reads. The number of elements sharing edge e is
    np.bincount(element_edges.ravel())[e].
    """

    edges: np.ndarray
    element_edges: np.ndarray


def _edge_keys(pairs, node_count: int) -> np.ndarray:
    """One int64 key per undirected vertex pair, lo * node_count + hi."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    return pairs.min(axis=1) * node_count + pairs.max(axis=1)


def edge_table(mesh: Mesh) -> EdgeTable:
    """The mesh's edge table from one ``np.unique`` pass over its sides."""
    sides = np.stack([mesh.elements, np.roll(mesh.elements, -1, axis=1)],
                     axis=2).reshape(-1, 2)
    _, first, inverse = np.unique(_edge_keys(sides, mesh.node_count),
                                  return_index=True, return_inverse=True)
    # np.unique numbers edges by key; renumber them by first encounter
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return EdgeTable(edges=np.sort(sides[first[order]], axis=1),
                     element_edges=rank[inverse].reshape(-1, 3))


def triangulate(spec: DomainSpec) -> Mesh:
    """Hand-built base triangulation of spec; finer meshes are chains of
    refine from it."""
    return Mesh(nodes=spec.nodes, elements=spec.elements)


# children of a red-refined element, as columns of [i0, i1, i2, m01, m12, m20]
_CHILDREN = np.array([[0, 3, 5], [1, 4, 3], [2, 5, 4], [3, 4, 5]])


def refine(mesh: Mesh) -> Mesh:
    """Uniform midpoint refinement: each triangle into four similar ones."""
    if 4 * mesh.element_count > MAX_ELEMENTS:
        raise ParameterError(
            f"refinement to {4 * mesh.element_count} elements exceeds the "
            f"budget of {MAX_ELEMENTS}; use a lower level")
    table = edge_table(mesh)
    n = mesh.node_count
    ends = mesh.nodes[table.edges]
    nodes = np.vstack([mesh.nodes, 0.5 * (ends[:, 0] + ends[:, 1])])
    corners = np.hstack([mesh.elements, n + table.element_edges])
    return Mesh(nodes=nodes, elements=corners[:, _CHILDREN].reshape(-1, 3))


def level_mesh(spec: DomainSpec, level: int) -> Mesh:
    """Level ``level`` of the refinement chain of spec's base mesh; a
    level < 0 is refused."""
    if level < 0:
        raise ParameterError(f"refinement level must be >= 0, got {level}")
    mesh = triangulate(spec)
    for _ in range(level):
        mesh = refine(mesh)
    return mesh
