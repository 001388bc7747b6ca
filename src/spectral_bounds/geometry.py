"""Planar domains and structured triangle meshes.

Domains come in three families: rhombi with unit side and acute angle 2*pi/m,
axis-aligned rectangles, and regular polygons inscribed in a circle. Meshes
are produced by uniform midpoint (red) refinement of a small hand-built base
triangulation (``triangulate``), so every refinement is nested in the
previous one; bounds.SharedSolves.mesh holds the chain of levels. A mesh is
its nodes and its elements; the outer boundary is not stored: it is the set
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
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ParameterError

# smallest length the solvers are validated at; far below it 1/h overflows
MIN_LENGTH = 1e-6
# largest length, the mirror of MIN_LENGTH; far above it areas and powers
# of the length overflow
MAX_LENGTH = 1e6
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


@dataclass(frozen=True)
class DomainSpec:
    """One of: rhombus(m), rectangle(a, b), regular_polygon(k, radius)."""

    kind: str
    m: int | None = None
    a: float | None = None
    b: float | None = None
    k: int | None = None
    radius: float | None = None

    @property
    def area(self) -> float:
        if self.kind == "rhombus":
            return math.sin(2.0 * math.pi / self.m)
        if self.kind == "rectangle":
            return self.a * self.b
        return 0.5 * self.k * self.radius ** 2 * math.sin(2.0 * math.pi / self.k)

    @property
    def width(self) -> float:
        """Minimal distance between parallel supporting lines."""
        if self.kind == "rhombus":
            return math.sin(2.0 * math.pi / self.m)
        if self.kind == "rectangle":
            return self.b
        k, r = self.k, self.radius
        apothem = r * math.cos(math.pi / k)
        return 2.0 * apothem if k % 2 == 0 else r + apothem

    @property
    def diameter(self) -> float:
        if self.kind == "rhombus":
            return 2.0 * math.cos(math.pi / self.m)
        if self.kind == "rectangle":
            return math.hypot(self.a, self.b)
        k, r = self.k, self.radius
        return 2.0 * r if k % 2 == 0 else 2.0 * r * math.cos(math.pi / (2 * k))

    @property
    def centrally_symmetric(self) -> bool:
        if self.kind == "regular_polygon":
            return self.k % 2 == 0
        return True

    @property
    def label(self) -> str:
        if self.kind == "rhombus":
            return f"rhombus_{self.m}"
        if self.kind == "rectangle":
            return f"rectangle_{self.a:g}x{self.b:g}"
        return f"polygon_{self.k}_r{self.radius:g}"


def make_rhombus(m: int) -> DomainSpec:
    """Unit-side rhombus with acute angle 2*pi/m (5 <= m <= MAX_RHOMBUS_M)."""
    if m < 5:
        raise ParameterError(f"rhombus requires m >= 5, got {m}")
    if m > MAX_RHOMBUS_M:
        raise ParameterError(
            f"rhombus requires m <= {MAX_RHOMBUS_M}, got {m}")
    return DomainSpec(kind="rhombus", m=int(m))


def make_rectangle(a: float, b: float) -> DomainSpec:
    if not (MAX_LENGTH >= a >= b >= MIN_LENGTH):
        raise ParameterError(f"rectangle requires {MAX_LENGTH:g} >= a >= b "
                             f">= {MIN_LENGTH:g}, got a={a}, b={b}")
    return DomainSpec(kind="rectangle", a=float(a), b=float(b))


def make_regular_polygon(k: int, radius: float = 1.0) -> DomainSpec:
    if k < 3:
        raise ParameterError(f"polygon requires k >= 3, got {k}")
    if not MIN_LENGTH <= radius <= MAX_LENGTH:
        raise ParameterError(
            f"polygon radius must lie in [{MIN_LENGTH:g}, {MAX_LENGTH:g}], "
            f"got {radius}")
    return DomainSpec(kind="regular_polygon", k=int(k), radius=float(radius))


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

    edges[e] is the vertex pair (lo, hi) of edge e with lo < hi, counts[e]
    the number of elements sharing it, and element_edges[f] the ids of the
    sides (0,1), (1,2), (2,0) of element f.
    """

    edges: np.ndarray
    element_edges: np.ndarray
    counts: np.ndarray


def _edge_keys(pairs, node_count: int) -> np.ndarray:
    """One int64 key per undirected vertex pair, lo * node_count + hi."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    return pairs.min(axis=1) * node_count + pairs.max(axis=1)


def edge_table(mesh: Mesh) -> EdgeTable:
    """The mesh's edge table from one ``np.unique`` pass over its sides."""
    sides = np.stack([mesh.elements, np.roll(mesh.elements, -1, axis=1)],
                     axis=2).reshape(-1, 2)
    _, first, inverse, counts = np.unique(
        _edge_keys(sides, mesh.node_count), return_index=True,
        return_inverse=True, return_counts=True)
    # np.unique numbers edges by key; renumber them by first encounter
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return EdgeTable(edges=np.sort(sides[first[order]], axis=1),
                     element_edges=rank[inverse].reshape(-1, 3),
                     counts=counts[order])


def triangulate(spec: DomainSpec) -> Mesh:
    """Hand-built base triangulation of spec; finer meshes are chains of
    refine from it."""
    if spec.kind == "rectangle":
        a, b = spec.a, spec.b
        return Mesh(nodes=np.array([[0.0, 0.0], [a, 0.0], [a, b], [0.0, b]]),
                    elements=np.array([[0, 1, 2], [0, 2, 3]]))
    if spec.kind == "regular_polygon":
        k, r = spec.k, spec.radius
        # a k-gon's base mesh already has k elements
        if k > MAX_ELEMENTS:
            raise ParameterError(
                f"a {k}-gon mesh has {k} elements, past the budget of "
                f"{MAX_ELEMENTS}; use fewer vertices")
        angles = 2.0 * math.pi * np.arange(k) / k
        ring = np.column_stack([r * np.cos(angles), r * np.sin(angles)])
        ring_ids = 1 + np.arange(k)
        elements = np.column_stack([np.zeros(k, dtype=int), ring_ids,
                                    np.roll(ring_ids, -1)])
        return Mesh(nodes=np.vstack([[0.0, 0.0], ring]), elements=elements)
    # Rhombus A B C D with A at the origin and the long diagonal on the
    # positive x axis; both diagonals meet at O, giving four triangles.
    half = math.pi / spec.m
    c, s = math.cos(half), math.sin(half)
    nodes = np.array([[0.0, 0.0],   # A
                      [c, s],       # B
                      [2 * c, 0.0],  # C
                      [c, -s],      # D
                      [c, 0.0]])    # O
    elements = np.array([[0, 4, 1], [4, 2, 1], [0, 3, 4], [4, 3, 2]])
    return Mesh(nodes=nodes, elements=elements)


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
