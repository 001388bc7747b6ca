"""Domain specs, mesh construction, refinement and the half-rhombus cut."""

import math

import numpy as np
import pytest

from spectral_bounds import geometry
from spectral_bounds.errors import ParameterError

import oracles
import pipelines


def test_rhombus_spec_geometry():
    spec = geometry.make_rhombus(8)
    beta = 2.0 * math.pi / 8
    assert spec.area == pytest.approx(math.sin(beta), rel=1e-15)
    assert spec.width == pytest.approx(math.sin(beta), rel=1e-15)
    assert spec.diameter == pytest.approx(2.0 * math.cos(beta / 2.0), rel=1e-15)
    assert spec.centrally_symmetric

    spec6 = geometry.make_rhombus(6)
    assert spec6.diameter == pytest.approx(math.sqrt(3.0), rel=1e-15)

    spec100 = geometry.make_rhombus(100)
    assert spec100.area == pytest.approx(math.sin(math.pi / 50.0), rel=1e-15)


def test_rectangle_spec_geometry():
    sq = geometry.make_rectangle(1.0, 1.0)
    assert sq.area == 1.0
    assert sq.diameter == pytest.approx(math.sqrt(2.0), rel=1e-15)

    r21 = geometry.make_rectangle(2.0, 1.0)
    assert r21.width == 1.0
    assert r21.diameter == pytest.approx(math.sqrt(5.0), rel=1e-15)
    assert 0.0 < r21.width <= r21.diameter


def test_regular_polygon_spec_geometry():
    sq = geometry.make_regular_polygon(4, 1.0 / math.sqrt(2.0))
    assert sq.area == pytest.approx(1.0, rel=1e-15)

    gon = geometry.make_regular_polygon(64, 1.0)
    assert abs(gon.area - math.pi) / math.pi < 2e-3

    tri = geometry.make_regular_polygon(3, 1.0)
    assert tri.area == pytest.approx(3.0 * math.sqrt(3.0) / 4.0, rel=1e-15)
    assert not tri.centrally_symmetric


CLOSED_FORMS = (
    [(geometry.make_rhombus(m), oracles.rhombus_closed_form(m))
     for m in (5, 6, 8, 100, 1000, 4096)]
    + [(geometry.make_rectangle(a, b), oracles.rectangle_closed_form(a, b))
       for a, b in ((1.0, 1.0), (2.0, 1.0), (2.5, 2.5), (1e6, 1e-6))]
    + [(geometry.make_regular_polygon(k, r), oracles.polygon_closed_form(k, r))
       for k in (3, 4, 5, 6, 7, 8, 64) for r in (1e-6, 0.37, 1.0, 1e6)])


@pytest.mark.parametrize("spec, expected", CLOSED_FORMS,
                         ids=[spec.label for spec, _ in CLOSED_FORMS])
def test_ring_invariants_match_closed_forms(spec, expected):
    """The ring's shoelace area, centre-to-edge width and centre-to-vertex
    diameter equal each family's closed forms; an odd polygon has no
    centre, so no width or diameter."""
    area, width, diameter = expected
    assert spec.area == pytest.approx(area, rel=1e-15)
    assert spec.centrally_symmetric == (width is not None)
    if width is None:
        for name in ("width", "diameter"):
            with pytest.raises(ParameterError, match="not centrally"):
                getattr(spec, name)
    else:
        assert spec.width == pytest.approx(width, rel=1e-15)
        assert spec.diameter == pytest.approx(diameter, rel=1e-15)


def test_spec_validation():
    with pytest.raises(ParameterError):
        geometry.make_rhombus(4)
    assert geometry.make_rhombus(geometry.MAX_RHOMBUS_M).label == \
        "rhombus_4096"
    with pytest.raises(ParameterError, match="m <= 4096"):
        geometry.make_rhombus(geometry.MAX_RHOMBUS_M + 1)
    with pytest.raises(ParameterError):
        geometry.make_rectangle(1.0, 2.0)
    with pytest.raises(ParameterError):
        geometry.make_rectangle(1.0, 0.0)
    with pytest.raises(ParameterError):
        geometry.make_regular_polygon(2)
    with pytest.raises(ParameterError):
        geometry.make_regular_polygon(5, -1.0)


@pytest.mark.parametrize("spec", [
    geometry.make_rhombus(8),
    geometry.make_rhombus(64),
    pipelines.SQUARE,
    pipelines.RECT21,
    geometry.make_regular_polygon(3, 1.0),
    pipelines.GON64,
])
@pytest.mark.parametrize("level", [0, 2])
def test_mesh_invariants(spec, level):
    mesh = pipelines.mesh(spec, level)
    assert oracles.validate_mesh(mesh, area=spec.area) == pytest.approx(
        spec.area, rel=1e-12)


def test_refinement_counts_and_edge_lengths():
    base = pipelines.mesh(pipelines.SQUARE, 0)
    fine = geometry.refine(base)
    assert fine.element_count == 4 * base.element_count
    assert oracles.max_edge_length(fine) == pytest.approx(
        oracles.max_edge_length(base) / 2.0, rel=1e-12)
    finer = geometry.refine(fine)
    assert finer.element_count == 16 * base.element_count

    lvl3 = pipelines.mesh(pipelines.SQUARE, 3)
    assert lvl3.element_count == base.element_count * 4 ** 3


def test_refine_budget(monkeypatch):
    spec = geometry.make_regular_polygon(64)
    mesh = geometry.triangulate(spec)
    for _ in range(6):
        mesh = geometry.refine(mesh)
    assert mesh.element_count == geometry.MAX_ELEMENTS
    monkeypatch.setattr(geometry, "MAX_ELEMENTS", 4 * 64)
    once = geometry.refine(geometry.triangulate(spec))
    assert once.element_count == 4 * 64
    # a polygon's base mesh has one element per vertex: refused before the
    # vertex arrays are allocated
    for build in (lambda: geometry.refine(once),
                  lambda: geometry.triangulate(
                      geometry.make_regular_polygon(4 * 64 + 1))):
        with pytest.raises(ParameterError, match="budget"):
            build()


def _loop_refine(mesh, outer):
    """Reference red refinement: a dict walk that names each midpoint the
    first time an element side (0,1), (1,2), (2,0) meets it. The outer
    boundary pairs ``outer`` are split at those midpoints; returns the
    refined mesh and outer pairs."""
    nodes = [tuple(xy) for xy in mesh.nodes]
    midpoint = {}

    def mid(i, j):
        key = (min(i, j), max(i, j))
        idx = midpoint.get(key)
        if idx is None:
            idx = len(nodes)
            nodes.append(tuple(0.5 * (mesh.nodes[i] + mesh.nodes[j])))
            midpoint[key] = idx
        return idx

    elements = []
    for i0, i1, i2 in mesh.elements:
        m01, m12, m20 = mid(i0, i1), mid(i1, i2), mid(i2, i0)
        elements.extend([(i0, m01, m20), (i1, m12, m01),
                         (i2, m20, m12), (m01, m12, m20)])

    def split(pairs):
        halves = []
        for i, j in pairs:
            k = mid(i, j)
            halves.extend([(i, k), (k, j)])
        return halves

    return geometry.Mesh(nodes=np.array(nodes),
                         elements=np.array(elements, dtype=int)), split(outer)


def _outer_edges(mesh):
    """Edges of one element, as sorted pairs."""
    table = geometry.edge_table(mesh)
    counts = np.bincount(table.element_edges.ravel())
    return {tuple(edge) for edge in table.edges[counts == 1].tolist()}


@pytest.mark.parametrize("spec", [
    pipelines.RECT21, geometry.make_rhombus(8),
    geometry.make_regular_polygon(3), geometry.make_regular_polygon(16),
], ids=["rectangle", "rhombus8", "polygon3", "polygon16"])
def test_refine_matches_loop_reference(spec):
    """The edge-table refinement numbers nodes exactly as the dict walk, and
    the outer boundary stays the split base boundary."""
    mesh = reference = geometry.triangulate(spec)
    outer = _outer_edges(reference)
    for _ in range(5):
        mesh = geometry.refine(mesh)
        reference, outer = _loop_refine(reference, outer)
        assert mesh.nodes.tobytes() == reference.nodes.tobytes()
        assert mesh.elements.dtype == reference.elements.dtype
        assert np.array_equal(mesh.elements, reference.elements)
        assert _outer_edges(mesh) == {tuple(sorted(pair)) for pair in outer}


def test_edge_table():
    mesh = pipelines.mesh(pipelines.SQUARE, 0)
    table = geometry.edge_table(mesh)
    # elements (0,1,2) and (0,2,3): the diagonal (0,2) is met first as the
    # side (2,0) of element 0 and is the one edge shared by both
    assert table.edges.tolist() == [[0, 1], [1, 2], [0, 2], [2, 3], [0, 3]]
    assert table.element_edges.tolist() == [[0, 1, 2], [2, 3, 4]]
    assert np.bincount(table.element_edges.ravel()).tolist() == [1, 1, 2, 1, 1]
    # only what refine reads: multiplicities come from element_edges
    assert table._fields == ("edges", "element_edges")
    assert oracles.undirected_edges(mesh) == {
        (0, 1): 1, (1, 2): 1, (0, 2): 2, (2, 3): 1, (0, 3): 1}


HALF_RHOMBUS_M = (5, 8, 16, 33, 64)


def test_rhombus_diagonal_chain_every_level():
    """The short diagonal is the cut's zero nodes at every level: its
    2^(level+1) + 1 nodes have x == c exactly and span B to D."""
    for m in HALF_RHOMBUS_M:
        spec = geometry.make_rhombus(m)
        c = math.cos(math.pi / m)
        for level in range(5):
            half, zero = oracles.half_rhombus(pipelines.mesh(spec, level))
            assert len(zero) == 2 ** (level + 1) + 1
            assert np.all(half.nodes[zero, 0] == c)
            assert np.ptp(half.nodes[zero, 1]) == pytest.approx(
                2.0 * math.sin(math.pi / m), rel=1e-12)


def test_half_rhombus_is_submesh():
    """The half rhombus is the rhombus mesh's elements left of x = c: half
    of its triangles, with matching coordinates, and the diagonal is true
    boundary of the half."""
    for m in HALF_RHOMBUS_M:
        spec = geometry.make_rhombus(m)
        for level in range(5):
            full = pipelines.mesh(spec, level)
            half, zero = oracles.half_rhombus(full)
            oracles.validate_mesh(half, area=spec.area / 2.0)
            # the sub-complex property used by the mixed eigenproblem
            full_tris = {tuple(sorted(map(tuple, full.nodes[el])))
                         for el in full.elements}
            half_tris = {tuple(sorted(map(tuple, half.nodes[el])))
                         for el in half.elements}
            assert half_tris <= full_tris
            assert 2 * len(half_tris) == len(full_tris)
            # one element per diagonal edge
            on_diagonal = set(zero.tolist())
            counts = [count for (i, j), count
                      in oracles.undirected_edges(half).items()
                      if i in on_diagonal and j in on_diagonal]
            assert counts == [1] * 2 ** (level + 1)


@pytest.mark.parametrize("m", HALF_RHOMBUS_M)
def test_half_rhombus_base_numbering(m):
    """At level 0 the cut is A, B, D, O of the rhombus base, in that order,
    zero on B, D and O."""
    c, s = math.cos(math.pi / m), math.sin(math.pi / m)
    half, zero = oracles.half_rhombus(
        pipelines.mesh(geometry.make_rhombus(m), 0))
    assert half.nodes.tobytes() == np.array(
        [[0.0, 0.0], [c, s], [c, -s], [c, 0.0]]).tobytes()
    assert half.elements.tolist() == [[0, 3, 1], [0, 2, 3]]
    assert zero.tolist() == [1, 2, 3]


def test_scaled_mesh():
    mesh = pipelines.mesh(pipelines.SQUARE, 1)
    double = oracles.scaled(mesh, 2.0)
    assert np.allclose(double.nodes, 2.0 * mesh.nodes)
    assert float(np.sum(geometry.element_areas(double))) == pytest.approx(
        4.0, rel=1e-12)
    with pytest.raises(ParameterError):
        oracles.scaled(mesh, 0.0)

