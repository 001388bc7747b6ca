"""P1 assembly and the Neumann eigensolver against separable oracles.

The Dirichlet and mixed pairs come from oracles.constrained_pair, which
runs the same eigensolver on the free nodes' matrices.
"""

import math

import numpy as np
import pytest
from scipy.sparse.linalg import eigsh
from scipy.special import jnp_zeros

from spectral_bounds import fem, geometry, special
from spectral_bounds.errors import ParameterError

import oracles
import pipelines


def _single_triangle():
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    return geometry.Mesh(nodes=nodes, elements=np.array([[0, 1, 2]]))


def test_stiffness_hand_oracle():
    K = fem.assemble_stiffness(_single_triangle()).toarray()
    expected = np.array([[1.0, -0.5, -0.5],
                         [-0.5, 0.5, 0.0],
                         [-0.5, 0.0, 0.5]])
    assert np.allclose(K, expected, atol=1e-15)


def test_stiffness_constants_in_kernel_and_symmetry():
    mesh = pipelines.mesh(geometry.make_rhombus(8), 3)
    K = fem.assemble_stiffness(mesh)
    ones = np.ones(mesh.node_count)
    scale = np.abs(K).max()
    assert np.abs(K @ ones).max() <= 1e-12 * scale
    assert np.abs(K - K.T).max() <= 1e-14 * scale


def test_stiffness_exact_on_linears():
    mesh = pipelines.mesh(pipelines.SQUARE, 3)
    a, b = 0.7, -1.3
    u = a * mesh.nodes[:, 0] + b * mesh.nodes[:, 1]
    K = fem.assemble_stiffness(mesh)
    assert u @ (K @ u) == pytest.approx((a * a + b * b) * 1.0, rel=1e-13)


def test_mass_hand_oracle_and_area():
    mesh = _single_triangle()
    M = fem.assemble_mass(mesh).toarray()
    area = 0.5
    assert np.allclose(np.diag(M), area / 6.0, atol=1e-16)
    assert M[0, 1] == pytest.approx(area / 12.0, abs=1e-16)
    ones = np.ones(3)
    assert ones @ (M @ ones) == pytest.approx(area, rel=1e-15)

    sq = pipelines.mesh(pipelines.SQUARE, 3)
    Msq = fem.assemble_mass(sq)
    ones = np.ones(sq.node_count)
    assert ones @ (Msq @ ones) == pytest.approx(1.0, rel=1e-12)


def test_assembly_rejects_degenerate_element():
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    flat = geometry.Mesh(nodes=nodes, elements=np.array([[0, 1, 2]]))
    with pytest.raises(ParameterError):
        fem.assemble_stiffness(flat)


def test_neumann_square_oracle_and_order():
    """mu1(unit square) = pi^2; conforming P1 converges at order 2."""
    errors = []
    for level in (3, 4, 5):
        pair = pipelines.neumann(pipelines.SQUARE, level)
        errors.append(pair.value - math.pi ** 2)
    assert errors[1] / math.pi ** 2 < 5e-3
    orders = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]
    for order in orders:
        assert abs(order - 2.0) < 0.2
    # discrete values decrease toward the continuum one
    assert errors[0] > errors[1] > errors[2] > 0.0


def test_neumann_rectangle_oracles():
    pair = pipelines.neumann(pipelines.RECT21, 4)
    assert pair.value == pytest.approx(math.pi ** 2 / 4.0, rel=5e-3)

    thin = geometry.make_rectangle(10.0, 1.0)
    mu1 = fem.richardson(pipelines.neumann(thin, 3).value,
                         pipelines.neumann(thin, 4).value)
    assert mu1 * thin.diameter ** 2 == pytest.approx(
        math.pi ** 2 * 101.0 / 100.0, rel=1e-3)


def test_neumann_disk_oracle():
    """64-gon Neumann value vs the disk oracle, the first zero of J1'."""
    jp11 = float(jnp_zeros(1, 1)[0])
    assert jp11 == pytest.approx(1.8411837813406595, abs=1e-12)
    pair = pipelines.neumann(pipelines.GON64, 3)
    assert abs(pair.value - jp11 ** 2) / jp11 ** 2 < 1e-2


def test_dirichlet_oracles():
    pair = pipelines.dirichlet(pipelines.SQUARE, 4)
    assert pair.value == pytest.approx(2.0 * math.pi ** 2, rel=2e-2)
    extrap = fem.richardson(pipelines.dirichlet(pipelines.SQUARE, 3).value,
                            pair.value)
    assert extrap == pytest.approx(2.0 * math.pi ** 2, rel=5e-4)
    gon = pipelines.dirichlet(pipelines.GON64, 3)
    j0 = special.bessel_first_zero(0.0)
    assert abs(gon.value - j0 * j0) / (j0 * j0) < 1e-2
    # boundary nodes are hard zeros
    boundary = oracles.boundary_nodes(pipelines.mesh(pipelines.SQUARE, 4))
    assert np.abs(pair.vector[boundary]).max() == 0.0


def test_dirichlet_above_neumann_same_mesh():
    for spec in (pipelines.SQUARE, geometry.make_rhombus(8)):
        mu = pipelines.neumann(spec, 3).value
        lam = pipelines.dirichlet(spec, 3).value
        assert lam > mu


def test_eigenpair_contract():
    for pair in (pipelines.neumann(pipelines.SQUARE, 3),
                 pipelines.dirichlet(pipelines.SQUARE, 3),
                 pipelines.mixed_half_rhombus(8, 3)):
        assert pair.value >= 0.0
        assert pair.residual <= 1e-8
        assert pair.iterations >= 1
    mesh = pipelines.mesh(pipelines.SQUARE, 3)
    M = fem.assemble_mass(mesh)
    pair = pipelines.neumann(pipelines.SQUARE, 3)
    # unit mass norm and mass-orthogonality to constants
    assert pair.vector @ (M @ pair.vector) == pytest.approx(1.0, rel=1e-12)
    assert abs(np.ones(mesh.node_count) @ (M @ pair.vector)) <= 1e-10


def test_eigsh_cross_check():
    """Independent route: shift-invert Lanczos on the same matrices."""
    mesh = pipelines.mesh(pipelines.SQUARE, 4)
    K = fem.assemble_stiffness(mesh)
    M = fem.assemble_mass(mesh)
    v0 = np.ones(mesh.node_count)
    vals = eigsh(K, k=2, M=M, sigma=-1.0, which="LM", v0=v0,
                 return_eigenvectors=False)
    mu1_lanczos = float(np.sort(vals)[-1])  # smallest is the constant mode, 0
    assert mu1_lanczos == pytest.approx(
        pipelines.neumann(pipelines.SQUARE, 4).value, rel=1e-9)

    boundary = oracles.boundary_nodes(mesh)
    free = np.setdiff1d(np.arange(mesh.node_count), boundary)
    Kd = K[free][:, free]
    Md = M[free][:, free]
    lam = float(eigsh(Kd, k=1, M=Md, sigma=-1.0, which="LM",
                      v0=np.ones(free.size), return_eigenvectors=False)[0])
    assert lam == pytest.approx(
        pipelines.dirichlet(pipelines.SQUARE, 4).value, rel=1e-9)


def test_one_factorization_per_solve(monkeypatch):
    """Each solve factors once: no second (mass) factor for the residual.
    The constrained reference pairs run the same eigensolver."""
    shapes = []
    real_splu = fem.splu

    def counting_splu(A):
        shapes.append(A.shape)
        return real_splu(A)

    monkeypatch.setattr(fem, "splu", counting_splu)
    mesh = pipelines.mesh(pipelines.SQUARE, 4)
    pair = fem.solve_neumann_mu1(mesh)
    assert shapes == [(mesh.node_count, mesh.node_count)]
    assert pair.iterations >= 2          # Lanczos solves plus the polish
    oracles.constrained_pair(mesh, oracles.boundary_nodes(mesh))
    oracles.constrained_pair(*oracles.half_rhombus(
        pipelines.mesh(geometry.make_rhombus(8), 3)))
    assert len(shapes) == 3


def test_square_double_mu1_converges():
    """The square's continuum mu1 is double; on the mesh it splits into a
    pair closer than 1e-5 relative (8e-11 at level 6). The solve returns
    the lower one with a certified residual at every level; the reference
    spectrum is the dense pencil's at level 1 and Lanczos's above."""
    for level in (1, 3, 5, 6):
        mesh = pipelines.mesh(pipelines.SQUARE, level)
        pair = fem.solve_neumann_mu1(mesh)
        assert pair.residual <= fem._RES_TOL
        K = fem.assemble_stiffness(mesh)
        M = fem.assemble_mass(mesh)
        if level == 1:
            vals = oracles.dense_pair(K, M)[0]
        else:
            v0 = np.random.default_rng(0).standard_normal(mesh.node_count)
            vals = eigsh(K, k=4, M=M, sigma=-1.0, v0=v0,
                         return_eigenvectors=False)
        mu = np.sort(vals)
        assert mu[2] - mu[1] <= 1e-5 * mu[1]
        assert pair.value == pytest.approx(mu[1], rel=1e-12)


@pytest.mark.parametrize("spec", [
    pipelines.SQUARE, pipelines.RECT21, geometry.make_rhombus(8),
    geometry.make_regular_polygon(6), geometry.make_regular_polygon(8),
], ids=["square", "rectangle", "rhombus8", "hexagon", "octagon"])
def test_neumann_matches_dense_pencil(spec):
    """Second route: a dense generalized eigensolve of the same matrices.
    ARPACK runs at every size, the 4-node base meshes included."""
    for level in range(3):
        mesh = pipelines.mesh(spec, level)
        values, _ = oracles.dense_pair(fem.assemble_stiffness(mesh),
                                       fem.assemble_mass(mesh))
        assert fem.solve_neumann_mu1(mesh).value == pytest.approx(
            values[1], rel=1e-12)


def test_thin_rectangle_extended_precision():
    """The 1000 x 1 rectangle at level 1 (9 nodes): mu1 of the same float
    matrices, by mpmath.eig at 40 and 80 digits, is 1.1999999248694275e-05.
    The solve must lie within 1e-11 relative of it."""
    mesh = pipelines.mesh(geometry.make_rectangle(1000.0, 1.0), 1)
    assert fem.solve_neumann_mu1(mesh).value == pytest.approx(
        1.1999999248694275e-05, rel=1e-11, abs=0.0)


def test_mixed_equals_rhombus_neumann():
    """Zero data on the short diagonal reproduces the full-rhombus value."""
    for m in (8, 16):
        dn = pipelines.mixed_half_rhombus(m, 4)
        mu = pipelines.neumann(geometry.make_rhombus(m), 4)
        assert dn.value == pytest.approx(mu.value, rel=1e-8)
        # constrained nodes are hard zeros
        _, zero = oracles.half_rhombus(
            pipelines.mesh(geometry.make_rhombus(m), 4))
        assert np.abs(dn.vector[zero]).max() == 0.0


def test_mixed_sector_sandwich_and_limit():
    j0sq = special.bessel_first_zero(0.0) ** 2
    values = []
    for m in (8, 16, 32, 64):
        value = fem.richardson(pipelines.mixed_half_rhombus(m, 3).value,
                               pipelines.mixed_half_rhombus(m, 4).value)
        upper = j0sq / math.cos(math.pi / m) ** 2
        assert j0sq * (1.0 - 1e-2) <= value <= upper * (1.0 + 1e-2)
        values.append(value)
    # shrinking angle pushes the value down toward j_{0,1}^2
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] == pytest.approx(j0sq, rel=5e-3)


def test_mixed_requires_tag():
    with pytest.raises(ParameterError, match="at least one zero node"):
        oracles.constrained_pair(pipelines.mesh(pipelines.SQUARE, 2), [])


# (spec, level, value hex, iterations) of the Neumann and the Dirichlet
# pair; a change to the eigen path must not move a bit of either
NEUMANN_BITS = [
    (pipelines.SQUARE, 4, "0x1.3cd64a33f613ap+3", 38),
    (geometry.make_rhombus(8), 3, "0x1.a0b295c587d6cp+2", 22),
    (pipelines.GON64, 2, "0x1.b7d0c1d6b622fp+1", 38),
]
DIRICHLET_BITS = [
    (pipelines.SQUARE, 4, "0x1.3ee06b50478c7p+4", 39),
    (geometry.make_rhombus(8), 3, "0x1.1a7249d9d73f5p+5", 22),
    (pipelines.GON64, 2, "0x1.74955d34de40fp+2", 39),
]


def test_neumann_bits():
    for spec, level, bits, iterations in NEUMANN_BITS:
        pair = pipelines.neumann(spec, level)
        assert (pair.value.hex(), pair.iterations) == (bits, iterations)


def test_dirichlet_is_the_mixed_solve_on_the_boundary():
    """The Dirichlet pair is the constrained pair with every boundary node
    zero, bit for bit as the separate solve it replaced; a mesh with fewer
    free nodes than ARPACK needs (0, 1 or 2) is refused, and 3 solve."""
    for spec, level, bits, iterations in DIRICHLET_BITS:
        pair = pipelines.dirichlet(spec, level)
        assert (pair.value.hex(), pair.iterations) == (bits, iterations)
    triangle = _single_triangle()
    square = pipelines.mesh(pipelines.SQUARE, 1)
    nodes = np.arange(square.node_count)
    # the square's level-1 Dirichlet problem has one free node
    for mesh, zero, free in [
            (triangle, oracles.boundary_nodes(triangle), 0),
            (square, oracles.boundary_nodes(square), 1),
            (square, nodes[2:], 2)]:
        with pytest.raises(ParameterError, match=f"^{free} of the 3 free"):
            oracles.constrained_pair(mesh, zero)
    pair = oracles.constrained_pair(square, nodes[3:])
    assert pair.value > 0.0 and pair.residual <= fem._RES_TOL


def test_richardson():
    eps = 1e-3
    assert fem.richardson(math.pi ** 2 + 4 * eps, math.pi ** 2 + eps) \
        == pytest.approx(math.pi ** 2, rel=1e-12)
    assert fem.richardson(5.0, 5.0) == 5.0
    coarse = pipelines.neumann(pipelines.SQUARE, 4).value
    fine = pipelines.neumann(pipelines.SQUARE, 5).value
    extrap = fem.richardson(coarse, fine)
    assert abs(extrap - math.pi ** 2) < abs(fine - math.pi ** 2)


def test_scaling_covariance():
    mesh = pipelines.mesh(pipelines.SQUARE, 3)
    double = oracles.scaled(mesh, 2.0)
    mu = pipelines.neumann(pipelines.SQUARE, 3).value
    mu_scaled = fem.solve_neumann_mu1(double).value
    assert mu_scaled == pytest.approx(mu / 4.0, rel=1e-10)
