"""Shared, cached solver pipelines for the test suite.

Meshing and the eigensolvers are deterministic, so tests share one
session-wide bounds.SharedSolves keyed by (domain spec, level): the same
memo the CLI makes per invocation. This keeps the full suite well under the
runtime budget even though several test modules touch the same domains.
"""

from functools import lru_cache

from spectral_bounds import bounds, fem, geometry

import oracles

SQUARE = geometry.make_rectangle(1.0, 1.0)
RECT21 = geometry.make_rectangle(2.0, 1.0)
GON64 = geometry.make_regular_polygon(64, 1.0)

_SOLVES = bounds.SharedSolves()
mesh = _SOLVES.mesh
neumann = _SOLVES.neumann
# rearranged first Neumann eigenfunction, positive part the smaller one
oriented_profile = _SOLVES.profile
# Richardson value of the level - 1 and level Neumann eigenvalues
mu1 = _SOLVES.mu1


@lru_cache(maxsize=None)
def dirichlet(spec: geometry.DomainSpec, level: int) -> fem.EigenPair:
    """Dirichlet pair, zero on every boundary node of the memoized mesh."""
    domain = mesh(spec, level)
    return oracles.constrained_pair(domain, oracles.boundary_nodes(domain))


@lru_cache(maxsize=None)
def mixed_half_rhombus(m: int, level: int) -> fem.EigenPair:
    """Mixed pair of the half rhombus, zero on the short diagonal, on the
    cut of the memoized rhombus mesh of the same level."""
    return oracles.constrained_pair(
        *oracles.half_rhombus(mesh(geometry.make_rhombus(m), level)))
