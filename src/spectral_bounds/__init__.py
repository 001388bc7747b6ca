"""Numerical verification toolkit for lower bounds on the first nontrivial
Neumann eigenvalue of the p-Laplacian on planar domains.

The package's API is its modules, imported by name
(`from spectral_bounds import bounds`); this file imports none of them.
They form a pipeline: `geometry` builds nested triangle meshes for rhombi,
rectangles and regular polygons; `fem` solves the p = 2 Neumann
eigenproblem on them; `special` provides the radial ball profiles for
general p; `rearrangement` turns discrete eigenfunctions into decreasing
rearrangements and runs the comparison checks; `sturm1d` solves the
singular one-dimensional problem behind the consistency identities;
`bounds` evaluates the closed-form lower bounds and aggregates reports;
`errors` holds the exception classes; `cli` exposes it all as subcommands
with deterministic CSV/JSON output.
"""

__version__ = "0.1.0"
