"""Numerical verification toolkit for lower bounds on the first nontrivial
Neumann eigenvalue of the p-Laplacian on planar domains.

The package is organized as a pipeline: `geometry` builds nested triangle
meshes for rhombi, rectangles and regular polygons; `fem` solves the p = 2
eigenproblems on them; `special` provides the radial ball profiles for
general p; `rearrangement` turns discrete eigenfunctions into decreasing
rearrangements and runs the comparison checks; `sturm1d` solves the singular
one-dimensional problem behind the consistency identities; `bounds` evaluates
the closed-form lower bounds and aggregates reports; `cli` exposes it all as
subcommands with deterministic CSV/JSON output.
"""

from .bounds import (
    KnEntry,
    SharedSolves,
    ashbaugh_mercado,
    bct_corollary,
    compare_report,
    kn_lookup,
    lower_bounds,
    main_bound,
    payne_weinberger,
    rhombus_sharpness,
    shared_solves,
    symmetric_planar_bound,
)
from .errors import ConvergenceError, NumericError, ParameterError
from .fem import (
    assemble_mass,
    assemble_stiffness,
    richardson,
    solve_dirichlet_lambda1,
    solve_mixed_dn,
    solve_neumann_mu1,
)
from .geometry import (
    DomainSpec,
    Mesh,
    make_rectangle,
    make_regular_polygon,
    make_rhombus,
    triangulate,
)
from .rearrangement import (
    chiti_check,
    cumulative_power,
    dirichlet_ball_profile,
    rearrange,
    rearrange_oriented,
    reverse_holder_check,
)
from .special import (
    bessel_first_zero,
    lambda1_sharp,
    omega_n,
    psi_profile,
)
from .sturm1d import SturmProblem

__version__ = "0.1.0"

__all__ = [
    "KnEntry", "SharedSolves", "ashbaugh_mercado", "bct_corollary",
    "compare_report", "kn_lookup", "lower_bounds", "main_bound",
    "payne_weinberger", "rhombus_sharpness", "shared_solves",
    "symmetric_planar_bound",
    "ConvergenceError", "NumericError", "ParameterError",
    "assemble_mass", "assemble_stiffness", "richardson",
    "solve_dirichlet_lambda1", "solve_mixed_dn", "solve_neumann_mu1",
    "DomainSpec", "Mesh", "make_rectangle", "make_regular_polygon",
    "make_rhombus", "triangulate",
    "chiti_check", "cumulative_power", "dirichlet_ball_profile",
    "rearrange", "rearrange_oriented", "reverse_holder_check",
    "bessel_first_zero", "lambda1_sharp", "omega_n", "psi_profile",
    "SturmProblem",
    "__version__",
]
