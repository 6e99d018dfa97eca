"""Rate-distortion toolkit for semantic compression with side information.

Submodules:

* ``prob`` -- finite-alphabet pmfs, entropies, distortion tables
* ``semantic`` -- posterior-averaged semantic distortion transforms
* ``closed_form`` -- exact rate evaluators and their validity regions
* ``solver`` -- alternating-minimization solver for the general problem
* ``test_channels`` -- explicit achievability constructions and audits
* ``gaussian`` -- jointly Gaussian closed forms and Monte Carlo checks
* ``sources`` -- canonical model sources and solver-instance builders
* ``models`` -- the discrete models and the router between closed form and
  solver
* ``figures``/``verify``/``cli`` -- data-file generation and check suites
"""

from .errors import (
    AlphabetMismatchError,
    InfeasibleDistortionError,
    ProbabilityError,
    RegionError,
    SemrdError,
    SolverError,
)
from .prob import (
    Alphabet,
    BinarySourceSpec,
    DistortionMatrix,
    JointPMF,
    binary_entropy,
    make_dsbs,
    star,
)
from .semantic import check_distortion_equivalence, ds0, modified_distortion
from .solver import (
    RDPoint,
    RDProblem,
    RDQuery,
    RDSurface,
    SolverOptions,
    SurfaceCell,
    ba_fixed_multipliers,
    semantic_rd,
    solve_rd_point,
    sweep_surface,
)

__version__ = "0.1.0"

__all__ = [
    "Alphabet",
    "AlphabetMismatchError",
    "BinarySourceSpec",
    "DistortionMatrix",
    "InfeasibleDistortionError",
    "JointPMF",
    "ProbabilityError",
    "RDPoint",
    "RDProblem",
    "RDQuery",
    "RDSurface",
    "RegionError",
    "SemrdError",
    "SolverError",
    "SolverOptions",
    "SurfaceCell",
    "ba_fixed_multipliers",
    "binary_entropy",
    "check_distortion_equivalence",
    "ds0",
    "make_dsbs",
    "modified_distortion",
    "semantic_rd",
    "solve_rd_point",
    "star",
    "sweep_surface",
]
