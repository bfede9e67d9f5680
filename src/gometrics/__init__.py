"""Exact and floating-point geodesic-orbit analysis for compact homogeneous
spaces: root systems, compact Lie algebras, block metrics, Ricci curvature,
and linear feasibility certificates.
"""

from types import ModuleType as _ModuleType

from .gocheck import (
    FeasibilityResult,
    GOCertificate,
    ReductiveSpace,
    Tolerances,
    go_check,
    go_feasible_direct,
    go_feasible_normal_transitive,
    go_feasible_reduced,
    lie_group_go_check,
    sample_tangent_vectors,
)
from .liealg import (
    CompactLieAlgebra,
    Subspace,
    build_compact_from_rootsystem,
    build_su2,
    build_su3,
    centralizer,
    direct_sum,
    is_subalgebra,
    module_product,
    normalizer,
)
from .metrics import (
    MetricEndomorphism,
    MetricValidationError,
    ModuleDecomposition,
    detect_naturally_reductive,
    is_adapted,
    make_metric,
    max_right_isometry_algebra,
)
from .ricci import EinsteinCheck, RicciResult, einstein_check, ricci_left_invariant
from .rootsys import (
    RootSubsystem,
    RootSystem,
    build_a1,
    build_a2,
    build_g2,
    enumerate_closed_symmetric_subsystems,
    subsystems_equivalent,
    weyl_group,
)
from .scalars import Quad, exact_div, exact_sqrt, format_scalar, is_exact
from .spaces import (
    EINSTEIN_SET_1,
    EINSTEIN_SET_2,
    EINSTEIN_SET_3,
    AloffWallach,
    ClassificationRefused,
    G2Decomposition,
    aloff_wallach,
    aw_extended_presentation,
    aw_go_classify,
    aw_metric,
    aw_obstruction,
    aw_symbolic_go_witness,
    g2_block_bracket_csv,
    g2_decomposition,
    g2_metric,
    reproduce_main_theorem,
)

__version__ = "0.1.0"

# the public names the imports above bind, less the submodules they load
__all__ = [n for n, v in globals().items() if not (n.startswith("_") or isinstance(v, _ModuleType))]
