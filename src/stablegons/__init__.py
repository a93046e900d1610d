"""Moduli of Euclidean polygons and their stable-polygon compactifications.

Exact wall-and-chamber classification of side-length vectors, numerical
realization and degeneration of polygons in 3-space, stable polygons as
bubble trees with their map to combinatorial stable curves, and Betti-number
calculus by wall crossing and stratification sums.
"""

from .chambers import (
    ChamberSignature,
    EpsilonAssignment,
    LengthVector,
    WallIndex,
    augment,
    canonical_epsilon,
    central_base,
    classify,
    epsilon_range,
    favorable_index,
    is_favorable,
    line_gons,
    nabla_index,
    relevant_subsets,
    same_chamber,
    signature,
    wall_margin,
)
from .cohomology import (
    PoincarePoly,
    ih_poincare_center,
    poincare_center,
    poincare_wall_crossing,
    schedule,
    stable_betti,
    strata,
)
from .cone import (
    ParamPoint,
    central_contains,
    param_contains,
    param_dim,
    param_sample,
    theta,
)
from .errors import (
    ChamberMismatch,
    InternalError,
    InvalidArgument,
    NoLimit,
    NoModuli,
    NonConvergence,
    RangeError,
    StructureError,
)
from .realize import (
    EdgeFrame,
    ModuliPoint,
    Tolerances,
    canonicalize,
    close,
    close_degenerate,
    diagonal,
    incidence,
    is_line_gon,
    moduli_point,
    parallel_classes,
    pgl2_distance,
    pgl2_equivalent,
    subpolygon,
    transport,
)
from .stable import (
    DualCurve,
    StableNode,
    StablePolygon,
    forget,
    limit,
    stabilize,
    to_stable_curve,
    validate,
)

__version__ = "0.1.0"
