"""Moduli of Euclidean polygons and their stable-polygon compactifications.

Exact wall-and-chamber classification of side-length vectors, numerical
realization and degeneration of polygons in 3-space, stable polygons as
bubble trees with their map to combinatorial stable curves, and Betti-number
calculus by wall crossing and stratification sums.

Importing the package loads only the chamber layer (chambers) and the error
types (errors).  The names of every other layer (cohomology, cone, realize,
stable) are bound on first use: the first lookup of any of them imports its
module and binds all of that module's names here.  Only realize and stable
load numpy.
"""

from .chambers import (
    ChamberSignature, EpsilonAssignment, LengthVector, WallIndex, augment, canonical_epsilon,
    central_base, classify, epsilon_range, favorable_index, is_favorable, line_gons,
    nabla_index, relevant_subsets, same_chamber, signature, wall_margin,
)
from .errors import (
    ChamberMismatch, InternalError, InvalidArgument, NoLimit, NoModuli, NonConvergence,
    RangeError, StructureError,
)

_LAZY = {
    "cohomology": (
        "PoincarePoly", "ih_poincare_center", "poincare_center", "poincare_wall_crossing",
        "schedule", "stable_betti", "strata",
    ),
    "cone": (
        "ParamPoint", "central_contains", "param_contains", "param_dim", "param_sample",
        "theta",
    ),
    "realize": (
        "EdgeFrame", "ModuliPoint", "Tolerances", "canonicalize", "close", "close_degenerate",
        "diagonal", "incidence", "is_line_gon", "moduli_point", "parallel_classes",
        "pgl2_distance", "pgl2_equivalent", "subpolygon", "transport",
    ),
    "stable": (
        "DualCurve", "StableNode", "StablePolygon", "forget", "limit", "stabilize",
        "to_stable_curve", "validate",
    ),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}

# every public name bound above (the submodules included), and the lazy ones
__all__ = sorted(
    [name for name in globals() if not name.startswith("_")] + list(_HOME) + list(_LAZY)
)

__version__ = "0.1.0"


def __getattr__(name):
    from importlib import import_module

    module = name if name in _LAZY else _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    sub = import_module(f".{module}", __name__)
    namespace = globals()
    for attr in _LAZY[module]:
        namespace[attr] = getattr(sub, attr)
    return namespace[name]


def __dir__():
    return __all__
