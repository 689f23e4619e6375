"""Local invariants of genus-2 curves.

Exact invariants of polarized metric graphs (reduction graphs of
semistable fibers) through electrical-network potential theory, and
numerical invariants of genus-2 period matrices through theta functions.
"""

from .errors import (
    AdmissibilityFailureError,
    DegenerateThetaNullError,
    DisconnectedError,
    FormulaMismatchError,
    G2Error,
    GenusZeroError,
    InvalidParamsError,
    NonProbabilityMeasureError,
    NotPositiveDefiniteError,
    QuadratureUnstableError,
    TruncationOverflowError,
    UnclassifiableError,
)
from .fiber_catalog import FiberType, classify, closed_form, graph_of_type
from .metric_graph import (
    GraphMeasure,
    PMGraph,
    diagonal_green,
    resistance_pairing,
    smooth,
    subdivide,
)
from .pm_invariants import (
    NonArchReport,
    admissible_measure,
    canonical_divisor,
    node_counts,
    nonarch_report,
    total_genus,
)
# the theta names load numpy, so they are imported on first use (PEP 562)
# and the graph half starts without it
_THETA_NAMES = frozenset({
    "ArchReport",
    "QuadratureConfig",
    "QuadratureResult",
    "SiegelMatrix",
    "ThetaChar",
    "arch_invariants",
    "even_characteristics",
    "log_delta2",
    "log_h",
    "odd_characteristics",
    "siegel_reduce",
    "theta",
    "theta_norm",
})


def __getattr__(name: str):
    if name in _THETA_NAMES:
        from . import theta_surface

        return getattr(theta_surface, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"

__all__ = [
    "ArchReport",
    "AdmissibilityFailureError",
    "DegenerateThetaNullError",
    "DisconnectedError",
    "FiberType",
    "FormulaMismatchError",
    "G2Error",
    "GenusZeroError",
    "GraphMeasure",
    "InvalidParamsError",
    "NonArchReport",
    "NonProbabilityMeasureError",
    "NotPositiveDefiniteError",
    "PMGraph",
    "QuadratureConfig",
    "QuadratureResult",
    "QuadratureUnstableError",
    "SiegelMatrix",
    "ThetaChar",
    "TruncationOverflowError",
    "UnclassifiableError",
    "admissible_measure",
    "arch_invariants",
    "canonical_divisor",
    "classify",
    "closed_form",
    "diagonal_green",
    "even_characteristics",
    "graph_of_type",
    "log_delta2",
    "log_h",
    "node_counts",
    "nonarch_report",
    "odd_characteristics",
    "resistance_pairing",
    "siegel_reduce",
    "smooth",
    "subdivide",
    "theta",
    "theta_norm",
    "total_genus",
]
