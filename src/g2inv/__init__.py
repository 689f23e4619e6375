"""Local invariants of genus-2 curves.

Exact invariants of polarized metric graphs (reduction graphs of
semistable fibers) through electrical-network potential theory, and
numerical invariants of genus-2 period matrices through theta functions.
"""

from .errors import (
    DegenerateThetaNullError,
    FormulaMismatchError,
    G2Error,
    InvalidParamsError,
    QuadratureUnstableError,
    UnclassifiableError,
)
from .fiber_catalog import FiberType, classify, closed_form, graph_of_type
from .metric_graph import PMGraph, resistance_pairing, smooth
from .pm_invariants import (
    NonArchReport,
    canonical_divisor,
    node_counts,
    nonarch_report,
    total_genus,
)


def __getattr__(name: str):
    # each name of `__all__` not imported above is a theta name: those load
    # numpy, so they are imported on first use (PEP 562) and the graph half
    # starts without it
    if name in __all__:
        from . import theta_surface

        return getattr(theta_surface, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"

__all__ = [
    "ArchReport",
    "DegenerateThetaNullError",
    "FiberType",
    "FormulaMismatchError",
    "G2Error",
    "InvalidParamsError",
    "NonArchReport",
    "PMGraph",
    "QuadratureConfig",
    "QuadratureResult",
    "QuadratureUnstableError",
    "SiegelMatrix",
    "UnclassifiableError",
    "arch_invariants",
    "canonical_divisor",
    "classify",
    "closed_form",
    "graph_of_type",
    "log_delta2",
    "log_h",
    "node_counts",
    "nonarch_report",
    "resistance_pairing",
    "siegel_reduce",
    "smooth",
    "total_genus",
]
