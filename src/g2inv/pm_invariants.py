"""Local invariants of a polarized metric graph.

Builds on the exact potential theory in `metric_graph`: total genus, the
canonical divisor K as a vertex measure (a divisor is the measure of its
integer vertex masses, so K is paired, integrated and compared like any
other measure), the admissible measure (the unique
probability measure mu making x -> g(x,x) + g(K,x) constant), and from it
the invariants epsilon, phi and lambda, together with the node counts
delta0 (total length of non-bridge edges) and delta1 (bridge edges).

The invariants do not depend on the model (Zhang 1993), so a report
derives everything from one inverse of the reduced Laplacian of the
stable model `smooth(graph)` (`exact.inverse`, via `metric_graph`), at
most 1 x 1 in genus 2: bridges are the edges with r(a, b) = len(e), the
admissible measure and the diagonal Green's function have closed forms
in r, and r(K, K) is read off directly.  A report solves nothing after
that inverse.  Two runtime cross-checks stay hard errors: the
admissibility of the measure is verified exactly through the Laplacian
of the diagonal, which must equal deg(K) mu - K (`is_admissible`,
AdmissibilityFailureError), and phi is computed through two routes, an
integral against the admissible measure and a resistance-pairing
formula, compared exactly (FormulaMismatchError); `g2inv nonarch` adds
the paper's closed forms as a third (see `nonarch_report`).  The
independent Poisson-solve route for g(K, .) lives in the tests, as the
reference these checks are tested against.

A report needs a pm-graph: its canonical divisor K must be effective,
so a genus-0 vertex of valence 1, where K has mass -1, is refused
with a ValueError that names it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any

from .errors import (
    AdmissibilityFailureError,
    FormulaMismatchError,
    GenusZeroError,
)
from .metric_graph import (
    GraphMeasure,
    PMGraph,
    PiecewisePoly,
    diagonal_green,
    integrate,
    poly_laplacian,
    resistance_pairing,
    smooth,
)


def total_genus(graph: PMGraph) -> int:
    """First Betti number plus the sum of the vertex weights."""
    return graph.betti1 + sum(graph.genus(v) for v in graph.vertex_ids)


def canonical_divisor(graph: PMGraph) -> GraphMeasure:
    """K as a measure: mass 2 q(v) - 2 + deg(v) at each vertex."""
    return GraphMeasure(
        {v: 2 * graph.genus(v) - 2 + graph.degree(v) for v in graph.vertex_ids}
    )


@dataclass(frozen=True)
class NodeCounts:
    delta0: Any
    delta1: Any

    @property
    def delta(self):
        return self.delta0 + self.delta1


def is_bridge(graph: PMGraph, e) -> bool:
    """Whether removing edge e disconnects the graph: exactly when the
    resistance between its ends equals its length.  Loops never do."""
    u, v = graph.edge_ends(e)
    return u != v and graph.resistance(u, v) - graph.edge_length(e) == 0


def node_counts(graph: PMGraph) -> NodeCounts:
    bridge = {e: is_bridge(graph, e) for e in graph.edge_ids}
    delta0 = sum((graph.edge_length(e) for e in bridge if not bridge[e]), Fraction(0))
    delta1 = sum((graph.edge_length(e) for e in bridge if bridge[e]), Fraction(0))
    return NodeCounts(delta0, delta1)


def is_admissible(graph: PMGraph, mu: GraphMeasure, diag: PiecewisePoly) -> bool:
    """Whether x -> g_mu(x,x) + g_mu(K,x) is constant, from the Laplacian of
    `diag` (mu's `diagonal_green`) alone.

    Delta_x g_mu(K, x) = K - deg(K) mu, and on a connected graph a
    continuous piecewise quadratic is constant exactly when its Laplacian
    is 0 (Baker-Faber 2006).  So the sum is constant exactly when
    Delta diag = deg(K) mu - K, at every vertex and as a density on every
    edge: an exact comparison, with no solve.
    """
    k = canonical_divisor(graph)
    deg_k = k.total_mass(graph)
    lap = poly_laplacian(diag)
    return all(
        lap.density(e) - deg_k * mu.density(e) == 0 for e in graph.edge_ids
    ) and all(
        lap.mass(v) + k.mass(v) - deg_k * mu.mass(v) == 0 for v in graph.vertex_ids
    )


def admissible_measure(graph: PMGraph) -> GraphMeasure:
    """The unique probability measure with g(x,x) + g(K,x) constant.

    The closed form of Zhang 1993, Thm 3.2: vertex masses q(v)/g; an edge
    e = (a, b) of length L has density 1/(g (L + R(e))), with
    R(e) = L r(a, b) / (L - r(a, b)) the resistance between its ends in
    the graph minus e.  That is (L - r(a, b)) / (g L^2), which vanishes on
    bridges and is 1/(g L) on loops.  `nonarch_report` verifies the
    property exactly on every run (AdmissibilityFailureError otherwise);
    `is_admissible` checks it for any measure.
    """
    g = total_genus(graph)
    if g == 0:
        raise GenusZeroError("a genus-0 graph has no admissible measure")
    masses = {v: Fraction(graph.genus(v), g) for v in graph.vertex_ids}
    densities = {}
    for e in graph.edge_ids:
        a, b = graph.edge_ends(e)
        length = graph.edge_length(e)
        densities[e] = (length - graph.resistance(a, b)) / (g * length * length)
    return GraphMeasure(masses, densities)


@dataclass(frozen=True)
class NonArchReport:
    """Every invariant of one graph: exact rationals throughout.

    epsilon integrates g(x,x) against (2g-2) mu + delta_K, and
    lambda = (g-1)/(6(2g+1)) phi + (epsilon + delta)/12.
    """

    genus: int
    delta0: Any
    delta1: Any
    r_kk: Any
    epsilon: Any
    phi: Any
    lambda_: Any


def nonarch_report(graph: PMGraph) -> NonArchReport:
    """All invariants at once, from one admissible measure and its diagonal
    on the stable model `smooth(graph)`.

    The measure must make g(x,x) + g(K,x) exactly constant (`is_admissible`),
    else AdmissibilityFailureError.  phi is the integral of g(x,x) against
    (10g+2) mu - delta_K, minus delta/4; for g = 2 it must equal
    -delta/4 - 3/8 r(K,K) + 2 epsilon exactly, else FormulaMismatchError.
    A genus-0 vertex of valence 1 makes K not effective: ValueError.  The
    closed forms are compared by `cli._run_nonarch`, not here, because
    `fiber_catalog` imports this module and `FiberType.canonical` cannot
    order the symbolic lengths of `table`.
    """
    g = total_genus(graph)
    if g < 2:
        raise ValueError(f"invariant defined for total genus >= 2, got {g}")
    k = canonical_divisor(graph)
    leaf = next((v for v, c in k.vertex_masses.items() if c < 0), None)
    if leaf is not None:
        raise ValueError(
            f"vertex {leaf!r} has genus 0 and valence 1, so the canonical "
            "divisor is not effective: not a pm-graph"
        )
    graph = smooth(graph)  # K has no mass on a merged vertex: k stays valid
    mu = admissible_measure(graph)
    diag, diag_mu = diagonal_green(graph, mu)
    if not is_admissible(graph, mu, diag):
        raise AdmissibilityFailureError(
            "g(x,x) + g(K,x) is not constant for the closed-form measure"
        )
    counts = node_counts(graph)
    r_kk = resistance_pairing(graph, k, k)
    diag_k = integrate(graph, diag, k)
    eps = diag_k + (2 * g - 2) * diag_mu
    phi = -counts.delta / 4 + (-diag_k + (10 * g + 2) * diag_mu) / 4
    if g == 2:
        phi_resist = -counts.delta / 4 - Fraction(3, 8) * r_kk + 2 * eps
        if phi - phi_resist != 0:
            raise FormulaMismatchError(
                f"phi routes disagree: integral gives {phi}, "
                f"resistance formula gives {phi_resist}"
            )
    lam = Fraction(g - 1, 6 * (2 * g + 1)) * phi + (eps + counts.delta) / 12
    return NonArchReport(
        genus=g,
        delta0=counts.delta0,
        delta1=counts.delta1,
        r_kk=r_kk,
        epsilon=eps,
        phi=phi,
        lambda_=lam,
    )
