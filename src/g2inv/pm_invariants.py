"""Local invariants of a polarized metric graph.

Builds on the vertex resistances of `metric_graph`: total genus, the
canonical divisor K as a map {vertex: mass}, the node counts delta0
(total length of non-bridge edges) and delta1 (bridge edges), and the
invariants epsilon, phi and lambda.

The invariants do not depend on the model (Zhang 1993), so a report
derives everything from one inverse of the reduced Laplacian of the
stable model `smooth(graph)` (`exact.inverse`, via `metric_graph`), at
most 1 x 1 in genus 2, and solves nothing after it.  Bridges are the
edges with r(a, b) = len(e); theta = r(K, K) is the resistance pairing
of K with itself; and epsilon, phi and lambda are Cinkir's formulas
(Invent. Math. 183, 2011) in theta, the total length and his tau
invariant, which is a sum over the edges of resistances alone (`_tau`).
Zhang's route, which integrates the diagonal of the Green's function
against the admissible measure (Zhang 1993), is kept in the tests as the
reference these formulas are checked against at genus 2, 3 and 4.  For
genus 2, `g2inv nonarch`, `table` and `verify` compare every field with
the paper's closed form, a second and independent route.

A report needs a pm-graph: its canonical divisor K must be effective,
so a genus-0 vertex of valence 1, where K has mass -1, is refused
with a ValueError that names it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any

from .metric_graph import PMGraph, resistance_pairing, smooth


def total_genus(graph: PMGraph) -> int:
    """First Betti number plus the sum of the vertex weights."""
    return graph.betti1 + sum(graph.genus(v) for v in graph.vertex_ids)


def canonical_divisor(graph: PMGraph) -> dict:
    """K as {vertex: mass}, the mass 2 q(v) - 2 + deg(v), on the vertices
    where it is not 0."""
    masses = {v: 2 * graph.genus(v) - 2 + graph.degree(v) for v in graph.vertex_ids}
    return {v: m for v, m in masses.items() if m != 0}


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
    return u != v and graph.resistance(u, v) == graph.edge_length(e)


def node_counts(graph: PMGraph) -> NodeCounts:
    bridge = {e: is_bridge(graph, e) for e in graph.edge_ids}
    delta0 = sum((graph.edge_length(e) for e in bridge if not bridge[e]), Fraction(0))
    delta1 = sum((graph.edge_length(e) for e in bridge if bridge[e]), Fraction(0))
    return NodeCounts(delta0, delta1)


def _tau(graph: PMGraph):
    """Cinkir's tau invariant from the vertex resistances alone:

        tau = 1/4 sum_e [(r(b, y) - r(a, y))^2 / L + (L/3) (1 - r(a, b)/L)^2]

    over the edges e = (a, b) of length L, for any vertex y; here y is the
    first vertex, the base of the memoized inverse."""
    r = graph.resistance
    y = graph.vertex_ids[0]
    tau = Fraction(0)
    for e in graph.edge_ids:
        a, b = graph.edge_ends(e)
        length = graph.edge_length(e)
        tau = tau + (r(b, y) - r(a, y)) ** 2 / length + length / 3 * (1 - r(a, b) / length) ** 2
    return tau / 4


@dataclass(frozen=True)
class NonArchReport:
    """Every invariant of one graph: exact rationals throughout.

    With theta = r(K, K), ell = delta0 + delta1 the total length and tau
    Cinkir's invariant, in total genus g:

        epsilon = (4g-4)/g tau + theta/(2g),
        phi     = (5g-2)/g tau + theta/(4g) - ell/4,
        lambda  = (3g-3)/(4g+2) tau + (theta + (g+1) ell)/(16g+8),

    so lambda = (g-1)/(6(2g+1)) phi + (epsilon + ell)/12.
    """

    genus: int
    delta0: Any
    delta1: Any
    r_kk: Any
    epsilon: Any
    phi: Any
    lambda_: Any


def nonarch_report(graph: PMGraph) -> NonArchReport:
    """All invariants at once, from the resistances of the stable model
    `smooth(graph)`: the node counts, theta = r(K, K) and `_tau`, put
    together by the formulas of `NonArchReport`.

    Total genus below 2 raises ValueError, as does a genus-0 vertex of
    valence 1, which makes K not effective.  The closed forms are compared
    by `cli._run_nonarch`, not here, because `fiber_catalog` imports this
    module and `FiberType.canonical` cannot order the symbolic lengths of
    `table`.
    """
    g = total_genus(graph)
    if g < 2:
        raise ValueError(f"invariant defined for total genus >= 2, got {g}")
    k = canonical_divisor(graph)
    leaf = next((v for v, c in k.items() if c < 0), None)
    if leaf is not None:
        raise ValueError(
            f"vertex {leaf!r} has genus 0 and valence 1, so the canonical "
            "divisor is not effective: not a pm-graph"
        )
    graph = smooth(graph)  # K has no mass on a merged vertex: k stays valid
    counts = node_counts(graph)
    theta = resistance_pairing(graph, k, k)
    tau = _tau(graph)
    ell = counts.delta
    return NonArchReport(
        genus=g,
        delta0=counts.delta0,
        delta1=counts.delta1,
        r_kk=theta,
        epsilon=Fraction(4 * g - 4, g) * tau + theta / (2 * g),
        phi=Fraction(5 * g - 2, g) * tau + theta / (4 * g) - ell / 4,
        lambda_=Fraction(3 * g - 3, 4 * g + 2) * tau + (theta + (g + 1) * ell) / (16 * g + 8),
    )
