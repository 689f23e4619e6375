"""Shared helpers for the test suite: seeded random graphs and measures,
and edge-interior points, which the package itself does not model."""

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Hashable

import pytest
from hypothesis import Phase, settings

from g2inv.metric_graph import GraphMeasure, PiecewisePoly, PMGraph, subdivide

# no shrink phase: shrinking re-runs exact solves for minutes before a
# failure is reported; the failing example is reported unshrunk instead
PROPERTY_SETTINGS = settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    phases=[phase for phase in Phase if phase is not Phase.shrink],
)


def rand_frac(rng: random.Random, max_num: int = 12, max_den: int = 8) -> Fraction:
    """A random positive rational with small numerator and denominator."""
    return Fraction(rng.randint(1, max_num), rng.randint(1, max_den))


def random_pm_graph(
    rng: random.Random,
    max_vertices: int = 5,
    extra_edges: int = 3,
    max_genus: int = 2,
) -> PMGraph:
    """A random connected metric graph: spanning tree plus extra edges.

    Extra edges may be loops or parallel edges, so all the multigraph
    code paths get exercised.
    """
    n = rng.randint(1, max_vertices)
    vertices = [(f"v{i}", rng.randint(0, max_genus)) for i in range(n)]
    edges = []
    for i in range(1, n):
        j = rng.randrange(i)
        edges.append((f"t{i}", f"v{j}", f"v{i}", rand_frac(rng)))
    extras = rng.randint(0 if edges else 1, extra_edges)
    for k in range(extras):
        u = rng.randrange(n)
        v = rng.randrange(n)
        edges.append((f"x{k}", f"v{u}", f"v{v}", rand_frac(rng)))
    return PMGraph(vertices, edges)


def drop_genus0_leaves(graph: PMGraph) -> PMGraph:
    """The graph without its genus-0 vertices of valence 1, each dropped
    with its edge until none is left.  Total genus and connectedness stay."""
    leaf = next((v for v in graph.vertex_ids if (graph.genus(v), graph.degree(v)) == (0, 1)), None)
    if leaf is None:
        return graph
    vertices = [(v, graph.genus(v)) for v in graph.vertex_ids if v != leaf]
    edges = [(e, *graph.edge_ends(e), graph.edge_length(e)) for e in graph.edge_ids]
    return drop_genus0_leaves(PMGraph(vertices, [e for e in edges if leaf not in e[1:3]]))


def random_probability_measure(rng: random.Random, graph: PMGraph) -> GraphMeasure:
    """A random probability measure with masses on some vertices and edges."""
    masses = {v: Fraction(rng.randint(0, 4)) for v in graph.vertex_ids}
    densities = {e: Fraction(rng.randint(0, 3)) for e in graph.edge_ids}
    raw = GraphMeasure(masses, densities)
    total = raw.total_mass(graph)
    if total == 0:
        v = graph.vertex_ids[0]
        raw = GraphMeasure({v: 1}, {})
        total = Fraction(1)
    return raw.scale(Fraction(1) / total)


@dataclass(frozen=True)
class EdgePoint:
    """The point at `offset` from the first endpoint of edge `edge`."""

    edge: Hashable
    offset: Any


def value_at(f: PiecewisePoly, p):
    """f at a vertex id or an `EdgePoint`: c2 t^2 + c1 t + c0 there."""
    if not isinstance(p, EdgePoint):
        return f.value_at_vertex(p)
    c2, c1, c0 = f.coefficients(p.edge)
    return c2 * p.offset * p.offset + c1 * p.offset + c0


def subdivide_at(graph, points, mu=None):
    """`subdivide` graph at the `EdgePoint`s among `points`.

    Returns the new graph, each point as a vertex id of it (a vertex id
    stays; an offset of 0 or len(e) is e's end vertex; the i-th interior
    cut of e is the vertex ("cut", e, i)), and mu carried over: each piece
    ("seg", e, i) keeps e's density, since densities are per unit length.
    """
    cuts = {}
    for p in points:
        if isinstance(p, EdgePoint):
            cuts.setdefault(p.edge, []).append(p.offset)
    fine = subdivide(graph, cuts)

    def vertex(p):  # the cut that ends the pieces ("seg", e, 0..i) at p
        if not isinstance(p, EdgePoint):
            return p
        u, v = graph.edge_ends(p.edge)
        if p.offset == 0:
            return u
        if p.offset - graph.edge_length(p.edge) == 0:
            return v
        i, end = 0, fine.edge_length(("seg", p.edge, 0))
        while end - p.offset != 0:
            i += 1
            end = end + fine.edge_length(("seg", p.edge, i))
        return ("cut", p.edge, i)

    fine_mu = None
    if mu is not None:
        parent = {s: s if s in graph.edge_ids else s[1] for s in fine.edge_ids}
        fine_mu = GraphMeasure(mu.vertex_masses, {s: mu.density(parent[s]) for s in parent})
    return fine, [vertex(p) for p in points], fine_mu


@pytest.fixture
def rng():
    return random.Random(20260817)


@pytest.fixture
def skewed_admissible_measure(monkeypatch):
    """Make `pm_invariants.admissible_measure` return a probability measure
    that is not admissible: half the closed form plus half a unit mass at
    the first vertex (admissible only where the closed form is that mass)."""
    from g2inv import pm_invariants

    closed_form = pm_invariants.admissible_measure

    def skewed(graph):
        mu = closed_form(graph)
        masses = mu.vertex_masses
        v = graph.vertex_ids[0]
        masses[v] = mu.mass(v) + 1
        return GraphMeasure(masses, mu.edge_densities).scale(Fraction(1, 2))

    monkeypatch.setattr(pm_invariants, "admissible_measure", skewed)
