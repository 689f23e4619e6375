"""Shared helpers for the test suite: what the reference routes in
`oracles` work with and the package itself does not model (measures with
edge densities, piecewise quadratic functions, their integrals,
subdivision and edge-interior points), and seeded random graphs and
measures.

Functions on a graph follow one convention: each edge is oriented by its
endpoint pair (u, v), and a function on it is a polynomial in the offset
t in [0, len(e)] measured from u."""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Hashable, Iterable, Mapping

import pytest
from hypothesis import Phase, settings

from g2inv.exact import as_rational, sign_known_nonnegative, sort_exact
from g2inv.metric_graph import EdgeId, PMGraph, VertexId

# no shrink phase: shrinking re-runs exact solves for minutes before a
# failure is reported; the failing example is reported unshrunk instead
PROPERTY_SETTINGS = settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    phases=[phase for phase in Phase if phase is not Phase.shrink],
)


class GraphMeasure:
    """Vertex point masses plus a constant density per edge.

    Signed in general; `is_probability` checks for mass one with
    nonnegative parts.  Zero entries are dropped.
    """

    def __init__(
        self,
        vertex_mass: Mapping[VertexId, Any] | None = None,
        edge_density: Mapping[EdgeId, Any] | None = None,
    ):
        self._mass = {
            v: as_rational(m)
            for v, m in (vertex_mass or {}).items()
            if as_rational(m) != 0
        }
        self._density = {
            e: as_rational(d)
            for e, d in (edge_density or {}).items()
            if as_rational(d) != 0
        }

    @property
    def vertex_masses(self) -> dict[VertexId, Any]:
        return dict(self._mass)

    @property
    def edge_densities(self) -> dict[EdgeId, Any]:
        return dict(self._density)

    def mass(self, v: VertexId):
        return self._mass.get(v, Fraction(0))

    def density(self, e: EdgeId):
        return self._density.get(e, Fraction(0))

    def total_mass(self, graph: PMGraph):
        total = Fraction(0)
        for v, m in self._mass.items():
            if v not in graph.vertex_ids:
                raise ValueError(f"measure references unknown vertex {v!r}")
            total = total + m
        for e, d in self._density.items():
            if e not in graph.edge_ids:
                raise ValueError(f"measure references unknown edge {e!r}")
            total = total + d * graph.edge_length(e)
        return total

    def is_probability(self, graph: PMGraph) -> bool:
        if self.total_mass(graph) - 1 != 0:
            return False
        parts = list(self._mass.values()) + list(self._density.values())
        return all(sign_known_nonnegative(p) is not False for p in parts)

    def scale(self, factor: Any) -> "GraphMeasure":
        factor = as_rational(factor)
        return GraphMeasure(
            {v: m * factor for v, m in self._mass.items()},
            {e: d * factor for e, d in self._density.items()},
        )

    def __repr__(self) -> str:
        return f"GraphMeasure(masses={self._mass!r}, densities={self._density!r})"


class PiecewisePoly:
    """A continuous function, quadratic on each edge of its graph.

    Stored as coefficients (c2, c1, c0) per edge, f(t) = c2 t^2 + c1 t + c0
    in the offset coordinate, plus the vertex values.  Construction checks
    that edge-end values agree with the vertex values.
    """

    def __init__(
        self,
        graph: PMGraph,
        edge_coeffs: Mapping[EdgeId, tuple[Any, Any, Any]],
        vertex_values: Mapping[VertexId, Any],
        *,
        check: bool = True,
    ):
        self.graph = graph
        self._coeffs = {
            e: tuple(as_rational(c) for c in edge_coeffs[e]) for e in graph.edge_ids
        }
        self._values = {v: as_rational(vertex_values[v]) for v in graph.vertex_ids}
        if check:
            self._check_continuity()

    def _check_continuity(self) -> None:
        for e in self.graph.edge_ids:
            u, v = self.graph.edge_ends(e)
            c2, c1, c0 = self._coeffs[e]
            length = self.graph.edge_length(e)
            if c0 - self._values[u] != 0:
                raise ValueError(f"edge {e!r}: value at offset 0 disagrees with vertex")
            end_val = c2 * length * length + c1 * length + c0
            if end_val - self._values[v] != 0:
                raise ValueError(
                    f"edge {e!r}: value at offset len disagrees with vertex"
                )

    def coefficients(self, e: EdgeId) -> tuple[Any, Any, Any]:
        return self._coeffs[e]

    def value_at_vertex(self, v: VertexId):
        return self._values[v]

    def constant_value(self):
        """The constant this function equals everywhere, or None."""
        ref = next(iter(self._values.values()))
        for val in self._values.values():
            if val - ref != 0:
                return None
        for c2, c1, _ in self._coeffs.values():
            if c2 != 0 or c1 != 0:
                return None
        return ref

    def __add__(self, other: "PiecewisePoly") -> "PiecewisePoly":
        if other.graph is not self.graph:
            raise ValueError("piecewise polynomials live on different graphs")
        coeffs = {
            e: tuple(a + b for a, b in zip(self._coeffs[e], other._coeffs[e]))
            for e in self.graph.edge_ids
        }
        values = {v: self._values[v] + other._values[v] for v in self.graph.vertex_ids}
        return PiecewisePoly(self.graph, coeffs, values, check=False)

    def scale(self, factor: Any) -> "PiecewisePoly":
        factor = as_rational(factor)
        coeffs = {
            e: tuple(c * factor for c in self._coeffs[e]) for e in self.graph.edge_ids
        }
        values = {v: self._values[v] * factor for v in self.graph.vertex_ids}
        return PiecewisePoly(self.graph, coeffs, values, check=False)

    def add_constant(self, const: Any) -> "PiecewisePoly":
        const = as_rational(const)
        coeffs = {
            e: (c2, c1, c0 + const) for e, (c2, c1, c0) in self._coeffs.items()
        }
        values = {v: val + const for v, val in self._values.items()}
        return PiecewisePoly(self.graph, coeffs, values, check=False)

    def __repr__(self) -> str:
        return f"PiecewisePoly(on {self.graph!r})"


def subdivide(graph: PMGraph, cuts: Mapping[EdgeId, Iterable[Any]]) -> PMGraph:
    """The graph with edges cut at interior offsets.

    `cuts` maps edge ids to offsets from the edge's first endpoint;
    endpoint and repeated offsets are ignored, and a key that is not an
    edge raises ValueError.  Offsets are ordered by sign (`sort_exact`),
    so symbolic offsets need a known order, else ValueError.  The i-th cut
    of edge e in offset order is the genus-0 vertex ("cut", e, i), and the
    pieces of e from its first endpoint on are the edges ("seg", e, 0),
    ("seg", e, 1), ...; uncut edges keep their ids.  The total genus and
    the first Betti number are unchanged.
    """
    unknown = [e for e in cuts if e not in graph.edge_ids]
    if unknown:
        raise ValueError(f"cuts name unknown edges {unknown!r}")
    vertices = [(v, graph.genus(v)) for v in graph.vertex_ids]
    edges = []
    for e in graph.edge_ids:
        u, v, length = *graph.edge_ends(e), graph.edge_length(e)
        offsets: list[Any] = []
        for t in map(as_rational, cuts.get(e, ())):
            if not (t == 0 or t - length == 0 or any(t - s == 0 for s in offsets)):
                offsets.append(t)
        if not offsets:
            edges.append((e, u, v, length))
            continue
        nodes = [u] + [("cut", e, i) for i in range(len(offsets))] + [v]
        vertices += [(w, 0) for w in nodes[1:-1]]
        bounds = [Fraction(0)] + sort_exact(offsets) + [length]
        for i in range(len(nodes) - 1):
            edges.append((("seg", e, i), nodes[i], nodes[i + 1], bounds[i + 1] - bounds[i]))
    return PMGraph(vertices, edges)


def integrate(graph: PMGraph, f: PiecewisePoly, measure: GraphMeasure):
    """Integrate f against a vertex-mass-plus-density measure, exactly."""
    if f.graph is not graph:
        raise ValueError("function does not live on this graph")
    total = Fraction(0)
    for v, m in measure.vertex_masses.items():
        if v not in graph.vertex_ids:
            raise ValueError(f"measure references unknown vertex {v!r}")
        total = total + m * f.value_at_vertex(v)
    for e, rho in measure.edge_densities.items():
        if e not in graph.edge_ids:
            raise ValueError(f"measure references unknown edge {e!r}")
        c2, c1, c0 = f.coefficients(e)
        length = graph.edge_length(e)
        antiderivative = (
            c2 * length * length * length / 3
            + c1 * length * length / 2
            + c0 * length
        )
        total = total + rho * antiderivative
    return total


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
def skewed_tau(monkeypatch):
    """Make `pm_invariants._tau` one too large, so every report has a wrong
    epsilon, phi and lambda that only a comparison with another route can
    catch."""
    from g2inv import pm_invariants

    tau = pm_invariants._tau
    monkeypatch.setattr(pm_invariants, "_tau", lambda graph: tau(graph) + 1)
