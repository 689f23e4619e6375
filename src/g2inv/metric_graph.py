"""Exact potential theory on polarized metric graphs.

A polarized metric graph is a finite connected multigraph (loops allowed)
whose edges carry positive lengths and whose vertices carry nonnegative
integer weights.  Treating edge lengths as resistances turns the graph
into an electrical network; this module computes its potential theory
exactly from one primitive, the vertex resistances: the resistance
pairing of vertex masses, the diagonal Green's function of a
vertex-mass-plus-constant-density measure, the distributional Laplacian
of a piecewise quadratic, and exact integration.  It solves no Poisson
equation; the tests keep one, as an independent reference route.
Lengths are rationals, or rational functions of positive symbolic
lengths; the code is the same for both, because only `exact` knows the
field (see there).

Conventions:

* Each edge is oriented by its endpoint pair (u, v); a function on it is
  a polynomial in the offset t in [0, len(e)] measured from u.
* A function f that is quadratic on each edge has the distributional
  Laplacian

      Delta f = -f'' dx  -  sum_p (sum of outgoing slopes of f at p) delta_p.

  With this sign a solution of Delta f = delta_x - delta_y is the
  potential of a unit current flowing from x to y, and the effective
  resistance is r(x, y) = f(x) - f(y).
* Measures (`GraphMeasure`) are vertex point masses plus a constant
  density per edge, and are the only sources: a divisor such as the
  canonical divisor K is the measure of its integer vertex masses.  This
  class is closed under everything done here, and for such measures the
  diagonal Green's function x -> g(x,x) is quadratic on every edge.
* The vertex resistances r(a, b) come from one inverse G = M^-1 of the
  reduced Laplacian M per graph (`exact.inverse`), memoized on the
  immutable `PMGraph`: r(a, b) = G_aa + G_bb - 2 G_ab, with G zero in
  the base vertex's row and column.  No resistance matrix is built.
  Closed forms extend r to edge interiors (Baker-Faber 2006): for x at
  offset t on an edge e = (a, b) of length L and any z outside the
  interior of e,

      r(x, z) = ((L - t) r(a, z) + t r(b, z)) / L + k t (L - t),
      k = (L - r(a, b)) / L^2,

  and for x, z on e at distance d, r(x, z) = d - k d^2.  The diagonal
  Green's function is integrated from these, with no per-point solve.
* Vertex ids are the only points.  `resistance_pairing` pairs vertex
  masses and raises ValueError on an edge density.  To put a point inside
  an edge, `subdivide` the graph first; the cut is a genus-0 vertex and
  values at the old points are unchanged.  `smooth` undoes subdivision,
  leaving the stable model, the graph whose Laplacian
  `pm_invariants.nonarch_report` inverts.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Hashable, Iterable, Mapping

from .errors import DisconnectedError, FormulaMismatchError, NonProbabilityMeasureError
from .exact import as_rational, inverse, sign_known_nonnegative, sort_exact

VertexId = Hashable
EdgeId = Hashable


def _require_positive(value: Any, what: str) -> None:
    if value == 0 or sign_known_nonnegative(value) is False:
        raise ValueError(f"{what} must be positive, got {value}")


class PMGraph:
    """A connected metric graph with integer genus weights on vertices.

    Immutable after construction.  `vertices` is an iterable of
    (id, genus) pairs and `edges` an iterable of (id, u, v, length)
    tuples; u == v gives a loop, which counts twice toward the degree
    of its vertex.  Lengths may be ints, Fractions, 'p/q' strings, or
    elements of a rational-function field (`exact.rational_function_field`),
    whose generators count as positive.
    """

    def __init__(
        self,
        vertices: Iterable[tuple[VertexId, int]],
        edges: Iterable[tuple[EdgeId, VertexId, VertexId, Any]] = (),
    ):
        self._genus: dict[VertexId, int] = {}
        for vid, q in vertices:
            if vid is None:  # JSON null names no vertex: bad input, exit 2
                raise ValueError("a vertex id must not be None")
            if vid in self._genus:
                raise ValueError(f"duplicate vertex id {vid!r}")
            if not isinstance(q, int) or isinstance(q, bool) or q < 0:
                raise ValueError(f"vertex {vid!r}: genus must be a nonnegative int")
            self._genus[vid] = q
        if not self._genus:
            raise ValueError("a metric graph needs at least one vertex")

        self._edges: dict[EdgeId, tuple[VertexId, VertexId, Any]] = {}
        self._incident: dict[VertexId, list[tuple[EdgeId, int]]] = {
            v: [] for v in self._genus
        }
        for eid, u, v, length in edges:
            if eid in self._edges:
                raise ValueError(f"duplicate edge id {eid!r}")
            if u not in self._genus or v not in self._genus:
                raise ValueError(f"edge {eid!r} references an unknown vertex")
            length = as_rational(length)
            _require_positive(length, f"edge {eid!r} length")
            self._edges[eid] = (u, v, length)
            self._incident[u].append((eid, 0))
            self._incident[v].append((eid, 1))

        self._check_connected()
        # the inverse of the reduced Laplacian and its vertex -> index map
        # (the base vertex has none: its row and column are 0)
        self._green: list | None = None
        self._slot: dict[VertexId, int] = {}

    def _check_connected(self) -> None:
        start = next(iter(self._genus))
        seen = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for eid, end in self._incident[v]:
                other = self._edges[eid][1 - end]
                if other not in seen:
                    seen.add(other)
                    stack.append(other)
        if len(seen) != len(self._genus):
            raise DisconnectedError("the graph is not connected")

    # -- introspection ------------------------------------------------------

    @property
    def vertex_ids(self) -> tuple[VertexId, ...]:
        return tuple(self._genus)

    @property
    def edge_ids(self) -> tuple[EdgeId, ...]:
        return tuple(self._edges)

    def genus(self, v: VertexId) -> int:
        return self._genus[v]

    def edge_ends(self, e: EdgeId) -> tuple[VertexId, VertexId]:
        u, v, _ = self._edges[e]
        return u, v

    def edge_length(self, e: EdgeId):
        return self._edges[e][2]

    def incident(self, v: VertexId) -> tuple[tuple[EdgeId, int], ...]:
        """Edge-ends at v as (edge id, end) pairs; a loop appears twice."""
        return tuple(self._incident[v])

    def degree(self, v: VertexId) -> int:
        return len(self._incident[v])

    @property
    def num_vertices(self) -> int:
        return len(self._genus)

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    @property
    def betti1(self) -> int:
        return self.num_edges - self.num_vertices + 1

    @property
    def total_length(self):
        return sum((length for _, _, length in self._edges.values()), Fraction(0))

    def resistance(self, a: VertexId, b: VertexId):
        """Effective resistance between two vertices.

        The first call inverts the reduced Laplacian based at the first
        vertex, once and exactly (`exact.inverse`), and keeps G = M^-1;
        each pair is then r(a, b) = G_aa + G_bb - 2 G_ab, where the base
        vertex reads as 0.
        """
        if a not in self._genus or b not in self._genus:
            raise ValueError(f"unknown vertex {a!r} or {b!r}")
        if a == b:
            return Fraction(0)
        green, slot = self._factored()
        i, j = slot.get(a), slot.get(b)
        if i is None:
            return green[j][j]
        if j is None:
            return green[i][i]
        return green[i][i] + green[j][j] - 2 * green[i][j]

    def _factored(self) -> tuple[list, dict[VertexId, int]]:
        """The memo: G, the inverse of the reduced Laplacian based at the
        first vertex, and each other vertex's index in it."""
        if self._green is None:
            order, matrix = _reduced_laplacian(self, self.vertex_ids[0])
            self._green = inverse(matrix)
            self._slot = {v: i for i, v in enumerate(order)}
        return self._green, self._slot

    def __repr__(self) -> str:
        return f"PMGraph({self.num_vertices} vertices, {self.num_edges} edges)"


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


# -- subdivision ------------------------------------------------------------


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


def smooth(graph: PMGraph) -> PMGraph:
    """The graph with every genus-0 vertex of valence 2 merged away.

    The inverse of `subdivide`, in one pass: each chain of genus-0 vertices
    on two different edges becomes one edge with the summed length, under
    the id and orientation of whichever of its end edges comes first, so
    no id is new.  A genus-0 vertex alone on a loop stays, as does one
    vertex of a bare cycle.  Total genus, first Betti number, total length
    and every invariant (Zhang 1993) are kept.  With nothing to merge,
    `graph` itself is returned, memoized inverse and all.
    """

    def merged(v: VertexId) -> bool:
        ends = graph.incident(v)
        return graph.genus(v) == 0 and len(ends) == 2 and ends[0][0] != ends[1][0]

    keep = {v for v in graph.vertex_ids if not merged(v)}
    if len(keep) == graph.num_vertices:
        return graph
    keep = keep or {graph.vertex_ids[0]}
    seen: set[EdgeId] = set()
    edges = []
    for e in graph.edge_ids:
        ends = graph.edge_ends(e)
        start = 0 if ends[0] in keep else 1
        if e in seen or ends[start] not in keep:
            continue  # walked already, or inside a chain walked from its end
        f, w, length = e, ends[1 - start], graph.edge_length(e)
        while w not in keep:  # step through w along its other edge
            f, end = next(pair for pair in graph.incident(w) if pair[0] != f)
            seen.add(f)
            w, length = graph.edge_ends(f)[1 - end], length + graph.edge_length(f)
        edges.append((e, ends[0], w, length) if start == 0 else (e, w, ends[1], length))
    return PMGraph([(v, graph.genus(v)) for v in graph.vertex_ids if v in keep], edges)


# -- resistances ------------------------------------------------------------


def _reduced_laplacian(graph: PMGraph, base: VertexId) -> tuple[list, list]:
    """The weighted Laplacian with the row and column of `base` removed.

    Returns (vertex order, matrix); edge weights are 1/length and loops
    contribute nothing.
    """
    order = [v for v in graph.vertex_ids if v != base]
    index = {v: i for i, v in enumerate(order)}
    n = len(order)
    matrix = [[Fraction(0)] * n for _ in range(n)]
    for v in order:
        i = index[v]
        for eid, end in graph.incident(v):
            other = graph.edge_ends(eid)[1 - end]
            if other == v:
                continue  # loop: no off-diagonal term
            conductance = 1 / graph.edge_length(eid)
            matrix[i][i] = matrix[i][i] + conductance
            if other != base:
                j = index[other]
                matrix[i][j] = matrix[i][j] - conductance
    return order, matrix


def poly_laplacian(f: PiecewisePoly) -> GraphMeasure:
    """The distributional Laplacian of f: vertex masses and -f'' per edge,
    in the sign convention of the module docstring."""
    graph = f.graph
    density = {}
    slope_sum: dict[VertexId, Any] = {v: Fraction(0) for v in graph.vertex_ids}
    for e in graph.edge_ids:
        c2, c1, _ = f.coefficients(e)
        u, v = graph.edge_ends(e)
        length = graph.edge_length(e)
        density[e] = -2 * c2
        slope_sum[u] = slope_sum[u] + c1
        slope_sum[v] = slope_sum[v] - (2 * c2 * length + c1)
    return GraphMeasure({v: -s for v, s in slope_sum.items()}, density)


def resistance_pairing(graph: PMGraph, d: GraphMeasure, e: GraphMeasure):
    """The resistance function extended bilinearly to the vertex masses of
    two measures, each r read from `PMGraph.resistance`.  An edge density
    raises ValueError: `subdivide` the graph to put mass inside an edge."""
    if d.edge_densities or e.edge_densities:
        raise ValueError("resistance pairing of an edge density; subdivide the graph first")
    total = Fraction(0)
    for a, cx in d.vertex_masses.items():
        for b, cy in e.vertex_masses.items():
            if a != b:
                total = total + cx * cy * graph.resistance(a, b)
    return total


def diagonal_green(graph: PMGraph, mu: GraphMeasure) -> tuple[PiecewisePoly, Any]:
    """The diagonal x -> g(x, x) of the Green's function, per-edge quadratic,
    and its integral I/2 against mu.

    g(x, x) = j(x) - I/2 with j(x) the integral of r(x, z) dmu(z) and I
    the integral of j against mu.  j is integrated in closed form from the
    vertex resistances (see the module docstring): at each vertex, and as
    one quadratic per edge.  Each edge quadratic is built from the
    same-edge formula, the vertex values from the formula for points
    outside the edge; the two must agree exactly at both ends of every
    edge, else FormulaMismatchError is raised.
    """
    mass = mu.total_mass(graph)
    if mass - 1 != 0:
        raise NonProbabilityMeasureError(f"measure has mass {mass}, expected 1")
    r = graph.resistance
    kappa = {}
    for e in graph.edge_ids:
        a, b = graph.edge_ends(e)
        length = graph.edge_length(e)
        kappa[e] = (length - r(a, b)) / (length * length)

    # j(w) = integral of r(w, z) dmu(z).  An edge f = (c, d) of density rho
    # adds rho (L (r(c, w) + r(d, w)) / 2 + k L^3 / 6): weight rho L / 2 at
    # each end (both halves at a loop's one vertex, as r(c, w) counts twice),
    # folded with the masses into W_v, and a w-free term summed into C:
    # j(w) = C + sum_v W_v r(v, w).
    weight = mu.vertex_masses
    const = Fraction(0)
    for f, rho in mu.edge_densities.items():
        length = graph.edge_length(f)
        for end in graph.edge_ends(f):
            weight[end] = weight.get(end, Fraction(0)) + rho * length / 2
        const = const + rho * kappa[f] * length**3 / 6
    j = {
        w: const + sum((m * r(v, w) for v, m in weight.items()), Fraction(0))
        for w in graph.vertex_ids
    }

    coeffs = {}
    for e in graph.edge_ids:
        a, b = graph.edge_ends(e)
        length, k, rho = graph.edge_length(e), kappa[e], mu.density(e)
        # j without e's own density, at both ends of e
        own = rho * (length * r(a, b) / 2 + k * length**3 / 6)
        lo, hi = j[a] - own, j[b] - own
        # x at offset t: interpolate the rest of mu, add the bulge
        # k t (L - t) times its mass, and integrate d - k d^2 against e's
        # density:  rho ((t^2 + (L - t)^2) / 2 - k (t^3 + (L - t)^3) / 3)
        c2 = rho * (1 - k * length) - k * (1 - rho * length)
        c1 = (hi - lo) / length - c2 * length
        c0 = lo + rho * length * length * (Fraction(1, 2) - k * length / 3)
        coeffs[e] = (c2, c1, c0)

    try:
        j_poly = PiecewisePoly(graph, coeffs, j)
    except ValueError as exc:
        raise FormulaMismatchError(f"diagonal Green's function: {exc}") from exc
    half = integrate(graph, j_poly, mu) / 2
    return j_poly.add_constant(-half), half


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
