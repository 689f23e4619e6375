"""Exact resistances on polarized metric graphs.

A polarized metric graph is a finite connected multigraph (loops allowed)
whose edges carry positive lengths and whose vertices carry nonnegative
integer weights.  Treating edge lengths as resistances turns the graph
into an electrical network, and the graph invariants need one thing
from it: the effective resistance r(a, b) between vertices.  Lengths are
rationals, or rational functions of positive symbolic lengths; the code
is the same for both, because only `exact` knows the field (see there).

* The vertex resistances come from one inverse G = M^-1 of the reduced
  Laplacian M per graph (`exact.inverse`), memoized on the immutable
  `PMGraph`: r(a, b) = G_aa + G_bb - 2 G_ab, with G zero in the base
  vertex's row and column.  No resistance matrix is built.  Loops add
  length but no conductance between vertices.
* `resistance_pairing` extends r bilinearly to vertex-mass maps
  {vertex: mass}, such as the canonical divisor K of `pm_invariants`.
* Vertex ids are the only points.  `smooth` merges away every genus-0
  vertex of valence 2, leaving the stable model, the graph whose
  Laplacian `pm_invariants.nonarch_report` inverts.

Measures with edge densities, piecewise quadratic potentials,
subdivision and Zhang's integral route to the invariants live in the
tests (`conftest`, `oracles`), as references for the formulas in r
that the package uses.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Hashable, Iterable, Mapping

from .exact import MAX_RATIONAL_DIGITS, as_positive, exceeds_digit_bound, inverse

VertexId = Hashable
EdgeId = Hashable


class PMGraph:
    """A connected metric graph with integer genus weights on vertices.

    Immutable after construction.  `vertices` is an iterable of
    (id, genus) pairs and `edges` an iterable of (id, u, v, length)
    tuples; u == v gives a loop, which counts twice toward the degree
    of its vertex.  Lengths may be ints, Fractions, 'p/q' strings, or
    elements of a rational-function field (`exact.rational_function_field`),
    whose generators count as positive.  Breaking these rules, or leaving
    the graph disconnected, is a ValueError; a wrong type is a TypeError.
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
            length = as_positive(length, f"edge {eid!r} length")
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
            raise ValueError("the graph is not connected")

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


def smooth(graph: PMGraph) -> PMGraph:
    """The graph with every genus-0 vertex of valence 2 merged away.

    Undoes subdivision, in one pass: each chain of genus-0 vertices
    on two different edges becomes one edge with the summed length, under
    the id and orientation of whichever of its end edges comes first, so
    no id is new.  A genus-0 vertex alone on a loop stays, as does one
    vertex of a bare cycle.  Total genus, first Betti number, total length
    and every invariant (Zhang 1993) are kept.  With nothing to merge,
    `graph` itself is returned, memoized inverse and all.  A merged length
    that spells more digits than `exact.as_rational` accepts in text is a
    ValueError naming its edge (`exact.exceeds_digit_bound`): the sum of
    accepted lengths can pass that bound, and a report on it would not
    print.
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
            if exceeds_digit_bound(length):
                raise ValueError(
                    f"the merged length of edge {e!r} spells more than {MAX_RATIONAL_DIGITS} digits"
                )
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


def resistance_pairing(graph: PMGraph, d: Mapping[VertexId, Any], e: Mapping[VertexId, Any]):
    """The resistance function extended bilinearly to two vertex-mass maps
    {vertex: mass}, each r read from `PMGraph.resistance`; a key that is
    no vertex of the graph raises ValueError."""
    total = Fraction(0)
    for a, cx in d.items():
        for b, cy in e.items():
            if a != b:
                total = total + cx * cy * graph.resistance(a, b)
    return total
