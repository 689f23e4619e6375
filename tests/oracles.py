"""Reference routes the package's potential theory is tested against.

The exact Poisson route solves Delta f = the sum of some measures for
the vertex potentials by a plain Gauss-Jordan elimination in field
arithmetic (`solve`); resistances, Green's functions and g(K, .) each
take one such solve.  Points are vertex ids, as in the package, and a
source must name vertices and edges of its graph.  The route imports
nothing from `g2inv.exact` and asks no `PMGraph` for a resistance, so it
shares no elimination code with `g2inv.exact.inverse`.

The float oracle replaces each edge by n equal resistors in series and
lumps measures onto the chain nodes (half a segment's mass to each end),
solved with numpy in floats.  Agreement is expected to O(1/n).
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from g2inv.errors import NonProbabilityMeasureError
from g2inv.metric_graph import GraphMeasure, PiecewisePoly, PMGraph, integrate


class NonZeroMassError(Exception):
    """The source of a Poisson problem does not have total mass zero."""


def solve(matrix, rhs) -> list:
    """x with matrix x = rhs, by Gauss-Jordan elimination on the field values
    themselves (Fractions or rational functions).  Raises ValueError on a
    singular matrix."""
    rows = [
        [Fraction(x) if isinstance(x, int) else x for x in (*row, b)]
        for row, b in zip(matrix, rhs)
    ]
    for col in range(len(rows)):
        pivot = next((r for r in range(col, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            raise ValueError("singular system")
        rows[col], rows[pivot] = rows[pivot], rows[col]
        top = rows[col] = [x / rows[col][col] for x in rows[col]]
        for r, row in enumerate(rows):
            if r != col and row[col] != 0:
                rows[r] = [x - row[col] * y for x, y in zip(row, top)]
    return [row[-1] for row in rows]


def solve_poisson(graph: PMGraph, divisor, measure, base) -> PiecewisePoly:
    """f with Delta f = divisor + measure and f(base) = 0, in the sign
    convention of `g2inv.metric_graph`; both are measures, or None.  The
    source must have total mass zero (NonZeroMassError) and name only
    vertices and edges of the graph (ValueError).

    Row v of the system is the weighted Laplacian, sum over the non-loop
    edges at v of (f(v) - f(w)) / len, against the point mass at v plus
    half of each incident edge's density mass (a loop's twice)."""
    mass = dict.fromkeys(graph.vertex_ids, Fraction(0))
    density = dict.fromkeys(graph.edge_ids, Fraction(0))
    for source in (divisor, measure):
        if source is None:
            continue
        for v, m in source.vertex_masses.items():
            if v not in mass:
                raise ValueError(f"{v!r} is no vertex; subdivide the graph to put a point there")
            mass[v] += m
        for e, d in source.edge_densities.items():
            if e not in density:
                raise ValueError(f"unknown edge {e!r}")
            density[e] += d
    if base not in mass:
        raise ValueError(f"base vertex {base!r} not in graph")
    total = sum(mass.values()) + sum(d * graph.edge_length(e) for e, d in density.items())
    if total != 0:
        raise NonZeroMassError(f"source has total mass {total}, expected 0")
    order = [v for v in graph.vertex_ids if v != base]
    matrix = [[Fraction(0)] * len(order) for _ in order]
    rhs = [mass[v] for v in order]
    for i, v in enumerate(order):
        for e, end in graph.incident(v):
            length = graph.edge_length(e)
            rhs[i] += density[e] * length / 2
            w = graph.edge_ends(e)[1 - end]
            if w != v:
                matrix[i][i] += 1 / length
                if w != base:
                    matrix[i][order.index(w)] -= 1 / length
    f = {base: Fraction(0), **dict(zip(order, solve(matrix, rhs)))}
    coeffs = {}
    for e in graph.edge_ids:
        (u, v), length, c2 = graph.edge_ends(e), graph.edge_length(e), -density[e] / 2
        coeffs[e] = (c2, (f[v] - f[u]) / length - c2 * length, f[u])
    return PiecewisePoly(graph, coeffs, f)


def effective_resistance(graph: PMGraph, x, y):
    """r(x, y) between two vertices: f(x) for Delta f = delta_x - delta_y.
    The unit masses are separate measures, so x == y cancels to 0."""
    f = solve_poisson(graph, GraphMeasure({x: 1}), GraphMeasure({y: -1}), y)
    return f.value_at_vertex(x)


def green_function(graph: PMGraph, mu: GraphMeasure, y) -> PiecewisePoly:
    """g_mu(., y) for a probability measure mu and a vertex y: Delta g =
    delta_y - mu, normalized by integral(g dmu) = 0."""
    if mu.total_mass(graph) - 1 != 0:
        raise NonProbabilityMeasureError("a Green's function needs a probability measure")
    f = solve_poisson(graph, GraphMeasure({y: 1}), mu.scale(-1), y)
    return f.add_constant(-integrate(graph, f, mu))


def green_of_canonical(graph: PMGraph, mu: GraphMeasure) -> PiecewisePoly:
    """g_mu(K, .) for the canonical divisor K (coefficient 2 q(v) - 2 + deg(v)):
    by linearity Delta f = K - deg(K) mu with integral(f dmu) = 0, one solve.
    mu is admissible exactly when the diagonal, diagonal_green(graph, mu)[0],
    plus this is constant."""
    k = GraphMeasure({v: 2 * graph.genus(v) - 2 + graph.degree(v) for v in graph.vertex_ids})
    f = solve_poisson(graph, k, mu.scale(-k.total_mass(graph)), graph.vertex_ids[0])
    return f.add_constant(-integrate(graph, f, mu))


class DiscreteNetwork:
    def __init__(self, graph: PMGraph, n: int):
        self.graph = graph
        self.n = n
        self.nodes: list = list(graph.vertex_ids)
        self.index = {v: i for i, v in enumerate(self.nodes)}
        self.chains: dict = {}
        for e in graph.edge_ids:
            u, v = graph.edge_ends(e)
            chain = [self.index[u]]
            for k in range(1, n):
                self.index[(e, k)] = len(self.nodes)
                self.nodes.append((e, k))
                chain.append(self.index[(e, k)])
            chain.append(self.index[v])
            self.chains[e] = chain

        size = len(self.nodes)
        lap = np.zeros((size, size))
        for e in graph.edge_ids:
            cond = n / float(graph.edge_length(e))
            chain = self.chains[e]
            for i, j in zip(chain, chain[1:]):
                lap[i, i] += cond
                lap[j, j] += cond
                lap[i, j] -= cond
                lap[j, i] -= cond
        self.lap = lap
        # pseudo-solve via grounding node 0, shared by every right-hand side
        self._reduced_inv = np.linalg.inv(lap[1:, 1:])

    def lump(self, mu: GraphMeasure) -> np.ndarray:
        """Measure as a node-mass vector (trapezoidal lumping per segment)."""
        w = np.zeros(len(self.nodes))
        for v, m in mu.vertex_masses.items():
            w[self.index[v]] += float(m)
        for e, rho in mu.edge_densities.items():
            seg_mass = float(rho) * float(self.graph.edge_length(e)) / self.n
            chain = self.chains[e]
            for i, j in zip(chain, chain[1:]):
                w[i] += seg_mass / 2
                w[j] += seg_mass / 2
        return w

    def solve(self, b: np.ndarray) -> np.ndarray:
        """A solution of L f = b (zero-mass b), grounded at node 0."""
        f = np.zeros(len(self.nodes))
        f[1:] = self._reduced_inv @ b[1:]
        return f

    def resistance(self, u, v) -> float:
        b = np.zeros(len(self.nodes))
        b[self.index[u]] += 1.0
        b[self.index[v]] -= 1.0
        f = self.solve(b)
        return f[self.index[u]] - f[self.index[v]]

    def green(self, mu: GraphMeasure, y) -> np.ndarray:
        """Node values of the normalized Green's function with pole at y."""
        w = self.lump(mu)
        b = -w
        b[self.index[y]] += 1.0
        f = self.solve(b)
        return f - w @ f

    def green_diagonal(self, mu: GraphMeasure) -> np.ndarray:
        """g(x, x) at every node, one factorization for all poles."""
        size = len(self.nodes)
        g0 = np.zeros((size, size))
        g0[1:, 1:] = self._reduced_inv
        w = self.lump(mu)
        g0w = g0 @ w
        return np.diag(g0) - 2.0 * g0w + w @ g0w
