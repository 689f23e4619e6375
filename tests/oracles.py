"""Reference routes the package's invariants are tested against.

The exact Poisson route solves Delta f = the sum of some measures for
the vertex potentials by a plain Gauss-Jordan elimination in field
arithmetic (`solve`); resistances, Green's functions and g(K, .) each
take one such solve.  Points are vertex ids, as in the package, and a
source must name vertices and edges of its graph.  The route imports
nothing from `g2inv.exact` and asks no `PMGraph` for a resistance, so it
shares no elimination code with `g2inv.exact.inverse`.  The Laplacian
of a function f that is quadratic on each edge is

    Delta f = -f'' dx  -  sum_p (sum of outgoing slopes of f at p) delta_p,

so a solution of Delta f = delta_x - delta_y is the potential of a unit
current from x to y, and r(x, y) = f(x) - f(y).

Zhang's integral route (Zhang 1993) builds the admissible measure mu and
the diagonal x -> g_mu(x, x) of its Green's function in closed form from
the resistances of the Poisson route, one solve per vertex
(`resistances`); integrating the diagonal gives epsilon and phi.  It is
the reference for the package's resistance formulas (Cinkir's tau).

The float oracle replaces each edge by n equal resistors in series and
lumps measures onto the chain nodes (half a segment's mass to each end),
solved with numpy in floats.  Agreement is expected to O(1/n).

The exact Siegel reduction (`exact_siegel_reduce`) reduces a period
matrix in the 2 x 2 matrix form of Deconinck et al. (Math. Comp. 2004),
each entry a pair (real, imaginary) of Fractions, so every step is exact;
it too imports nothing from `g2inv.theta_surface`.

The Voronoi moment M2(Y), the mean of d_Y(x)^2 over the torus that the
control variate of `log_h` subtracts, is computed exactly in Fractions on
the entries of Y (`exact_voronoi_moment`) by fanning the Voronoi hexagon
into triangles.  The package has only the closed form in the Selling
parameters; the fan lives here alone, as its independent reference, and
imports nothing from `g2inv.theta_surface`.  `large_y_log_h` builds the
large-Y law of log||H||, 1/4 log det Y - pi M2(Y), on that fan.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from conftest import GraphMeasure, PiecewisePoly, integrate
from g2inv.metric_graph import PMGraph


class NonZeroMassError(Exception):
    """The source of a Poisson problem does not have total mass zero."""


class NonProbabilityMeasureError(Exception):
    """A probability measure (total mass one) was required."""


class GenusZeroError(Exception):
    """The admissible measure needs total genus at least one."""


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
    convention above; both are measures, or None.  The
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


def resistances(graph: PMGraph) -> dict:
    """r(a, b) for every pair of vertices, from one solve per vertex a:
    f_a with Delta f_a = delta_a - delta_base and f_a(base) = 0 is column a
    of the inverse of the reduced Laplacian, so
    r(a, b) = f_a(a) + f_b(b) - 2 f_a(b)."""
    base = graph.vertex_ids[0]
    f = {
        a: solve_poisson(graph, GraphMeasure({a: 1}), GraphMeasure({base: -1}), base)
        for a in graph.vertex_ids
    }
    return {
        (a, b): f[a].value_at_vertex(a) + f[b].value_at_vertex(b) - 2 * f[a].value_at_vertex(b)
        for a in graph.vertex_ids
        for b in graph.vertex_ids
    }


def admissible_measure(graph: PMGraph) -> GraphMeasure:
    """The unique probability measure with g(x,x) + g(K,x) constant.

    The closed form of Zhang 1993, Thm 3.2: vertex masses q(v)/g; an edge
    e = (a, b) of length L has density 1/(g (L + R(e))), with
    R(e) = L r(a, b) / (L - r(a, b)) the resistance between its ends in
    the graph minus e.  That is (L - r(a, b)) / (g L^2), which vanishes on
    bridges and is 1/(g L) on loops.  `green_of_canonical` checks the
    property.
    """
    g = graph.betti1 + sum(graph.genus(v) for v in graph.vertex_ids)
    if g == 0:
        raise GenusZeroError("a genus-0 graph has no admissible measure")
    r = resistances(graph)
    masses = {v: Fraction(graph.genus(v), g) for v in graph.vertex_ids}
    densities = {}
    for e in graph.edge_ids:
        length = graph.edge_length(e)
        densities[e] = (length - r[graph.edge_ends(e)]) / (g * length * length)
    return GraphMeasure(masses, densities)


def diagonal_green(graph: PMGraph, mu: GraphMeasure) -> tuple[PiecewisePoly, object]:
    """The diagonal x -> g(x, x) of the Green's function, per-edge quadratic,
    and its integral I/2 against mu.

    g(x, x) = j(x) - I/2 with j(x) the integral of r(x, z) dmu(z) and I
    the integral of j against mu.  Closed forms extend r to edge interiors
    (Baker-Faber 2006): for x at offset t on an edge e = (a, b) of length
    L and any z outside the interior of e,

        r(x, z) = ((L - t) r(a, z) + t r(b, z)) / L + k t (L - t),
        k = (L - r(a, b)) / L^2,

    and for x, z on e at distance d, r(x, z) = d - k d^2.  Each edge
    quadratic of j comes from the same-edge formula, the vertex values from
    the formula for points outside the edge; `PiecewisePoly` raises
    ValueError unless the two agree at both ends of every edge.
    """
    mass = mu.total_mass(graph)
    if mass - 1 != 0:
        raise NonProbabilityMeasureError(f"measure has mass {mass}, expected 1")
    r = resistances(graph)
    kappa = {}
    for e in graph.edge_ids:
        length = graph.edge_length(e)
        kappa[e] = (length - r[graph.edge_ends(e)]) / (length * length)

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
        w: const + sum((m * r[v, w] for v, m in weight.items()), Fraction(0))
        for w in graph.vertex_ids
    }

    coeffs = {}
    for e in graph.edge_ids:
        a, b = graph.edge_ends(e)
        length, k, rho = graph.edge_length(e), kappa[e], mu.density(e)
        # j without e's own density, at both ends of e
        own = rho * (length * r[a, b] / 2 + k * length**3 / 6)
        lo, hi = j[a] - own, j[b] - own
        # x at offset t: interpolate the rest of mu, add the bulge
        # k t (L - t) times its mass, and integrate d - k d^2 against e's
        # density:  rho ((t^2 + (L - t)^2) / 2 - k (t^3 + (L - t)^3) / 3)
        c2 = rho * (1 - k * length) - k * (1 - rho * length)
        c1 = (hi - lo) / length - c2 * length
        c0 = lo + rho * length * length * (Fraction(1, 2) - k * length / 3)
        coeffs[e] = (c2, c1, c0)

    j_poly = PiecewisePoly(graph, coeffs, j)
    half = integrate(graph, j_poly, mu) / 2
    return j_poly.add_constant(-half), half


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


def exact_voronoi_moment(y: np.ndarray) -> Fraction:
    """The second moment of the Voronoi cell of Z^2 in the metric Y (area
    1) for reduced Y, in exact arithmetic on the float entries: its six
    vertices, counterclockwise, are equidistant from 0 and two neighbouring
    relevant vectors of the obtuse superbase, and the cell is fanned from 0
    into triangles, each with the second moment |T|/12 (v'Yv + w'Yw +
    (v + w)'Y(v + w))."""
    (y11, y12), (_, y22) = (tuple(map(Fraction, row)) for row in y.tolist())

    def form(p, q):
        return p[0] * (y11 * q[0] + y12 * q[1]) + p[1] * (y12 * q[0] + y22 * q[1])

    if y12 > 0:
        half = [(1, 0), (0, 1), (-1, 1)]
    else:
        half = [(1, 0), (1, 1), (0, 1)]
    relevant = half + [(-p, -q) for p, q in half]
    vertices = []
    for p, q in zip(relevant, relevant[1:] + relevant[:1]):
        # x'Y p = p'Y p / 2 and x'Y q = q'Y q / 2 by Cramer's rule
        (a, b), (c, d) = ((form((1, 0), r), form((0, 1), r)) for r in (p, q))
        e, f = form(p, p) / 2, form(q, q) / 2
        det = a * d - b * c
        vertices.append(((e * d - b * f) / det, (a * f - e * c) / det))
    moment = Fraction(0)
    for v, w in zip(vertices, vertices[1:] + vertices[:1]):
        area = (v[0] * w[1] - v[1] * w[0]) / 2
        both = (v[0] + w[0], v[1] + w[1])
        moment += area / 12 * (form(v, v) + form(w, w) + form(both, both))
    return moment


def large_y_log_h(y: np.ndarray) -> float:
    """1/4 log det Y - pi M2(Y) for reduced Y: the torus mean of the log of
    the largest lattice term of ||theta||, (det Y)^(1/4) exp(-pi d_Y(u)^2),
    which log||H|| approaches as Y grows, with a remainder of order
    1/det Y from the u near the vertices of the Voronoi cell, where two or
    more terms are as large.  det Y and M2 are exact on the float entries,
    each rounded once."""
    (y11, y12), (_, y22) = (tuple(map(Fraction, row)) for row in y.tolist())
    return math.log(y11 * y22 - y12 * y12) / 4 - math.pi * float(exact_voronoi_moment(y))


def _pair_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _pair_div(a, b):
    norm = b[0] * b[0] + b[1] * b[1]
    return ((a[0] * b[0] + a[1] * b[1]) / norm, (a[1] * b[0] - a[0] * b[1]) / norm)


def _pair_neg(a):
    return (-a[0], -a[1])


def _pair_sum(*terms):
    return (sum(t[0] for t in terms), sum(t[1] for t in terms))


def _matmul(a, b):
    """The product of two 2 x 2 matrices of pairs."""
    return [[_pair_sum(*(_pair_mul(a[i][k], b[k][j]) for k in range(2))) for j in range(2)]
            for i in range(2)]


def exact_siegel_reduce(tau: np.ndarray, cap: int = 1000) -> np.ndarray:
    """tau moved into the Siegel fundamental domain in exact arithmetic on
    the float entries of tau, rounded to floats once at the end.  A round
    Lagrange-reduces Y by the unimodular steps S = [[0, 1], [1, 0]] (while
    Y11 > Y22) and S = [[1, 0], [-q, 1]], q = round(Y12 / Y11), each
    applied as S tau S'; subtracts the nearest integer from each entry of
    X; and while |tau11| < 1 applies the quasi-inversion as the symplectic
    action (A tau + B)(C tau + D)^-1, A = D = diag(0, 1), B = diag(-1, 0),
    C = diag(1, 0), with the 2 x 2 inverse by its adjugate."""
    zero, one = (Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))
    t = [[(Fraction(z.real), Fraction(z.imag)) for z in row] for row in tau.tolist()]
    for _ in range(cap):
        while True:
            y11, y12, y22 = t[0][0][1], t[0][1][1], t[1][1][1]
            if y11 > y22:
                step = [[0, 1], [1, 0]]
            else:
                q = round(y12 / y11)
                if q == 0:
                    break
                step = [[1, 0], [-q, 1]]
            s = [[(Fraction(v), Fraction(0)) for v in row] for row in step]
            s_t = [[s[j][i] for j in range(2)] for i in range(2)]
            t = _matmul(_matmul(s, t), s_t)
        t = [[(re - round(re), im) for re, im in row] for row in t]
        if t[0][0][0] ** 2 + t[0][0][1] ** 2 >= 1:
            return np.array([[complex(float(re), float(im)) for re, im in row] for row in t])
        upper = _matmul([[zero, zero], [zero, one]], t)  # A tau + B
        upper[0][0] = _pair_sum(upper[0][0], _pair_neg(one))
        lower = _matmul([[one, zero], [zero, zero]], t)  # C tau + D
        lower[1][1] = _pair_sum(lower[1][1], one)
        (a, b), (c, d) = lower
        det = _pair_sum(_pair_mul(a, d), _pair_neg(_pair_mul(b, c)))
        adjugate = [[d, _pair_neg(b)], [_pair_neg(c), a]]
        t = _matmul(upper, [[_pair_div(entry, det) for entry in row] for row in adjugate])
    raise AssertionError(f"the exact Siegel reduction did not finish in {cap} rounds")
