"""Property tests over random pm-graphs with loops, parallel edges, bridges
and vertex weights: the report against the reference routes in `oracles`
(Poisson solves, and Zhang's integral route built on them), and the
invariance laws of the report."""

import itertools
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from conftest import EdgePoint, GraphMeasure, PROPERTY_SETTINGS, drop_genus0_leaves
from conftest import integrate, subdivide, subdivide_at, value_at
from oracles import admissible_measure, diagonal_green, effective_resistance, green_function
from oracles import exact_voronoi_moment, green_of_canonical

from g2inv.fiber_catalog import FiberType, classify, closed_form
from g2inv.metric_graph import PMGraph, resistance_pairing, smooth
from g2inv.pm_invariants import (
    NonArchReport,
    canonical_divisor,
    node_counts,
    nonarch_report,
    total_genus,
)

LENGTHS = st.fractions(min_value=Fraction(1, 8), max_value=12, max_denominator=8)


@st.composite
def pm_graphs(draw, max_vertices=5, genus=None):
    """A connected graph: a random spanning tree (all bridges) plus extra
    edges between random vertices (loops and parallel edges allowed).

    With `genus` set, the extra edges and the vertex weights are drawn so
    that the total genus is exactly that.
    """
    n = draw(st.integers(1, max_vertices))
    names = [f"v{i}" for i in range(n)]
    edges = [
        (f"t{i}", names[draw(st.integers(0, i - 1))], names[i], draw(LENGTHS))
        for i in range(1, n)
    ]
    extras = draw(st.integers(0 if n > 1 else 1, 3 if genus is None else genus))
    for k in range(extras):
        u, v = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        edges.append((f"x{k}", names[u], names[v], draw(LENGTHS)))
    weights = [0] * n
    if genus is None:
        weights = [draw(st.integers(0, 2)) for _ in range(n)]
    else:
        for _ in range(genus - extras):
            weights[draw(st.integers(0, n - 1))] += 1
    return PMGraph(list(zip(names, weights)), edges)


# what a report accepts: genus 2 and no genus-0 leaf (see `drop_genus0_leaves`)
REPORTABLE = pm_graphs(genus=2).map(drop_genus0_leaves)


@st.composite
def probability_measures(draw, graph):
    """Integer masses and densities of 0-3 on a graph, scaled to mass one
    (a unit mass at the first vertex when all are 0)."""
    masses = {v: draw(st.integers(0, 3)) for v in graph.vertex_ids}
    densities = {e: draw(st.integers(0, 3)) for e in graph.edge_ids}
    raw = GraphMeasure(masses, densities)
    if raw.total_mass(graph) == 0:
        raw = GraphMeasure({graph.vertex_ids[0]: 1})
    return raw.scale(1 / raw.total_mass(graph))


@st.composite
def graphs_with_measure(draw):
    """A graph, a probability measure on it, and one interior offset per edge."""
    graph = draw(pm_graphs())
    mu = draw(probability_measures(graph))
    fractions = st.fractions(min_value=0, max_value=1, max_denominator=16)
    offsets = {
        e: graph.edge_length(e) * draw(fractions.filter(lambda x: 0 < x < 1))
        for e in graph.edge_ids
    }
    return graph, mu, offsets


@PROPERTY_SETTINGS
@given(graphs_with_measure())
def test_diagonal_green_matches_green_function(case):
    graph, mu, offsets = case
    diag, mean = diagonal_green(graph, mu)
    assert mean == integrate(graph, diag, measure=mu)
    for v in graph.vertex_ids:
        assert diag.value_at_vertex(v) == green_function(graph, mu, v).value_at_vertex(v)
    for e, t in offsets.items():
        p = EdgePoint(e, t)
        fine, (pole,), fine_mu = subdivide_at(graph, [p], mu)  # pole: the cut at p
        assert value_at(diag, p) == green_function(fine, fine_mu, pole).value_at_vertex(pole)


def assert_one_solve_matches_green_functions(graph, mu):
    """The single Poisson solve for g(K, .) equals the sum of K(p) g(p, .)
    over one solve per support point, coefficient by coefficient; a shift
    by a constant (a wrong normalization) fails too."""
    diag, _ = diagonal_green(graph, mu)
    h = diag + green_of_canonical(graph, mu)
    want = diag
    for v, coeff in canonical_divisor(graph).items():
        want = want + green_function(graph, mu, v).scale(coeff)
    for e in graph.edge_ids:
        assert h.coefficients(e) == want.coefficients(e)
    for v in graph.vertex_ids:
        assert h.value_at_vertex(v) == want.value_at_vertex(v)


@PROPERTY_SETTINGS
@given(pm_graphs(genus=2))
def test_one_solve_g_k_matches_green_functions_admissible(graph):
    assert_one_solve_matches_green_functions(graph, admissible_measure(graph))


@PROPERTY_SETTINGS
@given(pm_graphs().flatmap(lambda g: st.tuples(st.just(g), probability_measures(g))))
def test_one_solve_g_k_matches_green_functions_any_measure(case):
    """Any genus, and a measure that is not admissible: h is not constant."""
    assert_one_solve_matches_green_functions(*case)


@PROPERTY_SETTINGS
@given(st.sampled_from([2, 3, 4]).flatmap(lambda g: pm_graphs(genus=g).map(drop_genus0_leaves)))
def test_phi_matches_cinkir_tau_route(graph):
    """epsilon, phi and lambda against Cinkir's formulas in the tau
    invariant (Invent. Math. 2011), for total genus g = 2, 3 and 4:

        phi     = (5g-2)/g tau + theta/(4g) - ell/4,
        epsilon = (4g-4)/g tau + theta/(2g),
        lambda  = (3g-3)/(4g+2) tau + theta/(16g+8) + (g+1) ell/(16g+8),

    with tau = 1/4 sum_e [(r(b,y) - r(a,y))^2 / L + (L/3)(1 - r(a,b)/L)^2],
    theta = r(K,K), ell the total length, and every resistance taken from a
    Poisson solve; and the whole report against Zhang's integral route on
    the graph as drawn.  The report evaluates these formulas on its own
    resistances, so the Poisson resistances and the integral route are its
    independent references.  Above genus 2 the stable model can keep up to
    5 vertices, so the report inverts Laplacians larger than 1 x 1."""

    def r(a, b):
        return effective_resistance(graph, a, b)

    g = total_genus(graph)
    y = graph.vertex_ids[0]
    tau = Fraction(0)
    for e in graph.edge_ids:
        a, b = graph.edge_ends(e)
        length = graph.edge_length(e)
        tau += (r(b, y) - r(a, y)) ** 2 / length + length / 3 * (1 - r(a, b) / length) ** 2
    tau /= 4
    k = canonical_divisor(graph).items()
    theta = sum(cp * cq * r(p, q) for p, cp in k for q, cq in k)
    ell = graph.total_length

    report = nonarch_report(graph)
    assert report.genus == g
    assert report.r_kk == theta
    assert report.phi == Fraction(5 * g - 2, g) * tau + theta / (4 * g) - ell / 4
    assert report.epsilon == Fraction(4 * g - 4, g) * tau + theta / (2 * g)
    assert report.lambda_ == (
        Fraction(3 * g - 3, 4 * g + 2) * tau + (theta + (g + 1) * ell) / (16 * g + 8)
    )
    assert report_on_this_model(graph) == report


@PROPERTY_SETTINGS
@given(pm_graphs(), st.integers(0, 2))
def test_smooth_merges_exactly_the_genus0_valence2_vertices(graph, halvings):
    """On any graph, halved 0-2 times by `subdivide` (tuple ids): smooth
    drops only genus-0 vertices of valence 2 and keeps every other vertex
    with its genus and valence; it keeps total genus, first Betti number
    and total length, reuses input edge ids, is idempotent, and returns
    its input when nothing merges."""
    for _ in range(halvings):
        graph = subdivide(graph, {e: [graph.edge_length(e) / 2] for e in graph.edge_ids})
    stable = smooth(graph)
    for v in graph.vertex_ids:
        if v in stable.vertex_ids:
            assert (stable.genus(v), stable.degree(v)) == (graph.genus(v), graph.degree(v))
        else:
            assert (graph.genus(v), graph.degree(v)) == (0, 2)
    assert (total_genus(stable), stable.betti1, stable.total_length) == (
        total_genus(graph),
        graph.betti1,
        graph.total_length,
    )
    assert set(stable.edge_ids) <= set(graph.edge_ids)
    assert smooth(stable) is stable
    assert (stable is graph) == (stable.num_vertices == graph.num_vertices)


@PROPERTY_SETTINGS
@given(REPORTABLE)
def test_stable_model_is_one_of_the_seven_types(graph):
    """A genus-2 pm-graph smooths to at most 2 vertices and 3 edges, one
    of the types I-VII, whose closed form equals the report."""
    stable = smooth(graph)
    assert stable.num_vertices <= 2
    assert stable.num_edges <= 3
    assert closed_form(classify(graph)) == nonarch_report(graph)


def report_on_this_model(graph):
    """The report assembled along Zhang's integral route (`oracles`) on
    `graph` itself rather than on its stable model, which is all that
    `nonarch_report` factors, in any total genus g >= 2.  With g(x, x) the
    diagonal for the admissible measure mu: epsilon is its integral
    against (2g-2) mu + K, phi is a quarter of its integral against
    (10g+2) mu - K, minus delta/4, and
    lambda = (g-1)/(6(2g+1)) phi + (epsilon + delta)/12."""
    g = total_genus(graph)
    k = canonical_divisor(graph)
    mu = admissible_measure(graph)
    diag, mean = diagonal_green(graph, mu)
    assert mean == integrate(graph, diag, measure=mu)
    diag_k = integrate(graph, diag, GraphMeasure(k))
    counts = node_counts(graph)
    eps = diag_k + (2 * g - 2) * mean
    phi = -counts.delta / 4 + ((10 * g + 2) * mean - diag_k) / 4
    return NonArchReport(
        genus=g,
        delta0=counts.delta0,
        delta1=counts.delta1,
        r_kk=resistance_pairing(graph, k, k),
        epsilon=eps,
        phi=phi,
        lambda_=Fraction(g - 1, 6 * (2 * g + 1)) * phi + (eps + counts.delta) / 12,
    )


def _rebuild(graph, vertices=None, edges=None):
    """A new PMGraph from the given (or the graph's own) vertex and edge lists."""
    if vertices is None:
        vertices = [(v, graph.genus(v)) for v in graph.vertex_ids]
    if edges is None:
        edges = [(e, *graph.edge_ends(e), graph.edge_length(e)) for e in graph.edge_ids]
    return PMGraph(vertices, edges)


@PROPERTY_SETTINGS
@given(REPORTABLE, st.fractions(min_value=Fraction(1, 9), max_value=9, max_denominator=9))
def test_report_scales_with_lengths(graph, t):
    """Every invariant but the genus is homogeneous of degree 1 in the
    lengths, in the report and assembled on the unsmoothed graph."""
    report = nonarch_report(graph)
    scaled = _rebuild(
        graph,
        edges=[(e, *graph.edge_ends(e), t * graph.edge_length(e)) for e in graph.edge_ids],
    )
    assert nonarch_report(scaled) == report_on_this_model(scaled) == NonArchReport(
        genus=report.genus,
        delta0=t * report.delta0,
        delta1=t * report.delta1,
        r_kk=t * report.r_kk,
        epsilon=t * report.epsilon,
        phi=t * report.phi,
        lambda_=t * report.lambda_,
    )


@PROPERTY_SETTINGS
@given(REPORTABLE)
def test_report_ignores_vertex_order(graph):
    """Reversing the vertex order moves the base vertex of the resistance
    matrix and the pivot order of every solve; the report stays the same."""
    reordered = _rebuild(graph, vertices=[(v, graph.genus(v)) for v in reversed(graph.vertex_ids)])
    assert nonarch_report(reordered) == nonarch_report(graph)


@PROPERTY_SETTINGS
@given(REPORTABLE)
def test_report_ignores_halving_every_edge(graph):
    """A genus-0 vertex at the middle of every edge changes no invariant,
    in the report (which smooths it away again) nor assembled on the
    halved graph itself."""
    vertices = [(v, graph.genus(v)) for v in graph.vertex_ids]
    edges = []
    for e in graph.edge_ids:
        u, v = graph.edge_ends(e)
        half = graph.edge_length(e) / 2
        vertices.append((f"mid-{e}", 0))
        edges += [(f"{e}a", u, f"mid-{e}", half), (f"{e}b", f"mid-{e}", v, half)]
    halved = _rebuild(graph, vertices, edges)
    report = nonarch_report(graph)
    assert nonarch_report(halved) == report
    assert report_on_this_model(halved) == report


@PROPERTY_SETTINGS
@given(pm_graphs(genus=2))
def test_report_refuses_exactly_the_graphs_with_a_genus0_leaf(graph):
    """K is effective unless some genus-0 vertex has valence 1: the report
    names the first such vertex, and accepts every other genus-2 draw."""
    leaves = [v for v in graph.vertex_ids if graph.genus(v) == 0 and graph.degree(v) == 1]
    if not leaves:
        nonarch_report(graph)
        return
    with pytest.raises(ValueError, match=re.escape(f"vertex {leaves[0]!r} has genus 0")):
        nonarch_report(graph)


def tropical_phi(q) -> Fraction:
    """1/2 the sum over the 10 even characteristics [a; b] of mu_a(Q), minus
    5 M2(Q), for an exact 2 x 2 Gram matrix Q: mu_a(Q) the least (n + a)'Q(n
    + a) over n in [-3, 3]^2, M2 the second moment of the Voronoi cell."""
    half = (Fraction(0), Fraction(1, 2))

    def mu(a):
        return min(
            q[0][0] * x * x + 2 * q[0][1] * x * y + q[1][1] * y * y
            for x, y in ((n1 + a[0], n2 + a[1]) for n1, n2 in itertools.product(range(-3, 4), repeat=2))
        )

    total = sum(
        mu(a)
        for a in itertools.product(half, repeat=2)
        for b in itertools.product(half, repeat=2)
        if 4 * (a[0] * b[0] + a[1] * b[1]) % 2 == 0
    )
    return total / 2 - 5 * exact_voronoi_moment(np.array(q, dtype=object))


@PROPERTY_SETTINGS
@given(
    st.sampled_from(["V", "VII"]),
    st.lists(st.builds(Fraction, st.integers(1, 50), st.integers(1, 50)), min_size=3, max_size=3),
)
@example("VII", [Fraction(1)] * 3)
def test_phi_is_the_tropical_limit_of_the_theta_nulls(tag, lengths):
    """phi of a genus-2 graph whose vertices all have genus 0 (type V or
    VII) is the tropical limit of the theta side of `arch`, exactly:
    phi(Gamma) = 1/2 sum over the 10 even [a; b] of mu_a(Q) - 5 M2(Q), Q the
    Gram matrix of the cycle lattice, diag(a, b) for V(a, b) and [[a + b,
    -b], [-b, b + c]] for VII(a, b, c).  Along Im tau = s Q the null of
    characteristic a decays like exp(-pi s mu_a(Q)), so -1/2 log||Delta_2||
    grows like pi s sum mu_a, while log||H|| = 1/4 log det Y - pi s M2(Q) +
    o(1) (its largest lattice term, the control variate of `log_h`): phi =
    -1/2 log||Delta_2|| + 10 log||H|| grows like 2 pi s times the right-hand
    side (de Jong, Asian J. Math. 18, 2014, on the Kawazumi-Zhang
    invariant), which is the graph's phi.  {e1, e2, -e1 - e2} is an obtuse
    superbase of every such Q, so the hexagon of `exact_voronoi_moment`
    applies without reduction, and the nearest lattice point of a half
    period is a corner of the unit square, well inside the enumerated
    box.  VII(1, 1, 1) gives 3/2 - 5 x 5/18 = 1/9."""
    a, b, c = lengths
    if tag == "V":
        fiber, q = FiberType("V", (a, b)), ((a, 0), (0, b))
    else:
        fiber, q = FiberType("VII", (a, b, c)), ((a + b, -b), (-b, b + c))
    assert closed_form(fiber).phi == tropical_phi(q)

