"""Invariants of polarized metric graphs against hand-checked table rows,
and the admissible measure of the reference route in `oracles`."""

from fractions import Fraction
from unittest import mock

import pytest

from g2inv import metric_graph
from g2inv.exact import rational_function_field
from g2inv.fiber_catalog import FiberType, closed_form, graph_of_type
from g2inv.metric_graph import PMGraph
from g2inv.pm_invariants import (
    canonical_divisor,
    is_bridge,
    node_counts,
    nonarch_report,
    total_genus,
)

from conftest import drop_genus0_leaves, rand_frac, random_pm_graph, subdivide
from oracles import GenusZeroError, admissible_measure, diagonal_green, green_of_canonical


def point_graph():
    return PMGraph([("v", 2)])


def two_part(a):
    return PMGraph([("u", 1), ("w", 1)], [("e", "u", "w", a)])


def one_part_loop(a):
    return PMGraph([("v", 1)], [("e", "v", "v", a)])


def part_with_loop(a, b):
    return PMGraph([("u", 1), ("w", 0)], [("br", "u", "w", a), ("lp", "w", "w", b)])


def two_loops(a, b):
    return PMGraph([("v", 0)], [("la", "v", "v", a), ("lb", "v", "v", b)])


def dumbbell(a, b, c):
    return PMGraph(
        [("u", 0), ("w", 0)],
        [("br", "u", "w", a), ("lb", "u", "u", b), ("lc", "w", "w", c)],
    )


def banana(a, b, c):
    return PMGraph(
        [("u", 0), ("w", 0)],
        [("ea", "u", "w", a), ("eb", "u", "w", b), ("ec", "u", "w", c)],
    )


# -- genus and canonical divisor ---------------------------------------------


def test_total_genus():
    assert total_genus(point_graph()) == 2
    assert total_genus(banana(1, 1, 1)) == 2
    assert total_genus(one_part_loop(5)) == 2
    assert total_genus(two_loops(1, 2)) == 2
    assert total_genus(PMGraph([("v", 0)], [("e", "v", "v", 1)])) == 1


def test_canonical_divisor_degree(rng):
    assert canonical_divisor(point_graph()) == {"v": 2}
    assert canonical_divisor(banana(1, 2, 3)) == {"u": 1, "w": 1}
    assert canonical_divisor(part_with_loop(1, 2)) == {"u": 1, "w": 1}
    assert canonical_divisor(two_part(1)) == {"u": 1, "w": 1}
    for _ in range(20):
        graph = random_pm_graph(rng)
        assert sum(canonical_divisor(graph).values()) == 2 * total_genus(graph) - 2


def test_node_counts():
    nc = node_counts(two_part(3))
    assert (nc.delta0, nc.delta1) == (0, 3)
    nc = node_counts(banana(1, 2, 3))
    assert (nc.delta0, nc.delta1) == (6, 0)
    nc = node_counts(point_graph())
    assert (nc.delta0, nc.delta1) == (0, 0)
    nc = node_counts(dumbbell(1, 2, 3))
    assert (nc.delta0, nc.delta1) == (5, 1)
    assert nc.delta == 6


def test_bridge_detection():
    # a bridge is exactly an edge whose ends are at resistance len(e)
    g = dumbbell(1, 2, 3)
    assert g.resistance("u", "w") == g.edge_length("br")
    assert is_bridge(g, "br")
    assert not is_bridge(g, "lb")
    t = banana(1, 1, 1)
    assert t.resistance("u", "w") == Fraction(1, 3)
    assert not any(is_bridge(t, e) for e in t.edge_ids)


# -- admissible measure -------------------------------------------------------


def test_admissible_measure_on_two_part():
    mu = admissible_measure(two_part(4))
    assert mu.vertex_masses == {"u": Fraction(1, 2), "w": Fraction(1, 2)}
    assert mu.edge_densities == {}


def test_admissible_measure_on_loop():
    a = Fraction(4)
    mu = admissible_measure(one_part_loop(a))
    assert mu.vertex_masses == {"v": Fraction(1, 2)}
    assert mu.edge_densities == {"e": 1 / (2 * a)}


def test_admissible_measure_on_banana():
    mu = admissible_measure(banana(1, 1, 1))
    assert mu.vertex_masses == {}
    assert mu.edge_densities == {
        "ea": Fraction(1, 3),
        "eb": Fraction(1, 3),
        "ec": Fraction(1, 3),
    }


def test_admissible_measure_requires_genus():
    with pytest.raises(GenusZeroError):
        admissible_measure(PMGraph([("v", 0)]))


def test_admissibility_property_random(rng):
    seen = 0
    while seen < 12:
        graph = random_pm_graph(rng)
        if total_genus(graph) < 1:
            continue
        mu = admissible_measure(graph)
        assert mu.is_probability(graph)
        h = diagonal_green(graph, mu)[0] + green_of_canonical(graph, mu)
        assert h.constant_value() is not None
        seen += 1


def test_report_makes_no_poisson_solve_and_one_factorization(monkeypatch):
    """The resistance data is one factorization of the reduced Laplacian,
    and every field is a formula in those resistances, so a report solves
    nothing but that factorization, which the package has as its only
    solve: a count, so it holds on any host.  The report factors the stable model,
    so on VII halved three times (23 vertices) the matrix is 1 x 1."""
    graph = graph_of_type(FiberType("VII", (1, 2, 3)))
    for _ in range(3):
        graph = subdivide(graph, {e: [graph.edge_length(e) / 2] for e in graph.edge_ids})
    assert (graph.num_vertices, len(canonical_divisor(graph))) == (23, 2)
    counting = mock.Mock(wraps=metric_graph.inverse)
    monkeypatch.setattr(metric_graph, "inverse", counting)
    assert nonarch_report(graph) == closed_form(FiberType("VII", (1, 2, 3)))
    assert counting.call_count == 1
    assert len(counting.call_args.args[0]) <= 1


# -- the seven table rows ------------------------------------------------------


def check_row(graph, delta0, delta1, r_kk, epsilon, phi):
    rep = nonarch_report(graph)
    assert rep.genus == 2
    assert rep.delta0 == delta0
    assert rep.delta1 == delta1
    assert rep.r_kk == r_kk
    assert rep.epsilon == epsilon
    assert rep.phi == phi
    assert 10 * rep.lambda_ == delta0 + 2 * delta1


def test_row_good_reduction():
    check_row(point_graph(), 0, 0, 0, 0, 0)


def test_row_two_parts():
    a = Fraction(3)
    check_row(two_part(a), 0, a, 2 * a, a, a)
    a = Fraction(7, 5)
    check_row(two_part(a), 0, a, 2 * a, a, a)


def test_row_one_part_loop():
    a = Fraction(2)
    check_row(one_part_loop(a), a, 0, 0, a / 6, a / 12)
    assert nonarch_report(one_part_loop(2)).epsilon == Fraction(1, 3)
    assert nonarch_report(one_part_loop(12)).phi == 1


def test_row_part_with_loop():
    a, b = Fraction(2), Fraction(3)
    check_row(part_with_loop(a, b), b, a, 2 * a, a + b / 6, a + b / 12)
    assert nonarch_report(part_with_loop(2, 3)).epsilon == Fraction(5, 2)
    assert nonarch_report(part_with_loop(2, 3)).phi == Fraction(9, 4)


def test_row_two_loops():
    a, b = Fraction(1), Fraction(1)
    check_row(two_loops(a, b), a + b, 0, 0, Fraction(1, 3), Fraction(1, 6))
    assert nonarch_report(two_loops(1, 1)).lambda_ == Fraction(1, 5)


def test_row_dumbbell():
    a, b, c = Fraction(1), Fraction(1), Fraction(1)
    check_row(
        dumbbell(a, b, c),
        b + c,
        a,
        2 * a,
        a + (b + c) / 6,
        a + (b + c) / 12,
    )
    assert nonarch_report(dumbbell(1, 1, 1)).phi == Fraction(7, 6)


def test_row_banana():
    a, b, c = Fraction(1), Fraction(1), Fraction(1)
    check_row(
        banana(a, b, c),
        3,
        0,
        Fraction(2, 3),
        Fraction(5, 9),
        Fraction(1, 9),
    )
    a, b, c = Fraction(1), Fraction(2), Fraction(3)
    s = a * b + b * c + c * a
    check_row(
        banana(a, b, c),
        a + b + c,
        0,
        2 * a * b * c / s,
        (a + b + c) / 6 + a * b * c / (6 * s),
        (a + b + c) / 12 - 5 * a * b * c / (12 * s),
    )
    assert nonarch_report(banana(1, 1, 1)).lambda_ == Fraction(3, 10)


def test_lambda_law_on_subdivided_variants(rng):
    for _ in range(6):
        base = [
            two_part(rand_frac(rng)),
            one_part_loop(rand_frac(rng)),
            banana(rand_frac(rng), rand_frac(rng), rand_frac(rng)),
            dumbbell(rand_frac(rng), rand_frac(rng), rand_frac(rng)),
        ][rng.randrange(4)]
        cuts = {
            e: [base.edge_length(e) * Fraction(rng.randint(1, 3), 4)]
            for e in base.edge_ids
            if rng.random() < 0.6
        }
        graph = subdivide(base, cuts)
        rep = nonarch_report(graph)
        base_rep = nonarch_report(base)
        assert 10 * rep.lambda_ == rep.delta0 + 2 * rep.delta1
        assert rep == base_rep


def test_scaling_covariance(rng):
    seen = 0
    while seen < 4:
        graph = drop_genus0_leaves(random_pm_graph(rng, max_genus=1))
        if total_genus(graph) < 2:
            continue
        seen += 1
        s = rand_frac(rng)
        scaled = PMGraph(
            [(v, graph.genus(v)) for v in graph.vertex_ids],
            [
                (e, *graph.edge_ends(e), graph.edge_length(e) * s)
                for e in graph.edge_ids
            ],
        )
        rep = nonarch_report(graph)
        srep = nonarch_report(scaled)
        assert srep.delta0 == s * rep.delta0
        assert srep.delta1 == s * rep.delta1
        assert srep.r_kk == s * rep.r_kk
        assert srep.epsilon == s * rep.epsilon
        assert srep.phi == s * rep.phi
        assert srep.lambda_ == s * rep.lambda_


def test_symbolic_elimination_on_subdivided_types():
    # a cut at every edge midpoint gives 5 vertices: a 4x4 symbolic elimination
    _, a, b, c = rational_function_field("a,b,c")
    for tag in ("VI", "VII"):
        fiber = FiberType(tag, (a, b, c))
        base = graph_of_type(fiber)
        cuts = {e: [base.edge_length(e) / 2] for e in base.edge_ids}
        graph = subdivide(base, cuts)
        assert graph.num_vertices == 5
        assert nonarch_report(graph) == closed_form(fiber)


def test_report_refuses_a_genus0_leaf():
    """II(1) with a genus-0 leaf hung on an edge of length 1: K(leaf) = -1,
    so K is not effective and the graph is not a pm-graph."""
    leafy = PMGraph([("u", 1), ("w", 1), ("leaf", 0)], [("e", "u", "w", 1), ("h", "w", "leaf", 1)])
    with pytest.raises(ValueError, match="vertex 'leaf' has genus 0 and valence 1"):
        nonarch_report(leafy)
    assert nonarch_report(drop_genus0_leaves(leafy)) == nonarch_report(two_part(1))


def test_invariants_need_genus_two():
    circle_genus1 = PMGraph([("v", 0)], [("e", "v", "v", 1)])
    with pytest.raises(ValueError):
        nonarch_report(circle_genus1)
