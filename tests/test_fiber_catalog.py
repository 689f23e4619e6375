"""Fiber-type constructors, closed forms, and the classifier."""

from fractions import Fraction

import pytest

from g2inv.errors import InvalidParamsError, UnclassifiableError
from g2inv.exact import rational_function_field
from g2inv.fiber_catalog import FiberType, classify, closed_form, graph_of_type
from g2inv.metric_graph import PMGraph
from g2inv.pm_invariants import node_counts, nonarch_report, total_genus

from conftest import rand_frac, subdivide

ALL_TAGS = ("I", "II", "III", "IV", "V", "VI", "VII")


def random_type(rng, tag=None):
    from g2inv.fiber_catalog import ARITY

    tag = tag or rng.choice(ALL_TAGS)
    return FiberType(tag, tuple(rand_frac(rng) for _ in range(ARITY[tag])))


def test_arity_and_positivity():
    with pytest.raises(InvalidParamsError):
        FiberType("II")
    with pytest.raises(InvalidParamsError):
        FiberType("I", (1,))
    with pytest.raises(InvalidParamsError):
        FiberType("VII", (1, 2))
    with pytest.raises(InvalidParamsError, match=r"^parameters must be positive, got 0$"):
        FiberType("III", (0,))
    with pytest.raises(InvalidParamsError):  # bad text, not arithmetic
        FiberType("II", ("1/0",))
    with pytest.raises(InvalidParamsError):
        FiberType("IV", (1, -2))
    with pytest.raises(InvalidParamsError):
        FiberType("VIII", ())
    with pytest.raises(InvalidParamsError):
        FiberType("II", (0.5,))
    _, a = rational_function_field("a")
    with pytest.raises(InvalidParamsError):
        FiberType("II", (-a,))
    with pytest.raises(InvalidParamsError):
        FiberType("II", (a - a,))


def test_str_forms():
    assert str(FiberType("I")) == "I"
    assert str(FiberType("IV", (2, Fraction(1, 3)))) == "IV(2, 1/3)"


def test_graphs_have_genus_two(rng):
    for tag in ALL_TAGS:
        for _ in range(3):
            t = random_type(rng, tag)
            assert total_genus(graph_of_type(t)) == 2


def test_graph_shapes_match_node_counts(rng):
    for tag in ALL_TAGS:
        t = random_type(rng, tag)
        nc = node_counts(graph_of_type(t))
        cf = closed_form(t)
        assert nc.delta0 == cf.delta0
        assert nc.delta1 == cf.delta1


def test_canonical_sorting():
    assert FiberType("VII", (2, 1, 3)).canonical() == FiberType("VII", (1, 2, 3))
    assert FiberType("V", (5, 2)).canonical() == FiberType("V", (2, 5))
    assert FiberType("VI", (2, 3, 1)).canonical() == FiberType("VI", (2, 1, 3))
    assert FiberType("IV", (3, 1)).canonical() == FiberType("IV", (3, 1))
    _, a, b = rational_function_field("a,b")
    assert FiberType("V", (a, a / 2)).canonical() == FiberType("V", (a / 2, a))
    with pytest.raises(ValueError):
        FiberType("V", (a, b)).canonical()  # a - b has no known sign


def test_classify_builds_one_fiber_type(monkeypatch):
    """classify sorts the lengths of a symmetric shape before it builds the
    type, so the parameters are validated once, not twice."""
    graph = graph_of_type(FiberType("VII", (2, 1, 3)))
    want = FiberType("VII", (1, 2, 3))
    calls = []
    validate = FiberType.__post_init__

    def counting(self):
        calls.append(self.params)
        validate(self)

    monkeypatch.setattr(FiberType, "__post_init__", counting)
    assert classify(graph) == want
    assert len(calls) == 1


def test_closed_form_spot_values():
    assert closed_form(FiberType("II", (3,))).r_kk == 6
    assert closed_form(FiberType("II", (3,))).epsilon == 3
    assert closed_form(FiberType("III", (2,))).epsilon == Fraction(1, 3)
    assert closed_form(FiberType("III", (12,))).phi == 1
    four = closed_form(FiberType("IV", (2, 3)))
    assert (four.epsilon, four.phi) == (Fraction(5, 2), Fraction(9, 4))
    five = closed_form(FiberType("V", (1, 1)))
    assert (five.epsilon, five.phi, five.lambda_) == (
        Fraction(1, 3),
        Fraction(1, 6),
        Fraction(1, 5),
    )
    assert closed_form(FiberType("VI", (1, 1, 1))).phi == Fraction(7, 6)
    seven = closed_form(FiberType("VII", (1, 1, 1)))
    assert (seven.r_kk, seven.epsilon, seven.phi, seven.lambda_) == (
        Fraction(2, 3),
        Fraction(5, 9),
        Fraction(1, 9),
        Fraction(3, 10),
    )
    assert closed_form(FiberType("I")).phi == 0


def test_round_trip_against_graph_pipeline(rng):
    # the core agreement: graph route == closed-form route, exactly
    for tag in ALL_TAGS:
        for _ in range(3):
            t = random_type(rng, tag)
            assert nonarch_report(graph_of_type(t)) == closed_form(t)


def test_classify_round_trip(rng):
    for tag in ALL_TAGS:
        for _ in range(5):
            t = random_type(rng, tag)
            assert classify(graph_of_type(t)) == t.canonical()


def test_classify_matches_relabeled_shapes(rng):
    # the matcher, not the template order: vertices reversed and renamed to
    # ints, edges shuffled, and every other edge's ends swapped
    for tag in ALL_TAGS:
        for _ in range(3):
            t = random_type(rng, tag)
            g = graph_of_type(t)
            rename = {v: i for i, v in enumerate(reversed(g.vertex_ids))}
            edges = []
            for k, e in enumerate(g.edge_ids):
                u, w = g.edge_ends(e)
                ends = (rename[w], rename[u]) if k % 2 == 0 else (rename[u], rename[w])
                edges.append((k, *ends, g.edge_length(e)))
            rng.shuffle(edges)
            vertices = [(rename[v], g.genus(v)) for v in reversed(g.vertex_ids)]
            assert classify(PMGraph(vertices, edges)) == t.canonical()


def test_classify_subdivided_circle():
    g = PMGraph(
        [("a", 1), ("b", 0), ("c", 0)],
        [
            ("e1", "a", "b", 2),
            ("e2", "b", "c", 4),
            ("e3", "c", "a", 1),
        ],
    )
    assert classify(g) == FiberType("III", (7,))


def test_classify_point_graph():
    assert classify(PMGraph([("v", 2)])) == FiberType("I")


def test_classify_subdivision_invariance(rng):
    for _ in range(12):
        t = random_type(rng)
        g = graph_of_type(t)
        if not g.edge_ids:
            continue
        cuts = {
            e: [g.edge_length(e) * Fraction(rng.randint(1, 3), 4)]
            for e in g.edge_ids
            if rng.random() < 0.7
        }
        assert classify(subdivide(g, cuts)) == t.canonical()


def test_classify_rejects_wrong_genus():
    with pytest.raises(UnclassifiableError):
        classify(PMGraph([("v", 0)], [("e", "v", "v", 1)]))
    with pytest.raises(UnclassifiableError):
        classify(PMGraph([("v", 3)]))


def test_classify_rejects_unstable_shape():
    # genus-0 leaf hanging off a genus-2 vertex: genus 2 but no fiber type
    g = PMGraph([("a", 2), ("b", 0)], [("e", "a", "b", 1)])
    with pytest.raises(UnclassifiableError):
        classify(g)
    # loop at the genus-1 end of a bridge, bare genus-0 other end
    g = PMGraph(
        [("a", 0), ("b", 1)],
        [("br", "a", "b", 1), ("lp", "b", "b", 1)],
    )
    with pytest.raises(UnclassifiableError):
        classify(g)
