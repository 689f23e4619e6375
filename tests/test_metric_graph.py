"""Exact potential theory on metric graphs: the package's graphs,
resistances and smoothing, and the reference routes in `oracles` they
are tested against (the exact Poisson solve, Zhang's diagonal Green's
function, and the float resistor-chain network), checked against
hand-derived closed forms, internal identities and each other."""

from fractions import Fraction

import pytest

from g2inv.exact import rational_function_field
from g2inv.metric_graph import PMGraph, resistance_pairing, smooth

from conftest import EdgePoint, GraphMeasure, PiecewisePoly, integrate, random_pm_graph
from conftest import random_probability_measure, subdivide, subdivide_at, value_at
from oracles import DiscreteNetwork, NonProbabilityMeasureError, NonZeroMassError
from oracles import diagonal_green, effective_resistance, green_function, solve_poisson


def segment(a):
    return PMGraph([("u", 1), ("v", 1)], [("e", "u", "v", a)])


def circle(a, genus=1):
    return PMGraph([("v", genus)], [("e", "v", "v", a)])


def theta_graph(a, b, c):
    return PMGraph(
        [("u", 0), ("v", 0)],
        [("ea", "u", "v", a), ("eb", "u", "v", b), ("ec", "u", "v", c)],
    )


# -- construction and bookkeeping -------------------------------------------


def test_rejects_bad_input():
    with pytest.raises(ValueError):
        PMGraph([("a", 0), ("a", 1)])
    with pytest.raises(ValueError):
        PMGraph([("a", -1)])
    with pytest.raises(ValueError):
        PMGraph([("a", True)])
    with pytest.raises(ValueError):
        PMGraph([("a", 0)], [("e", "a", "b", 1)])
    with pytest.raises(ValueError):
        PMGraph([("a", 0)], [("e", "a", "a", 0)])
    with pytest.raises(ValueError):
        PMGraph([("a", 0)], [("e", "a", "a", -2)])
    with pytest.raises(ValueError):  # bad text, not arithmetic
        PMGraph([("u", 1), ("w", 1)], [("e", "u", "w", "1/0")])
    with pytest.raises(ValueError):
        PMGraph([])
    with pytest.raises(ValueError, match="not connected"):
        PMGraph([("a", 0), ("b", 0)])
    _, a, b = rational_function_field("a,b")
    with pytest.raises(ValueError):
        circle(-a)
    with pytest.raises(ValueError):
        circle(a - a)
    assert circle(a - b).edge_length("e") == a - b  # sign unknown: accepted


def test_rejects_float_lengths():
    with pytest.raises(TypeError):
        PMGraph([("a", 0), ("b", 0)], [("e", "a", "b", 0.5)])


def test_counts_and_lengths():
    g = theta_graph(1, 2, Fraction(1, 2))
    assert g.betti1 == 2
    assert g.total_length == Fraction(7, 2)
    assert g.degree("u") == 3
    loop = circle(3)
    assert loop.degree("v") == 2
    assert loop.betti1 == 1


def test_divisor_merging():
    # a divisor is the measure of its vertex masses: zero masses are dropped
    g = segment(1)
    d = GraphMeasure({"u": 2 - 2, "v": 3})
    assert d.vertex_masses == {"v": 3}
    assert d.total_mass(g) == 3
    assert d.mass("u") == 0


def test_measure_mass_and_probability():
    g = circle(4)
    mu = GraphMeasure({"v": Fraction(1, 2)}, {"e": Fraction(1, 8)})
    assert mu.total_mass(g) == 1
    assert mu.is_probability(g)
    assert not mu.scale(2).is_probability(g)
    assert mu.scale(-1).total_mass(g) == -1


# -- Poisson equation --------------------------------------------------------


def test_poisson_on_segment():
    g = segment(5)
    sigma = GraphMeasure({"u": 1, "v": -1})
    f = solve_poisson(g, sigma, None, base="v")
    assert f.value_at_vertex("u") == 5
    assert f.coefficients("e") == (0, -1, 5)


def test_poisson_on_circle():
    # unit point mass at the vertex balanced by uniform density
    a = Fraction(6)
    g = circle(a)
    sigma = GraphMeasure({"v": 1})
    mu = GraphMeasure({}, {"e": -1 / a})
    f = solve_poisson(g, sigma, mu, base="v")
    assert f.coefficients("e") == (1 / (2 * a), Fraction(-1, 2), 0)
    assert value_at(f, EdgePoint("e", 3)) == Fraction(-3, 4)


def test_poisson_mass_must_vanish():
    g = segment(1)
    with pytest.raises(NonZeroMassError):
        solve_poisson(g, GraphMeasure({"u": 1}), None, base="u")


def test_poisson_interior_point_subdivides():
    g = segment(4)
    h, (x,), _ = subdivide_at(g, [EdgePoint("e", 1)])
    sigma = GraphMeasure({x: 1, "v": -1})
    f = solve_poisson(h, sigma, None, base="v")
    assert h.num_vertices == 3
    # potential drops linearly from x to v and is flat on the dead branch
    assert f.value_at_vertex(x) == 3
    assert f.value_at_vertex("u") == 3
    assert f.value_at_vertex("v") == 0


@pytest.mark.parametrize(
    "solver", ["solve_poisson", "green_function", "effective_resistance", "resistance_pairing"]
)
def test_solvers_reject_edge_interior_points(solver):
    # points are vertex ids; a point inside an edge is refused, by the
    # Poisson route with a pointer to `subdivide`, by the package's
    # resistance pairing as no vertex of the graph
    g = segment(4)
    x, v = EdgePoint("e", 1), "v"
    mu = GraphMeasure({"u": Fraction(1, 2), "v": Fraction(1, 2)}, {})
    calls = {
        "solve_poisson": lambda: solve_poisson(g, GraphMeasure({x: 1, v: -1}), None, "v"),
        "green_function": lambda: green_function(g, mu, x),
        "effective_resistance": lambda: effective_resistance(g, v, x),
        "resistance_pairing": lambda: resistance_pairing(g, {x: 1}, {v: 1}),
    }
    message = "unknown vertex" if solver == "resistance_pairing" else "subdivide"
    with pytest.raises(ValueError, match=message):
        calls[solver]()


def test_symbolic_cuts_are_ordered_numerically():
    # Python's < on field elements is structural (a < a/2 holds), so the
    # cuts must be ordered by sign: segments a/4, a/12, 2a/3; endpoint and
    # repeated cuts are ignored
    _, a = rational_function_field("a")
    h = subdivide(segment(a), {"e": [a / 3, a / 4, a, 0, a / 4]})
    segs = [("seg", "e", i) for i in range(3)]
    assert h.edge_ids == tuple(segs)
    assert [h.edge_length(s) for s in segs] == [a / 4, a / 12, 2 * a / 3]
    assert [h.edge_ends(s) for s in segs] == [
        ("u", ("cut", "e", 0)),
        (("cut", "e", 0), ("cut", "e", 1)),
        (("cut", "e", 1), "v"),
    ]
    assert h.genus(("cut", "e", 0)) == h.genus(("cut", "e", 1)) == 0
    with pytest.raises(ValueError, match="unknown edge"):
        subdivide(segment(a), {"f": [a / 2]})
    _, a, b = rational_function_field("a,b")
    with pytest.raises(ValueError):
        subdivide(segment(a + b), {"e": [a, b]})  # a - b has no known sign


def edge_table(g):
    return {e: (*g.edge_ends(e), g.edge_length(e)) for e in g.edge_ids}


def test_smooth_undoes_subdivision():
    # each cut edge comes back whole under the id and orientation of its
    # first piece; old vertices and the uncut edge stay as they were
    g = theta_graph(1, 2, 3)
    h = subdivide(g, {"ea": [Fraction(1, 2)], "eb": [Fraction(1, 2), 1, Fraction(3, 2)]})
    assert h.num_vertices == 6
    s = smooth(h)
    assert s.vertex_ids == g.vertex_ids
    assert edge_table(s) == {
        ("seg", "ea", 0): ("u", "v", 1),
        ("seg", "eb", 0): ("u", "v", 2),
        "ec": ("u", "v", 3),
    }
    _, a = rational_function_field("a")
    s = smooth(subdivide(segment(a), {"e": [a / 3, a / 4]}))
    assert edge_table(s) == {("seg", "e", 0): ("u", "v", a)}


def test_smooth_returns_its_input_when_nothing_merges():
    # genus 0 on three edge-ends, genus 1 on two, and genus 0 alone on a
    # loop all stay; the input object comes back, factorization memo and all
    kept = [
        theta_graph(1, 2, 3),
        PMGraph([("a", 1), ("m", 1), ("b", 1)], [("x", "a", "m", 1), ("y", "m", "b", 2)]),
        PMGraph([("v", 0)], [("e", "v", "v", 1)]),
        PMGraph([("v", 2)]),
    ]
    for g in kept:
        assert smooth(g) is g


def test_smooth_bare_cycle_keeps_one_vertex():
    g = PMGraph(
        [("a", 0), ("b", 0), ("c", 0)],
        [("x", "a", "b", 1), ("y", "b", "c", 2), ("z", "c", "a", 3)],
    )
    s = smooth(g)
    assert s.vertex_ids == ("a",)
    assert edge_table(s) == {"x": ("a", "a", 6)}


def test_smooth_reuses_input_ids_only():
    # ids that look like subdivide's and like a merge counter: every merged
    # edge keeps an input id, so none can collide with an edge left as it is
    g = PMGraph(
        [("a", 1), (("cut", "e", 0), 0), ("b", 1), ("m", 0), ("n", 0)],
        [
            (("merged", 0), "a", ("cut", "e", 0), 1),
            (("seg", "e", 1), ("cut", "e", 0), "b", 2),
            ("f", "m", "a", 1),  # first end edge of its chain, kept end second
            (("merged", 1), "m", "b", 1),
            (("merged", 2), "a", "n", 1),
            ("g", "n", "a", 2),  # a loop at a through n
        ],
    )
    s = smooth(g)
    assert s.vertex_ids == ("a", "b")
    assert edge_table(s) == {
        ("merged", 0): ("a", "b", 3),
        "f": ("b", "a", 2),
        ("merged", 2): ("a", "a", 3),
    }


def test_smooth_bounds_the_digits_of_a_merged_length():
    """Two accepted lengths 1/(10^600 + k) sum to a 1200-digit denominator:
    `smooth` refuses the merged length, naming the chain's edge, where a
    report on it would fail to print."""
    g = PMGraph(
        [("u", 1), ("m", 0), ("v", 1)],
        [("e", "u", "m", Fraction(1, 10**600 + 1)), ("f", "m", "v", Fraction(1, 10**600 + 3))],
    )
    with pytest.raises(ValueError, match="^the merged length of edge 'e' spells more than 700 digits$"):
        smooth(g)
    pieces = Fraction(1, 10**200 + 1), Fraction(1, 10**200 + 3)  # 603 digits together
    near = PMGraph([("u", 1), ("m", 0), ("v", 1)], [("e", "u", "m", pieces[0]), ("f", "m", "v", pieces[1])])
    assert smooth(near).edge_length("e") == sum(pieces)


def test_poly_laplacian_inverts_solve(rng):
    # the Laplacian of a solution, read off its coefficients in the sign
    # convention of `oracles`, is the source: -f'' = -2 c2 on each edge,
    # and minus the sum of outgoing slopes at each vertex
    for _ in range(25):
        g = random_pm_graph(rng)
        masses = {v: Fraction(rng.randint(-3, 3)) for v in g.vertex_ids}
        densities = {e: Fraction(rng.randint(-2, 2)) for e in g.edge_ids}
        mu = GraphMeasure(masses, densities)
        balance = mu.total_mass(g)
        base = g.vertex_ids[0]
        sigma = GraphMeasure({base: -balance})
        f = solve_poisson(g, sigma, mu, base=base)
        slope_sum = dict.fromkeys(g.vertex_ids, Fraction(0))
        for e in g.edge_ids:
            c2, c1, _ = f.coefficients(e)
            u, v = g.edge_ends(e)
            slope_sum[u] += c1
            slope_sum[v] -= 2 * c2 * g.edge_length(e) + c1
            assert -2 * c2 == mu.density(e)
        for v in g.vertex_ids:
            assert -slope_sum[v] == mu.mass(v) + sigma.mass(v)


# -- effective resistance ----------------------------------------------------


def test_resistance_segment_and_series():
    g = segment(5)
    r = effective_resistance(g, "u", "v")
    assert r == 5
    # interior points split the edge in series
    h, (x, y), _ = subdivide_at(g, [EdgePoint("e", 2), EdgePoint("e", Fraction(7, 2))])
    assert effective_resistance(h, x, y) == Fraction(3, 2)


def test_resistance_circle():
    a = Fraction(4)
    g = circle(a)

    def r_to(t):
        h, (x,), _ = subdivide_at(g, [EdgePoint("e", t)])
        return effective_resistance(h, "v", x)

    for t in (1, 2, 3, Fraction(1, 3)):
        assert r_to(t) == Fraction(t) * (a - t) / a
    assert r_to(2) == 1


def test_resistance_theta_graph():
    g = theta_graph(1, 1, 1)
    assert effective_resistance(g, "u", "v") == Fraction(1, 3)
    a, b, c = Fraction(2), Fraction(3), Fraction(5)
    g = theta_graph(a, b, c)
    expected = a * b * c / (a * b + b * c + c * a)
    assert effective_resistance(g, "u", "v") == expected


def test_resistance_is_a_metric(rng):
    for _ in range(15):
        g = random_pm_graph(rng)
        pts = []
        for _ in range(3):
            if rng.random() < 0.4:
                pts.append(rng.choice(g.vertex_ids))
            else:
                e = rng.choice(g.edge_ids)
                t = g.edge_length(e) * Fraction(rng.randint(0, 8), 8)
                pts.append(EdgePoint(e, t))
        h, (x, y, z), _ = subdivide_at(g, pts)
        rxy = effective_resistance(h, x, y)
        ryx = effective_resistance(h, y, x)
        assert rxy == ryx
        assert rxy >= 0
        assert (rxy == 0) == (x == y)
        rxz = effective_resistance(h, x, z)
        ryz = effective_resistance(h, y, z)
        assert rxz <= rxy + ryz


def test_resistance_survives_subdivision(rng):
    for _ in range(10):
        g = random_pm_graph(rng)
        u = rng.choice(g.vertex_ids)
        v = rng.choice(g.vertex_ids)
        before = effective_resistance(g, u, v)
        cuts = {}
        for e in g.edge_ids:
            if rng.random() < 0.5:
                cuts[e] = [g.edge_length(e) * Fraction(rng.randint(1, 3), 4)]
        h = subdivide(g, cuts)
        after = effective_resistance(h, u, v)
        assert before == after
        assert h.betti1 == g.betti1
        assert h.total_length == g.total_length


def test_resistance_pairing_bilinear():
    g = theta_graph(1, 2, 3)
    r = effective_resistance(g, "u", "v")
    d = {"u": 1, "v": 1}
    e = {"u": 1, "v": -2}
    # (1,1) x (1,-2): cross terms -2*r and 1*r
    assert resistance_pairing(g, d, e) == -r
    assert resistance_pairing(g, d, d) == 2 * r


def test_discrete_oracle_matches_resistance(rng):
    for _ in range(5):
        g = random_pm_graph(rng, max_vertices=4, extra_edges=2)
        if g.num_vertices < 2:
            continue
        u, v = g.vertex_ids[0], g.vertex_ids[-1]
        exact = effective_resistance(g, u, v)
        for n in (50, 100):
            net = DiscreteNetwork(g, n)
            assert abs(net.resistance(u, v) - float(exact)) < 5 / n


# -- Green's functions -------------------------------------------------------


def test_green_needs_probability_measure():
    g = segment(1)
    mu = GraphMeasure({"u": 1, "v": 1}, {})
    with pytest.raises(NonProbabilityMeasureError):
        green_function(g, mu, "u")


def test_green_on_segment():
    a = Fraction(7)
    g = segment(a)
    mu = GraphMeasure({"u": Fraction(1, 2), "v": Fraction(1, 2)}, {})
    gr = green_function(g, mu, "v")
    assert gr.value_at_vertex("v") == a / 4
    assert gr.value_at_vertex("u") == -a / 4
    assert gr.coefficients("e") == (0, Fraction(1, 2), -a / 4)
    assert integrate(g, gr, measure=mu) == 0


def test_green_on_circle_uniform():
    a = Fraction(5)
    g = circle(a)
    mu = GraphMeasure({}, {"e": 1 / a})
    gr = green_function(g, mu, "v")
    assert gr.coefficients("e") == (1 / (2 * a), Fraction(-1, 2), a / 12)
    assert gr.value_at_vertex("v") == a / 12
    assert integrate(g, gr, measure=mu) == 0


def test_green_interior_pole():
    a = Fraction(5)
    g = circle(a)
    mu = GraphMeasure({}, {"e": 1 / a})
    h, (pole,), hmu = subdivide_at(g, [EdgePoint("e", 2)], mu)
    gr = green_function(h, hmu, pole)
    # rotation invariance: the value at the pole equals the vertex-pole case
    assert gr.value_at_vertex(pole) == a / 12


def test_green_symmetry(rng):
    checked = 0
    while checked < 20:
        g = random_pm_graph(rng)
        mu = random_probability_measure(rng, g)
        if g.num_vertices < 2:
            continue
        pts = []
        for _ in range(2):
            if rng.random() < 0.5:
                pts.append(rng.choice(g.vertex_ids))
            else:
                e = rng.choice(g.edge_ids)
                t = g.edge_length(e) * Fraction(rng.randint(1, 7), 8)
                pts.append(EdgePoint(e, t))
        x, y = pts
        if x == y:
            continue
        h, (hx, hy), hmu = subdivide_at(g, pts, mu)
        gx = green_function(h, hmu, hx)
        gy = green_function(h, hmu, hy)
        assert gx.value_at_vertex(hy) == gy.value_at_vertex(hx)
        checked += 1


def test_green_against_discrete_oracle(rng):
    for _ in range(4):
        g = random_pm_graph(rng, max_vertices=4, extra_edges=2)
        mu = random_probability_measure(rng, g)
        y = g.vertex_ids[0]
        gr = green_function(g, mu, y)
        for n in (50, 100):
            net = DiscreteNetwork(g, n)
            approx = net.green(mu, y)
            for v in g.vertex_ids:
                got = approx[net.index[v]]
                assert abs(got - float(gr.value_at_vertex(v))) < 5 / n


def test_diagonal_green_segment_constant():
    a = Fraction(3)
    g = segment(a)
    mu = GraphMeasure({"u": Fraction(1, 2), "v": Fraction(1, 2)}, {})
    diag, mean = diagonal_green(g, mu)
    assert diag.constant_value() == a / 4
    assert mean == a / 4


def test_diagonal_green_circle_with_vertex_mass():
    # half a point mass at the vertex, the rest spread uniformly
    a = Fraction(1)
    g = circle(a)
    mu = GraphMeasure({"v": Fraction(1, 2)}, {"e": 1 / (2 * a)})
    diag, mean = diagonal_green(g, mu)
    assert diag.value_at_vertex("v") == a / 48
    # g(x, x) = t(a - t)/(2a) + a/48 at offset t
    assert diag.coefficients("e") == (
        Fraction(-1, 2),
        Fraction(1, 2),
        Fraction(1, 48),
    )
    assert integrate(g, diag, measure=mu) == mean == 5 * a / 96 + a / 96


def test_diagonal_green_symbolic():
    field, a = rational_function_field("a")
    g = circle(a)
    mu = GraphMeasure({"v": Fraction(1, 2)}, {"e": 1 / (2 * a)})
    diag, mean = diagonal_green(g, mu)
    assert diag.value_at_vertex("v") == a / 48
    assert mean == integrate(g, diag, measure=mu)
    c2, c1, c0 = diag.coefficients("e")
    assert c2 == -1 / (2 * a)
    assert c1 == field(Fraction(1, 2))


def test_diagonal_green_against_discrete_oracle(rng):
    for _ in range(3):
        g = random_pm_graph(rng, max_vertices=3, extra_edges=2)
        mu = random_probability_measure(rng, g)
        diag, _ = diagonal_green(g, mu)
        net = DiscreteNetwork(g, 100)
        approx = net.green_diagonal(mu)
        for v in g.vertex_ids:
            got = approx[net.index[v]]
            assert abs(got - float(diag.value_at_vertex(v))) < Fraction(5, 100)


# -- integration -------------------------------------------------------------


def test_integrate_polynomial_against_density():
    a = Fraction(2)
    g = segment(a)
    sigma = GraphMeasure({"u": 1, "v": -1})
    f = solve_poisson(g, sigma, None, base="v")  # f(t) = a - t
    mu = GraphMeasure({}, {"e": 1})
    assert integrate(g, f, measure=mu) == a * a / 2
    # a point mass inside e sits on a cut of the subdivided graph
    h, (x,), _ = subdivide_at(g, [EdgePoint("e", 1)])
    f = solve_poisson(h, sigma, None, base="v")
    assert integrate(h, f, GraphMeasure({x: 3})) == 3 * (a - 1)
    with pytest.raises(ValueError, match="unknown vertex"):
        integrate(h, f, GraphMeasure({EdgePoint("e", 1): 3}))



@pytest.mark.parametrize(
    "measure_of",
    [
        lambda g, m: m.total_mass(g),
        lambda g, m: integrate(g, PiecewisePoly(g, {"e": (0, 0, 1)}, {"u": 1, "v": 1}), m),
    ],
    ids=["total_mass", "integrate"],
)
def test_unknown_edge_density_is_a_value_error(measure_of):
    """A density on an edge the graph lacks is refused by name, as an
    unknown vertex is, not with a bare KeyError."""
    with pytest.raises(ValueError, match="unknown edge 'zz'"):
        measure_of(segment(Fraction(1)), GraphMeasure({}, {"zz": 1}))

def test_green_invariant_under_subdivision(rng):
    for _ in range(8):
        g = random_pm_graph(rng)
        mu = random_probability_measure(rng, g)
        y = g.vertex_ids[0]
        coarse = green_function(g, mu, y)
        points = [
            EdgePoint(e, g.edge_length(e) * Fraction(rng.randint(1, 3), 4))
            for e in g.edge_ids
            if rng.random() < 0.5
        ]
        h, cuts, hmu = subdivide_at(g, points, mu)
        fine = green_function(h, hmu, y)
        for v in g.vertex_ids:
            assert fine.value_at_vertex(v) == coarse.value_at_vertex(v)
        for p, cut in zip(points, cuts):
            assert fine.value_at_vertex(cut) == value_at(coarse, p)
