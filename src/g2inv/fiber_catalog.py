"""The seven genus-2 fiber types: constructors, closed forms, classifier.

Every semistable genus-2 reduction shape, up to suppressing valence-2
genus-0 vertices, is one of seven graphs, labeled I through VII with up
to three positive length parameters.  `SHAPES` writes each graph down
once.  This module builds the pm-graph of a type from it, evaluates the
known closed-form invariants directly (without touching the
potential-theory machinery or the shapes, so the two routes stay
independent), and recognizes the type of a graph by matching its stable
model (`metric_graph.smooth`) against the shapes.  `g2inv nonarch`
compares every report with `closed_form(classify(graph))` exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

from .errors import InvalidParamsError, UnclassifiableError
from .exact import as_positive, as_rational, sort_exact
from .metric_graph import PMGraph, smooth
from .pm_invariants import NonArchReport, total_genus

# tag -> (vertex genera, one edge (id, from, to) per length parameter, in
# parameter order): the one description of each shape, which both
# `graph_of_type` and `classify` read
SHAPES = {
    "I": ({"v": 2}, ()),
    "II": ({"u": 1, "w": 1}, (("e", "u", "w"),)),
    "III": ({"v": 1}, (("e", "v", "v"),)),
    "IV": ({"u": 1, "w": 0}, (("br", "u", "w"), ("lp", "w", "w"))),
    "V": ({"v": 0}, (("la", "v", "v"), ("lb", "v", "v"))),
    "VI": ({"u": 0, "w": 0}, (("br", "u", "w"), ("lb", "u", "u"), ("lc", "w", "w"))),
    "VII": ({"u": 0, "w": 0}, (("ea", "u", "w"), ("eb", "u", "w"), ("ec", "u", "w"))),
}
ARITY = {tag: len(edges) for tag, (_, edges) in SHAPES.items()}


def _symmetric_order(tag: str, params) -> tuple:
    """The parameters sorted where the shape is symmetric: V's and VII's edges, VI's loops."""
    params = tuple(params)
    if tag == "VI":
        return (params[0], *sort_exact(params[1:]))
    return tuple(sort_exact(params)) if tag in ("V", "VII") else params


@dataclass(frozen=True)
class FiberType:
    """A reduction type tag with its length parameters.

    Parameter conventions: II(a) edge, III(a) loop, IV(a, b) bridge then
    loop, V(a, b) two loops, VI(a, b, c) bridge then two loops,
    VII(a, b, c) three parallel edges.
    """

    tag: str
    params: tuple = ()

    def __post_init__(self):
        if self.tag not in ARITY:
            raise InvalidParamsError(f"unknown fiber type {self.tag!r}")
        try:
            params = tuple(self.params)
            if len(params) != ARITY[self.tag]:
                raise InvalidParamsError(
                    f"type {self.tag} takes {ARITY[self.tag]} parameters, "
                    f"got {len(params)}"
                )
            params = tuple(as_positive(p, "parameters") for p in params)
        except (TypeError, ValueError) as exc:
            raise InvalidParamsError(str(exc)) from exc
        object.__setattr__(self, "params", params)

    def canonical(self) -> "FiberType":
        """Sort parameters wherever the shape is symmetric."""
        return FiberType(self.tag, _symmetric_order(self.tag, self.params))

    def __str__(self) -> str:
        if not self.params:
            return self.tag
        return f"{self.tag}({', '.join(str(p) for p in self.params)})"


def graph_of_type(t: FiberType) -> PMGraph:
    """The pm-graph of a fiber type, built from its shape; total genus 2."""
    genera, edges = SHAPES[t.tag]
    return PMGraph(
        genera.items(), [(e, u, w, p) for (e, u, w), p in zip(edges, t.params)]
    )


def closed_form(t: FiberType) -> NonArchReport:
    """Invariants straight from the type's known formulas, no graph solves."""
    p = t.params
    zero = as_rational(0)  # the field's zero: type I's lambda divides it
    if t.tag == "I":
        d0, d1, r_kk, eps, phi = zero, zero, zero, zero, zero
    elif t.tag == "II":
        (a,) = p
        d0, d1, r_kk, eps, phi = zero, a, 2 * a, a, a
    elif t.tag == "III":
        (a,) = p
        d0, d1, r_kk, eps, phi = a, zero, zero, a / 6, a / 12
    elif t.tag == "IV":
        a, b = p
        d0, d1, r_kk, eps, phi = b, a, 2 * a, a + b / 6, a + b / 12
    elif t.tag == "V":
        a, b = p
        d0, d1, r_kk = a + b, zero, zero
        eps, phi = (a + b) / 6, (a + b) / 12
    elif t.tag == "VI":
        a, b, c = p
        d0, d1, r_kk = b + c, a, 2 * a
        eps, phi = a + (b + c) / 6, a + (b + c) / 12
    else:  # VII: FiberType refuses any other tag
        a, b, c = p
        s = a * b + b * c + c * a
        d0, d1, r_kk = a + b + c, zero, 2 * a * b * c / s
        eps = (a + b + c) / 6 + a * b * c / (6 * s)
        phi = (a + b + c) / 12 - 5 * a * b * c / (12 * s)
    return NonArchReport(
        genus=2,
        delta0=d0,
        delta1=d1,
        r_kk=r_kk,
        epsilon=eps,
        phi=phi,
        lambda_=(d0 + 2 * d1) / 10,
    )


def classify(graph: PMGraph) -> FiberType:
    """The fiber type of a genus-2 pm-graph, parameters canonicalized.

    The stable model matches a shape when a genus-preserving bijection of
    vertex ids and an order of its edges carry every template edge onto an
    edge with the same ends, as unordered pairs; the lengths in that order
    are the parameters.
    """
    if total_genus(graph) != 2:
        raise UnclassifiableError(
            f"total genus is {total_genus(graph)}, expected 2"
        )
    stable = smooth(graph)
    ends = {e: {*stable.edge_ends(e)} for e in stable.edge_ids}
    loops = sum(len(pair) == 1 for pair in ends.values())
    for tag, (genera, edges) in SHAPES.items():  # counts first: VI and VII differ in loops
        if (len(genera) != stable.num_vertices or len(edges) != len(ends)
                or sum(u == w for _, u, w in edges) != loops):
            continue
        for image in permutations(stable.vertex_ids):
            rename = dict(zip(genera, image))
            if any(stable.genus(rename[v]) != g for v, g in genera.items()):
                continue
            want = [{rename[u], rename[w]} for _, u, w in edges]
            for order in permutations(ends):
                if all(pair == ends[e] for pair, e in zip(want, order)):
                    lengths = map(stable.edge_length, order)
                    return FiberType(tag, _symmetric_order(tag, lengths))
    raise UnclassifiableError(
        "genus-2 graph does not reduce to any of the seven fiber shapes"
    )
