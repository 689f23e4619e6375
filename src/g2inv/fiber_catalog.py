"""The seven genus-2 fiber types: constructors, closed forms, classifier.

Every semistable genus-2 reduction shape, up to suppressing valence-2
genus-0 vertices, is one of seven graphs, labeled I through VII with up
to three positive length parameters.  This module builds the pm-graph of
a type, evaluates the known closed-form invariants directly (without
touching the potential-theory machinery, so the two routes stay
independent), and recognizes the type of a graph from its stable model
(`metric_graph.smooth`).  `g2inv nonarch` compares every report with
`closed_form(classify(graph))` exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidParamsError, UnclassifiableError
from .exact import as_rational, sign_known_nonnegative, sort_exact
from .metric_graph import PMGraph, smooth
from .pm_invariants import NonArchReport, total_genus

ARITY = {"I": 0, "II": 1, "III": 1, "IV": 2, "V": 2, "VI": 3, "VII": 3}


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
            params = tuple(as_rational(p) for p in self.params)
        except (TypeError, ValueError) as exc:
            raise InvalidParamsError(f"bad parameter: {exc}") from exc
        if len(params) != ARITY[self.tag]:
            raise InvalidParamsError(
                f"type {self.tag} takes {ARITY[self.tag]} parameters, "
                f"got {len(params)}"
            )
        for p in params:
            if p == 0 or sign_known_nonnegative(p) is False:
                raise InvalidParamsError(f"parameters must be positive, got {p}")
        object.__setattr__(self, "params", params)

    def canonical(self) -> "FiberType":
        """Sort parameters wherever the shape is symmetric."""
        if self.tag in ("V", "VII"):
            return FiberType(self.tag, tuple(sort_exact(self.params)))
        if self.tag == "VI":
            a, b, c = self.params
            return FiberType(self.tag, (a, *sort_exact((b, c))))
        return self

    def __str__(self) -> str:
        if not self.params:
            return self.tag
        return f"{self.tag}({', '.join(str(p) for p in self.params)})"


def graph_of_type(t: FiberType) -> PMGraph:
    """The pm-graph of a fiber type; always total genus 2."""
    p = t.params
    if t.tag == "I":
        return PMGraph([("v", 2)])
    if t.tag == "II":
        return PMGraph([("u", 1), ("w", 1)], [("e", "u", "w", p[0])])
    if t.tag == "III":
        return PMGraph([("v", 1)], [("e", "v", "v", p[0])])
    if t.tag == "IV":
        return PMGraph(
            [("u", 1), ("w", 0)],
            [("br", "u", "w", p[0]), ("lp", "w", "w", p[1])],
        )
    if t.tag == "V":
        return PMGraph(
            [("v", 0)], [("la", "v", "v", p[0]), ("lb", "v", "v", p[1])]
        )
    if t.tag == "VI":
        return PMGraph(
            [("u", 0), ("w", 0)],
            [
                ("br", "u", "w", p[0]),
                ("lb", "u", "u", p[1]),
                ("lc", "w", "w", p[2]),
            ],
        )
    if t.tag == "VII":
        return PMGraph(
            [("u", 0), ("w", 0)],
            [("ea", "u", "w", p[0]), ("eb", "u", "w", p[1]), ("ec", "u", "w", p[2])],
        )
    raise InvalidParamsError(f"unknown fiber type {t.tag!r}")


def closed_form(t: FiberType) -> NonArchReport:
    """Invariants straight from the type's known formulas, no graph solves."""
    p = t.params
    zero = Fraction(0)
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
    elif t.tag == "VII":
        a, b, c = p
        s = a * b + b * c + c * a
        d0, d1, r_kk = a + b + c, zero, 2 * a * b * c / s
        eps = (a + b + c) / 6 + a * b * c / (6 * s)
        phi = (a + b + c) / 12 - 5 * a * b * c / (12 * s)
    else:
        raise InvalidParamsError(f"unknown fiber type {t.tag!r}")
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
    """The fiber type of a genus-2 pm-graph, parameters canonicalized."""
    if total_genus(graph) != 2:
        raise UnclassifiableError(
            f"total genus is {total_genus(graph)}, expected 2"
        )
    stable = smooth(graph)
    verts = {v: stable.genus(v) for v in stable.vertex_ids}
    edges = [(*stable.edge_ends(e), stable.edge_length(e)) for e in stable.edge_ids]
    loops = [d for d in edges if d[0] == d[1]]
    links = [d for d in edges if d[0] != d[1]]
    genera = sorted(verts.values())

    if len(verts) == 1 and not edges and genera == [2]:
        return FiberType("I")
    if len(verts) == 2 and len(links) == 1 and not loops and genera == [1, 1]:
        return FiberType("II", (links[0][2],))
    if len(verts) == 1 and len(loops) == 1 and not links and genera == [1]:
        return FiberType("III", (loops[0][2],))
    if len(verts) == 2 and len(links) == 1 and len(loops) == 1:
        (bu, bw, blen), (lu, _, llen) = links[0], loops[0]
        other = bw if lu == bu else bu
        if verts[lu] == 0 and verts[other] == 1:
            return FiberType("IV", (blen, llen))
    if len(verts) == 1 and len(loops) == 2 and not links and genera == [0]:
        return FiberType("V", tuple(d[2] for d in loops)).canonical()
    if len(verts) == 2 and len(links) == 1 and len(loops) == 2 and genera == [0, 0]:
        loop_at = {d[0]: d[2] for d in loops}
        bu, bw, blen = links[0]
        if set(loop_at) == {bu, bw}:
            return FiberType("VI", (blen, loop_at[bu], loop_at[bw])).canonical()
    if len(verts) == 2 and len(links) == 3 and not loops and genera == [0, 0]:
        return FiberType("VII", tuple(d[2] for d in links)).canonical()
    raise UnclassifiableError(
        "genus-2 graph does not reduce to any of the seven fiber shapes"
    )
