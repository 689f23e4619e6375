"""Seeded input generator for the benchmark workloads.

Writes graph and period-matrix files in the JSON formats the README
documents, straight from Python values: nothing here imports `g2inv`, so
the inputs stay the same whatever the program under test does with them.
Every function is a pure function of its seed.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np

# Fiber types the graph workload runs, with their parameter counts.
GRAPH_TYPES = {"IV": 2, "V": 2, "VI": 3, "VII": 3}
SUBDIVISIONS = 4  # each graph is run halved 0, 1, 2 and 3 times

# The program's truncation rule: tail tolerance and radius cap.
THETA_TOL = 1e-12
RADIUS_CAP = 64


def seeded_rational(rng: random.Random) -> Fraction:
    """Numerator and denominator uniform in 1..1000, as `g2inv verify` draws them."""
    return Fraction(rng.randint(1, 1000), rng.randint(1, 1000))


def fiber_graph(tag: str, params) -> tuple[list, list]:
    """(vertices, edges) of a fiber type, in the fiber catalog's conventions.

    IV(a, b) bridge then loop, V(a, b) two loops, VI(a, b, c) bridge then
    two loops, VII(a, b, c) three parallel edges.
    """
    if tag == "IV":
        a, b = params
        return [("u", 1), ("w", 0)], [("br", "u", "w", a), ("lp", "w", "w", b)]
    if tag == "V":
        a, b = params
        return [("v", 0)], [("la", "v", "v", a), ("lb", "v", "v", b)]
    if tag == "VI":
        a, b, c = params
        return (
            [("u", 0), ("w", 0)],
            [("br", "u", "w", a), ("lb", "u", "u", b), ("lc", "w", "w", c)],
        )
    if tag == "VII":
        a, b, c = params
        return (
            [("u", 0), ("w", 0)],
            [("ea", "u", "w", a), ("eb", "u", "w", b), ("ec", "u", "w", c)],
        )
    raise ValueError(f"no graph workload for type {tag!r}")


def halve(vertices: list, edges: list) -> tuple[list, list]:
    """Split every edge at its midpoint with a new genus-0 vertex."""
    new_vertices = list(vertices)
    new_edges = []
    for eid, u, w, length in edges:
        mid = f"{eid}.m"
        new_vertices.append((mid, 0))
        new_edges.append((f"{eid}.0", u, mid, length / 2))
        new_edges.append((f"{eid}.1", mid, w, length / 2))
    return new_vertices, new_edges


def graph_document(vertices: list, edges: list) -> dict:
    return {
        "vertices": [{"id": v, "genus": g} for v, g in vertices],
        "edges": [
            {"id": e, "from": u, "to": w, "length": str(length)}
            for e, u, w, length in edges
        ],
    }


def graph_cases(seed: int) -> list[dict]:
    """One seeded parameter tuple per type, each subdivided 0..3 times."""
    rng = random.Random(f"graph-subdivided:{seed}")
    cases = []
    for tag, arity in GRAPH_TYPES.items():
        params = tuple(seeded_rational(rng) for _ in range(arity))
        vertices, edges = fiber_graph(tag, params)
        for k in range(SUBDIVISIONS):
            cases.append(
                {
                    "name": f"{tag}-k{k}",
                    "tag": tag,
                    "params": params,
                    "document": graph_document(vertices, edges),
                    "vertices": len(vertices),
                    "edges": len(edges),
                }
            )
            vertices, edges = halve(vertices, edges)
    return cases


def table_points(seed: int, count: int = 3) -> list[tuple]:
    """Seeded rational (a, b, c) triples at which printed table rows are checked."""
    rng = random.Random(f"table-symbolic:{seed}")
    return [tuple(seeded_rational(rng) for _ in range(3)) for _ in range(count)]


# ---------------------------------------------------------------- period matrices


def truncation_radius(tau: np.ndarray) -> int | None:
    """The lattice-sum radius the program's Gaussian tail bound picks, or
    None above the cap (the program then refuses the input with exit 2).

    Depends only on the smallest eigenvalue of Im tau; reproduced here so
    that inputs can be drawn with a fixed cost, independent of the program.
    """
    lam = float(np.linalg.eigvalsh(tau.imag)[0])
    for radius in range(1, RADIUS_CAP + 1):
        decay = math.pi * lam * radius
        if decay > 700:
            return radius
        q = math.exp(-2 * decay)
        if q >= 1.0:
            return None
        tail = 8 * math.exp(-decay * radius) * ((radius + 1) / (1 - q) + q / (1 - q) ** 2)
        if tail < THETA_TOL:
            return radius
    return None


def random_reduced_tau(rng: random.Random) -> np.ndarray:
    """Drawn like the test suite's `random_tau`: X in [-1/2, 1/2], Y = A A' + I/2."""
    x01 = rng.uniform(-0.5, 0.5)
    x = np.array([[rng.uniform(-0.5, 0.5), x01], [x01, rng.uniform(-0.5, 0.5)]])
    a = np.array([[rng.uniform(-0.8, 0.8) for _ in range(2)] for _ in range(2)])
    y = a @ a.T + 0.5 * np.eye(2)
    return x + 1j * y


def reduced_taus(seed: int, radii) -> list[np.ndarray]:
    """Draw reduced taus until one matches each wanted truncation radius,
    so that every seed costs the same number of lattice terms."""
    rng = random.Random(f"arch-reduced:{seed}")
    taus = []
    for want in radii:
        while True:
            tau = random_reduced_tau(rng)
            if truncation_radius(tau) == want:
                taus.append(tau)
                break
    return taus


def symplectic_act(tau: np.ndarray, a, b, c, d) -> np.ndarray:
    """(A tau + B)(C tau + D)^-1, symmetrized against rounding."""
    a, b, c, d = (np.asarray(m, dtype=float) for m in (a, b, c, d))
    image = (a @ tau + b) @ np.linalg.inv(c @ tau + d)
    return (image + image.T) / 2


def conjugate(tau: np.ndarray, u) -> np.ndarray:
    """tau -> U tau U', the Sp4(Z) element diag(U, U^-T)."""
    u = np.asarray(u, dtype=float)
    zero = np.zeros((2, 2))
    return symplectic_act(tau, u, zero, zero, np.linalg.inv(u).T)


def invert(tau: np.ndarray) -> np.ndarray:
    """tau -> -tau^-1."""
    eye, zero = np.eye(2), np.zeros((2, 2))
    return symplectic_act(tau, zero, -eye, eye, zero)


def shear(j: int, k: int) -> np.ndarray:
    """U = [[1, k], [0, 1]] [[1, 0], [j, 1]], a unimodular integer matrix."""
    return np.array([[1, k], [0, 1]]) @ np.array([[1, 0], [j, 1]])


def image_with_radius(tau: np.ndarray, want: int | None) -> tuple[np.ndarray, tuple] | None:
    """The first shear image U tau U' (j in 0..3, k in 1..199) whose
    truncation radius is `want` (None: over the cap), or None."""
    for j in range(4):
        for k in range(1, 200):
            image = conjugate(tau, shear(j, k))
            if truncation_radius(image) == want:
                return image, (j, k)
    return None


def tau_document(tau: np.ndarray) -> dict:
    def entry(z) -> str:
        z = complex(z)
        sign = "+" if z.imag >= 0 else "-"
        return f"{z.real!r}{sign}{abs(z.imag)!r}i"

    flat = [tau[0, 0], tau[0, 1], tau[0, 1], tau[1, 1]]
    return {"tau": [entry(z) for z in flat]}


def parse_tau(document: dict) -> np.ndarray:
    """The matrix a tau document denotes, read back from its own text."""
    values = [complex(s.replace("i", "j")) for s in document["tau"]]
    return np.array(values).reshape(2, 2)


def write_json(path: Path, document) -> None:
    path.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")
