"""Reference values the benchmark checks the program's outputs against.

Nothing here imports `g2inv`: the closed forms are the paper's seven-type
table written out again, the theta-null product and the torus average are
plain numpy lattice sums, and printed symbolic expressions are evaluated
by a small exact-arithmetic interpreter instead of a computer algebra
system.
"""

from __future__ import annotations

import ast
import math
import operator
from fractions import Fraction

import numpy as np

LOG_2PI = math.log(2 * math.pi)
ZERO = Fraction(0)


def closed_form(tag: str, params) -> dict:
    """The seven-type invariant table, keyed like `nonarch --format structured`."""
    if tag == "I":
        d0, d1, rkk, eps, phi = ZERO, ZERO, ZERO, ZERO, ZERO
    elif tag == "II":
        (a,) = params
        d0, d1, rkk, eps, phi = ZERO, a, 2 * a, a, a
    elif tag == "III":
        (a,) = params
        d0, d1, rkk, eps, phi = a, ZERO, ZERO, a / 6, a / 12
    elif tag == "IV":
        a, b = params
        d0, d1, rkk, eps, phi = b, a, 2 * a, a + b / 6, a + b / 12
    elif tag == "V":
        a, b = params
        d0, d1, rkk, eps, phi = a + b, ZERO, ZERO, (a + b) / 6, (a + b) / 12
    elif tag == "VI":
        a, b, c = params
        d0, d1, rkk = b + c, a, 2 * a
        eps, phi = a + (b + c) / 6, a + (b + c) / 12
    elif tag == "VII":
        a, b, c = params
        s = a * b + b * c + c * a
        d0, d1, rkk = a + b + c, ZERO, 2 * a * b * c / s
        eps = (a + b + c) / 6 + a * b * c / (6 * s)
        phi = (a + b + c) / 12 - 5 * a * b * c / (12 * s)
    else:
        raise ValueError(f"unknown fiber type {tag!r}")
    return {
        "genus": 2,
        "delta0": d0,
        "delta1": d1,
        "rKK": rkk,
        "epsilon": eps,
        "phi": phi,
        "lambda": (d0 + 2 * d1) / 10,
    }


TABLE_ARITY = {"I": 0, "II": 1, "III": 1, "IV": 2, "V": 2, "VI": 3, "VII": 3}
_BINARY = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul, ast.Div: operator.truediv}


def evaluate(expression: str, values: dict) -> Fraction:
    """Exact value of a printed rational expression in named variables.

    Accepts integers, names, + - * / and integer powers, which is the
    syntax the symbolic table prints; anything else raises ValueError.
    """

    def ev(node):
        if isinstance(node, ast.Expression):
            return ev(node.body)
        if isinstance(node, ast.Constant) and type(node.value) is int:
            return Fraction(node.value)
        if isinstance(node, ast.Name) and node.id in values:
            return values[node.id]
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return -ev(node.operand)
        if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
            return _BINARY[type(node.op)](ev(node.left), ev(node.right))
        if (
            isinstance(node, ast.BinOp)
            and isinstance(node.op, ast.Pow)
            and isinstance(node.right, ast.Constant)
            and type(node.right.value) is int
        ):
            return ev(node.left) ** node.right.value
        raise ValueError(f"unexpected syntax in {expression!r}: {ast.dump(node)}")

    return ev(ast.parse(expression, mode="eval"))


# ---------------------------------------------------------------- theta functions


def _even_characteristics():
    halves = (0.0, 0.5)
    for a1 in halves:
        for a2 in halves:
            for b1 in halves:
                for b2 in halves:
                    if round(4 * (a1 * b1 + a2 * b2)) % 2 == 0:
                        yield np.array([a1, a2]), np.array([b1, b2])


def _box(tau: np.ndarray) -> np.ndarray:
    """Lattice points n with |n_i| <= R, R well past where exp(-pi n'Yn) underflows a double."""
    lam = float(np.linalg.eigvalsh(tau.imag)[0])
    radius = math.ceil(math.sqrt(45 / (math.pi * lam))) + 2
    ns = np.arange(-radius, radius + 1, dtype=float)
    g1, g2 = np.meshgrid(ns, ns, indexing="ij")
    return np.stack([g1.ravel(), g2.ravel()], axis=1)


def log_delta2(tau: np.ndarray) -> float:
    """log(2^-12 (det Y)^5 prod over the 10 even characteristics of |theta[c](0)|^2),
    each theta-null a direct lattice sum.  Meant for reduced tau only."""
    box = _box(tau)
    det_y = float(np.linalg.det(tau.imag))
    total = -12 * math.log(2) + 5 * math.log(det_y)
    for a, b in _even_characteristics():
        m = box + a
        quad = np.einsum("li,ij,lj->l", m, tau, m)
        value = np.exp(1j * math.pi * (quad + 2 * (m @ b))).sum()
        total += 2 * math.log(abs(value))
    return total


def log_h(tau: np.ndarray, samples: int, seed: int, chunk: int = 2000) -> tuple[float, float]:
    """Monte Carlo mean of log||theta||(tau u + v) over [0,1)^4 and its
    standard error, from plain lattice sums in (n + u)' Y (n + u) form."""
    box = _box(tau)
    x, y = tau.real, tau.imag
    quarter_log_det = 0.25 * math.log(float(np.linalg.det(y)))
    rng = np.random.default_rng(seed)
    values = []
    for start in range(0, samples, chunk):
        pts = rng.random((min(chunk, samples - start), 4))
        u, v = pts[:, :2], pts[:, 2:]
        shifted = box[None, :, :] + u[:, None, :]
        real = -math.pi * np.einsum("pli,ij,plj->pl", shifted, y, shifted)
        imag = math.pi * (
            np.einsum("li,ij,lj->l", box, x, box)[None, :]
            + 2 * (u @ x + v) @ box.T
        )
        sums = np.exp(real + 1j * imag).sum(axis=1)
        values.append(quarter_log_det + np.log(np.abs(sums)))
    vals = np.concatenate(values)
    vals = vals[np.isfinite(vals)]
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(len(vals)))


def arch_reference(tau: np.ndarray, samples: int, seed: int) -> dict:
    """Independent log_delta2, log_h and phi (with stderrs) for a reduced tau."""
    ld2 = log_delta2(tau)
    lh, lh_err = log_h(tau, samples, seed)
    return {
        "log_delta2": ld2,
        "log_h": lh,
        "log_h_stderr": lh_err,
        "phi": -0.5 * ld2 + 10 * lh,
        "phi_stderr": 10 * lh_err,
    }


def arch_identity_errors(doc: dict) -> list[str]:
    """Fields of an `arch` report that break the chain's defining identities."""
    ld2, lh = doc["log_delta2"], doc["log_h"]
    want = {
        "phi": -0.5 * ld2 + 10 * lh,
        "phi_stderr": 10 * doc["log_h_stderr"],
        "delta_f": -16 * LOG_2PI - ld2 - 4 * lh,
        "lambda": (-20 * LOG_2PI - ld2) / 10,
    }
    want["log_s"] = -16 * LOG_2PI - 1.25 * ld2 - want["delta_f"]
    errors = []
    for key, value in want.items():
        got = doc[key]
        if not math.isfinite(got) or abs(got - value) > 1e-12 * max(1.0, abs(value)):
            errors.append(f"{key}={got!r}, identity gives {value!r}")
    return errors


def within_stderr(x: float, x_err: float, y: float, y_err: float, factor: float = 10.0) -> bool:
    return abs(x - y) <= factor * math.hypot(x_err, y_err)
