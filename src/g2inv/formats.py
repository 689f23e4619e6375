"""File formats: graph documents, period-matrix files, report serialization.

Conventions chosen for lossless round-trips:

* rationals are written as "p/q" (or "n" for integers) and parsed back
  exactly; floats are never accepted where a rational is required;
* complex entries are written as "re+im i" with shortest-round-trip float
  text, so load(save(x)) is bit-identical;
* reports serialize to JSON objects whose keys match the field names the
  reports print in human mode;
* `render` and `render_table` produce what the commands print, in either
  mode, from those objects.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import TYPE_CHECKING

from .errors import DisconnectedError, InvalidParamsError
from .exact import as_rational
from .metric_graph import PMGraph
from .pm_invariants import NonArchReport

if TYPE_CHECKING:  # the theta module loads numpy: imported where it is used
    from .theta_surface import ArchReport, SiegelMatrix


def parse_rational(value) -> Fraction:
    """Parse "p/q" or integer text (or a JSON integer) to an exact rational."""
    if isinstance(value, bool):
        raise InvalidParamsError(f"expected a rational, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidParamsError(f"bad rational {value!r}: {exc}") from exc
    raise InvalidParamsError(
        f"expected a rational as a 'p/q' string, got {type(value).__name__}"
    )


def format_rational(value) -> str:
    return str(as_rational(value))


def parse_complex_entry(text: str) -> complex:
    """Parse an "re+im i" entry; spaces are ignored, 'i' marks the imaginary unit."""
    if not isinstance(text, str):
        raise InvalidParamsError(f"expected a complex entry string, got {text!r}")
    compact = text.replace(" ", "").replace("i", "j")
    try:
        return complex(compact)
    except ValueError as exc:
        raise InvalidParamsError(f"bad complex entry {text!r}: {exc}") from exc


def format_complex_entry(value: complex) -> str:
    re, im = float(value.real), float(value.imag)
    sign = "+" if im >= 0 else "-"
    return f"{re!r}{sign}{abs(im)!r}i"


def graph_from_dict(doc: dict) -> PMGraph:
    try:
        vertices = [(v["id"], v["genus"]) for v in doc["vertices"]]
        edges = [
            (e["id"], e["from"], e["to"], parse_rational(e["length"]))
            for e in doc.get("edges", [])
        ]
        # building the graph validates it: unhashable ids raise TypeError
        return PMGraph(vertices, edges)
    except (KeyError, TypeError, DisconnectedError) as exc:
        raise InvalidParamsError(f"malformed graph document: {exc}") from exc


def graph_to_dict(graph: PMGraph) -> dict:
    return {
        "vertices": [
            {"id": v, "genus": graph.genus(v)} for v in graph.vertex_ids
        ],
        "edges": [
            {
                "id": e,
                "from": graph.edge_ends(e)[0],
                "to": graph.edge_ends(e)[1],
                "length": format_rational(graph.edge_length(e)),
            }
            for e in graph.edge_ids
        ],
    }


def load_graph(path: str) -> PMGraph:
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, RecursionError) as exc:  # bad or too deep
            raise InvalidParamsError(f"graph file is not valid JSON: {exc}") from exc
    return graph_from_dict(doc)


def save_graph(path: str, graph: PMGraph) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(graph_to_dict(graph), fh, indent=2)
        fh.write("\n")


def tau_from_dict(doc) -> SiegelMatrix:
    import numpy as np

    from .theta_surface import SiegelMatrix

    entries = doc.get("tau") if isinstance(doc, dict) else doc
    if not isinstance(entries, list) or len(entries) != 4:
        raise InvalidParamsError(
            "period-matrix document must hold four row-major complex entries"
        )
    values = [parse_complex_entry(s) for s in entries]
    return SiegelMatrix(np.array(values, dtype=complex).reshape(2, 2))


def tau_to_dict(tau: SiegelMatrix) -> dict:
    flat = tau.matrix.reshape(4)
    return {"tau": [format_complex_entry(v) for v in flat]}


def load_tau(path: str) -> SiegelMatrix:
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, RecursionError) as exc:  # bad or too deep
            raise InvalidParamsError(f"period-matrix file is not valid JSON: {exc}") from exc
    try:
        return tau_from_dict(doc)
    except ValueError as exc:
        raise InvalidParamsError(str(exc)) from exc


def save_tau(path: str, tau: SiegelMatrix) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(tau_to_dict(tau), fh, indent=2)
        fh.write("\n")


def nonarch_to_dict(report: NonArchReport) -> dict:
    return {
        "genus": report.genus,
        "delta0": format_rational(report.delta0),
        "delta1": format_rational(report.delta1),
        "rKK": format_rational(report.r_kk),
        "epsilon": format_rational(report.epsilon),
        "phi": format_rational(report.phi),
        "lambda": format_rational(report.lambda_),
    }


def nonarch_from_dict(doc: dict) -> NonArchReport:
    return NonArchReport(
        genus=int(doc["genus"]),
        delta0=parse_rational(doc["delta0"]),
        delta1=parse_rational(doc["delta1"]),
        r_kk=parse_rational(doc["rKK"]),
        epsilon=parse_rational(doc["epsilon"]),
        phi=parse_rational(doc["phi"]),
        lambda_=parse_rational(doc["lambda"]),
    )


def arch_to_dict(report: ArchReport) -> dict:
    # JSON float text is the shortest round-tripping representation, so
    # parsing it back reproduces each field bit-exactly
    return {
        "log_delta2": report.log_delta2,
        "log_h": report.log_h,
        "log_h_stderr": report.log_h_stderr,
        "delta_f": report.delta_f,
        "log_s": report.log_s,
        "phi": report.phi,
        "phi_stderr": report.phi_stderr,
        "lambda": report.lambda_,
        "residual": report.residual,
        "rejected": report.rejected,
    }


def arch_from_dict(doc: dict) -> ArchReport:
    from .theta_surface import ArchReport

    return ArchReport(
        log_delta2=float(doc["log_delta2"]),
        log_h=float(doc["log_h"]),
        log_h_stderr=float(doc["log_h_stderr"]),
        delta_f=float(doc["delta_f"]),
        log_s=float(doc["log_s"]),
        phi=float(doc["phi"]),
        phi_stderr=float(doc["phi_stderr"]),
        lambda_=float(doc["lambda"]),
        residual=float(doc["residual"]),
        rejected=int(doc["rejected"]),
    )


def render(doc: dict, fmt: str, stderrs: dict | None = None) -> str:
    """A report document as a command prints it: indented JSON for
    "structured"; otherwise one aligned `key  value` line per field, floats
    by repr, with ` +- stderr` after the fields that `stderrs` names."""
    if fmt == "structured":
        return json.dumps(doc, indent=2)
    stderrs = stderrs or {}
    width = max(len(k) for k in doc)
    lines = []
    for key, value in doc.items():
        text = repr(value) if isinstance(value, float) else str(value)
        if key in stderrs:
            text += f" +- {stderrs[key]!r}"
        lines.append(f"{key:<{width}}  {text}")
    return "\n".join(lines)


def render_table(rows: list[dict], fmt: str) -> str:
    """Table rows (dicts of strings, same keys) as JSON `{"rows": ...}` for
    "structured", else as left-aligned columns under a header line."""
    if fmt == "structured":
        return json.dumps({"rows": rows}, indent=2)
    columns = list(rows[0])
    widths = {c: max(len(c), *(len(r[c]) for r in rows)) for c in columns}
    lines = [dict(zip(columns, columns)), *rows]
    return "\n".join("  ".join(r[c].ljust(widths[c]) for c in columns) for r in lines)
