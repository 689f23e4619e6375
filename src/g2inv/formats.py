"""File formats: the two input files the commands read, the reports they print.

The package reads graph documents and period-matrix files, through one
JSON reader, and writes reports, through `render` and `render_table`; it
writes no input file and reads no report back.  Conventions chosen so
that any JSON reader gets the printed values back exactly:

* rationals are written as "p/q" (or "n" for integers), and
  `parse_rational` reads them back exactly; floats are never accepted
  where a rational is required;
* complex entries are read from "re+im i" text (`parse_complex_entry`),
  so shortest-round-trip float text loads bit-identically;
* reports serialize to JSON objects whose keys match the field names the
  reports print in human mode: `NONARCH_KEYS` lists the graph report's,
  and `arch_to_dict` keys an `ArchReport` field by its name less a
  trailing "_"; JSON float text round-trips each float bit for bit;
* `render` and `render_table` produce what the commands print, in either
  mode, from those objects.
"""

from __future__ import annotations

import json
import reprlib
from typing import TYPE_CHECKING

from .errors import InvalidParamsError
from .exact import as_rational
from .metric_graph import PMGraph
from .pm_invariants import NonArchReport

if TYPE_CHECKING:  # the theta module loads numpy: imported where it is used
    from .theta_surface import ArchReport, SiegelMatrix


# NonArchReport field -> report key of each exact invariant, in print order
# after the genus: what `nonarch_to_dict` and `g2inv table` read
NONARCH_KEYS = {"delta0": "delta0", "delta1": "delta1", "r_kk": "rKK",
                "epsilon": "epsilon", "phi": "phi", "lambda_": "lambda"}


def parse_rational(value):
    """Parse "p/q", integer or decimal text (or a JSON integer) to an exact
    rational by `exact.as_rational`; whatever that refuses, a JSON float,
    bool or null included, is InvalidParamsError."""
    try:
        return as_rational(value)
    except (TypeError, ValueError) as exc:
        raise InvalidParamsError(f"bad rational {reprlib.repr(value)}: {exc}") from exc


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


def graph_from_dict(doc: dict) -> PMGraph:
    """The PMGraph of a graph document: a missing key or a wrong type is
    InvalidParamsError, and what PMGraph refuses passes as its ValueError."""
    try:
        vertices = [(v["id"], v["genus"]) for v in doc["vertices"]]
        edges = [
            (e["id"], e["from"], e["to"], parse_rational(e["length"]))
            for e in doc.get("edges", [])
        ]
        # building the graph validates it: unhashable ids raise TypeError
        return PMGraph(vertices, edges)
    except (KeyError, TypeError) as exc:
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


def _read_json(path: str, what: str):
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, RecursionError) as exc:  # bad or too deep
            raise InvalidParamsError(f"{what} file is not valid JSON: {exc}") from exc


def load_graph(path: str) -> PMGraph:
    return graph_from_dict(_read_json(path, "graph"))


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


def load_tau(path: str) -> SiegelMatrix:
    return tau_from_dict(_read_json(path, "period-matrix"))


def nonarch_to_dict(report: NonArchReport) -> dict:
    exact = {key: format_rational(getattr(report, name)) for name, key in NONARCH_KEYS.items()}
    return {"genus": report.genus, **exact}


def arch_to_dict(report: ArchReport) -> dict:
    # each field under its own name less a trailing "_" (`lambda_` is
    # "lambda"), in print order: the one place that rule is written.  JSON
    # float text is the shortest round-tripping representation, so any JSON
    # reader gets each field back bit-exactly
    return {name.rstrip("_"): value for name, value in vars(report).items()}


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
