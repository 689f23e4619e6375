"""Round-trip and validation tests for the file formats."""

import contextlib
import copy
import io
import json
import math
from datetime import timedelta
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import PROPERTY_SETTINGS, random_pm_graph

from g2inv.cli import INPUT_ERRORS, TAGS, main

from g2inv.errors import InvalidParamsError
from g2inv.fiber_catalog import FiberType, closed_form
from g2inv.formats import (
    NONARCH_KEYS,
    arch_to_dict,
    format_rational,
    graph_from_dict,
    graph_to_dict,
    load_graph,
    load_tau,
    nonarch_to_dict,
    parse_complex_entry,
    parse_rational,
    render,
    render_table,
    tau_from_dict,
)
from g2inv.metric_graph import PMGraph
from g2inv.pm_invariants import total_genus
from g2inv.theta_surface import ArchReport, SiegelMatrix


def test_rational_parsing():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational(" -5/3 ") == Fraction(-5, 3)
    assert parse_rational("7") == Fraction(7)
    assert parse_rational(7) == Fraction(7)
    for bad in (0.5, "0.5/2", "x", "1/0", True, None, [1]):
        with pytest.raises(InvalidParamsError):
            parse_rational(bad)
    assert format_rational(Fraction(10, 4)) == "5/2"
    assert format_rational(Fraction(4)) == "4"


def test_decimal_text_is_read_exactly(capsys):
    """Decimal and exponent text names an exact rational and is read as
    one: `--params 1e-3` is II(1/1000), and a length "2.5" is 5/2.  A JSON
    float is still refused."""
    assert parse_rational("1e-3") == Fraction(1, 1000)
    outputs = []
    for params in ("1e-3", "1/1000"):
        assert main(["nonarch", "--type", "II", "--params", params, "--format", "structured"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["delta1"] == "1/1000"

    def doc(length):
        return {
            "vertices": [{"id": "u", "genus": 1}, {"id": "w", "genus": 1}],
            "edges": [{"id": "e", "from": "u", "to": "w", "length": length}],
        }

    assert graph_from_dict(doc("2.5")).edge_length("e") == Fraction(5, 2)
    with pytest.raises(InvalidParamsError):
        graph_from_dict(doc(2.5))


def entry(z: complex) -> str:
    """z as "re+im i" text, each part in shortest round-trip float text."""
    return f"{z.real!r}{z.imag:+}i"


def test_complex_entry_round_trip():
    """Shortest round-trip float text, read back through any JSON reader
    and `parse_complex_entry`, gives each part back bit for bit."""
    awkward = [
        0.1 + 0.3j,
        -1 / 3 - 1e-17j,
        complex(math.pi, -math.e),
        1.3j,
        -0.17 + 1.1j,
        complex(5e-324, -5e-324),
        complex(1e308, -0.0),
    ]
    texts = json.loads(json.dumps([entry(z) for z in awkward]))
    for z, text in zip(awkward, texts):
        back = parse_complex_entry(text)
        assert (repr(back.real), repr(back.imag)) == (repr(z.real), repr(z.imag))
    assert parse_complex_entry("0.12 + 1.3 i") == 0.12 + 1.3j
    assert parse_complex_entry("2i") == 2j
    assert parse_complex_entry("-0.5") == -0.5
    with pytest.raises(InvalidParamsError):
        parse_complex_entry("zebra")
    with pytest.raises(InvalidParamsError):
        parse_complex_entry(1.5)


def test_graph_round_trip(rng, tmp_path):
    for _ in range(10):
        graph = random_pm_graph(rng)
        doc = graph_to_dict(graph)
        back = graph_from_dict(json.loads(json.dumps(doc)))
        assert back.vertex_ids == graph.vertex_ids
        assert back.edge_ids == graph.edge_ids
        for v in graph.vertex_ids:
            assert back.genus(v) == graph.genus(v)
        for e in graph.edge_ids:
            assert back.edge_ends(e) == graph.edge_ends(e)
            assert back.edge_length(e) == graph.edge_length(e)
            assert isinstance(back.edge_length(e), Fraction)
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(graph_to_dict(graph)))
    loaded = load_graph(str(path))
    assert graph_to_dict(loaded) == graph_to_dict(graph)


def test_graph_document_validation():
    with pytest.raises(InvalidParamsError):
        graph_from_dict({"edges": []})
    with pytest.raises(InvalidParamsError):
        graph_from_dict({"vertices": [{"id": "v"}]})
    with pytest.raises(InvalidParamsError):
        graph_from_dict(
            {
                "vertices": [{"id": "v", "genus": 2}],
                "edges": [{"id": "e", "from": "v", "to": "v", "length": 0.5}],
            }
        )


def test_null_vertex_id_is_refused(tmp_path, capsys):
    """JSON null names no vertex: the loader refuses it as bad input, and
    the CLI exits 2 with the error line, as for every malformed file."""
    doc = {
        "vertices": [{"id": None, "genus": 1}, {"id": "w", "genus": 1}],
        "edges": [{"id": "e", "from": None, "to": "w", "length": "1"}],
    }
    with pytest.raises(ValueError, match="vertex id must not be None"):
        graph_from_dict(doc)
    path = tmp_path / "null-id.json"
    path.write_text(json.dumps(doc))
    assert main(["nonarch", str(path)]) == 2
    assert capsys.readouterr().err == "error: a vertex id must not be None\n"


def test_tau_round_trip(tmp_path):
    tau = SiegelMatrix(np.array([[0.12 + 1.3j, 0.21 + 0.33j], [0.21 + 0.33j, -1 / 3 + math.pi * 1j]]))
    path = tmp_path / "tau.json"
    path.write_text(json.dumps({"tau": [entry(z) for z in map(complex, tau.matrix.flat)]}))
    loaded = load_tau(str(path))
    assert np.array_equal(loaded.matrix, tau.matrix)


def test_tau_document_validation():
    with pytest.raises(InvalidParamsError):
        tau_from_dict({"tau": ["1i", "0", "0"]})
    with pytest.raises(InvalidParamsError):
        tau_from_dict(["1i", "0", "0", "1i", "0"])
    with pytest.raises(ValueError):
        # asymmetry beyond the gate
        tau_from_dict(["1i", "0.2", "0.3", "1i"])
    with pytest.raises(ValueError, match="positive definite"):
        tau_from_dict(["1i", "0", "0", "-1i"])
    # entries near the float limit: symmetrizing must not overflow to inf/NaN
    huge = tau_from_dict(["1e308i", "0.1+0.2i", "0.1+0.2i", "1.2i"])
    assert huge.matrix[0, 0] == 1e308j and huge.min_eigenvalue > 0


def test_nonarch_report_round_trip():
    """Every exact field comes back from the JSON text exactly, through
    `parse_rational`."""
    for fiber in [
        FiberType("I"), FiberType("II", ("3/2",)), FiberType("III", ("2/7",)),
        FiberType("IV", ("3/2", "5/3")), FiberType("V", ("1/2", "7/4")),
        FiberType("VI", (2, "3/5", "7/3")), FiberType("VII", (1, 2, Fraction(3, 7))),
    ]:
        report = closed_form(fiber)
        doc = nonarch_to_dict(report)
        assert list(doc) == ["genus", "delta0", "delta1", "rKK", "epsilon", "phi", "lambda"]
        assert doc["lambda"] == str(report.lambda_)
        back = json.loads(json.dumps(doc))
        assert back["genus"] == report.genus
        for name, key in NONARCH_KEYS.items():
            assert parse_rational(back[key]) == getattr(report, name)


def test_arch_report_round_trip_is_bit_exact():
    report = ArchReport(
        log_delta2=-11.667626645708058,
        log_h=-0.5121602677283286,
        log_h_stderr=0.0018470430955183248,
        delta_f=-15.689765345928153,
        log_s=0.8682655905136993,
        phi=0.7122106455707433,
        phi_stderr=0.018470430955183248,
        lambda_=-2.5089914682478844,
        residual=3.552713678800501e-15,
        rejected=3,
    )
    doc = json.loads(json.dumps(arch_to_dict(report)))
    assert list(doc) == ["log_delta2", "log_h", "log_h_stderr", "delta_f", "log_s", "phi",
                         "phi_stderr", "lambda", "residual", "rejected"]
    assert [repr(v) for v in doc.values()] == [repr(v) for v in vars(report).values()]



def test_render_aligns_fields_and_appends_stderrs():
    doc = {"phi": 0.1, "samples": 10_000, "delta0": "3/2"}
    assert render(doc, "human", {"phi": 0.25}) == (
        "phi      0.1 +- 0.25\nsamples  10000\ndelta0   3/2"
    )
    assert json.loads(render(doc, "structured", {"phi": 0.25})) == doc


def test_render_table_pads_every_column_to_its_widest_cell():
    rows = [{"type": "I", "phi": "0"}, {"type": "II(a)", "phi": "a/12"}]
    assert render_table(rows, "human") == "type   phi \nI      0   \nII(a)  a/12"
    assert json.loads(render_table(rows, "structured")) == {"rows": rows}

# -- malformed documents -------------------------------------------------------

# any JSON value: the shape a corrupted or hand-edited file may take
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
# wrong types, bad rationals and non-finite or huge complex entries
GRAPH_JUNK = st.sampled_from(
    ["1/0", "0/0", "0", "-1", "nan", "inf", "1e400", "x", "", 0.5, -1, True, None, [], {}]
) | JSON_VALUES
TAU_JUNK = st.sampled_from(
    ["nan", "1e400i", "1e308i", "1e308", "-1i", "0", "1ii", "inf", "", 1.5, None, []]
) | st.complex_numbers().map(entry) | JSON_VALUES


def _corrupt(draw, doc, junk):
    """A copy of doc with up to two faults, each a value swapped for junk
    or a key or list item removed, at a random depth."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(0, 2))):
        parent, key, node = None, None, doc
        while isinstance(node, (dict, list)) and node and (parent is None or draw(st.booleans())):
            key = draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
            parent, node = node, node[key]
        if parent is None:
            return draw(junk)
        if draw(st.booleans()):
            del parent[key]
        else:
            parent[key] = draw(junk)
    return doc


@st.composite
def graph_documents(draw):
    """A valid graph document of 1-3 vertices, then up to two faults; or
    any JSON value at all."""
    if draw(st.integers(0, 4)) == 0:
        return draw(JSON_VALUES)
    ids = [f"v{i}" for i in range(draw(st.integers(1, 3)))]
    vertices = [{"id": v, "genus": draw(st.integers(0, 2))} for v in ids]
    ends = list(zip(ids, ids[1:])) + draw(
        st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids)), max_size=2)
    )
    lengths = st.fractions(min_value=Fraction(1, 9), max_value=9, max_denominator=9).map(str)
    edges = [
        {"id": f"e{k}", "from": u, "to": w, "length": draw(lengths)}
        for k, (u, w) in enumerate(ends)
    ]
    return _corrupt(draw, {"vertices": vertices, "edges": edges}, GRAPH_JUNK)


@st.composite
def tau_documents(draw):
    """A valid period matrix as four entries, bare or under "tau", then up
    to two faults; or any JSON value at all."""
    if draw(st.integers(0, 4)) == 0:
        return draw(JSON_VALUES)
    parts = st.floats(min_value=-1, max_value=1)
    y1, y2 = draw(st.floats(0.5, 3)), draw(st.floats(0.5, 3))
    z12 = complex(draw(parts), 0.4 * draw(parts))  # |Im tau12| < 1/2: Im tau is PD
    entries = [complex(draw(parts), y1), z12, z12, complex(draw(parts), y2)]
    entries = [entry(z) for z in entries]
    doc = {"tau": entries} if draw(st.booleans()) else entries
    return _corrupt(draw, doc, TAU_JUNK)


def _load_or_input_error(loader, doc):
    """The loaded object, or None when the loader raised an error that
    `cli.main` reports as exit 2; any other exception propagates."""
    try:
        return loader(doc)
    except INPUT_ERRORS:
        return None


@PROPERTY_SETTINGS
@given(graph_documents())
def test_graph_loader_returns_a_graph_or_an_input_error(doc):
    graph = _load_or_input_error(graph_from_dict, doc)
    assert graph is None or isinstance(graph, PMGraph)


@PROPERTY_SETTINGS
@given(tau_documents())
def test_tau_loader_returns_a_siegel_matrix_or_an_input_error(doc):
    tau = _load_or_input_error(tau_from_dict, doc)
    if tau is not None:
        assert np.all(np.isfinite(tau.matrix))
        assert np.array_equal(tau.matrix, tau.matrix.T)
        assert tau.min_eigenvalue > 0


def _run_cli(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@settings(PROPERTY_SETTINGS, max_examples=20)
@given(graph_documents())
def test_bad_graph_files_exit_2_through_the_cli(tmp_path_factory, doc):
    path = tmp_path_factory.mktemp("graph") / "graph.json"
    path.write_text(json.dumps(doc))
    code, err = _run_cli(["nonarch", str(path)])
    assert "Traceback" not in err
    graph = _load_or_input_error(graph_from_dict, doc)
    if graph is None:
        assert code == 2
        assert err.startswith("error: ")
    elif total_genus(graph) != 2:
        assert code == 3
    elif any(graph.genus(v) == 0 and graph.degree(v) == 1 for v in graph.vertex_ids):
        assert code == 2  # a genus-0 leaf: K is not effective
        assert err.startswith("error: vertex ")
    else:
        assert code == 0


@settings(PROPERTY_SETTINGS, max_examples=20)
@given(tau_documents())
def test_bad_tau_files_exit_2_through_the_cli(tmp_path_factory, doc):
    # a valid period matrix would start the quadrature: only rejected ones run
    assume(_load_or_input_error(tau_from_dict, doc) is None)
    path = tmp_path_factory.mktemp("tau") / "tau.json"
    path.write_text(json.dumps(doc))
    # the smallest valid sample count: a wrongly accepted tau runs and exits 0
    code, err = _run_cli(["arch", str(path), "--samples", "10000"])
    assert "Traceback" not in err
    assert code == 2
    assert err.startswith("error: ")


# one --params entry: text of the characters a rational is spelled with,
# arbitrary text, or a mantissa with an exponent up to a billion
PARAM_ENTRIES = (
    st.text("0123456789/.e-, \t", max_size=12)
    | st.text(max_size=6)
    | st.builds("{}e{}".format, st.integers(0, 99), st.integers(-(10**9), 10**9))
)


@settings(PROPERTY_SETTINGS, deadline=timedelta(seconds=1))
@given(st.sampled_from(TAGS), st.lists(PARAM_ENTRIES, max_size=4).map(",".join))
def test_any_params_text_exits_0_or_2_through_the_cli(tag, text):
    """Whatever --params text a fiber type gets, `nonarch` prints its
    report or refuses the text as bad input, without a traceback and in
    well under the deadline.  The text goes in as --params=<text>, so a
    leading '-' is read as the value and not as an option."""
    code, err = _run_cli(["nonarch", "--type", tag, f"--params={text}"])
    assert "Traceback" not in err
    assert code in (0, 2)
    assert code == 0 or err.startswith("error: ")
