"""End-to-end tests of the command-line interface and its exit codes."""

import dataclasses
import json
import math
import os
import random
import re
import subprocess
import sys
import time
import warnings
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest

from test_theta_surface import EVEN_CHARS, brute_theta, random_tau, reference_log_h

import g2inv.theta_surface
from g2inv import cli
from g2inv.cli import main
from g2inv.errors import UnclassifiableError
from g2inv.fiber_catalog import FiberType, graph_of_type
from g2inv.formats import arch_from_dict, nonarch_from_dict, save_graph, save_tau
from g2inv.metric_graph import PMGraph
from g2inv.theta_surface import (
    DEFAULT_THETA_TOL,
    MAX_SAMPLES,
    _EVEN_A,
    _EVEN_B,
    QuadratureConfig,
    SiegelMatrix,
    _theta_scaled,
    _truncation_radius,
)

GENERIC_TAU = SiegelMatrix(
    np.array([[0.12 + 1.3j, 0.21 + 0.33j], [0.21 + 0.33j, -0.17 + 1.1j]])
)


@pytest.fixture
def tau_file(tmp_path):
    path = tmp_path / "tau.json"
    save_tau(str(path), GENERIC_TAU)
    return str(path)


def test_graph_commands_do_not_load_numpy():
    code = (
        "import sys, g2inv.cli\n"
        "g2inv.cli.main(['nonarch', '--type', 'VII', '--params', '1,2,3'])\n"
        "g2inv.cli.main(['verify', '--samples', '5'])\n"
        "assert 'numpy' not in sys.modules"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    subprocess.run([sys.executable, "-c", code], env=env, check=True, capture_output=True)


def test_every_export_resolves():
    """Each name in `g2inv.__all__` resolves, once; the names that the
    package does not import eagerly load lazily from `theta_surface`, as
    the same objects, on first access."""
    import g2inv
    from g2inv import theta_surface

    assert len(set(g2inv.__all__)) == len(g2inv.__all__)
    lazy = set(g2inv.__all__) - set(vars(g2inv))
    assert lazy  # the theta names
    for name in g2inv.__all__:
        getattr(g2inv, name)
    for name in lazy:
        assert getattr(g2inv, name) is getattr(theta_surface, name)


def test_nonarch_type_matches_spec_example(capsys):
    assert main(["nonarch", "--type", "VII", "--params", "1,1,1"]) == 0
    out = capsys.readouterr().out
    assert "phi      1/9" in out
    assert "lambda   3/10" in out


def test_nonarch_type_i_all_zero(capsys):
    assert main(["nonarch", "--type", "I", "--format", "structured"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert all(doc[k] == "0" for k in ("delta0", "delta1", "rKK", "epsilon", "phi", "lambda"))


def test_nonarch_file_matches_inline_type(tmp_path, capsys):
    # a subdivided loop at a genus-1 vertex, total length 2: same surface
    # shape as --type III --params 2
    graph = PMGraph(
        [("v", 1), ("c1", 0), ("c2", 0)],
        [
            ("s1", "v", "c1", Fraction(1, 2)),
            ("s2", "c1", "c2", Fraction(3, 4)),
            ("s3", "c2", "v", Fraction(3, 4)),
        ],
    )
    path = tmp_path / "graph.json"
    save_graph(str(path), graph)
    assert main(["nonarch", str(path), "--format", "structured"]) == 0
    from_file = json.loads(capsys.readouterr().out)
    assert main(["nonarch", "--type", "III", "--params", "2", "--format", "structured"]) == 0
    inline = json.loads(capsys.readouterr().out)
    assert from_file == inline
    assert nonarch_from_dict(from_file) == nonarch_from_dict(inline)


def halve(graph):
    """The graph with a genus-0 vertex at the middle of every edge; the new
    ids are strings, so the graph survives a JSON round trip."""
    vertices = [(v, graph.genus(v)) for v in graph.vertex_ids]
    edges = []
    for e in graph.edge_ids:
        (u, w), mid, half = graph.edge_ends(e), f"{e}.m", graph.edge_length(e) / 2
        vertices.append((mid, 0))
        edges += [(f"{e}.0", u, mid, half), (f"{e}.1", mid, w, half)]
    return PMGraph(vertices, edges)


@pytest.mark.parametrize("fmt", ["human", "structured"])
def test_nonarch_on_a_halved_graph_prints_the_type_output(tmp_path, capsys, fmt):
    """VII(1, 2, 3) halved twice (11 vertices) is reported through its
    stable model and checked against the closed form of the type it
    classifies as: byte for byte the output of --type."""
    graph = halve(halve(graph_of_type(FiberType("VII", (1, 2, 3)))))
    assert graph.num_vertices == 11
    path = tmp_path / "vii.json"
    save_graph(str(path), graph)
    assert main(["nonarch", str(path), "--format", fmt]) == 0
    from_file = capsys.readouterr()
    assert main(["nonarch", "--type", "VII", "--params", "1,2,3", "--format", fmt]) == 0
    assert from_file == capsys.readouterr()


def test_nonarch_smooths_once_and_dumps_the_input(tmp_path, monkeypatch, capsys):
    """VII(1, 2, 3) halved three times (23 vertices): `nonarch` smooths it
    once and hands the stable model to both the report and the classifier,
    whose own `smooth` calls find nothing to merge.  A failed cross-check
    still dumps the graph as given."""
    import g2inv.fiber_catalog
    import g2inv.pm_invariants
    from g2inv.metric_graph import smooth

    graph = halve(halve(halve(graph_of_type(FiberType("VII", (1, 2, 3))))))
    assert graph.num_vertices == 23
    path = tmp_path / "vii.json"
    save_graph(str(path), graph)
    merged = []

    def counting(g):
        stable = smooth(g)
        merged.append(stable is not g)
        return stable

    for module in (cli, g2inv.pm_invariants, g2inv.fiber_catalog):
        monkeypatch.setattr(module, "smooth", counting)
    assert main(["nonarch", str(path)]) == 0
    assert merged.count(True) == 1 and len(merged) >= 2
    capsys.readouterr()

    def skewed(fiber):  # epsilon one too large
        report = g2inv.fiber_catalog.closed_form(fiber)
        return dataclasses.replace(report, epsilon=report.epsilon + 1)

    monkeypatch.setattr(cli, "closed_form", skewed)
    assert main(["nonarch", str(path)]) == 4
    dump = capsys.readouterr().err.split("offending graph:\n", 1)[1]
    assert len(json.loads(dump)["vertices"]) == 23


def test_nonarch_closed_form_mismatch_exits_4(monkeypatch, capsys):
    """nonarch compares every report with the paper's closed form for its
    type: a wrong closed form fails the cross-check and prints nothing on
    stdout."""
    import g2inv.fiber_catalog

    def skewed(fiber):  # epsilon one too large
        report = g2inv.fiber_catalog.closed_form(fiber)
        return dataclasses.replace(report, epsilon=report.epsilon + 1)

    monkeypatch.setattr(cli, "closed_form", skewed)
    assert main(["nonarch", "--type", "VII", "--params", "1,2,3"]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(
        "internal cross-check failed: VII(1, 2, 3): epsilon is 12/11, closed form 23/11"
    )
    assert "offending graph:" in err


def test_an_error_no_exit_row_names_propagates(monkeypatch, capsys):
    """`main` maps only the errors its table `EXITS` names to exit codes:
    any other leaves it as itself, with nothing printed."""
    failure = RuntimeError("not an input error")

    def broken(graph):
        raise failure

    monkeypatch.setattr(cli, "nonarch_report", broken)
    with pytest.raises(RuntimeError) as caught:
        main(["nonarch", "--type", "VII", "--params", "1,2,3"])
    assert caught.value is failure
    assert capsys.readouterr() == ("", "")


def test_an_unclassifiable_stable_model_exits_4(monkeypatch, capsys):
    """Every genus-2 stable model is one of the seven shapes, so
    `UnclassifiableError` out of `classify` means a fault in `SHAPES` or
    `smooth`: exit 4 with one line, no traceback, nothing on stdout."""

    def broken(graph):
        raise UnclassifiableError("no shape matches")

    monkeypatch.setattr(cli, "classify", broken)
    assert main(["nonarch", "--type", "VII", "--params", "1,2,3"]) == 4
    assert capsys.readouterr() == ("", "internal cross-check failed: no shape matches\n")


def test_params_at_the_digit_bound(capsys):
    """The widest lengths `exact.as_rational` accepts, at the type whose
    invariants have the highest degree in them, still print in both
    formats; one digit past the bound, or an exponent of a million, is
    refused in well under a second, before any report is computed."""
    widest = ",".join(["9" * 700, "1e699", "1e-699"])
    for fmt in ("human", "structured"):
        assert main(["nonarch", "--type", "VII", "--params", widest, "--format", fmt]) == 0
    capsys.readouterr()
    for past in ("1e700", "1e-700", "1e1000000"):
        start = time.perf_counter()
        assert main(["nonarch", "--type", "II", "--params", past]) == 2
        assert time.perf_counter() - start < 1
        assert capsys.readouterr() == (
            "", f"error: bad rational '{past}': '{past}' spells more than 700 digits\n"
        )


def test_graph_file_past_the_digit_bound_after_smoothing_exits_2(tmp_path, capsys):
    """Type VII with each edge cut into 8 pieces of accepted length
    1/(10^600 + k), k odd: the merged lengths pass the digit bound, so
    `nonarch` refuses the file with one line naming the edge, before any
    report is computed, where it used to fail at Python's 4300-digit
    print limit."""
    vertices, edges, k = [("u", 0), ("v", 0)], [], 1
    for e in "abc":
        chain = ["u"] + [f"{e}{i}" for i in range(7)] + ["v"]
        vertices += [(v, 0) for v in chain[1:-1]]
        for i in range(8):
            edges.append((f"{e}-{i}", chain[i], chain[i + 1], Fraction(1, 10**600 + k)))
            k += 2
    path = tmp_path / "wide.json"
    save_graph(str(path), PMGraph(vertices, edges))
    start = time.perf_counter()
    assert main(["nonarch", str(path)]) == 2
    assert time.perf_counter() - start < 1
    assert capsys.readouterr() == (
        "", "error: the merged length of edge 'a-0' spells more than 700 digits\n"
    )


def test_nonarch_wrong_genus_exits_3(tmp_path, capsys):
    circle = PMGraph([("v", 0)], [("e", "v", "v", Fraction(1))])
    path = tmp_path / "circle.json"
    save_graph(str(path), circle)
    assert main(["nonarch", str(path)]) == 3
    assert "genus 1" in capsys.readouterr().err


def test_nonarch_parse_failures_exit_2(tmp_path, capsys):
    assert main(["nonarch"]) == 2
    assert main(["nonarch", "--type", "II", "--params", "0"]) == 2
    assert main(["nonarch", "--type", "II", "--params", "1,2"]) == 2
    assert main(["nonarch", "--type", "II", "--params", "x"]) == 2
    assert main(["nonarch", "--type", "II", "--params", "-3"]) == 2
    assert main(["nonarch", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    assert main(["nonarch", str(bad)]) == 2
    graph = tmp_path / "g.json"
    save_graph(str(graph), PMGraph([("v", 2)]))
    assert main(["nonarch", str(graph), "--type", "I"]) == 2
    capsys.readouterr()
    # a boolean genus is not an int, though Python's bool subclasses int
    boolean = tmp_path / "bool-genus.json"
    boolean.write_text(json.dumps({
        "vertices": [{"id": "u", "genus": True}, {"id": "w", "genus": 1}],
        "edges": [{"id": "e", "from": "u", "to": "w", "length": "1"}],
    }))
    assert main(["nonarch", str(boolean)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_nonarch_params_without_type_exit_2(tmp_path, capsys):
    """A graph file carries its own lengths: --params beside it, even an
    empty one, is refused with one `error:` line, not ignored."""
    graph = tmp_path / "vii.json"
    save_graph(str(graph), graph_of_type(FiberType("VII", (1, 2, 3))))
    assert main(["nonarch", str(graph)]) == 0
    capsys.readouterr()
    for params in ("1,2", ""):
        assert main(["nonarch", str(graph), "--params", params]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("params", ["1,,2", ",1,2,", "1,2,"])
def test_nonarch_empty_params_field_exits_2(params, capsys):
    """An empty field among the parameters is bad input, not a dropped
    one (an empty --params alone, type I's golden run, means none)."""
    assert main(["nonarch", "--type", "IV", "--params", params]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_nonarch_genus0_leaf_exits_2(tmp_path, capsys):
    # II(1) with a genus-0 leaf: K(leaf) = -1, so it is no pm-graph
    path = tmp_path / "leaf.json"
    save_graph(str(path), PMGraph([("u", 1), ("w", 1), ("leaf", 0)],
                                  [("e", "u", "w", 1), ("h", "w", "leaf", 1)]))
    assert main(["nonarch", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: vertex 'leaf' ")


def test_nonarch_disconnected_graph_file_exits_2(tmp_path, capsys):
    path = tmp_path / "disconnected.json"
    path.write_text(json.dumps({
        "vertices": [{"id": "u", "genus": 1}, {"id": "w", "genus": 1}],
        "edges": [],
    }))
    assert main(["nonarch", str(path)]) == 2
    assert capsys.readouterr().err == "error: the graph is not connected\n"


def test_nonarch_unhashable_vertex_id_exits_2(tmp_path, capsys):
    path = tmp_path / "list-id.json"
    path.write_text(json.dumps({"vertices": [{"id": ["v"], "genus": 2}], "edges": []}))
    assert main(["nonarch", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_too_deeply_nested_files_exit_2(tmp_path, capsys):
    # past the JSON decoder's recursion limit: an input error, not a traceback
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    for argv in (["nonarch", str(path)], ["arch", str(path)]):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2


def test_a_closed_stdout_exits_0_silently(monkeypatch, capsys):
    """A reader that went away (`g2inv verify | head -1`) is no bad input:
    `main` returns 0, writes nothing to stderr, and leaves stdout on the
    null device, so closing it raises nothing."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    with open(write_end, "w") as closed_pipe:
        monkeypatch.setattr(sys, "stdout", closed_pipe)
        assert main(["verify", "--samples", "1"]) == 0
        monkeypatch.undo()
    assert capsys.readouterr().err == ""


def test_a_closed_stdout_leaves_no_exception_at_exit():
    """The same through a fresh, block-buffered interpreter, whose output
    would otherwise fail only in the flush at exit."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    env.pop("PYTHONUNBUFFERED", None)
    argv = [sys.executable, "-m", "g2inv.cli", "verify", "--samples", "1"]
    with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        proc.stdout.close()
        err = proc.stderr.read()
    assert proc.returncode == 0
    assert err == b""


def test_one_parser_serves_every_call(capsys):
    """`main` builds its parser once per process: a structured call and an
    argparse error (exit 2) in between leave later outputs as they were."""
    assert cli._build_parser() is cli._build_parser()
    human = ["nonarch", "--type", "VII", "--params", "1,2,3"]
    calls = [human, [*human, "--format", "structured"], ["verify", "--samples", "2"]]

    def output(argv):
        assert main(argv) == 0
        return capsys.readouterr().out

    first = [output(argv) for argv in calls]
    with pytest.raises(SystemExit) as info:
        main(["nonarch", "--format", "xml"])
    assert info.value.code == 2
    assert [output(argv) for argv in calls] == first


def test_arch_structured_output_round_trips(tau_file, capsys):
    args = [
        "arch", tau_file,
        "--samples", "20000",
        "--seed", "6",
        "--target-stderr", "0.01",
        "--format", "structured",
    ]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    assert list(doc) == [
        "log_delta2", "log_h", "log_h_stderr", "delta_f", "log_s", "phi", "phi_stderr",
        "lambda", "residual", "rejected",
        "samples", "seed", "method", "workers", "tolerance", "target_stderr",
    ]
    report = arch_from_dict(doc)
    assert report.phi > 0
    assert doc["seed"] == 6
    assert doc["samples"] == 20000
    assert doc["method"] == "monte-carlo"
    assert json.dumps(arch_from_dict(json.loads(first)).__dict__["phi"]) == json.dumps(report.phi)
    # --workers is echoed and changes no work: apart from that field the
    # bytes are those of --workers 1, for either method
    for method in ("monte-carlo", "lattice-rule"):
        outs = {}
        for workers in ("1", "2"):
            assert main(args + ["--method", method, "--workers", workers]) == 0
            outs[workers] = capsys.readouterr().out
        assert json.loads(outs["2"])["workers"] == 2
        assert outs["2"].replace('"workers": 2', '"workers": 1') == outs["1"]


def test_arch_reports_config_for_reproducibility(tau_file, capsys):
    assert (
        main(
            [
                "arch", tau_file,
                "--samples", "20000",
                "--seed", "2",
                "--method", "lattice-rule",
                "--target-stderr", "0.01",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    for key in ("log_delta2", "log_h", "delta_f", "log_s", "phi", "lambda",
                "residual", "seed", "method", "tolerance"):
        assert key in out
    # `+- e` after exactly the fields that move with log_h: e is the
    # field's coefficient on log||H|| in absolute value times log_h_stderr
    lines = dict(line.split(None, 1) for line in out.splitlines())
    stderr = float(lines["log_h_stderr"])
    errors = {key: text.split(" +- ")[1] for key, text in lines.items() if " +- " in text}
    assert errors == {key: repr(factor * stderr) for key, factor in
                      (("log_h", 1), ("delta_f", 4), ("log_s", 4), ("phi", 10))}
    assert errors["phi"] == lines["phi_stderr"]


def test_arch_degenerate_exits_5(tmp_path, capsys):
    path = tmp_path / "ii.json"
    save_tau(str(path), SiegelMatrix(1j * np.eye(2)))
    assert main(["arch", str(path), "--samples", "10000"]) == 5
    err = capsys.readouterr().err
    assert "[1/2 1/2; 1/2 1/2]" in err


def test_arch_unreachable_target_exits_6(tau_file, capsys):
    code = main(["arch", tau_file, "--samples", "10000", "--target-stderr", "1e-12"])
    assert code == 6
    capsys.readouterr()


def test_arch_validation_exits_2(tmp_path, tau_file, capsys):
    assert main(["arch", str(tmp_path / "absent.json")]) == 2
    assert main(["arch", tau_file, "--samples", "5000"]) == 2
    short = tmp_path / "short.json"
    short.write_text('{"tau": ["1i", "0"]}')
    assert main(["arch", str(short)]) == 2
    skew = tmp_path / "skew.json"
    skew.write_text('{"tau": ["1i", "0.2", "0.3", "1i"]}')
    assert main(["arch", str(skew)]) == 2
    capsys.readouterr()
    # a NaN or infinite target would switch the stderr gate off
    for bad in ("nan", "inf"):
        assert main(["arch", tau_file, "--samples", "10000", "--target-stderr", bad]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "finite" in captured.err
        assert captured.out == ""
    # a negative seed is refused with a message that names the seed
    assert main(["arch", tau_file, "--samples", "10000", "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "seed" in captured.err
    assert captured.out == ""


def test_arch_samples_above_the_cap_exit_2(tau_file, capsys, monkeypatch):
    """A sample count above MAX_SAMPLES is refused before any array is
    made: exit 2 with one `error:` line, no traceback.  10^18 samples would
    ask for 111 PiB of base points; MAX_SAMPLES itself is accepted."""
    def no_points(*args):
        raise AssertionError("base points drawn for a refused sample count")

    monkeypatch.setattr(g2inv.theta_surface, "_base_points", no_points)
    QuadratureConfig(n_samples=MAX_SAMPLES)
    for samples in (MAX_SAMPLES + 1, 10**18):
        assert main(["arch", tau_file, "--samples", str(samples)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: samples must be at most {MAX_SAMPLES} (the base points and sums "
            f"take about 0.19 bytes per sample), got {samples}\n"
        )
        assert captured.out == ""


def test_arch_non_finite_entry_exits_2(tmp_path, capsys):
    path = tmp_path / "nan.json"
    path.write_text('{"tau": ["0.1+1.2i", "nan+0.3i", "nan+0.3i", "0.2+1.1i"]}')
    assert main(["arch", str(path), "--samples", "10000"]) == 2
    err = capsys.readouterr().err
    assert "finite" in err
    assert "truncation radius" not in err


def test_arch_huge_finite_entry_exits_5_without_warnings(tmp_path, capsys):
    # Y11 = 1e308 is finite: the reduction must not overflow it to inf, and
    # the theta terms it sends to exp(-inf) vanish without a warning.  With
    # both diagonal entries 1e308 the nearest-corner term Y11 + 2 Y12 + Y22
    # overflows too: still one stderr line and no warning
    path = tmp_path / "huge.json"
    for y11, y22 in (("1e308i", "1.2i"), ("0.5+1e308i", "1e308i")):
        path.write_text(f'{{"tau": ["{y11}", "0.1+0.2i", "0.1+0.2i", "{y22}"]}}')
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["arch", str(path), "--samples", "10000"]) == 5
        err = capsys.readouterr().err
        assert "[0 1/2; 0 0]" in err
        assert err.startswith("degenerate surface: ") and err.count("\n") == 1


def test_arch_kernel_check_out_of_float_range_exits_6(tmp_path, capsys):
    # at Y = [[240, -120], [-120, 240]] the kernel route of log_delta2 sums
    # exp(2 pi |Y12|) past the float range: no disagreement (exit 4) but an
    # unstable sum, exit 6 as log_h gives for it, naming tau
    path = tmp_path / "wide.json"
    path.write_text('{"tau": ["0.1+240i", "0.3-120i", "0.3-120i", "-0.15+240i"]}')
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["arch", str(path), "--samples", "10000"]) == 6
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("quadrature failed: log||theta|| left floating-point range at ")
    assert "SiegelMatrix([[(0.1+240j), (0.3-120j)]" in captured.err and captured.err.count("\n") == 1


def test_arch_tiny_diagonal_tau_exits_5_without_warnings(tmp_path, capsys):
    # diag(1e-300 i, 1e-300 i) is a valid product of elliptic curves: the
    # reduction must reach the theta-null check without underflowing to NaN
    path = tmp_path / "tiny.json"
    path.write_text('{"tau": ["1e-300i", "0", "0", "1e-300i"]}')
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["arch", str(path), "--samples", "10000"]) == 5
    err = capsys.readouterr().err
    assert "is below 1e-08" in err and "at or near the locus of products" in err


@pytest.mark.parametrize("entries", [
    '["1e-310i", "0", "0", "1e-310i"]',
    '["1e-320i", "0", "0", "1i"]',
])
def test_arch_subnormal_tau_exits_2_without_warnings(entries, tmp_path, capsys):
    # Y^-1 of a subnormal Im tau overflows: refused as input, before any
    # reduction step turns it into NaN
    path = tmp_path / "subnormal.json"
    path.write_text(f'{{"tau": {entries}}}')
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["arch", str(path), "--samples", "10000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: Im tau is too small to invert")
    assert "NaN" not in captured.err


def test_arch_workers_below_one_exits_2(tau_file, capsys):
    for workers in ("0", "-3"):
        assert main(["arch", tau_file, "--samples", "10000", "--workers", workers]) == 2
        captured = capsys.readouterr()
        assert "--workers" in captured.err
        assert captured.out == ""


def _arch_doc(path, capsys, samples=10000):
    args = ["arch", str(path), "--samples", str(samples), "--seed", "4", "--format", "structured"]
    assert main(args) == 0
    return json.loads(capsys.readouterr().out)


def _within(a, a_err, b, b_err):
    return abs(a - b) < 10 * math.hypot(a_err, b_err)


def _brute_log_delta2(tau: SiegelMatrix, box: int) -> float:
    """log||Delta_2|| from the mpmath sums of `brute_theta` at 40 digits."""
    with mpmath.workdps(40):
        total = -12 * mpmath.log(2) + 5 * mpmath.log(tau.det_y)
        for a, b in EVEN_CHARS:
            total += 2 * mpmath.log(abs(brute_theta(a, b, tau, box)))
    return float(total)


@pytest.mark.parametrize("eps", [1e-2, 1e-3, 1e-4, 1e-5, 1e-6])
def test_arch_near_the_product_locus(tmp_path, capsys, eps):
    """tau = [[0.1 + 1.1i, eps (1 + i)], [., -0.15 + 1.3i]], reduced, tends
    to a product of elliptic curves as eps -> 0, where the null
    [1/2 1/2; 1/2 1/2] vanishes: it is 1.35 eps here, 8.9 eps of its
    largest term 0.15, so above NULL_FLOOR down to eps = 1e-6.  `arch`
    exits 0 and its log_delta2 matches the mpmath sums within 1e-13 +
    1e-15 / eps.  That bound is the cancellation: a rounding delta in the
    null's sum moves 2 log|theta| by 2 delta / (1.35 eps), and delta up to
    6.7e-16, a few ulp of its terms, gives 1e-15 / eps (1.8e-10 was seen
    at 1e-6); the other nine nulls add far less than 1e-13.  A second route
    through Riemann's duplication formula at 2 tau, whose squares cancel
    like eps^2 where the nulls cancel like eps, loses these taus: it
    disagreed with the nulls past 1e-9 at eps = 1e-5 and 1e-6."""
    path = tmp_path / "near-product.json"
    off = f"{eps!r}+{eps!r}i"
    path.write_text(json.dumps({"tau": ["0.1+1.1i", off, off, "-0.15+1.3i"]}))
    doc = _arch_doc(path, capsys)
    tau = SiegelMatrix([[0.1 + 1.1j, eps * (1 + 1j)], [eps * (1 + 1j), -0.15 + 1.3j]])
    assert abs(doc["log_delta2"] - _brute_log_delta2(tau, 12)) < 1e-13 + 1e-15 / eps


def test_arch_at_y_300(tmp_path, capsys):
    """tau = [[0.1 + 300i, 0.3 + 0.2i], [., -0.15 + 300i]]: its nulls with a
    != 0 are as small as 5e-205, all of them far above NULL_FLOOR of their
    largest terms.  `arch` exits 0 and its log_delta2, about -3711.4,
    matches the mpmath sums within 1e-12 relative, a few roundings of each
    log (a box of radius 3 is ample at Y = 300: the terms it leaves out are
    below exp(-11000) of the largest)."""
    path = tmp_path / "y300.json"
    path.write_text('{"tau": ["0.1+300i", "0.3+0.2i", "0.3+0.2i", "-0.15+300i"]}')
    doc = _arch_doc(path, capsys)
    reference = _brute_log_delta2(SiegelMatrix([[0.1 + 300j, 0.3 + 0.2j], [0.3 + 0.2j, -0.15 + 300j]]), 3)
    assert abs(doc["log_delta2"] - reference) < 1e-12 * abs(reference)


def test_arch_on_squashed_tau(tmp_path, capsys):
    """A tau that needs truncation radius 53 where it stands: `arch`
    reduces it first and must agree with sums taken at the tau itself."""
    t = np.array([[0.3 + 0.004j, 0.2 + 0.001j], [0.2 + 0.001j, 0.1 + 3j]])
    squashed = SiegelMatrix(t)
    path = tmp_path / "squashed.json"
    save_tau(str(path), squashed)
    doc = _arch_doc(path, capsys)

    radius = _truncation_radius(squashed.min_eigenvalue, DEFAULT_THETA_TOL)
    assert radius == 53
    nulls = _theta_scaled((_EVEN_A, _EVEN_B), squashed, radius)
    direct = -12 * math.log(2) + 5 * math.log(squashed.det_y) + 2 * float(np.sum(np.log(np.abs(nulls))))
    assert abs(doc["log_delta2"] - direct) < 1e-9
    ref_h, ref_err = reference_log_h(t, 1000, seed=1)
    assert _within(doc["log_h"], doc["log_h_stderr"], ref_h, ref_err)
    assert _within(doc["phi"], doc["phi_stderr"], -0.5 * direct + 10 * ref_h, 10 * ref_err)


def test_arch_on_shear_image_over_the_radius_cap(tmp_path, capsys):
    """A shear image U tau U' squashed past truncation radius 64 where it
    stands gives its preimage's invariants."""
    pre = random_tau(random.Random(64))
    for k in range(1, 400):
        u = np.array([[1, k], [0, 1]]) @ np.array([[1, 0], [1, 1]])
        image = SiegelMatrix(u @ pre.matrix @ u.T)
        if _truncation_radius(image.min_eigenvalue, DEFAULT_THETA_TOL) > 64:
            break
    else:
        pytest.fail("no shear image over the radius cap")
    save_tau(str(tmp_path / "pre.json"), pre)
    save_tau(str(tmp_path / "image.json"), image)
    want = _arch_doc(tmp_path / "pre.json", capsys)
    got = _arch_doc(tmp_path / "image.json", capsys)
    assert abs(got["log_delta2"] - want["log_delta2"]) < 1e-9
    assert _within(got["log_h"], got["log_h_stderr"], want["log_h"], want["log_h_stderr"])
    assert _within(got["phi"], got["phi_stderr"], want["phi"], want["phi_stderr"])


def test_tolerance_env_var(tau_file, capsys, monkeypatch):
    """The archimedean tolerances are constants: the former G2INV_TOL
    variable, a number or not, changes nothing, and the report's
    `tolerance` field is the fixed 1e-10."""
    args = ["arch", tau_file, "--samples", "20000", "--target-stderr", "0.01",
            "--format", "structured"]
    monkeypatch.delenv("G2INV_TOL", raising=False)
    assert main(args) == 0
    want = capsys.readouterr().out
    assert json.loads(want)["tolerance"] == 1e-10
    for value in ("1e-8", "banana"):
        monkeypatch.setenv("G2INV_TOL", value)
        assert main(args) == 0
        captured = capsys.readouterr()
        assert captured.out == want and captured.err == ""


def test_verify_is_seeded_and_exact(capsys):
    assert main(["verify", "--samples", "3", "--seed", "9"]) == 0
    first = capsys.readouterr().out
    assert first.count("3/3 pass") == 7
    assert main(["verify", "--samples", "3", "--seed", "9"]) == 0
    assert capsys.readouterr().out == first


def test_verify_zero_samples_is_vacuous_pass(capsys):
    assert main(["verify", "--samples", "0"]) == 0
    out = capsys.readouterr().out
    assert out.count("0/0 pass") == 7


# every cell of the seven-type table, as `table` prints it
TABLE_ROWS = [
    ("I", "0", "0", "0", "0", "0", "0"),
    ("II(a)", "0", "a", "2*a", "a", "a", "a/5"),
    ("III(a)", "a", "0", "0", "a/6", "a/12", "a/10"),
    ("IV(a, b)", "b", "a", "2*a", "a + b/6", "a + b/12", "a/5 + b/10"),
    ("V(a, b)", "a + b", "0", "0", "a/6 + b/6", "a/12 + b/12", "a/10 + b/10"),
    (
        "VI(a, b, c)", "b + c", "a", "2*a", "a + b/6 + c/6", "a + b/12 + c/12",
        "a/5 + b/10 + c/10",
    ),
    (
        "VII(a, b, c)",
        "a + b + c",
        "0",
        "2*a*b*c/(a*b + a*c + b*c)",
        "(a**2*b + a**2*c + a*b**2 + 4*a*b*c + a*c**2 + b**2*c + b*c**2)"
        "/(6*a*b + 6*a*c + 6*b*c)",
        "(a**2*b + a**2*c + a*b**2 - 2*a*b*c + a*c**2 + b**2*c + b*c**2)"
        "/(12*a*b + 12*a*c + 12*b*c)",
        "a/10 + b/10 + c/10",
    ),
]


def test_table_structured(capsys):
    assert main(["table", "--format", "structured"]) == 0
    doc = json.loads(capsys.readouterr().out)
    columns = ("type", "delta0", "delta1", "rKK", "epsilon", "phi", "lambda")
    assert [tuple(row[c] for c in columns) for row in doc["rows"]] == TABLE_ROWS
    assert all(list(row) == list(columns) for row in doc["rows"])


def test_table_mismatch_exits_4(monkeypatch, capsys):
    import g2inv.cli

    def skewed(fiber):  # phi off by a^2 from type II on
        report = g2inv.fiber_catalog.closed_form(fiber)
        if not fiber.params:
            return report
        return dataclasses.replace(report, phi=report.phi + fiber.params[0] ** 2)

    monkeypatch.setattr(g2inv.cli, "closed_form", skewed)
    assert main(["table"]) == 4
    assert "symbolic table row II(a): phi" in capsys.readouterr().err


def test_nonarch_skewed_tau_exits_4(tmp_path, skewed_tau, capsys):
    """A wrong tau route fails the comparison with the closed form: exit 4,
    the field named, nothing on stdout, and the graph dumped."""
    path = tmp_path / "vii.json"
    save_graph(str(path), graph_of_type(FiberType("VII", (1, 2, 3))))
    assert main(["nonarch", str(path)]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("internal cross-check failed: VII(1, 2, 3): epsilon is ")
    assert "offending graph:" in err


def test_table_skewed_tau_exits_4(skewed_tau, capsys):
    assert main(["table"]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("internal cross-check failed: symbolic table row I: epsilon is ")
    assert "Traceback" not in err


@pytest.mark.parametrize("skewed", ["_tau", "resistance_pairing"])
def test_verify_mismatch_exits_7(skewed, monkeypatch, capsys):
    """tau or r(K, K) one too large reaches `verify` as a disagreement with
    the closed form on every type: MISMATCH lines, FAIL, exit 7."""
    import g2inv.pm_invariants

    right = getattr(g2inv.pm_invariants, skewed)
    monkeypatch.setattr(g2inv.pm_invariants, skewed, lambda *args: right(*args) + 1)
    assert main(["verify", "--samples", "1"]) == 7
    out, err = capsys.readouterr()
    assert out.count("MISMATCH") == 7 and out.count("0/1 FAIL") == 7
    assert err == ""


# recorded outputs of every graph command: the seven types at fixed
# rational lengths, the symbolic table in both formats, and a verify sweep
GOLDEN = {
    **{
        f"nonarch-{tag}.json": ["nonarch", "--type", tag, "--params", params,
                                "--format", "structured"]
        for tag, params in [("I", ""), ("II", "3/2"), ("III", "2/7"), ("IV", "3/2,5/3"),
                            ("V", "1/2,7/4"), ("VI", "2,3/5,7/3"), ("VII", "3/2,5/7,11/3")]
    },
    "table.json": ["table", "--format", "structured"],
    "table.txt": ["table"],
    "verify-20.txt": ["verify", "--samples", "20"],
}


@pytest.mark.parametrize("name", GOLDEN)
def test_output_matches_golden_file(name, capsys):
    assert main(GOLDEN[name]) == 0
    want = (Path(__file__).parent / "data" / name).read_bytes()
    assert capsys.readouterr().out.encode() == want


def test_arch_human_output_matches_golden_file(tmp_path, capsys):
    """`arch` in human form on the CI tau (seed 0, lattice rule, 10^4
    samples) against tests/data/arch-human.txt: the labels, the layout and
    the four `+-` lines exactly, every float within 1e-12 relative, so that
    last-bit differences between BLAS builds cannot fail it.  The residual,
    which measures rounding only and reads 0.0 here, is held to 1e-12
    absolute instead."""
    path = tmp_path / "tau.json"
    path.write_text(json.dumps({"tau": ["0.1+1.1i", "0.2+0.3i", "0.2+0.3i", "-0.15+1.3i"]}))
    args = ["arch", str(path), "--samples", "10000", "--seed", "0", "--method", "lattice-rule"]
    assert main(args) == 0
    got = capsys.readouterr().out.splitlines()
    want = (Path(__file__).parent / "data" / "arch-human.txt").read_text().splitlines()
    number = r"-?\d+\.\d+(?:e-?\d+)?"

    def layout(line: str) -> str:
        return re.sub(number, "#", line)

    assert [layout(line) for line in got] == [layout(line) for line in want]
    assert sum(" +- " in line for line in got) == 4
    for g, w in zip(got, want):
        label = w.split()[0]
        for a, b in zip(re.findall(number, g), re.findall(number, w)):
            bound = 1e-12 if label == "residual" else 1e-12 * abs(float(b))
            assert abs(float(a) - float(b)) <= bound, (label, a, b)
