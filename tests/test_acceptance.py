"""Acceptance suite: the package's headline guarantees, one test per criterion.

Each test prints one `[acceptance] ...: PASS/FAIL` line (visible with -s);
under plain pytest -v the per-test PASSED/FAILED line carries the same
information.  Exact criteria use rational equality with zero tolerance;
numerical criteria use the stated error budgets.
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from conftest import EdgePoint, rand_frac, subdivide, value_at
from oracles import DiscreteNetwork, admissible_measure, diagonal_green, green_function
from oracles import green_of_canonical
from test_properties import report_on_this_model
from test_theta_surface import ODD_CHARS, char_arrays, random_tau, shift_law_checks, stacked_nulls

from g2inv.cli import main
from g2inv.errors import DegenerateThetaNullError
from g2inv.fiber_catalog import ARITY, FiberType, closed_form, graph_of_type
from g2inv.formats import save_tau
from g2inv.metric_graph import PMGraph
from g2inv.pm_invariants import nonarch_report
from g2inv.theta_surface import (
    QuadratureConfig,
    SiegelMatrix,
    arch_invariants,
    log_delta2,
)

TAGS = ("I", "II", "III", "IV", "V", "VI", "VII")
_CACHE: dict = {}


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {name}: FAIL")
        raise
    print(f"[acceptance] {name}: PASS")


def sampled_rows():
    """7 types x 100 random tuples, num/den <= 1000: (fiber, pipeline, closed)."""
    if "rows" not in _CACHE:
        rng = random.Random(987123)
        rows = []
        start = time.perf_counter()
        for tag in TAGS:
            for _ in range(100):
                params = tuple(
                    Fraction(rng.randint(1, 1000), rng.randint(1, 1000))
                    for _ in range(ARITY[tag])
                )
                fiber = FiberType(tag, params)
                rows.append(
                    (fiber, nonarch_report(graph_of_type(fiber)), closed_form(fiber))
                )
        _CACHE["rows"] = rows
        _CACHE["elapsed"] = time.perf_counter() - start
    return _CACHE["rows"], _CACHE["elapsed"]


def relabeled(graph: PMGraph) -> PMGraph:
    return PMGraph(
        [(("n", v), graph.genus(v)) for v in graph.vertex_ids],
        [
            (("m", e), ("n", graph.edge_ends(e)[0]), ("n", graph.edge_ends(e)[1]), graph.edge_length(e))
            for e in graph.edge_ids
        ],
    )


def test_acceptance_01_table_reproduction():
    with criterion("1. table reproduction: (delta0, delta1, epsilon, phi) exact, 7x100 tuples, <30s"):
        rows, elapsed = sampled_rows()
        assert len(rows) == 700
        for fiber, got, want in rows:
            assert got.delta0 == want.delta0, fiber
            assert got.delta1 == want.delta1, fiber
            assert got.epsilon == want.epsilon, fiber
            assert got.phi == want.phi, fiber
        assert elapsed < 30, f"table sweep took {elapsed:.1f}s"


def test_acceptance_02_second_table():
    with criterion("2. second table: r(K,K) and epsilon exact on the same sampling"):
        rows, _ = sampled_rows()
        for fiber, got, want in rows:
            assert got.r_kk == want.r_kk, fiber
            assert got.epsilon == want.epsilon, fiber
        # spot value named in the closed forms: VII has r(K,K) = 2abc/(ab+bc+ca)
        vii = closed_form(FiberType("VII", (1, 1, 1)))
        assert vii.r_kk == Fraction(2, 3)


def test_acceptance_03_lambda_law():
    with criterion("3. 10*lambda = delta0 + 2*delta1, incl. subdivided and relabeled variants"):
        rows, _ = sampled_rows()
        for fiber, got, _want in rows:
            assert 10 * got.lambda_ == got.delta0 + 2 * got.delta1, fiber
        rng = random.Random(555)
        for tag in TAGS:
            for _ in range(2):
                params = tuple(rand_frac(rng) for _ in range(ARITY[tag]))
                base_graph = graph_of_type(FiberType(tag, params))
                base = nonarch_report(base_graph)
                cuts = {
                    e: [base_graph.edge_length(e) * Fraction(rng.randint(1, 3), 4)]
                    for e in base_graph.edge_ids
                }
                variants = [relabeled(base_graph)]
                if cuts:
                    variants.append(subdivide(base_graph, cuts))
                for graph in variants:
                    rep = nonarch_report(graph)
                    assert rep == base
                    assert 10 * rep.lambda_ == rep.delta0 + 2 * rep.delta1


def test_acceptance_04_phi_cross_check():
    with criterion("4. phi: integral route equals resistance route exactly on every sampled graph"):
        # the report takes phi from Cinkir's tau, a formula in resistances;
        # Zhang's integral route, on the Poisson route's resistances, must
        # give the same phi, and every other field, on every sampled graph
        rows, _ = sampled_rows()
        for fiber, got, _want in rows:
            assert report_on_this_model(graph_of_type(fiber)) == got, fiber


def test_acceptance_05_admissibility():
    with criterion("5. admissibility: g(x,x) + g(K,x) exactly constant (all edge coefficients zero)"):
        rng = random.Random(777)
        for tag in TAGS:
            for _ in range(5):
                params = tuple(rand_frac(rng) for _ in range(ARITY[tag]))
                graph = graph_of_type(FiberType(tag, params))
                mu = admissible_measure(graph)
                h = diagonal_green(graph, mu)[0] + green_of_canonical(graph, mu)
                for e in h.graph.edge_ids:
                    c2, c1, _c0 = h.coefficients(e)
                    assert c2 == 0 and c1 == 0, (tag, params, e)
                values = {h.value_at_vertex(v) for v in h.graph.vertex_ids}
                assert len(values) == 1, (tag, params)


def test_acceptance_06_discrete_oracle():
    with criterion("6. discrete oracle: II(1), III(1), VII(1,1,1), n=100, 10 pairs within 5/n, <10s"):
        start = time.perf_counter()
        n = 100
        rng = random.Random(31)
        for fiber in (FiberType("II", (1,)), FiberType("III", (1,)), FiberType("VII", (1, 1, 1))):
            graph = graph_of_type(fiber)
            mu = admissible_measure(graph)
            net = DiscreteNetwork(graph, n)
            greens = {
                v: green_function(graph, mu, v)
                for v in graph.vertex_ids
            }
            for _ in range(10):
                y = rng.choice(graph.vertex_ids)
                node = rng.choice(net.nodes)
                if isinstance(node, tuple):
                    e, k = node
                    point = EdgePoint(e, graph.edge_length(e) * Fraction(k, n))
                else:
                    point = node
                exact = float(value_at(greens[y], point))
                approx = net.green(mu, y)[net.index[node]]
                assert abs(approx - exact) < 5 / n, (fiber, y, node)
        elapsed = time.perf_counter() - start
        assert elapsed < 10, f"discrete oracle took {elapsed:.1f}s"


def test_acceptance_07_theta_sanity(rng):
    with criterion("7. theta sanity: closed-form null 1e-9, odd nulls 1e-10, quasi-periodicity 1e-10"):
        # all three through the stacked lattice sum that log_delta2 runs
        eye = SiegelMatrix(1j * np.eye(2))
        (value,) = stacked_nulls([(0, 0)], [(0, 0)], eye)
        target = float((mpmath.pi ** Fraction(1, 4) / mpmath.gamma(Fraction(3, 4))) ** 2)
        assert abs(value - target) < 1e-9

        for tau in (eye, random_tau(rng), random_tau(rng)):
            assert np.all(np.abs(stacked_nulls(*char_arrays(ODD_CHARS), tau)) < 1e-10)

        # theta[a+m; b+k](0) = exp(2 pi i a'k) theta[a; b](0), 100 checks
        shift_law_checks(rng, 100, 1e-10)


def test_acceptance_08_arch_identity_chain():
    with criterion("8. arch chain: residual < 12x propagated stderr, phi > 0, 10 tau at N=1e6, <5min"):
        start = time.perf_counter()
        rng = random.Random(2026)
        for i in range(10):
            tau = random_tau(rng)
            config = QuadratureConfig(n_samples=10**6, seed=100 + i)
            report = arch_invariants(tau, config)
            # 10*lambda recombined = phi/3 + (5/6) delta_F + const, so the
            # worst-case quadrature sensitivity is (10/3 + 10/3) per unit
            # of log_h stderr
            propagated = (Fraction(10, 3) + Fraction(10, 3)) * report.log_h_stderr
            assert report.residual < 12 * float(propagated), (i, report)
            assert report.phi > 0, (i, report)
        elapsed = time.perf_counter() - start
        assert elapsed < 300, f"arch chain sweep took {elapsed:.1f}s"


def test_acceptance_09_modular_invariance():
    with criterion("9. modular invariance: log_delta2, log_h, phi, lambda stable under tau -> tau + B"):
        rng = random.Random(4096)
        for i in range(5):
            tau = random_tau(rng)
            b01 = rng.randint(-3, 3)
            shift = np.array(
                [[rng.randint(-3, 3), b01], [b01, rng.randint(-3, 3)]], dtype=float
            )
            moved = SiegelMatrix(tau.matrix + shift)
            config = QuadratureConfig(n_samples=10**5, seed=300 + i)
            one = arch_invariants(tau, config)
            two = arch_invariants(moved, config)
            h_budget = 10 * (one.log_h_stderr + two.log_h_stderr)
            assert abs(one.log_delta2 - two.log_delta2) < max(1e-9, h_budget)
            assert abs(one.log_h - two.log_h) < h_budget
            assert abs(one.phi - two.phi) < 10 * (one.phi_stderr + two.phi_stderr)
            assert abs(one.lambda_ - two.lambda_) < max(1e-9, h_budget)


def test_acceptance_10_degeneracy(tmp_path, capsys):
    with criterion("10. degeneracy: tau = i*I raises DegenerateThetaNull, CLI exits 5, characteristic named"):
        eye = SiegelMatrix(1j * np.eye(2))
        with pytest.raises(DegenerateThetaNullError) as info:
            log_delta2(eye)
        char = info.value.characteristic
        assert char == "[1/2 1/2; 1/2 1/2]"
        assert char in str(info.value)

        path = tmp_path / "degenerate_tau.json"
        save_tau(str(path), eye)
        code = main(["arch", str(path), "--samples", "10000"])
        err = capsys.readouterr().err
        assert code == 5
        assert char in err
