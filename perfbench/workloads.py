"""The four workloads: their inputs, operations and output checks.

`WORKLOADS[name](seed, workdir)` writes a workload's input files and
returns its fixed list of operations and the inputs' properties.  Each operation is one `g2inv` command line
plus a check that compares the printed output with `oracles`; a check
returns the list of problems it found, empty when the output is right.
Reference values are computed by `Workload.references()`, after set-up
and outside every timed region.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

import inputs
import oracles

# Sample counts and lattice radii; perfbench/NOTES.md explains the sizing.
REDUCED_RADII = (4, 4)
REDUCED_SAMPLES = 200_000
REFERENCE_SAMPLES = 8_000
# (radius, samples, method, word) per unreduced image; word is applied to a
# fresh reduced preimage before the shear U tau U' that sets the radius
UNREDUCED_IMAGES = (
    (11, 50_000, "monte-carlo", "shear"),
    (17, 10_000, "lattice-rule", "translate"),
    (22, 10_000, "lattice-rule", "invert"),
)
TRANSLATION = np.array([[1.0, 0.0], [0.0, -1.0]])
WORD_TEXT = {"shear": "", "translate": "tau + diag(1, -1), then ", "invert": "-tau^-1, then "}
LOG_DELTA2_TOL = 1e-9
NONARCH_KEYS = ("genus", "delta0", "delta1", "rKK", "epsilon", "phi", "lambda")
TABLE_FIELDS = ("delta0", "delta1", "rKK", "epsilon", "phi", "lambda")


@dataclass
class Outcome:
    """What one command did: exit code, captured streams, escaped exception."""

    code: int | None
    stdout: str
    stderr: str
    exception: str | None = None


@dataclass
class Op:
    label: str
    argv: list[str]
    # check(outcome, parsed outputs of this pass's earlier ops) -> problems
    check: Callable[[Outcome, dict], list[str]]


@dataclass
class Workload:
    ops: list[Op]
    properties: dict  # what sets the cost: sizes, radii, sample counts
    # commands run once after the timed passes, outside every metric
    probes: list[Op] = field(default_factory=list)
    references: Callable[[], None] = lambda: None


def _json_output(outcome: Outcome) -> dict:
    if outcome.exception is not None:
        raise ValueError(f"raised {outcome.exception}")
    if outcome.code != 0:
        raise ValueError(f"exit {outcome.code}: {outcome.stderr.strip()[-300:]}")
    return json.loads(outcome.stdout)


def _guarded(check):
    """Turn an unparsable output or a missing field into a reported problem."""

    def wrapper(outcome: Outcome, earlier: dict) -> list[str]:
        try:
            return check(outcome, earlier)
        except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
            return [f"{type(exc).__name__}: {exc}"]

    return wrapper


# ---------------------------------------------------------------- graph-subdivided


def _graph_check(tag: str, params) -> Callable:
    want = oracles.closed_form(tag, params)

    @_guarded
    def check(outcome: Outcome, earlier: dict) -> list[str]:
        doc = _json_output(outcome)
        problems = []
        for key in NONARCH_KEYS:
            got = doc[key] if key == "genus" else Fraction(doc[key])
            if got != want[key]:
                problems.append(f"{key}={doc[key]}, closed form {want[key]}")
        return problems

    return check


def graph_subdivided(seed: int, workdir: Path) -> Workload:
    ops, props = [], []
    for case in inputs.graph_cases(seed):
        path = workdir / f"graph-{case['name']}.json"
        inputs.write_json(path, case["document"])
        ops.append(
            Op(
                case["name"],
                ["nonarch", str(path), "--format", "structured"],
                _graph_check(case["tag"], case["params"]),
            )
        )
        props.append({k: case[k] for k in ("name", "vertices", "edges")})
    return Workload(ops, {"graphs": props})


# ---------------------------------------------------------------- table-symbolic


def _table_check(points) -> Callable:
    @_guarded
    def check(outcome: Outcome, earlier: dict) -> list[str]:
        rows = _json_output(outcome)["rows"]
        tags = [row["type"].split("(")[0] for row in rows]
        if tags != list(oracles.TABLE_ARITY):
            return [f"rows are {tags}, want {list(oracles.TABLE_ARITY)}"]
        problems = []
        for row, tag in zip(rows, tags):
            arity = oracles.TABLE_ARITY[tag]
            names = "abc"[:arity]
            label = f"{tag}({', '.join(names)})" if arity else tag
            if row["type"] != label:
                problems.append(f"row label {row['type']!r}, want {label!r}")
            for point in points:
                values = dict(zip(names, point))
                want = oracles.closed_form(tag, point[:arity])
                for key in TABLE_FIELDS:
                    got = oracles.evaluate(row[key], values)
                    if got != want[key]:
                        problems.append(f"{tag} {key} at {values}: {got} != {want[key]}")
        return problems

    return check


def table_symbolic(seed: int, workdir: Path) -> Workload:
    points = inputs.table_points(seed)
    op = Op("table", ["table", "--format", "structured"], _table_check(points))
    return Workload(
        [op],
        {"rows": 7, "graph_vertices": "1-2", "check_points": [[str(x) for x in p] for p in points]},
    )


# ---------------------------------------------------------------- arch workloads


def _arch_argv(path: Path, samples: int, method: str, seed: int) -> list[str]:
    return [
        "arch", str(path),
        "--samples", str(samples),
        "--seed", str(seed),
        "--method", method,
        "--workers", "1",
        "--format", "structured",
    ]


def _arch_check(label: str, ref: dict, key: str, pair: str | None = None) -> Callable:
    """Check the arch report of op `label` against the reference of its
    (pre)image `key`.

    `ref[key]` is filled in by the workload's references() before any op
    runs.  `pair` names an earlier op on the same tau whose log_h must
    agree within 10x the combined standard error.
    """

    @_guarded
    def check(outcome: Outcome, earlier: dict) -> list[str]:
        doc = _json_output(outcome)
        want = ref[key]
        problems = oracles.arch_identity_errors(doc)
        if not abs(doc["log_delta2"] - want["log_delta2"]) <= LOG_DELTA2_TOL:
            problems.append(
                f"log_delta2={doc['log_delta2']!r}, lattice-sum reference {want['log_delta2']!r}"
            )
        if not oracles.within_stderr(doc["phi"], doc["phi_stderr"], want["phi"], want["phi_stderr"]):
            problems.append(
                f"phi={doc['phi']!r} +- {doc['phi_stderr']!r}, reference "
                f"{want['phi']!r} +- {want['phi_stderr']!r}"
            )
        if not doc["phi"] > 0:
            problems.append(f"phi={doc['phi']!r} is not positive")
        if pair is not None:
            other = earlier.get(pair)
            if other is None:
                problems.append(f"no result from {pair} to compare log_h with")
            elif not oracles.within_stderr(
                doc["log_h"], doc["log_h_stderr"], other["log_h"], other["log_h_stderr"]
            ):
                problems.append(
                    f"log_h={doc['log_h']!r} +- {doc['log_h_stderr']!r} disagrees with "
                    f"{pair}: {other['log_h']!r} +- {other['log_h_stderr']!r}"
                )
        earlier[label] = doc
        return problems

    return check


def _references(ref: dict, taus: dict, seed: int) -> Callable[[], None]:
    def compute() -> None:
        for index, (key, tau) in enumerate(sorted(taus.items())):
            ref[key] = oracles.arch_reference(tau, REFERENCE_SAMPLES, seed=[seed, index])

    return compute


def arch_reduced(seed: int, workdir: Path) -> Workload:
    ref: dict = {}
    taus, ops, props = {}, [], []
    for index, tau in enumerate(inputs.reduced_taus(seed, REDUCED_RADII)):
        key = f"tau{index}"
        path = workdir / f"{key}.json"
        document = inputs.tau_document(tau)
        inputs.write_json(path, document)
        taus[key] = inputs.parse_tau(document)
        mc, lattice = f"{key}-monte-carlo", f"{key}-lattice-rule"
        ops.append(Op(mc, _arch_argv(path, REDUCED_SAMPLES, "monte-carlo", seed), _arch_check(mc, ref, key)))
        ops.append(
            Op(
                lattice,
                _arch_argv(path, REDUCED_SAMPLES, "lattice-rule", seed),
                _arch_check(lattice, ref, key, pair=mc),
            )
        )
        props.append({"tau": key, "radius": inputs.truncation_radius(tau), "samples": REDUCED_SAMPLES})
    return Workload(ops, {"taus": props}, references=_references(ref, taus, seed))


def _overcap_check(ref: dict, key: str) -> Callable:
    """Today's program refuses the over-cap image with exit 2; a program
    that reduces tau first must instead return the preimage's values."""
    computed = _arch_check("overcap", ref, key)

    def check(outcome: Outcome, earlier: dict) -> list[str]:
        if outcome.code == 2 and "truncation radius exceeds" in outcome.stderr:
            return []
        return computed(outcome, earlier)

    return check


def arch_unreduced(seed: int, workdir: Path) -> Workload:
    rng = random.Random(f"arch-unreduced:{seed}")
    ref: dict = {}
    preimages, ops, props, probes = {}, [], [], []
    for index, (radius, samples, method, word) in enumerate(UNREDUCED_IMAGES):
        while True:
            pre = inputs.parse_tau(inputs.tau_document(inputs.random_reduced_tau(rng)))
            start = {"shear": pre, "translate": pre + TRANSLATION, "invert": inputs.invert(pre)}[word]
            found = inputs.image_with_radius(start, radius)
            if found is not None:
                break
        image, (j, k) = found
        key = f"pre{index}"
        preimages[key] = pre
        path = workdir / f"image{index}.json"
        inputs.write_json(path, inputs.tau_document(image))
        label = f"image{index}-r{radius}"
        ops.append(Op(label, _arch_argv(path, samples, method, seed), _arch_check(label, ref, key)))
        props.append(
            {"image": index, "word": f"{WORD_TEXT[word]}shear(j={j}, k={k})", "radius": radius,
             "samples": samples, "method": method}
        )
        if index == 0:
            over, (j, k) = inputs.image_with_radius(pre, None)
            path = workdir / "image-overcap.json"
            inputs.write_json(path, inputs.tau_document(over))
            probes.append(Op("overcap", _arch_argv(path, 10_000, "lattice-rule", seed), _overcap_check(ref, key)))
            overcap = {"word": f"shear(j={j}, k={k}) of pre0", "radius": "over the cap of 64", "samples": 10_000}
    return Workload(
        ops,
        {"images": props, "probe": overcap},
        probes=probes,
        references=_references(ref, preimages, seed),
    )


WORKLOADS = {
    "graph-subdivided": graph_subdivided,
    "table-symbolic": table_symbolic,
    "arch-reduced": arch_reduced,
    "arch-unreduced": arch_unreduced,
}
