"""Command-line front end.

Subcommands: `nonarch` (graph file or named fiber type to exact
invariants), `arch` (period-matrix file to the archimedean chain),
`table` (regenerate the seven-type table symbolically through the full
pipeline), `verify` (random exact agreement sweep between the pipeline
and the closed forms).

Exit codes are a stable contract (raised errors map to theirs in `EXITS`):
  0 success, 2 parse/validation error, 3 genus != 2, 4 internal
  cross-check failure, 5 degenerate theta-null, 6 unstable quadrature,
  7 verify found a mismatch.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
from fractions import Fraction

from .errors import (
    DegenerateThetaNullError,
    FormulaMismatchError,
    InvalidParamsError,
    QuadratureUnstableError,
    UnclassifiableError,
)
from .exact import rational_function_field
from .fiber_catalog import ARITY, FiberType, classify, closed_form, graph_of_type
from .formats import (
    NONARCH_KEYS,
    arch_to_dict,
    graph_to_dict,
    load_graph,
    load_tau,
    nonarch_to_dict,
    parse_rational,
    render,
    render_table,
)
from .metric_graph import smooth
from .pm_invariants import nonarch_report, total_genus

TAGS = tuple(ARITY)
# bad input: the package raises ValueError for it, reading a file OSError
INPUT_ERRORS = (OSError, ValueError)
# (error types, stderr prefix, exit code) of each error `main` reports as a
# "prefix: message" line; one that no row names propagates unchanged.  Every
# genus-2 graph `main` reports on is a stable model of one of the seven
# types, so an unclassifiable one is a fault in `SHAPES` or `smooth`
EXITS = (
    (INPUT_ERRORS, "error", 2),
    ((FormulaMismatchError, UnclassifiableError), "internal cross-check failed", 4),
    (DegenerateThetaNullError, "degenerate surface", 5),
    (QuadratureUnstableError, "quadrature failed", 6),
)


@functools.cache  # the parser reads no state, so one per process serves every call
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="g2inv",
        description="Local invariants of genus-2 curves: exact reduction-graph "
        "invariants and numerical period-matrix invariants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    na = sub.add_parser("nonarch", help="invariants of a reduction graph")
    na.set_defaults(run=_run_nonarch)
    na.add_argument("graph", nargs="?", help="path to a graph JSON file")
    na.add_argument("--type", dest="fiber_type", choices=TAGS, help="fiber type tag")
    na.add_argument(
        "--params",
        default="",
        help="comma-separated positive rationals, e.g. 1,3/2,2",
    )
    na.add_argument("--format", choices=("human", "structured"), default="human")

    ar = sub.add_parser("arch", help="archimedean invariants of a period matrix")
    ar.set_defaults(run=_run_arch)
    ar.add_argument("tau", help="path to a period-matrix JSON file")
    ar.add_argument("--samples", type=int, default=100_000)
    ar.add_argument("--seed", type=int, default=0)
    ar.add_argument("--method", choices=("monte-carlo", "lattice-rule"), default="monte-carlo")
    ar.add_argument("--workers", type=int, default=1, help="for compatibility; echoed, changes no work")
    # default None: the theta module, which holds the default, loads numpy
    ar.add_argument("--target-stderr", type=float, help="default 1e-3. Each +- is one standard error, "
                    "from the spread of log_h's 8 substream means over sqrt(8) (7 degrees of freedom); "
                    "exit 6 when that estimate for log_h, not the true error, exceeds 10x the target")
    ar.add_argument("--format", choices=("human", "structured"), default="human")

    tb = sub.add_parser("table", help="regenerate the seven-type invariant table symbolically")
    tb.set_defaults(run=_run_table)
    tb.add_argument("--format", choices=("human", "structured"), default="human")

    vf = sub.add_parser("verify", help="random exact sweep: pipeline vs closed forms")
    vf.set_defaults(run=_run_verify)
    vf.add_argument("--samples", type=int, default=100)
    vf.add_argument("--seed", type=int, default=0)
    return parser


def _run_nonarch(args) -> int:
    if (args.graph is None) == (args.fiber_type is None):
        raise InvalidParamsError("give exactly one input: a graph file or --type")
    if args.fiber_type is not None:
        params = tuple(
            parse_rational(part) for part in args.params.split(",") if part
        )
        graph = graph_of_type(FiberType(args.fiber_type, params))
    else:
        graph = load_graph(args.graph)
    g = total_genus(graph)
    if g != 2:
        print(f"error: graph has total genus {g}, need 2", file=sys.stderr)
        return 3
    stable = smooth(graph)  # once, for both: each then finds nothing to merge
    try:  # the paper's closed form is the second route, after the report's tau route
        report = _matching_closed_form(nonarch_report(stable), classify(stable))
    except FormulaMismatchError as exc:
        graph_json = json.dumps(graph_to_dict(graph), indent=2)
        raise FormulaMismatchError(f"{exc}\noffending graph:\n{graph_json}") from exc
    print(render(nonarch_to_dict(report), args.format))
    return 0


def _run_arch(args) -> int:
    from .theta_surface import (
        DEFAULT_PRODUCT_TOL,
        DEFAULT_TARGET_STDERR,
        LOG_H_COEFFICIENTS,
        QuadratureConfig,
        arch_invariants,
    )

    target = DEFAULT_TARGET_STDERR if args.target_stderr is None else args.target_stderr
    if args.workers < 1:
        raise InvalidParamsError(f"--workers must be at least 1, got {args.workers}")
    tau = load_tau(args.tau)
    config = QuadratureConfig(
        n_samples=args.samples,
        seed=args.seed,
        method=args.method,
        target_stderr=target,
    )
    report = arch_invariants(tau, config)
    doc = arch_to_dict(report)
    doc.update(
        samples=args.samples,
        seed=args.seed,
        method=args.method,
        workers=args.workers,
        tolerance=DEFAULT_PRODUCT_TOL,
        target_stderr=target,
    )
    stderrs = {
        name.rstrip("_"): abs(coefficient) * report.log_h_stderr
        for name, coefficient in LOG_H_COEFFICIENTS.items()
        if coefficient
    }
    print(render(doc, args.format, stderrs))
    return 0


def _matching_closed_form(report, fiber: FiberType, label: str = ""):
    """The report, once every field equals the closed form of `fiber`
    exactly; FormulaMismatchError, naming the field, otherwise."""
    for name, want in vars(closed_form(fiber)).items():
        got = getattr(report, name)
        if got != want:
            raise FormulaMismatchError(f"{label}{fiber}: {name} is {got}, closed form {want}")
    return report


def _symbolic_rows():
    _, *symbols = rational_function_field("a,b,c")
    rows = []
    for tag in TAGS:
        fiber = FiberType(tag, symbols[: ARITY[tag]])
        report = nonarch_report(graph_of_type(fiber))
        _matching_closed_form(report, fiber, "symbolic table row ")
        row = {"type": str(fiber)}
        for name, column in NONARCH_KEYS.items():
            row[column] = str(getattr(report, name))
        rows.append(row)
    return rows


def _run_table(args) -> int:
    print(render_table(_symbolic_rows(), args.format))
    return 0


def _run_verify(args) -> int:
    if args.samples < 0:
        raise InvalidParamsError("--samples must be nonnegative")
    rng = random.Random(args.seed)
    mismatches = 0
    for tag in TAGS:
        passes = 0
        for _ in range(args.samples):
            params = tuple(
                Fraction(rng.randint(1, 1000), rng.randint(1, 1000))
                for _ in range(ARITY[tag])
            )
            fiber = FiberType(tag, params)
            try:
                _matching_closed_form(nonarch_report(graph_of_type(fiber)), fiber)
                passes += 1
            except FormulaMismatchError as exc:
                mismatches += 1
                print(f"MISMATCH {exc}")
        status = "pass" if passes == args.samples else "FAIL"
        print(f"{tag:>4}: {passes}/{args.samples} {status}")
    return 7 if mismatches else 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.run(args)
        sys.stdout.flush()  # a closed pipe shows here, not in the flush at exit
        return code
    except BrokenPipeError:
        # the reader went away (`g2inv verify | head -1`): no input was bad.
        # What is left in the buffer goes to the null device, so the flush
        # at exit neither fails nor prints "Exception ignored"
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except Exception as exc:
        for types, prefix, code in EXITS:
            if isinstance(exc, types):
                print(f"{prefix}: {exc}", file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
