"""Benchmark of the g2inv command line: one workload per process.

    python3 perfbench/run.py --workload graph-subdivided --seed 1 --seconds 18 --trace 0

Run from the root of a source checkout; the program is imported from
`src/`.  The workload's inputs are generated from `--seed` into a scratch
directory under `.perfbench_work/`, which is removed on exit.

Closed loop, one caller: the workload is a fixed list of `g2inv.cli.main`
calls made in order, in this process, with `--workers 1` and stdout
captured.  The list is repeated until `--seconds` have passed.  Every
output is checked against `oracles`; a nonzero exit, an exception or a
failed check counts the operation as failed.  Before each operation the
sympy cache is cleared and the garbage collector run, outside the timed
region, so every operation starts as cold as in a fresh `g2inv` process.

--trace 0 reports the end-to-end metrics:
  setup_s      median over fresh interpreters of start-up until the inputs
               are written (import g2inv with numpy and sympy, generate)
  wall_s       median over passes of the pass's summed operation times
  op_p50_s     median time of one operation, over all passes
  peak_rss_mb  this process's peak resident memory
The three times are scaled to a reference machine speed: the speed of a
shared machine drifts by tens of percent over seconds to minutes, so each
operation is bracketed by a fixed 4000-step Fraction loop, and its wall
time is multiplied by REFERENCE_SECONDS over the loop's mean time around
it (set-up interpreters time the loop themselves; see timed_setups).  The
unscaled medians are printed too.
--trace 1 wraps the program's public functions (see tracer.py), alternates
untraced and traced passes, and reports per-pass per-layer figures.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  Exit status 2 without that line means the benchmark itself could
not run (for instance, no `src/g2inv` in the working directory).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_REPEATS = 7
MAX_PROBLEMS_SHOWN = 5
# The reference loop's median time on the machine BASELINE.json was
# measured on; scaled times read as seconds on that machine.
REFERENCE_SECONDS = 0.0125


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_program():
    """Import g2inv from ./src and nowhere else."""
    src = ROOT / "src"
    if not (src / "g2inv" / "__init__.py").is_file():
        print(f"perfbench: no src/g2inv under {ROOT}; run from a source checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import g2inv.cli

    return g2inv.cli


# ---------------------------------------------------------------- operations


def execute(cli, op):
    """Run one command in-process; returns (seconds, Outcome)."""
    out, err = io.StringIO(), io.StringIO()
    exception = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(op.argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # the program must never raise; count it as failed
        code, exception = None, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    return seconds, workloads.Outcome(code, out.getvalue(), err.getvalue(), exception)


def reference_loop() -> float:
    """Seconds for a fixed loop of 4000 Fraction additions: how fast the
    machine runs this process right now."""
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 4000):
        total += Fraction(1, i % 997 + 1)
    return time.perf_counter() - start


def scaled(seconds: float, before: float, after: float) -> float:
    """Wall time rescaled to the reference speed, from the reference loop
    timed just before and just after the measured interval."""
    return seconds * REFERENCE_SECONDS / ((before + after) / 2)


def run_pass(cli, ops, tracer=None, pass_index=0):
    """Run the fixed list once; returns (op seconds, scaled op seconds,
    list of (label, problems))."""
    import sympy.core.cache

    times, refs, failures, earlier = [], [], [], {}
    for index, op in enumerate(ops):
        sympy.core.cache.clear_cache()
        gc.collect()
        refs.append(reference_loop())
        if tracer is not None:
            tracer.begin((pass_index, index))
        seconds, outcome = execute(cli, op)
        if tracer is not None:
            tracer.end()
        times.append(seconds)
        problems = op.check(outcome, earlier)
        if problems:
            failures.append((op.label, problems))
    refs.append(reference_loop())
    return times, [scaled(t, refs[i], refs[i + 1]) for i, t in enumerate(times)], failures


# ---------------------------------------------------------------- set-up


def setup_inputs(workload: str, seed: int, workdir: Path):
    workdir.mkdir(parents=True, exist_ok=True)
    return workloads.WORKLOADS[workload](seed, workdir)


def timed_setups(args, workdir: Path) -> tuple[list[float], list[float]]:
    """Wall times, and scaled times, of fresh interpreters that import
    g2inv and write the inputs.

    Each interpreter times the reference loop itself, twice, after writing
    the inputs and prints the two times: the speed that matters is the one
    its own process saw, which can differ from this process's on a shared
    machine.  The loops' time is taken off the interpreter's wall time.
    """
    samples, scaled_samples = [], []
    for repeat in range(SETUP_REPEATS):
        target = workdir / f"setup-{repeat}"
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "0", "--setup-only", str(target)],
            check=True,
            cwd=ROOT,
            capture_output=True,
            text=True,
        )
        before, after = json.loads(proc.stdout)["reference_s"]
        samples.append(time.perf_counter() - start - before - after)
        scaled_samples.append(scaled(samples[-1], before, after))
    return samples, scaled_samples


def same_files(a: Path, b: Path) -> bool:
    names = sorted(p.name for p in a.iterdir())
    return names == sorted(p.name for p in b.iterdir()) and all(
        (a / n).read_bytes() == (b / n).read_bytes() for n in names
    )


# ---------------------------------------------------------------- per-layer figures

LAYER_CALLS = (
    "exact.solve_dense",
    "exact.simplify_exact",
    "exact.sympy_cancel",
    "metric_graph.solve_poisson",
    "metric_graph.diagonal_green",
    "metric_graph.green_function",
    "metric_graph.effective_resistance",
    "metric_graph.integrate",
    "pm_invariants.nonarch_report",
    "pm_invariants.admissible_measure",
    "pm_invariants.admissibility_poly",
    "theta_surface.log_delta2",
    "theta_surface.log_h",
    "cli.main",
)
LAYER_SELF = (
    "exact.solve_dense",
    "exact.sympy_cancel",
    "metric_graph.solve_poisson",
    "metric_graph.diagonal_green",
    "metric_graph.green_function",
    "metric_graph.effective_resistance",
    "metric_graph.integrate",
    "pm_invariants.nonarch_report",
    "pm_invariants.admissible_measure",
    "pm_invariants.node_counts",
    "fiber_catalog.closed_form",
    "theta_surface.log_h",
    "theta_surface.log_delta2",
    "formats.load_graph",
    "formats.load_tau",
    "formats.nonarch_to_dict",
    "formats.arch_to_dict",
    "cli.main",
)


def layer_metrics(tracer, traced_passes, n_ops, untraced_walls, traced_walls, overcap_exit2) -> dict:
    """Median per traced pass of each layer's calls and self time."""
    tables = [tracer.summarize((p, i) for i in range(n_ops)) for p in traced_passes]
    metrics = {}

    def per_pass(name, quantity):
        return statistics.median(t[name][quantity] if name in t else 0 for t in tables)

    for name in LAYER_CALLS:
        metrics[f"{name}.calls"] = (per_pass(name, "calls"), "count")
    for name in LAYER_SELF:
        metrics[f"{name}.self_s"] = (per_pass(name, "self_s"), "s")
    tried = per_pass("pm_invariants.admissibility_poly", "calls")
    accepted = per_pass("pm_invariants.admissible_measure", "calls")
    metrics["pm_invariants.candidate_accept_ratio"] = (accepted / tried if tried else 0.0, "ratio")

    traced = set(traced_passes)
    quad = [q for q in tracer.quadrature if q[0][0] in traced]
    samples = sum(q[1] for q in quad)
    metrics["theta_surface.log_h.us_per_sample"] = (
        1e6 * sum(q[4] for q in quad) / samples if samples else 0.0, "us")
    metrics["theta_surface.log_h.reject_frac"] = (
        sum(q[2] for q in quad) / samples if samples else 0.0, "ratio")
    metrics["theta_surface.log_h.stderr_over_target"] = (max((q[3] for q in quad), default=0.0), "ratio")
    metrics["cli.main.overcap_exit2"] = (overcap_exit2, "count")
    metrics["trace.overhead_frac"] = (
        statistics.median(traced_walls) / statistics.median(untraced_walls) - 1, "ratio")
    return metrics


# ---------------------------------------------------------------- main


def measure(args, cli, work) -> dict:
    """The timed passes; returns timings (scaled, and unscaled under
    "raw_"), failures and the tracer.  Keys False/True: untraced/traced."""
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    walls, raw_walls = {False: [], True: []}, {False: [], True: []}
    op_times, raw_op_times, failures, traced_passes = [], [], [], []
    attempted = 0
    start = time.perf_counter()
    pass_index = 0
    while True:
        traced = bool(args.trace) and pass_index % 2 == 1
        if traced:
            tracer.install()
            traced_passes.append(pass_index)
        try:
            raw, times, failed = run_pass(cli, work.ops, tracer, pass_index)
        finally:
            if traced:
                tracer.uninstall()
        walls[traced].append(sum(times))
        raw_walls[traced].append(sum(raw))
        if not traced:
            op_times.extend(times)
            raw_op_times.extend(raw)
        attempted += len(times)
        failures.extend(failed)
        pass_index += 1
        done = time.perf_counter() - start >= args.seconds
        if done and (not args.trace or traced_passes):
            break
    return {
        "walls": walls,
        "raw_walls": raw_walls,
        "op_times": op_times,
        "raw_op_times": raw_op_times,
        "attempted": attempted,
        "failures": failures,
        "tracer": tracer,
        "traced_passes": traced_passes,
    }


def run(args) -> int:
    workroot = ROOT / ".perfbench_work"
    workdir = workroot / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        cli = import_program()
        raw_setups, setup_samples = ([], []) if args.trace else timed_setups(args, workdir)
        work = setup_inputs(args.workload, args.seed, workdir / "inputs")
        problems = []
        if setup_samples and not same_files(workdir / "setup-0", workdir / "inputs"):
            problems.append(("set-up", ["the same seed wrote different inputs"]))
        work.references()
        result = measure(args, cli, work)
        overcap_exit2 = 0
        for probe in work.probes:
            _, outcome = execute(cli, probe)
            found = probe.check(outcome, {})
            if found:
                problems.append((probe.label, found))
            overcap_exit2 += outcome.code == 2
            print(f"probe {probe.label}: exit {outcome.code}, "
                  f"{'as expected' if not found else 'UNEXPECTED'}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workroot.rmdir()

    failures = result["failures"]
    walls = result["walls"]
    if args.trace:
        metrics = layer_metrics(
            result["tracer"], result["traced_passes"], len(work.ops), walls[False], walls[True],
            overcap_exit2)
        counts = f"{len(walls[True])} traced and {len(walls[False])} untraced passes"
    else:
        metrics = {
            "setup_s": (statistics.median(setup_samples), "s"),
            "wall_s": (statistics.median(walls[False]), "s"),
            "op_p50_s": (statistics.median(result["op_times"]), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        counts = (f"setup_s n={len(setup_samples)}, wall_s n={len(walls[False])} passes, "
                  f"op_p50_s n={len(result['op_times'])} operations; unscaled medians: "
                  f"setup {statistics.median(raw_setups):.4g} s, "
                  f"wall {statistics.median(result['raw_walls'][False]):.4g} s, "
                  f"op {statistics.median(result['raw_op_times']):.4g} s")

    attempted = result["attempted"]
    print(f"workload {args.workload} seed {args.seed}: {len(work.ops)} operations per pass; {counts}")
    print(f"inputs {json.dumps(work.properties)}")
    print(f"failed_frac {len(failures) / attempted:.6g} ({len(failures)}/{attempted})")
    for label, found in (failures + problems)[:MAX_PROBLEMS_SHOWN]:
        print(f"FAILED {label}: {'; '.join(found[:3])}")
    for name, (value, unit) in metrics.items():
        print(f"{name:45s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_only:
        import_program()
        setup_inputs(args.workload, args.seed, Path(args.setup_only))
        print(json.dumps({"reference_s": [reference_loop(), reference_loop()]}))
        return 0
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
