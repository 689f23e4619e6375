"""Self-test of the benchmark.  Run from the repository root:

    python3 perfbench/selftest.py

1. Smoke: every workload at --seconds 1, untraced and traced, must print
   the result line with exactly the metrics and units BENCHMARK.json names,
   every output correct.
2. Corruption: outputs perturbed after the program printed them (phi off by
   1e-6, log_delta2 off by 1e-6, an exact rational off by 1/10^6, a table
   expression changed) must each be counted as failed operations.
3. A directory holding only BENCHMARK.json and the benchmark must make the
   benchmark exit nonzero without printing a result.

Exits 0 when every check holds; prints one line per check.
"""

from __future__ import annotations

import contextlib
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

FAILURES: list[str] = []


def expect(condition: bool, what: str) -> None:
    print(f"[selftest] {what}: {'ok' if condition else 'FAILED'}", flush=True)
    if not condition:
        FAILURES.append(what)


def result_line(argv: list[str], cwd: Path) -> tuple[int, dict | None]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *argv], cwd=cwd, capture_output=True, text=True
    )
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return proc.returncode, None


def smoke(spec: dict) -> None:
    for name in workloads.WORKLOADS:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            argv = ["--workload", name, "--seed", "3", "--seconds", "1", "--trace", str(trace)]
            code, result = result_line(argv, ROOT)
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {k: v["unit"] for k, v in (result or {}).get("metrics", {}).items()}
            expect(
                code == 0
                and result is not None
                and set(result) == {"correct", "attempted", "failed", "metrics"}
                and result["correct"]
                and result["failed"] == 0
                and result["attempted"] >= 1
                and got == want,
                f"smoke {name} --trace {trace} prints every {group} metric with its unit",
            )


def corrupted(edit):
    """An execute() whose successful outputs pass through edit(doc)."""
    original = run.execute

    def execute(cli, op):
        seconds, outcome = original(cli, op)
        if outcome.code == 0:
            doc = json.loads(outcome.stdout)
            edit(doc)
            outcome.stdout = json.dumps(doc)
        return seconds, outcome

    return execute


def failed_count(cli, ops, edit=None) -> int:
    saved = run.execute
    if edit is not None:
        run.execute = corrupted(edit)
    try:
        _, _, failures = run.run_pass(cli, ops)
    finally:
        run.execute = saved
    return len(failures)


def corruption(cli, workdir: Path) -> None:
    graph = run.setup_inputs("graph-subdivided", 3, workdir / "graph")
    small = [op for op in graph.ops if op.label.endswith("-k0") or op.label.endswith("-k1")]
    expect(failed_count(cli, small) == 0, "graph outputs pass unchanged")

    def exact_phi(doc):
        doc["phi"] = str(Fraction(doc["phi"]) + Fraction(1, 10**6))

    expect(failed_count(cli, small, exact_phi) == len(small), "graph phi off by 1/10^6 fails")

    arch = run.setup_inputs("arch-reduced", 3, workdir / "arch")
    arch.references()
    expect(failed_count(cli, arch.ops) == 0, "arch outputs pass unchanged")

    def phi(doc):
        doc["phi"] += 1e-6

    def log_delta2(doc):
        doc["log_delta2"] += 1e-6

    for edit, what in ((phi, "phi"), (log_delta2, "log_delta2")):
        expect(
            failed_count(cli, arch.ops, edit) == len(arch.ops),
            f"arch {what} off by 1e-6 fails",
        )

    table = run.setup_inputs("table-symbolic", 3, workdir / "table")

    def table_phi(doc):
        row = doc["rows"][3]  # IV(a, b): phi = a + b/12
        row["phi"] = row["phi"].replace("b/12", "b/13")

    expect(failed_count(cli, table.ops, table_phi) == 1, "table expression changed fails")

    unreduced = run.setup_inputs("arch-unreduced", 3, workdir / "unreduced")
    unreduced.references()
    (probe,) = unreduced.probes
    _, outcome = run.execute(cli, probe)
    expect(not probe.check(outcome, {}), "over-cap probe passes unchanged")
    outcome.stderr = "error: something else\n"
    expect(bool(probe.check(outcome, {})), "over-cap probe with another error fails")


def empty_directory(workdir: Path) -> None:
    bare = workdir / "bare"
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    argv = ["--workload", "graph-subdivided", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(
        [sys.executable, str(bare / HERE.name / "run.py"), *argv],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    expect(proc.returncode != 0 and not proc.stdout.strip(), "bare directory exits nonzero, no result")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workdir = ROOT / ".perfbench_work" / "selftest"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        empty_directory(workdir)
        cli = run.import_program()
        corruption(cli, workdir)
        smoke(spec)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    print(f"[selftest] {'all checks hold' if not FAILURES else f'{len(FAILURES)} FAILED'}")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
