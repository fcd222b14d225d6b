#!/usr/bin/env python3
"""regmod benchmark: CLI latency and throughput, and a traced per-layer run.

    python3 perfbench/run.py --workload passport-wide --seed 1 --seconds 20 --trace 0

Run from the repository root.  With `--trace 0` the benchmark writes the
workload's module files from `--seed`, then drives `python -m regmod.cli` as
a closed loop with one client (one child at a time) for `--seconds`, checks
every answer against the oracle outside the timed region and prints the
end-to-end metrics.  With `--trace 1` it answers the first round of the same
ops in-process under `tracer.Tracer` and prints the per-layer metrics.  The
last stdout line is one JSON object: correct, attempted, failed, metrics.
See perfbench/README.md for what each metric should move.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

DEADLINE_S = 170.0  # every run ends well inside the 180 s limit

# (name, unit, meaning) in print order; BENCHMARK.json lists the same names.
# Also printed, but not in the result line: error_rate, which reads 0 when
# all is well (wrong answers count in "failed"), and latency_tail_ms, whose
# run-to-run spread on a shared 2-vCPU host exceeds any bound a gate allows.
END_TO_END = (
    ("latency_p50_ms", "ms", "median wall time of one CLI call"),
    ("atoms_per_s", "atoms/s", "atoms of input answered / wall time of the timed phase"),
    ("setup_s", "s", "median set-up: generate inputs, warm bytecode, one untimed call"),
    ("peak_rss_mb", "MiB", "largest max-RSS of any CLI child"),
)
PER_LAYER = (
    ("cli.interp_ms", "ms", "`python -c pass`, the machine baseline (median of 5)"),
    ("cli.import_ms", "ms", "`import regmod.cli` minus cli.interp_ms (median of 5)"),
    ("cli.self_ms", "ms", "self time of argument parsing, file reading and rendering, per op"),
    ("module_file.parse_ms", "ms", "parse_module_file, per op"),
    ("classification.eliminate_ms", "ms", "regular_eliminate, per op"),
    ("classification.pivot_steps", "count", "engine pivot steps, per op"),
    ("classification.leaves", "count", "engine leaves, per op"),
    ("classification.eliminate_d_slope", "1", "log-log slope of untraced regular_eliminate time, d/4 atoms to d"),
    ("classification.passport_calls", "count", "passport() calls, per op"),
    ("classification.basis_ms", "ms", "extract_basis, per op"),
    ("classification.build_iso_self_ms", "ms", "build_isomorphism self time, per op"),
    ("module_space.membership_ms", "ms", "membership, per op"),
    ("module_space.membership_calls", "count", "membership calls, per op"),
    ("module_space.solve_linear_calls", "count", "solve_linear calls, per op"),
    ("module_space.fiber_rank_ms", "ms", "fiber_rank, per op"),
    ("module_space.fiber_rank_calls", "count", "fiber_rank calls, per op"),
    ("fields.check_calls", "count", "Field.check calls, per op"),
    ("fields.checks_per_input_scalar", "ratio", "Field.check calls / parsed input scalars (d*n*m per file)"),
    ("regular_algebra.elements_built", "count", "AlgebraElement constructions, per op"),
    ("oracle.passport_ms", "ms", "oracle_passport in the answer check, per call"),
    ("oracle.verify_iso_ms", "ms", "oracle_verify_iso in the answer check, per call"),
    ("randgen.gen_ms", "ms", "generating and writing the workload's input set"),
    ("trace.overhead_x", "x", "in-process time under spans / untraced, same ops"),
    ("trace.count_overhead_x", "x", "in-process time under the scalar counters / untraced, same ops"),
    ("trace.unattributed_pct", "%", "share of op wall time no layer span covers"),
)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def call_cli(argv: list[str], env: dict[str, str], timeout: float):
    """One `python -m regmod.cli` child: (seconds, exit code or None, stdout, stderr)."""
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "regmod.cli", *argv],
            capture_output=True,
            env=env,
            cwd=ROOT,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return time.perf_counter() - start, None, "", ""
    seconds = time.perf_counter() - start
    return seconds, proc.returncode, proc.stdout.decode("utf-8", "replace"), proc.stderr.decode("utf-8", "replace")


def call_in_process(cli, argv: list[str]):
    """`cli.main(argv)` with stdout and stderr captured: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            err.write(traceback.format_exc())
            code = 1
    return code, out.getvalue(), err.getvalue()


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples beyond it.

    Below 20 samples that percentile would fall under the median, so the
    maximum is reported instead, as percentile 100.
    """
    xs = sorted(latencies)
    n = len(xs)
    if n < 20:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def git_head() -> str:
    """HEAD commit; "unknown" outside a git checkout."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def repro(seed: int, digests: dict[str, str]) -> dict:
    from workloads import input_set_digest

    return {
        "seed": seed,
        "inputs_sha256": input_set_digest(digests),
        "files_sha256": digests,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_head": git_head(),
    }


def print_line(name: str, value: float, unit: str, note: str) -> None:
    print(f"  {name:34s} {value:>14.6g} {unit:8s} {note}")


def print_result(
    metrics: dict[str, float], table, attempted: int, failed: int, correct: bool, notes: dict[str, str]
) -> None:
    for name, unit, meaning in table:
        print_line(name, metrics[name], unit, notes.get(name, meaning))
    units = {name: unit for name, unit, _ in table}
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name, _, _ in table},
    }
    print(json.dumps(result))


def run_untraced(workload: str, seed: int, seconds: float, inputs: Path, started: float) -> None:
    import workloads
    from checks import check

    env = child_env()
    failures: list[str] = []
    setups = []
    first_digests: Optional[dict[str, str]] = None
    for _ in range(workloads.WORKLOADS[workload].setup_reps):
        start = time.perf_counter()
        ops, digests = workloads.generate(workload, seed, inputs)
        compileall.compile_dir(str(SRC / "regmod"), quiet=1)
        _, code, out, err = call_cli(ops[0].argv, env, DEADLINE_S)
        setups.append(time.perf_counter() - start)
        if first_digests is None:
            first_digests = digests
        elif digests != first_digests:
            raise RuntimeError("one seed generated two different input sets")
        verdict = check(ops[0], code, out, err)
        if verdict:
            failures.append(f"untimed call: {verdict}")

    round_ops = workloads.WORKLOADS[workload].round_ops
    calls = []  # (op, seconds, code, stdout, stderr)
    loop_start = time.perf_counter()
    now = loop_start
    while not calls or now - loop_start < seconds or len(calls) % round_ops:
        remaining = DEADLINE_S - (now - started)
        if remaining <= 0:
            failures.append("deadline reached before --seconds elapsed")
            break
        op = ops[len(calls) % len(ops)]
        elapsed, code, out, err = call_cli(op.argv, env, remaining)
        calls.append((op, elapsed, code, out, err))
        now = time.perf_counter()
    wall = now - loop_start

    failed = 0
    for i, (op, _, code, out, err) in enumerate(calls):
        verdict = check(op, code, out, err)
        if verdict:
            failed += 1
            failures.append(f"call {i} ({' '.join(op.argv[:1])}): {verdict}")
    latencies = [c[1] * 1e3 for c in calls]
    tail_ms, tail_pct = tail(latencies)
    atoms = sum(c[0].atoms for c in calls)
    metrics = {
        "latency_p50_ms": statistics.median(latencies),
        "atoms_per_s": atoms / wall,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
    }
    n = len(calls)
    notes = {
        "latency_p50_ms": f"median of {n} calls",
        "atoms_per_s": f"{atoms} atoms in {wall:.3f} s",
        "setup_s": f"median of {len(setups)} set-ups, {min(setups):.3f}-{max(setups):.3f} s",
    }
    for line in failures[:20]:
        print(f"FAIL {line}", file=sys.stderr)
    print(f"regmod benchmark: workload={workload} seed={seed} untraced, closed loop, 1 client")
    print_line("error_rate", failed / n, "ratio", f"{failed} of {n} calls failed or were wrong")
    tail_note = f"p{tail_pct:.4g} of {n} calls" + (": the maximum, fewer than 20 calls" if n < 20 else "")
    print_line("latency_tail_ms", tail_ms, "ms", tail_note)
    print("repro " + json.dumps(repro(seed, first_digests)))
    print_result(metrics, END_TO_END, n, failed, not failures, notes)


def startup_seconds(env: dict[str, str]) -> tuple[float, float]:
    """Medians of five `python -c pass` and five `python -c 'import regmod.cli'`."""
    times: dict[str, list[float]] = {"pass": [], "import regmod.cli": []}
    for _ in range(5):
        for code, runs in times.items():
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True)
            runs.append(time.perf_counter() - start)
    return statistics.median(times["pass"]), statistics.median(times["import regmod.cli"])


def eliminate_seconds(gens) -> float:
    """Mean untraced regular_eliminate time over at least 0.2 s of repeats."""
    from regmod.classification import regular_eliminate

    full = gens.context.full()
    reps, total = 0, 0.0
    while reps == 0 or total < 0.2:
        start = time.perf_counter()
        regular_eliminate(gens, full)
        total += time.perf_counter() - start
        reps += 1
    return total / reps


def first_atoms(gens, k: int):
    """The same module cut to its first k atoms."""
    from regmod.boolean_core import AtomSet
    from regmod.module_space import GeneratorSet, ModuleVector

    context = AtomSet(gens.context.labels[:k])
    vectors = tuple(
        ModuleVector.from_grid(gens.field, context, [c.values[:k] for c in g.coords])
        for g in gens.gens
    )
    return GeneratorSet(gens.field, context, gens.ambient_dim, vectors)


def traced_ops_run(ops, modules: dict):
    """Answer `ops` in-process three times: untraced, under spans, under counters.

    Returns (untraced s, spanned s, counted s, span tracer, counts, failures).
    The answers of every pass are checked; the oracle calls of the check are
    spanned too, under "check" roots, outside the "op" roots.
    """
    from checks import check
    from tracer import Tracer

    cli = modules["regmod.cli"]

    def answer_all(tracer: Optional[Tracer]):
        start = time.perf_counter()
        answers = []
        for i, op in enumerate(ops):
            with tracer.span("op", i) if tracer else contextlib.nullcontext():
                answers.append(call_in_process(cli, op.argv))
        return time.perf_counter() - start, answers

    call_in_process(cli, ops[0].argv)  # warm-up, so no pass pays first-call costs
    untraced_s, plain = answer_all(None)
    failures = []
    with Tracer() as spans:
        spans.install_spans(modules)
        spanned_s, answers = answer_all(spans)
        for i, (op, answer) in enumerate(zip(ops, answers)):
            with spans.span("check", i):
                verdict = check(op, *answer)
            if verdict:
                failures.append(f"op {i} ({op.argv[0]}): {verdict}")
    with Tracer() as counters:
        counters.install_counters(modules)
        counted_s, counted = answer_all(None)
    if answers != plain or counted != plain:
        failures.append("a traced pass answered differently from the untraced one")
    return untraced_s, spanned_s, counted_s, spans, spans.counts + counters.counts, failures


def layer_modules() -> dict:
    from tracer import COUNTED, SPANNED

    names = {row[0] for row in SPANNED} | {row[0] for row in COUNTED}
    return {name: importlib.import_module(name) for name in names}


def run_traced(workload: str, seed: int, inputs: Path) -> None:
    import workloads
    from tracer import summarize

    start = time.perf_counter()
    ops, digests = workloads.generate(workload, seed, inputs)
    gen_s = time.perf_counter() - start
    compileall.compile_dir(str(SRC / "regmod"), quiet=1)
    ops = ops[: workloads.WORKLOADS[workload].round_ops]
    interp_s, import_s = startup_seconds(child_env())
    untraced_s, spanned_s, counted_s, tracer, counts, failures = traced_ops_run(ops, layer_modules())

    gens = ops[0].module
    d = len(gens.context)
    cut = max(1, d // 4)
    slope = math.log(eliminate_seconds(gens) / eliminate_seconds(first_atoms(gens, cut))) / math.log(d / cut)

    n = len(ops)
    stat = summarize(tracer.spans, "op")
    audit = summarize(tracer.spans, "check")

    def per_op(name: str, key: str, scale: float = 1e3) -> float:
        return stat.get(name, {}).get(key, 0.0) / n * scale

    def per_call_ms(name: str) -> float:
        s = audit.get(name)
        return s["total_s"] / s["calls"] * 1e3 if s else 0.0

    metrics = {
        "cli.interp_ms": interp_s * 1e3,
        "cli.import_ms": (import_s - interp_s) * 1e3,
        "cli.self_ms": sum(s["self_s"] for k, s in stat.items() if k.startswith("cli.")) / n * 1e3,
        "module_file.parse_ms": per_op("module_file.parse", "total_s"),
        "classification.eliminate_ms": per_op("classification.eliminate", "total_s"),
        "classification.pivot_steps": counts["classification.pivot_steps"] / n,
        "classification.leaves": counts["classification.leaves"] / n,
        "classification.eliminate_d_slope": slope,
        "classification.passport_calls": per_op("classification.passport", "calls", 1),
        "classification.basis_ms": per_op("classification.basis", "total_s"),
        "classification.build_iso_self_ms": per_op("classification.build_iso", "self_s"),
        "module_space.membership_ms": per_op("module_space.membership", "total_s"),
        "module_space.membership_calls": per_op("module_space.membership", "calls", 1),
        "module_space.solve_linear_calls": per_op("module_space.solve_linear", "calls", 1),
        "module_space.fiber_rank_ms": per_op("module_space.fiber_rank", "total_s"),
        "module_space.fiber_rank_calls": per_op("module_space.fiber_rank", "calls", 1),
        "fields.check_calls": counts["fields.check_calls"] / n,
        "fields.checks_per_input_scalar": counts["fields.check_calls"] / counts["input_scalars"],
        "regular_algebra.elements_built": counts["regular_algebra.elements_built"] / n,
        "oracle.passport_ms": per_call_ms("oracle.passport"),
        "oracle.verify_iso_ms": per_call_ms("oracle.verify_iso"),
        "randgen.gen_ms": gen_s * 1e3,
        "trace.overhead_x": spanned_s / untraced_s,
        "trace.count_overhead_x": counted_s / untraced_s,
        "trace.unattributed_pct": 100.0 * stat["op"]["self_s"] / stat["op"]["total_s"],
    }
    spans_path = WORK / f"trace-{workload}-s{seed}.json"
    keys = ("id", "call", "name", "parent", "start", "end")
    spans_path.write_text(json.dumps([dict(zip(keys, row)) for row in tracer.spans]))

    for line in failures[:20]:
        print(f"FAIL {line}", file=sys.stderr)
    print(f"regmod benchmark: workload={workload} seed={seed} traced, {n} ops in-process")
    print(
        f"  in-process passes: untraced {untraced_s:.3f} s, spans {spanned_s:.3f} s, "
        f"counters {counted_s:.3f} s; spans written to {spans_path.relative_to(ROOT)}"
    )
    print("repro " + json.dumps(repro(seed, digests)))
    print_result(metrics, PER_LAYER, n, len(failures), not failures, {})


def main(argv: Optional[list[str]] = None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "regmod" / "cli.py").is_file():
        print(f"error: no regmod sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    inputs = WORK / f"inputs-{args.workload}-s{args.seed}-{os.getpid()}"
    try:
        if args.trace:
            run_traced(args.workload, args.seed, inputs)
        else:
            run_untraced(args.workload, args.seed, args.seconds, inputs, started)
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
