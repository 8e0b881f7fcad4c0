"""groversim benchmark: drives the real CLI in-process, one workload per process.

Run from the repository root:

    python3 benchmarks/run.py --workload simulate-n20 --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --all --seed 1 --seconds 20

One run imports groversim from ``src/`` of this checkout, generates the
workload's ops from ``--seed``, calls ``groversim.cli.main(argv)`` for each op
in a closed loop with one client, and checks every output.  ``--seconds``
sizes the run: it does ``seconds * nominal_ops_per_s`` ops, about that long on
the seed code, so the work is fixed and ``wall_s`` moves with speed.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the first
half of the ops untraced, then the same ops again under ``tracer.Tracer``,
and reports the per-layer metrics plus ``trace_overhead_ratio``, the traced
wall time over the untraced one, minus 1.  A memory pass then replays ops
for about a second with tracemalloc on inside ``state_after_iterations``;
tracemalloc never runs during a timed phase.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print the same
metrics for reading, ``op_p90_ms`` (only for runs of at least 100 ops),
``failed_ratio`` and the environment record.  ``--all`` runs every workload,
untraced and traced, each in its own process.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from workloads import BY_NAME, END_TO_END, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Set-up runs this many times per run (this process plus fresh interpreters);
#: ``setup_s`` is the median.
SETUP_SAMPLES = 7

#: The traced run's memory pass replays ops under tracemalloc for about this
#: long, at least one op: enough to cover every qubit count of every workload.
MEMORY_PASS_S = 1.0

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: One BLAS thread.  With two, OpenBLAS's second thread spin-waits on the
#: other CPU between calls; on a 2-vCPU VM that doubled the run-to-run spread
#: of verify-default and factor-semiprimes (IQR/median 6-7% -> 12-16%, runs
#: alternated), while one thread made verify-default about 10% slower.
BLAS_THREADS = "1"


def setup(workload, seed: int, seconds: float):
    """Import groversim from ``src/`` and generate the ops; return (seconds, cli, ops).

    Exits with status 1 when ``src/groversim`` is missing or the import
    resolves elsewhere, so a run never measures some other installed copy.
    """
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    try:
        import groversim.cli as cli
    except ImportError as exc:
        sys.exit(f"cannot import groversim from {SRC}: {exc}")
    ops = workload.make_ops(random.Random(seed), workload.op_count(seconds))
    elapsed = time.perf_counter() - start
    if Path(cli.__file__).resolve().parent != SRC / "groversim":
        sys.exit(f"groversim was imported from {cli.__file__}, not from {SRC}")
    return elapsed, cli, ops


def setup_in_fresh_interpreter(args) -> float:
    cmd = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--setup-only"]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=120).stdout
    return json.loads(out.splitlines()[-1])["setup_s"]


def run_ops(cli_main, ops, tracer=None, budget_s=None):
    """Closed loop over ``ops``; return (wall seconds, per-op seconds, (code, stdout, stderr) per op).

    With ``budget_s``, stop after the first op that ends past that many seconds.
    """
    durations, outputs = [], []
    wall_start = time.perf_counter()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = i
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = cli_main(list(op.argv))
        except Exception as exc:  # an op that raises is a failed op, not a failed run
            code = None
            err.write(f"raised {type(exc).__name__}: {exc}")
        durations.append(time.perf_counter() - start)
        outputs.append((code, out.getvalue(), err.getvalue()))
        if budget_s is not None and time.perf_counter() - wall_start >= budget_s:
            break
    return time.perf_counter() - wall_start, durations, outputs


def gate(workload, ops, outputs) -> list[str]:
    """Why each failing op failed; empty when every op passed its check."""
    failures = []
    for op, (code, out, err) in zip(ops, outputs):
        try:
            reason = workload.check(op.expect, code, out)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            reason = f"unreadable output ({type(exc).__name__}: {exc})"
        if reason is not None:
            failures.append(f"{' '.join(op.argv)}: {reason} {err.strip()}".strip())
    return failures


def git_sha() -> str | None:
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, env=env, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(args, workload, n_ops: int) -> dict:
    import numpy

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "generator": {**workload.params, "ops": n_ops},
    }


def untraced_metrics(args, setup_s, wall, durations) -> tuple[dict, list[str]]:
    samples = [setup_s] + [setup_in_fresh_interpreter(args) for _ in range(SETUP_SAMPLES - 1)]
    values = {
        "setup_s": statistics.median(samples),
        "wall_s": wall,
        "ops_per_s": len(durations) / wall,
        "op_p50_ms": statistics.median(durations) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = [f"setup_s samples: {', '.join(f'{s:.4f}' for s in samples)}"]
    if len(durations) >= 100:
        p90 = statistics.quantiles(durations, n=10)[-1] * 1e3
        beyond = sum(d * 1e3 > p90 for d in durations)
        notes.append(f"op_p90_ms {p90:.4f} ms ({beyond} of {len(durations)} ops above it)")
    else:
        notes.append(f"op_p90_ms not reported: {len(durations)} ops, fewer than 100")
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}, notes


def run_workload(args) -> int:
    workload = BY_NAME[args.workload]
    setup_s, cli, ops = setup(workload, args.seed, args.seconds)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    if args.trace:
        from tracer import Tracer

        ops = ops[: (len(ops) + 1) // 2]
        wall_plain, _, plain_outputs = run_ops(cli.main, ops)
        tracer = Tracer()
        traced_main = tracer.install()
        wall_traced, _, traced_outputs = run_ops(traced_main, ops, tracer)
        tracer.memory_pass = True
        _, _, memory_outputs = run_ops(traced_main, ops, budget_s=MEMORY_PASS_S)
        outputs = plain_outputs + traced_outputs + memory_outputs
        failures = gate(workload, ops + ops + ops[: len(memory_outputs)], outputs)
        metrics = tracer.metrics(len(ops), wall_traced / wall_plain - 1.0)
        notes = [f"wall_s untraced {wall_plain:.4f} s, traced {wall_traced:.4f} s, {len(ops)} ops each",
                 f"memory pass (tracemalloc): {len(memory_outputs)} ops",
                 f"{len(tracer.spans)} spans recorded",
                 *(f"not found, so not traced: groversim.{name}" for name in tracer.missing),
                 "gates: |p_simulated - p_closed_form| <= 1e-10; |norm^2 - 1| <= 1e-10 (make_qstate)"]
    else:
        wall, durations, outputs = run_ops(cli.main, ops)
        failures = gate(workload, ops, outputs)
        metrics, notes = untraced_metrics(args, setup_s, wall, durations)

    attempted = len(outputs)
    notes.append(f"failed_ratio {len(failures) / attempted:.6g} ({len(failures)} of {attempted} ops)")
    for reason in failures[:5]:
        print(f"FAILED {reason}", file=sys.stderr)

    print(f"workload {workload.name}, seed {args.seed}, {attempted} ops, closed loop, 1 client")
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:.6g} {m['unit']}")
    for note in notes:
        print(f"  {note}")
    print(json.dumps({"environment": environment(args, workload, attempted)}))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


def run_all(args) -> int:
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, __file__, "--workload", workload.name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            status |= subprocess.run(cmd).returncode != 0
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=sorted(BY_NAME))
    which.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    # BLAS reads its thread count when numpy loads, which happens in setup().
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    return run_all(args) if args.all else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
