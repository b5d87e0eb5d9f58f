"""Benchmark of discordqkd: grid sweeps, threshold searches and cold CLI runs.

    python3 bench/run.py --workload grid --seed 1 --seconds 30 --trace 0

Runs whole rounds of one workload (or of all three, one after another, with
``--workload all``) until ``--seconds`` have passed, one operation at a
time, checks every output against references made apart from the program
(see checks.py), and prints each metric with its unit, then one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` rounds alternate between
untraced and traced, and the metrics are the per-layer ones of the traced
rounds, per round, with the tracing overhead.  A full report goes to
``.bench_results/`` at the repository root.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = ROOT / ".bench_results"
NEEDED = ("src/discordqkd/__init__.py", "tests/highprec.py", "tests/oracles.py")

END_TO_END = {
    "setup_s": "s",
    "grid_rows_per_s": "rows/s",
    "figure_set_s": "s",
    "threshold_ms_p50": "ms",
    "threshold_ms_p90": "ms",
    "cli_ms_p50": "ms",
}
PER_LAYER_UNITS = {"calls": "count", "self_ms": "ms", "oracle_retries": "count",
                   "discord_calls_per_source": "calls/source", "evals_per_search": "evals/search",
                   "serialize_ms": "ms", "interpreter_ms": "ms", "import_ms": "ms",
                   "main_ms": "ms", "overhead_pct": "%"}

#: Fresh interpreters per run for cli.interpreter_ms and cli.import_ms.
SPAWNS = 11
SETUP_CODE = ("import discordqkd as q; q.evaluate_point('discord', 40.0, 0.9, 1.0, "
              "q.Detection.HETERODYNE, q.Reconciliation.REVERSE)")


def per_layer_unit(name: str) -> str:
    return PER_LAYER_UNITS[name.rsplit(".", 1)[1]]


def spawn_times(code: str, env: dict, spawns: int) -> list:
    """Wall times in seconds of fresh interpreters running ``code``."""
    from workloads import time_subprocess

    times = []
    for _ in range(spawns):
        elapsed, done = time_subprocess([sys.executable, "-c", code], env)
        if done.returncode != 0:
            raise RuntimeError(f"python -c {code!r} failed: {done.stderr.decode()[-500:]}")
        times.append(elapsed)
    return times


def percentile(values: list, fraction: float) -> float:
    """Linear-interpolated percentile of a non-empty sample."""
    ordered = sorted(values)
    pos = fraction * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from checks import check_round
    from layertrace import Tracer
    from workloads import cli_env, make_inputs, run_round

    inputs = make_inputs(workload, seed)
    env = cli_env()
    RESULTS.mkdir(exist_ok=True)
    tmpdir = Path(tempfile.mkdtemp(prefix="cli-", dir=RESULTS))
    tracer = Tracer()
    plain, traced, problems, setups = [], [], [], []
    first = None
    try:
        spawn_times(SETUP_CODE, env, 1)  # let byte-code caches fill before timing
        start = time.perf_counter()
        while True:
            tracing = trace and len(plain) > len(traced)
            if tracing:
                with tracer:
                    result = run_round(inputs, tmpdir, env)
                traced.append(result)
            else:
                result = run_round(inputs, tmpdir, env)
                plain.append(result)
                if not trace:
                    # Set-up is timed between rounds, so its samples span the run.
                    setups += spawn_times(SETUP_CODE, env, inputs.setup_spawns)
            if first is None:
                first = result
            else:
                if result.outputs() != first.outputs():
                    problems.append(f"round {len(plain) + len(traced)} output differs from round 1")
                result.sweep_rows, result.tables, result.texts, result.commands = {}, {}, {}, {}
            if time.perf_counter() - start >= seconds and (traced or not trace):
                break
        checker = check_round(inputs, first, seed)
        if trace:
            metrics = tracer.layer_metrics(len(traced))
            metrics["cli.interpreter_ms"] = statistics.median(spawn_times("pass", env, SPAWNS)) * 1e3
            metrics["cli.import_ms"] = statistics.median(
                spawn_times("import discordqkd", env, SPAWNS)) * 1e3
            metrics["trace.overhead_pct"] = 100.0 * (
                statistics.median(r.in_process_s for r in traced)
                / statistics.median(r.in_process_s for r in plain) - 1.0)
            units = {name: per_layer_unit(name) for name in metrics}
        else:
            searches = [ms for r in plain for ms in r.search_ms]
            metrics = {
                "setup_s": statistics.median(setups),
                "grid_rows_per_s": sum(r.rows for r in plain) / sum(r.table_s for r in plain),
                "figure_set_s": statistics.median(r.figure_s for r in plain),
                "threshold_ms_p50": statistics.median(searches),
                "threshold_ms_p90": percentile(searches, 0.9),
                "cli_ms_p50": statistics.median(ms for r in plain for ms in r.cli_ms),
            }
            units = END_TO_END
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    rounds = plain + traced
    problems += checker.problems
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        "rounds": {"untraced": len(plain), "traced": len(traced)},
        "round_seconds": [{"tables": r.table_s, "figures": r.figure_s,
                           "searches": sum(r.search_ms) / 1e3, "commands": sum(r.cli_ms) / 1e3}
                          for r in rounds],
        "per_round": {"searches": len(inputs.searches), "commands": len(inputs.commands),
                      "attempted": first.attempted, "failed": first.failed},
        "worst_errors": checker.worst,
        "problems": problems[:50],
        "failed_operations": first.errors[:50],
    }


def machine() -> dict:
    import numpy

    return {"cores": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform()}


def print_summary(report: dict) -> None:
    print(f"[{report['workload']}] seed {report['seed']} trace {report['trace']}: "
          f"{report['rounds']} rounds, attempted {report['attempted']}, "
          f"failed {report['failed']}, correct {report['correct']}")
    for name, metric in report["metrics"].items():
        print(f"  {name:42s} {metric['value']:14.6g} {metric['unit']}")
    for problem in report["problems"][:10]:
        print(f"  problem: {problem}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=("grid", "thresholds", "cli", "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [name for name in NEEDED if not (ROOT / name).is_file()]
    if missing:
        print(f"error: the benchmark needs {', '.join(missing)} under {ROOT}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(BENCH)]

    from workloads import WORKLOADS

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    reports = [run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in workloads]
    info = machine()
    for report in reports:
        report["machine"] = info
        print_summary(report)
        name = f"{report['workload']}-seed{args.seed}-trace{args.trace}.json"
        (RESULTS / name).write_text(json.dumps(report, indent=2) + "\n")
    if len(reports) == 1:
        metrics = reports[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{name}": m for r in reports for name, m in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
