"""Inputs and rounds of the three benchmark workloads.

Every workload runs the same three operation families, so that every run
reports every metric; the workloads differ in how much of each family a
round holds:

* tables:   sweeps and the nine figure presets, serialised to CSV/JSON;
* searches: bisection threshold searches on T and on discord;
* commands: cold ``python -m discordqkd.cli`` subprocesses, each also run
  in process through ``cli.main`` to give the reference stdout.

A round is a fixed list of operations made from the seed, so every round of
a run does the same work and fails on the same operations.  An operation
that raises, records an error in its row or exits non-zero is counted as
failed and the run goes on, so a crash in a changed program shows as failed
operations.  Library calls go through module attributes
(``sweeps.run_sweep``), so the tracer's wrappers are seen when it is
installed.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from discordqkd import cli, sweeps
from discordqkd.keyrate import Detection, Reconciliation

ROOT = Path(__file__).resolve().parent.parent
PROTOCOLS = [(det, rec) for det in Detection for rec in Reconciliation]

#: (parameter, lo, hi, state, variance, t, w) of the grid workload's 201-point
#: sweeps.  Source-sharing sweeps (T, W) and one-source-per-row sweeps (V_D,
#: V_E) are both present, so a per-source cache helps one half only.
GRID_SWEEPS = (
    ("t", 0.0, 1.0, "discord", 40.0, None, 1.0),
    ("t", 0.0, 1.0, "epr", 40.0, None, 1.0),
    ("w", 1.0, 10.0, "discord", 40.0, 0.9, None),
    ("w", 1.0, 10.0, "epr", 40.0, 0.9, None),
    ("vd", 1.0, 1000.0, "discord", None, 0.9, 1.0),
    ("ve", 1.0, 1000.0, "epr", None, 0.9, 1.0),
)
GRID_STEPS = 201
#: Steps of the CLI's sweep and figure commands.
CLI_STEPS = 21
#: Steps of the presets in the thresholds and cli workloads.
SMALL_STEPS = 41

T_SEARCH_SOURCES = (("discord", 40.0), ("discord", 1000.0), ("epr", 40.0))
#: Cloner variances of the T searches, each moved by a seeded U(-0.1, 0.1).
#: W = 1 is searched with direct reconciliation only: with reverse
#: reconciliation the key rate has no sign change in (0.01, 0.99) there.
T_SEARCH_W = (1.2, 1.6, 2.0, 2.4, 2.8)
W_JITTER = 0.1

#: (T, W) cells of the discord searches, each moved by a seeded
#: U(-0.005, 0.005) in T and, where W > 1, in W.  Every cell has a sign
#: change with the threshold discord between 0.03 and 0.46 bits.
DISCORD_CELLS = {
    ("hom", "dr"): ((0.55, 1.0), (0.6, 1.0), (0.65, 1.0), (0.55, 1.05), (0.6, 1.1),
                    (0.65, 1.2), (0.65, 1.3), (0.7, 1.5), (0.75, 2.0)),
    ("hom", "rr"): ((0.3, 1.0), (0.4, 1.0), (0.5, 1.05), (0.7, 1.05), (0.9, 1.05),
                    (0.65, 1.1), (0.85, 1.2), (0.9, 1.5), (0.95, 2.0)),
    ("het", "dr"): ((0.75, 1.0), (0.8, 1.0), (0.75, 1.05), (0.8, 1.05), (0.8, 1.1),
                    (0.8, 1.2), (0.8, 1.3), (0.85, 1.5), (0.85, 2.0)),
    ("het", "rr"): ((0.6, 1.0), (0.65, 1.0), (0.7, 1.0), (0.75, 1.0), (0.7, 1.05),
                    (0.8, 1.05), (0.9, 1.1), (0.85, 1.2), (0.95, 1.3)),
}
CELL_JITTER = 0.005

#: Every sixth search, the share of the search family run by grid and cli.
COMPANION_SEARCH_STRIDE = 6
#: eval (CSV), eval (JSON) and threshold: the command family of thresholds.
COMPANION_COMMANDS = (0, 1, 6)

WORKLOADS = ("grid", "thresholds", "cli")


@dataclass(frozen=True)
class Search:
    """One threshold search: kind "t" or "discord" with its arguments."""

    kind: str
    args: tuple


@dataclass(frozen=True)
class Command:
    """One CLI invocation; ``out`` names the file it writes with --out."""

    name: str
    argv: tuple
    out: str = ""


@dataclass(frozen=True)
class Inputs:
    table_steps: int
    grid_sweeps: bool
    searches: tuple
    commands: tuple
    #: set-up samples (fresh interpreters) taken after each untraced round
    setup_spawns: int = 1


def _det_rec(det: str, rec: str):
    return Detection(det), Reconciliation(rec)


def make_searches(rng: random.Random) -> list[Search]:
    """The full search family: 66 searches on T and 36 on discord."""
    ws = [base + rng.uniform(-W_JITTER, W_JITTER) for base in T_SEARCH_W]
    found = []
    for state, variance in T_SEARCH_SOURCES:
        for det, rec in PROTOCOLS:
            cloners = ([1.0] if rec is Reconciliation.DIRECT else []) + ws
            for w in cloners:
                found.append(Search("t", (state, variance, w, det, rec)))
    for (det, rec), cells in DISCORD_CELLS.items():
        for t, w in cells:
            t += rng.uniform(-CELL_JITTER, CELL_JITTER)
            if w > 1.0:
                w += rng.uniform(-CELL_JITTER, CELL_JITTER)
            found.append(Search("discord", (t, w) + _det_rec(det, rec)))
    return found


def make_commands(rng: random.Random) -> list[Command]:
    """The full command family, with seeded parameters on which none fails."""
    def num(lo, hi):
        return repr(rng.uniform(lo, hi))

    def protocol():
        det, rec = rng.choice(PROTOCOLS)
        return ("--det", det.value, "--rec", rec.value)

    return [
        Command("eval_csv", ("eval", "--state", "discord", "--vd", num(2.0, 1000.0),
                             "--t", num(0.05, 0.95), "--w", num(1.0, 2.0)) + protocol()),
        Command("eval_json", ("eval", "--state", "epr", "--ve", num(1.5, 300.0),
                              "--t", num(0.05, 0.95), "--w", num(1.0, 2.0))
                + protocol() + ("--format", "json")),
        Command("discord", ("discord", "--vd", num(2.0, 1000.0))),
        Command("ppt", ("ppt", "--ve", num(1.5, 300.0))),
        Command("sweep", ("sweep", "--sweep", "t", "--range", "0:1", "--steps", str(CLI_STEPS),
                          "--state", "discord", "--vd", num(2.0, 1000.0), "--w", num(1.0, 2.0)),
                out="sweep.csv"),
        Command("figure", ("figure", "fig4b", "--steps", str(CLI_STEPS), "--w", num(1.0, 1.5)),
                out="figure.csv"),
        Command("threshold", ("threshold", "--state", "discord", "--vd", "40", "--w", num(1.0, 1.5),
                              "--det", "het", "--rec", "rr", "--sweep", "t")),
    ]


def make_inputs(workload: str, seed: int) -> Inputs:
    """The round of one workload; the same seed gives the same round."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(seed)
    searches = make_searches(rng)
    commands = make_commands(rng)
    companion_searches = tuple(searches[::COMPANION_SEARCH_STRIDE])
    companion_commands = tuple(commands[i] for i in COMPANION_COMMANDS)
    if workload == "grid":
        return Inputs(GRID_STEPS, True, companion_searches, tuple(commands), setup_spawns=3)
    if workload == "thresholds":
        return Inputs(SMALL_STEPS, False, tuple(searches), companion_commands)
    return Inputs(SMALL_STEPS, False, companion_searches, tuple(commands))


@dataclass
class Round:
    """What one round did: timings, operation counts and every output."""

    table_s: float = 0.0
    figure_s: float = 0.0
    rows: int = 0
    attempted: int = 0
    failed: int = 0
    search_ms: list = field(default_factory=list)
    cli_ms: list = field(default_factory=list)
    main_s: float = 0.0
    in_process_s: float = 0.0
    #: name -> list of ResultRow of each grid sweep (failed points omitted)
    sweep_rows: dict = field(default_factory=dict)
    #: name -> (header, table) of each figure preset
    tables: dict = field(default_factory=dict)
    #: serialised text of every sweep and table, keyed by name
    texts: dict = field(default_factory=dict)
    #: threshold values (None for a failed search), in search order
    thresholds: list = field(default_factory=list)
    #: command name -> (returncode, stdout, file bytes, in-process code, in-process stdout)
    commands: dict = field(default_factory=dict)
    #: what each failed operation raised or recorded
    errors: list = field(default_factory=list)

    def outputs(self):
        """Everything a repeated round must reproduce exactly."""
        return self.texts, self.thresholds, self.commands


def _sweep_spec(parameter, lo, hi, state, variance, t, w):
    return sweeps.SweepSpec(
        parameter=parameter, lo=lo, hi=hi, steps=GRID_STEPS, state=state,
        variance=variance, t=t, w=w,
        detections=list(Detection), reconciliations=list(Reconciliation),
    )


def _failure(what: str, exc: Exception) -> str:
    return f"{what}: {type(exc).__name__}: {exc}"


def sweep_point_by_point(spec) -> tuple[list, list]:
    """Rows of a sweep through single evaluate_point calls, and an error per failed point.

    run_sweep aborts on the first evaluation error other than a non-physical
    state; this counts such a point as failed and goes on.
    """
    rows, errors = [], []
    for value in sweeps.grid(spec.lo, spec.hi, spec.steps):
        for det in spec.detections:
            for rec in spec.reconciliations:
                where = f"{spec.state} {value!r} {det.value}-{rec.value}"
                try:
                    row = sweeps.evaluate_point(spec.state, value, spec.t, spec.w, det, rec)
                except Exception as exc:
                    errors.append(_failure(where, exc))
                    continue
                if row.error:
                    errors.append(f"{where}: {row.error}")
                else:
                    rows.append(row)
    return rows, errors


def _run_tables(inputs: Inputs, out: Round) -> None:
    start = time.perf_counter()
    if inputs.grid_sweeps:
        for spec_args in GRID_SWEEPS:
            spec = _sweep_spec(*spec_args)
            name = f"sweep_{spec.parameter}_{spec.state}"
            attempted = GRID_STEPS * len(PROTOCOLS)
            if spec.parameter == "ve":
                rows, errors = sweep_point_by_point(spec)
            else:
                try:
                    rows = sweeps.run_sweep(spec)
                except Exception as exc:
                    rows, errors = [], [_failure(name, exc)]
                else:
                    errors = [f"{name}: {row.error}" for row in rows if row.error]
                rows = [row for row in rows if not row.error]
            out.sweep_rows[name] = rows
            out.texts[name + ".csv"] = sweeps.rows_to_csv(rows)
            out.texts[name + ".json"] = sweeps.rows_to_json(rows)
            out.attempted += attempted
            out.failed += attempted - len(rows)
            out.errors += errors
            out.rows += len(rows)
    fig_start = time.perf_counter()
    for figure_id in sweeps.FIGURE_IDS:
        out.attempted += inputs.table_steps
        try:
            header, table = sweeps.figure_table(figure_id, steps=inputs.table_steps)
        except Exception as exc:
            out.failed += inputs.table_steps
            out.errors.append(_failure(figure_id, exc))
            continue
        out.tables[figure_id] = (header, table)
        out.texts[figure_id + ".csv"] = sweeps.table_to_csv(header, table)
        # A cell is None where its evaluation recorded an error.
        failed = [row for row in table if None in row]
        out.failed += len(failed)
        out.errors += [f"{figure_id} row {row[0]!r}: an evaluation recorded an error" for row in failed]
        out.rows += len(table) - len(failed)
    end = time.perf_counter()
    out.figure_s = end - fig_start
    out.table_s = end - start


def run_search(search: Search) -> float:
    if search.kind == "t":
        return sweeps.threshold_on_t(*search.args)
    return sweeps.threshold_on_discord(*search.args)


def _run_searches(inputs: Inputs, out: Round) -> None:
    for search in inputs.searches:
        start = time.perf_counter()
        try:
            value = run_search(search)
        except Exception as exc:
            value = None
            out.failed += 1
            out.errors.append(_failure(f"{search.kind} search {search.args}", exc))
        out.search_ms.append((time.perf_counter() - start) * 1e3)
        out.attempted += 1
        out.thresholds.append(value)


def cli_env() -> dict:
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)


def time_subprocess(argv: list, env: dict) -> tuple[float, subprocess.CompletedProcess]:
    start = time.perf_counter()
    done = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, timeout=120)
    return time.perf_counter() - start, done


def run_in_process(argv) -> tuple[int, str]:
    """cli.main with stdout captured; its stderr is dropped."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, stdout.getvalue()


def _run_commands(inputs: Inputs, out: Round, tmpdir: Path, env: dict) -> None:
    for command in inputs.commands:
        argv = list(command.argv)
        target = tmpdir / command.out if command.out else None
        if target is not None:
            argv += ["--out", str(target)]
        elapsed, done = time_subprocess([sys.executable, "-m", "discordqkd.cli"] + argv, env)
        out.cli_ms.append(elapsed * 1e3)
        out.attempted += 1
        if done.returncode != 0:
            out.failed += 1
            out.errors.append(f"{command.name}: exit {done.returncode}: {done.stderr.decode()[-300:]}")
        written = target.read_bytes() if target is not None and target.exists() else b""
        if target is not None and target.exists():
            target.unlink()
        start = time.perf_counter()
        code, text = run_in_process(command.argv)
        out.main_s += time.perf_counter() - start
        out.commands[command.name] = (done.returncode, done.stdout, written, code, text)


def run_round(inputs: Inputs, tmpdir: Path, env: dict) -> Round:
    out = Round()
    _run_tables(inputs, out)
    _run_searches(inputs, out)
    _run_commands(inputs, out, tmpdir, env)
    out.in_process_s = out.table_s + sum(out.search_ms) / 1e3 + out.main_s
    return out
