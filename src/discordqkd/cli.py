"""Command-line interface.

Subcommands:

* ``eval``       one protocol evaluation, printed as a single result row
* ``sweep``      one-parameter grid written as CSV or JSON
* ``figure``     preset sweeps reproducing the standard curve families
* ``threshold``  root search for a key-rate sign change, to a few ulps
* ``discord``    Gaussian discord of a source state
* ``ppt``        smallest partial-transpose symplectic eigenvalue

Exit codes: 0 success, 2 invalid parameters or unknown figure, 3 a point or
source that could not be evaluated (any other GaussianStateError), 4 I/O
failure (OSError), 5 no sign change in a threshold bracket.  Every failure
prints one line, ``error: `` and the exception's own text, to stderr.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Optional

from .errors import GaussianStateError, InvalidParameter, NoSignChange, UnknownFigure
from .keyrate import Detection, Reconciliation
from .states import discord_and_ppt, gaussian_discord
from .sweeps import (
    FIGURE_IDS,
    FIGURE_STEPS,
    ResultRow,
    SweepSpec,
    SWEEPABLE,
    _source_params,
    _table_to_json,
    evaluate_point,
    figure_table,
    rows_to_csv,
    rows_to_json,
    run_sweep,
    table_to_csv,
    threshold_on_discord,
    threshold_on_t,
    write_text_atomic,
)

#: Flags a ``--config`` line may set, each written ``key=value`` without dashes.
_CONFIG_KEYS = ("state", "vd", "ve", "t", "w", "det", "rec", "sweep", "range", "steps",
                "format", "out", "units")


def _add_common(parser: argparse.ArgumentParser, *, protocol: bool = True) -> None:
    parser.add_argument("--state", choices=["discord", "epr"], default=None,
                        help="source state kind (inferred from --vd/--ve when omitted)")
    parser.add_argument("--vd", type=float, default=None,
                        help="discord-state diagonal variance V_D = V + 1 (>= 1)")
    parser.add_argument("--ve", type=float, default=None,
                        help="EPR state variance V_E (>= 1)")
    if protocol:
        parser.add_argument("--t", type=float, default=None, help="channel transmission in [0, 1]")
        parser.add_argument("--w", type=float, default=None, help="cloner variance W (>= 1)")
        parser.add_argument("--det", choices=["hom", "het"], default=None, help="detection")
        parser.add_argument("--rec", choices=["dr", "rr"], default=None, help="reconciliation")
    parser.add_argument("--config", default=None,
                        help="key=value file supplying defaults; flags take precedence")


def _add_output(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=["csv", "json"], default=None,
                        help="output format (default csv)")
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    parser.add_argument("--clamp-negative", action="store_true",
                        help="report negative key rates as 0 (plotting aid)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="discordqkd",
        description="Gaussian-discord CV-QKD calculator: discord, separability, "
                    "and secret key rates under an entangling-cloner attack.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate one protocol configuration")
    _add_common(p_eval)
    _add_output(p_eval)

    p_sweep = sub.add_parser("sweep", help="sweep one parameter over a grid")
    _add_common(p_sweep)
    p_sweep.add_argument("--sweep", choices=list(SWEEPABLE), default=None, required=False,
                         help="parameter to sweep")
    p_sweep.add_argument("--range", default=None, help="sweep range as lo:hi")
    p_sweep.add_argument("--steps", type=int, default=FIGURE_STEPS,
                         help="number of grid points (>= 2)")
    _add_output(p_sweep)

    p_fig = sub.add_parser("figure", help="write a preset figure data file")
    p_fig.add_argument("figure_id", help="one of: " + ", ".join(FIGURE_IDS))
    p_fig.add_argument("--w", type=float, default=None, help="override the pinned W = 1")
    p_fig.add_argument("--steps", type=int, default=None, help="override the 201-point grid")
    p_fig.add_argument("--config", default=None)
    _add_output(p_fig)

    p_thr = sub.add_parser("threshold", help="locate a key-rate sign change")
    _add_common(p_thr)
    p_thr.add_argument("--sweep", choices=["t", "discord"], required=False, default=None,
                       help="quantity the threshold is reported on")
    p_thr.add_argument("--range", default=None, help="search bracket as lo:hi")

    p_disc = sub.add_parser("discord", help="Gaussian discord of a source state")
    _add_common(p_disc, protocol=False)
    p_disc.add_argument("--units", choices=["bits", "nats"], default=None,
                        help="logarithm convention (default bits)")

    p_ppt = sub.add_parser("ppt", help="partial-transpose eigenvalue of a source state")
    _add_common(p_ppt, protocol=False)

    return parser


def _config_flags(args: argparse.Namespace) -> list[str]:
    """The ``--key=value`` flags the ``--config`` file gives the parsed subcommand.

    A key the subcommand does not take is skipped; of repeated keys the
    first line counts.
    """
    flags: dict[str, str] = {}
    with open(args.config) as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise InvalidParameter(f"{args.config}:{lineno}: expected key=value, got {raw.strip()!r}")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in _CONFIG_KEYS:
                raise InvalidParameter(f"{args.config}:{lineno}: unknown config key {key!r}")
            if hasattr(args, key):
                flags.setdefault(key, f"--{key}={value}")
    return list(flags.values())


#: Each state kind's variance flag, and the other kind with its flag.
_STATE_FLAGS = {"discord": ("vd", "epr", "ve"), "epr": ("ve", "discord", "vd")}


def _resolve_state(
    args: argparse.Namespace, swept: Optional[str] = None
) -> tuple[str, Optional[float]]:
    """The source kind and its fixed variance from --state, --vd and --ve.

    The kind is --state, else the kind whose variance is ``swept`` ("vd" or
    "ve"), else whichever of --vd/--ve is given.  A swept variance needs no
    fixed value, so its variance may come back None.
    """
    state = args.state
    if state is None and swept in ("vd", "ve"):
        state = "discord" if swept == "vd" else "epr"
    elif state is None:
        if (args.vd is None) == (args.ve is None):
            raise InvalidParameter("specify --state, or exactly one of --vd/--ve")
        state = "discord" if args.vd is not None else "epr"
    flag, other_state, other_flag = _STATE_FLAGS[state]
    if getattr(args, other_flag) is not None:
        raise InvalidParameter(f"--{other_flag} is only valid with --state {other_state}")
    variance = getattr(args, flag)
    if variance is None and swept not in ("vd", "ve"):
        kind = "EPR" if state == "epr" else state
        raise InvalidParameter(f"--{flag} is required for the {kind} state")
    return state, variance


def _require(args: argparse.Namespace, *names: str) -> None:
    for name in names:
        if getattr(args, name, None) is None:
            raise InvalidParameter(f"--{name} is required")


def _parse_range(text: str) -> tuple[float, float]:
    try:
        lo, hi = text.split(":", 1)
        return float(lo), float(hi)
    except ValueError:
        raise InvalidParameter(f"--range must be lo:hi, got {text!r}") from None


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        write_text_atomic(text, out)
    else:
        sys.stdout.write(text)


def _protocols(args: argparse.Namespace) -> tuple[list[Detection], list[Reconciliation]]:
    dets = [Detection(args.det)] if args.det else list(Detection)
    recs = [Reconciliation(args.rec)] if args.rec else list(Reconciliation)
    return dets, recs


def _rows_text(rows: list[ResultRow], fmt: Optional[str]) -> str:
    return rows_to_json(rows) if fmt == "json" else rows_to_csv(rows)


def _cmd_eval(args: argparse.Namespace) -> int:
    state, variance = _resolve_state(args)
    _require(args, "t", "w", "det", "rec")
    row = evaluate_point(
        state, variance, args.t, args.w,
        Detection(args.det), Reconciliation(args.rec),
        clamp_negative=args.clamp_negative,
    )
    if row.error:
        raise GaussianStateError(row.error)
    _emit(_rows_text([row], args.format), args.out)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    _require(args, "sweep", "range")
    lo, hi = _parse_range(args.range)
    state, variance = _resolve_state(args, swept=args.sweep)
    dets, recs = _protocols(args)
    spec = SweepSpec(
        parameter=args.sweep, lo=lo, hi=hi, steps=args.steps, state=state,
        variance=variance, t=args.t, w=args.w,
        detections=dets, reconciliations=recs,
        clamp_negative=args.clamp_negative,
    )
    _emit(_rows_text(run_sweep(spec), args.format), args.out)
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    overrides = {name: getattr(args, name) for name in ("w", "steps") if getattr(args, name) is not None}
    header, table = figure_table(args.figure_id, clamp_negative=args.clamp_negative, **overrides)
    write = _table_to_json if args.format == "json" else table_to_csv
    _emit(write(header, table), args.out)
    return 0


def _cmd_threshold(args: argparse.Namespace) -> int:
    _require(args, "sweep", "w", "det", "rec")
    det, rec = Detection(args.det), Reconciliation(args.rec)
    bracket = {"bracket": _parse_range(args.range)} if args.range else {}
    if args.sweep == "t":
        state, variance = _resolve_state(args)
        value = threshold_on_t(state, variance, args.w, det, rec, **bracket)
    else:
        _require(args, "t")
        # The search runs over the discord state's variance.
        state, variance = _resolve_state(args, swept="vd")
        if state != "discord":
            raise InvalidParameter("discord thresholds are defined for the discord state only")
        if variance is not None:
            raise InvalidParameter("the swept parameter 'discord' must not also be fixed")
        value = threshold_on_discord(args.t, args.w, det, rec, **bracket)
    sys.stdout.write(repr(value) + "\n")
    return 0


def _cmd_discord(args: argparse.Namespace) -> int:
    state, variance = _resolve_state(args)
    base = math.e if args.units == "nats" else 2.0
    sys.stdout.write(repr(gaussian_discord(_source_params(state, variance), log_base=base)) + "\n")
    return 0


def _cmd_ppt(args: argparse.Namespace) -> int:
    state, variance = _resolve_state(args)
    source = _source_params(state, variance)
    sys.stdout.write(repr(discord_and_ppt(*source.block_form())[1]) + "\n")
    return 0


_COMMANDS = {
    "eval": _cmd_eval,
    "sweep": _cmd_sweep,
    "figure": _cmd_figure,
    "threshold": _cmd_threshold,
    "discord": _cmd_discord,
    "ppt": _cmd_ppt,
}


#: (exception type, exit code); the first matching row counts.
_FAILURES = (
    (NoSignChange, 5),
    ((InvalidParameter, UnknownFigure), 2),
    (GaussianStateError, 3),
    (OSError, 4),
)


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            # Config lines go first, so a flag on the command line wins.
            at = argv.index(args.command) + 1
            args = parser.parse_args(argv[:at] + _config_flags(args) + argv[at:])
        return _COMMANDS[args.command](args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (GaussianStateError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _FAILURES if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
