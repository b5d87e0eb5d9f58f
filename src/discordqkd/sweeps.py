"""Parameter sweeps, figure presets, and threshold searches.

Sweep evaluation is purely functional, so repeated runs of the same spec
produce byte-identical output.  Rows are always emitted in ascending order
of the swept parameter (then detection, then reconciliation).  Numbers are
formatted with shortest round-trip precision, so parsing a file recovers the
computed floats exactly.
"""

from __future__ import annotations

import contextlib
import json
import math
import operator
import os
from dataclasses import dataclass, fields
from typing import Callable, Optional, Sequence

from .channel import ChannelParams
from .errors import GaussianStateError, InvalidParameter, NoSignChange, UnknownFigure
from .keyrate import Detection, Reconciliation, key_rate
from .states import DiscordStateParams, EprStateParams, discord_and_ppt

CSV_HEADER = "state,V,variance,T,W,detection,reconciliation,discord,ppt_nu,i_ab,i_eve,key_rate,error"

SWEEPABLE = ("vd", "ve", "t", "w")

#: Grid density used by the figure presets.
FIGURE_STEPS = 201

_T_BRACKET = (0.01, 0.99)
_VD_BRACKET = (1.0, 1000.0)


@dataclass(frozen=True)
class ResultRow:
    """One evaluated grid point; ``error`` is empty unless evaluation failed."""

    state: str
    v: Optional[float]
    variance: Optional[float]
    t: Optional[float]
    w: Optional[float]
    detection: str
    reconciliation: str
    discord: Optional[float]
    ppt_nu: Optional[float]
    i_ab: Optional[float]
    i_eve: Optional[float]
    key_rate: Optional[float]
    error: str = ""

    def as_list(self) -> list:
        return list(_row_values(self))


_ROW_FIELDS = tuple(f.name for f in fields(ResultRow))
_row_values = operator.attrgetter(*_ROW_FIELDS)
_VARIANCE, _DISCORD, _KEY_RATE = map(_ROW_FIELDS.index, ("variance", "discord", "key_rate"))


@dataclass(frozen=True)
class SweepSpec:
    """A one-parameter grid over {vd, ve, t, w} with everything else pinned."""

    parameter: str
    lo: float
    hi: float
    steps: int
    state: str
    variance: Optional[float]
    t: Optional[float]
    w: Optional[float]
    detections: Sequence[Detection]
    reconciliations: Sequence[Reconciliation]
    clamp_negative: bool = False

    def __post_init__(self):
        if self.parameter not in SWEEPABLE:
            raise InvalidParameter(f"swept parameter must be one of {SWEEPABLE}, got {self.parameter!r}")
        if self.state not in ("discord", "epr"):
            raise InvalidParameter(f"state must be 'discord' or 'epr', got {self.state!r}")
        if (self.parameter == "vd" and self.state != "discord") or (
            self.parameter == "ve" and self.state != "epr"
        ):
            raise InvalidParameter(f"cannot sweep {self.parameter!r} for state {self.state!r}")
        try:
            finite = math.isfinite(self.lo) and math.isfinite(self.hi)
        except TypeError:
            finite = False
        if not finite or self.lo > self.hi:
            raise InvalidParameter(f"sweep range must satisfy lo <= hi, got [{self.lo!r}, {self.hi!r}]")
        if _steps(self.steps) < 2:
            raise InvalidParameter(f"sweep needs at least 2 steps, got {self.steps!r}")
        if not self.detections or not self.reconciliations:
            raise InvalidParameter("at least one detection and one reconciliation required")
        for name in ("variance", "t", "w"):
            if name == self._swept_field and getattr(self, name) is not None:
                raise InvalidParameter(f"the swept parameter {self.parameter!r} must not also be fixed")
            if name != self._swept_field and getattr(self, name) is None:
                raise InvalidParameter(f"sweep is missing a fixed value for {name!r}")

    @property
    def _swept_field(self) -> str:
        """The field the grid replaces: ``variance`` for vd/ve, else t or w."""
        return "variance" if self.parameter in ("vd", "ve") else self.parameter


def _steps(steps) -> int:
    try:
        return operator.index(steps)
    except TypeError:
        raise InvalidParameter(f"steps must be an integer, got {steps!r}") from None


def grid(lo: float, hi: float, steps: int) -> list[float]:
    """Ascending uniform grid with exact endpoints."""
    if (steps := _steps(steps)) < 2:
        raise InvalidParameter("grid needs at least 2 steps")
    step = (hi - lo) / (steps - 1)
    values = [lo + i * step for i in range(steps)]
    values[-1] = hi
    return values


def _source_params(state: str, variance: float):
    if state == "discord":
        return DiscordStateParams(v=variance - 1.0)
    if state == "epr":
        return EprStateParams(v_e=variance)
    raise InvalidParameter(f"unknown state kind {state!r}")


def _source_cells(state, variance, channels, protocols, clamp_negative) -> list[tuple]:
    """One source's ResultRow values, in field order, per protocol pair at each (t, w) of ``channels``.

    Parameter errors propagate.  Any other GaussianStateError is recorded: the source's
    (discord, PPT eigenvalue), computed once, in every row, and a key rate's in its own row.
    """
    variance = float(variance)
    channels = [ChannelParams(t=t, w=w) for t, w in channels]
    source = _source_params(state, variance)
    try:
        discord_ppt, source_error = discord_and_ppt(*source.block_form()), ""
    except GaussianStateError as exc:
        source_error = str(exc)
    head = (state, variance - 1.0, variance)
    named = [(det, rec, det.value, rec.value) for det, rec in protocols]
    rows = []
    for channel in channels:
        for det, rec, det_name, rec_name in named:
            cells, error = (None,) * 5, source_error
            if not error:
                try:
                    r = key_rate(source, channel, det, rec)
                    cells = (*discord_ppt, r.i_ab, r.i_eve,
                             0.0 if clamp_negative and r.key_rate < 0.0 else r.key_rate)
                except GaussianStateError as exc:
                    error = str(exc)
            rows.append((*head, channel.t, channel.w, det_name, rec_name, *cells, error))
    return rows


def evaluate_point(
    state: str, variance: float, t: float, w: float, detection: Detection,
    reconciliation: Reconciliation, clamp_negative: bool = False,
) -> ResultRow:
    """Evaluate one grid point into a ResultRow.

    Parameter errors propagate; any other GaussianStateError raised during
    evaluation is recorded in the row's error field instead of aborting a
    sweep.
    """
    protocol = (Detection(detection), Reconciliation(reconciliation))
    return ResultRow(*_source_cells(state, variance, [(t, w)], [protocol], clamp_negative)[0])


def run_sweep(spec: SweepSpec) -> list[ResultRow]:
    """Evaluate the spec's grid, ascending in the swept parameter."""
    protocols = [(Detection(det), Reconciliation(rec))
                 for det in spec.detections for rec in spec.reconciliations]
    values = grid(spec.lo, spec.hi, spec.steps)
    if spec._swept_field == "variance":
        return [ResultRow(*cells) for value in values for cells in
                _source_cells(spec.state, value, [(spec.t, spec.w)], protocols, spec.clamp_negative)]
    channels = [(value, spec.w) if spec.parameter == "t" else (spec.t, value) for value in values]
    return [ResultRow(*cells) for cells in
            _source_cells(spec.state, spec.variance, channels, protocols, spec.clamp_negative)]


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def rows_to_csv(rows: Sequence[ResultRow]) -> str:
    return table_to_csv(CSV_HEADER.split(","), list(map(_row_values, rows)))


def rows_to_json(rows: Sequence[ResultRow]) -> str:
    return _table_to_json(_ROW_FIELDS, list(map(_row_values, rows)))


def _rows(header: Sequence[str], table: Sequence[Sequence]) -> list:
    """The table as a list, once the header is known to name a column and each row to fill them all."""
    table = list(table)
    if not header or set(map(len, table)) - {len(header)}:
        raise InvalidParameter(f"a table needs at least one column and {len(header)} values in every row")
    return table


def _table_to_json(header: Sequence[str], table: Sequence[Sequence]) -> str:
    """A JSON list with one object per row, keyed by the header: json.dumps(..., indent=2).

    The C encoder, which serves only unindented output, encodes all values at
    once with NUL between them (NUL inside a string is escaped), and one
    template repeated per row takes them all.
    """
    if not (table := _rows(header, table)):
        return "[]\n"
    values = json.dumps([v for row in table for v in row], separators=("\0", ":"))[1:-1].split("\0")
    template = "  {\n" + ",\n".join(
        "    " + json.dumps(key).replace("%", "%%") + ": %s" for key in header) + "\n  }"
    return "[\n" + ",\n".join([template] * len(table)) % tuple(values) + "\n]\n"


def _format_column(column: tuple) -> Sequence[str]:
    """_fmt of each value; a column of exact floats or of exact strs takes one call."""
    kinds = set(map(type, column))
    if kinds == {float}:
        return list(map(float.__repr__, column))
    return column if kinds == {str} else list(map(_fmt, column))


def table_to_csv(header: Sequence[str], table: Sequence[Sequence[float]]) -> str:
    columns = map(_format_column, zip(*_rows(header, table)))
    return "\n".join([",".join(header), *map(",".join, zip(*columns))]) + "\n"


def write_text_atomic(text: str, path: str) -> None:
    """Write via a temp file and rename, so no partial file survives a failure.

    The temp file is created with mode 0666 less the umask, as a file opened
    in place would be.  An OSError names ``path``.
    """
    directory = os.path.dirname(os.path.abspath(path))
    tmp_path = os.path.join(directory, f".tmp-{os.urandom(8).hex()}.part")
    try:
        fd = os.open(tmp_path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(text)
            os.replace(tmp_path, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp_path)
            raise
    except OSError as exc:
        # Name the path asked for: the temp file's random name would change from run to run.
        raise OSError(exc.errno, exc.strerror, path) from None


_FIG_CURVES = [("discord", 40.0, "discord_vd40"), ("discord", 1000.0, "discord_vd1000"),
               ("epr", 40.0, "epr_ve40")]

_FIG_RATE_PRESETS = {
    "fig3a": (Detection.HOMODYNE, Reconciliation.DIRECT),
    "fig3b": (Detection.HOMODYNE, Reconciliation.REVERSE),
    "fig4a": (Detection.HETERODYNE, Reconciliation.DIRECT),
    "fig4b": (Detection.HETERODYNE, Reconciliation.REVERSE),
}

_FIG5_PRESETS = {
    "fig5a": (Detection.HOMODYNE, Reconciliation.DIRECT, (0.75, 0.8, 0.9)),
    "fig5b": (Detection.HOMODYNE, Reconciliation.REVERSE, (0.75, 0.8, 0.9, 0.3)),
    "fig5c": (Detection.HETERODYNE, Reconciliation.DIRECT, (0.75, 0.8, 0.9)),
    "fig5d": (Detection.HETERODYNE, Reconciliation.REVERSE, (0.75, 0.8, 0.9)),
}

FIGURE_IDS = ("fig2",) + tuple(_FIG_RATE_PRESETS) + tuple(_FIG5_PRESETS)


def figure_table(
    figure_id: str, *, w: float = 1.0, steps: int = FIGURE_STEPS, clamp_negative: bool = False
) -> tuple[list[str], list[list[float]]]:
    """Columns for one preset figure as (header, rows).

    fig2 tabulates discord and the partial-transpose eigenvalue against the
    state variance; fig3/fig4 tabulate the three key-rate curves against T;
    fig5 tabulates key rates at fixed transmissions against the per-point
    discord value.  W is validated for every preset, fig2 included.
    """
    ChannelParams(t=1.0, w=w)
    if figure_id == "fig2":
        return ["vd", "discord", "ppt_nu"], [
            [vd, *discord_and_ppt(*_source_params("discord", vd).block_form())]
            for vd in grid(1.0, 1000.0, steps)]
    if figure_id in _FIG_RATE_PRESETS:
        protocol = [_FIG_RATE_PRESETS[figure_id]]
        header = ["t"] + [label for _, _, label in _FIG_CURVES]
        ts = grid(0.0, 1.0, steps)
        curves = [[row[_KEY_RATE] for row in
                   _source_cells(state, variance, [(t, w) for t in ts], protocol, clamp_negative)]
                  for state, variance, _ in _FIG_CURVES]
        return header, list(map(list, zip(ts, *curves)))
    if figure_id in _FIG5_PRESETS:
        det, rec, t_values = _FIG5_PRESETS[figure_id]
        header = ["vd", "discord"] + [f"kr_t{t:g}" for t in t_values]
        sources = [_source_cells("discord", vd, [(t, w) for t in t_values], [(det, rec)], clamp_negative)
                   for vd in grid(1.0, 1000.0, steps)]
        return header, [[rows[0][_VARIANCE], rows[0][_DISCORD]] + [row[_KEY_RATE] for row in rows]
                        for rows in sources]
    raise UnknownFigure(f"unknown figure id {figure_id!r}; known: {', '.join(FIGURE_IDS)}")


def find_sign_change(f: Callable[[float], float], lo: float, hi: float) -> float:
    """Locate a sign change of f on a finite [lo, hi], lo < hi, to a few ulps.

    Illinois regula falsi (Dowell & Jarratt, BIT 11, 168 (1971)): the secant's
    root replaces one end of the bracket, and an end kept again has its f value
    halved; the midpoint stands in where rounding puts that root outside.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo >= hi:
        raise InvalidParameter(f"search bracket must satisfy lo < hi, got [{lo!r}, {hi!r}]")
    f_lo = f(lo)
    if f_lo == 0.0:
        return lo
    f_hi = f(hi)
    if f_hi == 0.0:
        return hi
    if f_lo * f_hi > 0.0:
        raise NoSignChange(lo, hi, f_lo, f_hi)
    last, f_last, kept, f_kept = hi, f_hi, lo, f_lo
    while f_last != 0.0 and abs(last - kept) > 4.0 * math.ulp(max(abs(last), abs(kept))):
        x = last - (last - kept) * (f_last / (f_last - f_kept))
        if not min(last, kept) < x < max(last, kept):
            x = 0.5 * (last + kept)
        f_x = f(x)
        if (f_x < 0.0) != (f_last < 0.0):
            kept, f_kept = last, f_last
        else:
            f_kept *= 0.5
        last, f_last = x, f_x
    return last


def threshold_on_t(
    state: str, variance: float, w: float, detection: Detection,
    reconciliation: Reconciliation, bracket: tuple[float, float] = _T_BRACKET,
) -> float:
    """Transmission at which the key rate changes sign, to a few ulps; a failed point raises."""
    source = _source_params(state, float(variance))
    det, rec = Detection(detection), Reconciliation(reconciliation)
    return find_sign_change(lambda t: key_rate(source, ChannelParams(t=t, w=w), det, rec).key_rate,
                            bracket[0], bracket[1])


def threshold_on_discord(
    t: float, w: float, detection: Detection, reconciliation: Reconciliation,
    bracket: tuple[float, float] = _VD_BRACKET,
) -> float:
    """Discord value (bits) at which the discord-state key rate changes sign.

    The search runs over the state variance, where the key rate is evaluated,
    and maps the variance it finds to discord, which is monotone in it.
    Raises InvalidParameter unless the bracket is finite with lo < hi, and
    the error of a point that fails to evaluate.
    """
    channel, det, rec = ChannelParams(t=t, w=w), Detection(detection), Reconciliation(reconciliation)

    def rate(vd: float) -> float:
        return key_rate(_source_params("discord", vd), channel, det, rec).key_rate

    lo, hi = bracket
    step = max(1e-6, (hi - lo) * 1e-6)
    vd_star = find_sign_change(rate, lo, hi)
    # V_D = 1 is a product state whose key rate vanishes identically; step past
    # that degenerate zero instead of mistaking it for the threshold.  Only a
    # zero at lo makes the search return lo, as its root lies strictly inside.
    while vd_star == lo:
        if lo + step >= hi:
            raise NoSignChange(lo, hi, 0.0, rate(hi))
        lo += step
        step *= 10.0
        vd_star = find_sign_change(rate, lo, hi)
    return discord_and_ppt(*_source_params("discord", vd_star).block_form())[0]
