"""Parameter sweeps, figure presets, and threshold searches.

Sweep evaluation is purely functional, so repeated runs of the same spec
produce byte-identical output.  Rows are always emitted in ascending order
of the swept parameter (then detection, then reconciliation).  Numbers are
formatted with shortest round-trip precision, so parsing a file recovers the
computed floats exactly.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, fields
from typing import Callable, Optional, Sequence

from .channel import ChannelParams
from .errors import GaussianStateError, InvalidParameter, NoSignChange, UnknownFigure
from .keyrate import Detection, ProtocolConfig, Reconciliation, secret_key_rate
from .states import DiscordStateParams, EprStateParams, discord_and_ppt

CSV_HEADER = "state,V,variance,T,W,detection,reconciliation,discord,ppt_nu,i_ab,i_eve,key_rate,error"

SWEEPABLE = ("vd", "ve", "t", "w")

#: Grid density used by the figure presets.
FIGURE_STEPS = 201

_T_BRACKET = (0.01, 0.99)
_VD_BRACKET = (1.0, 1000.0)
_BISECTION_XTOL = 1e-4


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
        return [getattr(self, f.name) for f in fields(self)]


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
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)) or self.lo > self.hi:
            raise InvalidParameter(f"sweep range must satisfy lo <= hi, got [{self.lo!r}, {self.hi!r}]")
        if self.steps < 2:
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


def grid(lo: float, hi: float, steps: int) -> list[float]:
    """Ascending uniform grid with exact endpoints."""
    if steps < 2:
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


def evaluate_point(
    state: str,
    variance: float,
    t: float,
    w: float,
    detection: Detection,
    reconciliation: Reconciliation,
    clamp_negative: bool = False,
) -> ResultRow:
    """Evaluate one grid point into a ResultRow.

    Parameter errors propagate; any other GaussianStateError raised during
    evaluation is recorded in the row's error field instead of aborting a
    sweep.
    """
    variance, t, w = float(variance), float(t), float(w)
    source = _source_params(state, variance)
    config = ProtocolConfig(
        detection=detection,
        reconciliation=reconciliation,
        source=source,
        channel=ChannelParams(t=t, w=w),
    )
    common = dict(
        state=state,
        v=variance - 1.0,
        variance=variance,
        t=t,
        w=w,
        detection=detection.value,
        reconciliation=reconciliation.value,
    )
    try:
        discord, ppt = discord_and_ppt(*source.block_form())
        report = secret_key_rate(config)
    except GaussianStateError as exc:
        return ResultRow(
            discord=None, ppt_nu=None, i_ab=None, i_eve=None, key_rate=None,
            error=str(exc), **common,
        )
    key = report.key_rate
    if clamp_negative and key < 0.0:
        key = 0.0
    return ResultRow(
        discord=discord,
        ppt_nu=ppt,
        i_ab=report.i_ab,
        i_eve=report.i_eve,
        key_rate=key,
        **common,
    )


def run_sweep(spec: SweepSpec) -> list[ResultRow]:
    """Evaluate the spec's grid, ascending in the swept parameter."""
    rows = []
    for value in grid(spec.lo, spec.hi, spec.steps):
        fixed = {"variance": spec.variance, "t": spec.t, "w": spec.w, spec._swept_field: value}
        for det in spec.detections:
            for rec in spec.reconciliations:
                rows.append(
                    evaluate_point(
                        spec.state, fixed["variance"], fixed["t"], fixed["w"],
                        det, rec, clamp_negative=spec.clamp_negative,
                    )
                )
    return rows


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def rows_to_csv(rows: Sequence[ResultRow]) -> str:
    lines = [CSV_HEADER]
    lines.extend(",".join(_fmt(v) for v in row.as_list()) for row in rows)
    return "\n".join(lines) + "\n"


def rows_to_json(rows: Sequence[ResultRow]) -> str:
    return _table_to_json([f.name for f in fields(ResultRow)], [row.as_list() for row in rows])


def _table_to_json(header: Sequence[str], table: Sequence[Sequence]) -> str:
    """A JSON list with one object per row, keyed by the header."""
    return json.dumps([dict(zip(header, row)) for row in table], indent=2) + "\n"


def table_to_csv(header: Sequence[str], table: Sequence[Sequence[float]]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in table)
    return "\n".join(lines) + "\n"


def write_text_atomic(text: str, path: str) -> None:
    """Write via a temp file and rename, so no partial file survives a failure.

    The temp file is created with mode 0666 less the umask, as a file opened
    in place would be.
    """
    directory = os.path.dirname(os.path.abspath(path))
    tmp_path = os.path.join(directory, f".tmp-{os.urandom(8).hex()}.part")
    fd = os.open(tmp_path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


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


def _discord_state_invariants(vd: float) -> tuple[float, float]:
    """(discord in bits, PPT eigenvalue) of the discord state of variance V_D."""
    return discord_and_ppt(*DiscordStateParams(v=vd - 1.0).block_form())


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
        header = ["vd", "discord", "ppt_nu"]
        table = []
        for vd in grid(1.0, 1000.0, steps):
            table.append([vd, *_discord_state_invariants(vd)])
        return header, table
    if figure_id in _FIG_RATE_PRESETS:
        det, rec = _FIG_RATE_PRESETS[figure_id]
        header = ["t"] + [label for _, _, label in _FIG_CURVES]
        table = []
        for t in grid(0.0, 1.0, steps):
            row = [t]
            for state, variance, _ in _FIG_CURVES:
                row.append(evaluate_point(state, variance, t, w, det, rec,
                                          clamp_negative=clamp_negative).key_rate)
            table.append(row)
        return header, table
    if figure_id in _FIG5_PRESETS:
        det, rec, t_values = _FIG5_PRESETS[figure_id]
        header = ["vd", "discord"] + [f"kr_t{t:g}" for t in t_values]
        table = []
        for vd in grid(1.0, 1000.0, steps):
            row = [vd, _discord_state_invariants(vd)[0]]
            for t in t_values:
                row.append(evaluate_point("discord", vd, t, w, det, rec,
                                          clamp_negative=clamp_negative).key_rate)
            table.append(row)
        return header, table
    raise UnknownFigure(f"unknown figure id {figure_id!r}; known: {', '.join(FIGURE_IDS)}")


def bisect_sign_change(
    f: Callable[[float], float], lo: float, hi: float, xtol: float = _BISECTION_XTOL
) -> float:
    """Locate a sign change of f on [lo, hi] to absolute xtol by bisection."""
    f_lo, f_hi = f(lo), f(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if f_lo * f_hi > 0.0:
        raise NoSignChange(lo, hi, f_lo, f_hi)
    while hi - lo > xtol:
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if f_mid * f_lo < 0.0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)


def _key_rate_fn(state, variance, w, det, rec) -> Callable[[float], float]:
    def f(t: float) -> float:
        return evaluate_point(state, variance, t, w, det, rec).key_rate

    return f


def threshold_on_t(
    state: str, variance: float, w: float, detection: Detection,
    reconciliation: Reconciliation, bracket: tuple[float, float] = _T_BRACKET,
    xtol: float = _BISECTION_XTOL,
) -> float:
    """Transmission at which the key rate changes sign."""
    f = _key_rate_fn(state, variance, w, detection, reconciliation)
    return bisect_sign_change(f, bracket[0], bracket[1], xtol)


def threshold_on_discord(
    t: float, w: float, detection: Detection, reconciliation: Reconciliation,
    bracket: tuple[float, float] = _VD_BRACKET, xtol: float = _BISECTION_XTOL,
) -> float:
    """Discord value (bits) at which the discord-state key rate changes sign.

    The search runs over the state variance, where the key rate is evaluated,
    and converges once the discord values bounding the sign change are within
    xtol of each other; discord is monotone in the variance.
    """
    def row_of(vd: float) -> ResultRow:
        return evaluate_point("discord", vd, t, w, detection, reconciliation)

    lo, hi = bracket
    row_lo, row_hi = row_of(lo), row_of(hi)
    k_lo, k_hi = row_lo.key_rate, row_hi.key_rate
    # V_D = 1 is a product state whose key rate vanishes identically; step past
    # that degenerate zero instead of mistaking it for the threshold.
    step = max(1e-6, (hi - lo) * 1e-6)
    while k_lo == 0.0 and lo + step < hi:
        lo += step
        step *= 10.0
        row_lo = row_of(lo)
        k_lo = row_lo.key_rate
    if k_hi == 0.0:
        return row_hi.discord
    if k_lo == 0.0 or k_lo * k_hi > 0.0:
        raise NoSignChange(lo, hi, k_lo, k_hi)
    # Each row carries its point's discord, so a moved end costs no extra work.
    d_lo, d_hi = row_lo.discord, row_hi.discord
    for _ in range(200):
        if abs(d_hi - d_lo) <= xtol:
            break
        mid = 0.5 * (lo + hi)
        row_mid = row_of(mid)
        k_mid = row_mid.key_rate
        if k_mid == 0.0:
            return row_mid.discord
        if k_mid * k_lo < 0.0:
            hi, d_hi = mid, row_mid.discord
        else:
            lo, k_lo, d_lo = mid, k_mid, row_mid.discord
    return _discord_state_invariants(0.5 * (lo + hi))[0]
