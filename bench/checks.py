"""Checks of the workloads' outputs against references made apart from the program.

* ``tests/highprec.py``: 50-digit ``decimal`` transcriptions of the closed
  forms (key rate, mutual information, attacker information, discord, PPT
  eigenvalue), imported read-only;
* ``tests/oracles.py``: the cloner as an explicit 8x8 beam-splitter map;
* closed forms the method must satisfy, and the abstract's two claims where
  acceptance criteria A3 and A4 say the model makes them.

A ``Checker`` collects problems (an empty list means every check passed)
and the largest error seen by each tolerance check.
"""

from __future__ import annotations

import json
import math
import random
from decimal import InvalidOperation, localcontext
from functools import lru_cache
from types import SimpleNamespace

import numpy as np

import highprec as hp
import oracles

from discordqkd import keyrate, states, sweeps, symplectic
from discordqkd.channel import ChannelParams, apply_entangling_cloner
from discordqkd.keyrate import Detection, Reconciliation

#: Tolerances, each stated in the README.  Errors seen on the reference
#: machine are in the README too.
TOL_INFO = 1e-9         # key_rate, i_ab, i_eve vs highprec, absolute (bits)
TOL_DISCORD = 1e-9      # discord-state discord vs highprec, absolute (bits)
TOL_EPR_DISCORD = 1e-4  # EPR discord vs g(V_E), absolute (bits)
TOL_PPT_DISCORD = 1e-12  # discord-state ppt_nu vs 1, absolute
TOL_PPT_EPR = 1e-8      # EPR ppt_nu vs V_E - sqrt(V_E^2 - 1), relative
TOL_CHANNEL = 1e-12     # cloner blocks vs the 8x8 construction, relative to the largest entry
SEARCH_XTOL = 1e-4      # bisection tolerance the CLI documents for thresholds

#: Rows of the CSV schema, as the README documents it.
CSV_HEADER = "state,V,variance,T,W,detection,reconciliation,discord,ppt_nu,i_ab,i_eve,key_rate,error"
ROW_FLOATS = ("V", "variance", "T", "W", "discord", "ppt_nu", "i_ab", "i_eve", "key_rate")
ROW_ATTRS = ("v", "variance", "t", "w", "discord", "ppt_nu", "i_ab", "i_eve", "key_rate")

#: How many sweep rows and figure cells per run are checked against highprec.
SAMPLE_ROWS = 400
SAMPLE_CELLS = 200

#: A3's span of T at V = 40, W = 1, and the bracket of its heterodyne-DR crossing.
DOMINANCE_T = (0.6, 0.99)
CROSSING_BRACKET = (0.5, 0.99)
#: fig3a..fig4b: the three curves against T at W = 1 for each protocol.
RATE_FIGURES = {"fig3a": ("hom", "dr"), "fig3b": ("hom", "rr"),
                "fig4a": ("het", "dr"), "fig4b": ("het", "rr")}
#: fig5a..fig5d: key rates against the per-row discord at the T of each kr_t<T> column.
DISCORD_FIGURES = {"fig5a": ("hom", "dr"), "fig5b": ("hom", "rr"),
                   "fig5c": ("het", "dr"), "fig5d": ("het", "rr")}


class Checker:
    def __init__(self):
        self.problems: list[str] = []
        self.worst: dict[str, float] = {}

    def require(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)

    def close(self, name: str, got, want: float, tol: float, where, relative=False) -> None:
        err = abs(got - want) if isinstance(got, float) else math.inf
        if relative:
            err /= abs(want)
        self.worst[name] = max(self.worst.get(name, 0.0), err)
        self.require(err <= tol, f"{name} at {where}: got {got!r}, want {want!r} (tol {tol:g})")


def _source(state: str, variance: float):
    return hp.discord_source(variance) if state == "discord" else hp.epr_source(variance)


def _info(state, variance, t, w, det, rec):
    sc = hp.ClonerScalars(*_source(state, variance), t, w)
    i_ab = hp.mutual_info_hom(sc) if det == "hom" else hp.mutual_info_het(sc)
    i_eve = hp.eve_entropy(sc) - hp.eve_conditional_entropy(sc, det, rec)
    return float(i_ab), float(i_eve), float(i_ab - i_eve)


@lru_cache(maxsize=None)
def ref_info(state, variance, t, w, det, rec) -> tuple[float, float, float]:
    """(i_ab, i_eve, key_rate) from the 50-digit reference.

    Where the attacker's state is pure (T = 1 with W > 1), 50 digits leave a
    symplectic eigenvalue about 1e-25 below 1, outside highprec's 1e-30
    purity guard, and its entropy takes the log of a negative number; such a
    point is evaluated again at 80 digits.
    """
    try:
        return _info(state, variance, t, w, det, rec)
    except InvalidOperation:
        with localcontext() as ctx:
            ctx.prec = 80
            return _info(state, variance, t, w, det, rec)


def ref_key(state, variance, t, w, det, rec) -> float:
    return ref_info(state, variance, t, w, det, rec)[2]


@lru_cache(maxsize=None)
def ref_discord_state_discord(v_d: float) -> float:
    return float(hp.gaussian_discord(*hp.discord_state_invariants(hp.d(v_d) - 1)))


@lru_cache(maxsize=None)
def epr_discord_exact(v_e: float) -> float:
    """Discord of the pure EPR state: the entropy of one mode, g(V_E), in bits."""
    return float(hp.entropy_term(hp.d(v_e)))


def epr_ppt_exact(v_e: float) -> float:
    """V_E - sqrt(V_E^2 - 1), written without the cancellation."""
    return 1.0 / (v_e + math.sqrt(v_e * v_e - 1.0))


def check_source(ck: Checker, state: str, variance: float, discord, ppt_nu) -> None:
    """Discord and ppt_nu of a source against highprec and closed forms."""
    where = (state, variance)
    if state == "discord":
        ck.close("discord", discord, ref_discord_state_discord(variance), TOL_DISCORD, where)
        ck.close("ppt_nu.discord", ppt_nu, 1.0, TOL_PPT_DISCORD, where)
    else:
        ck.close("discord.epr", discord, epr_discord_exact(variance), TOL_EPR_DISCORD, where)
        ck.close("ppt_nu.epr", ppt_nu, epr_ppt_exact(variance), TOL_PPT_EPR, where, relative=True)


def check_row_identity(ck: Checker, row) -> None:
    ck.require(row.key_rate == row.i_ab - row.i_eve,
               f"key_rate != i_ab - i_eve at {_where(row)}: {row.key_rate!r}")


def check_row_reference(ck: Checker, row) -> None:
    """i_ab, i_eve and key_rate of one row against the 50-digit reference."""
    ref = ref_info(row.state, row.variance, row.t, row.w, row.detection, row.reconciliation)
    for name, got, want in zip(("i_ab", "i_eve", "key_rate"),
                               (row.i_ab, row.i_eve, row.key_rate), ref):
        ck.close(name, got, want, TOL_INFO, _where(row))


def _where(row):
    return (row.state, row.variance, row.t, row.w, row.detection, row.reconciliation)


def source_matrix(state: str, variance: float) -> np.ndarray:
    """The source covariance [[aI, cZ], [cZ, bI]] from its closed form."""
    a, b, c = (float(x) for x in _source(state, variance))
    z = np.diag([1.0, -1.0])
    return np.block([[a * np.eye(2), c * z], [c * z, b * np.eye(2)]])


def check_channel(ck: Checker, source4: np.ndarray, t: float, w: float, out) -> None:
    """A cloner output against the explicit 8x8 beam-splitter construction."""
    ab, e, d_dr, d_rr = oracles.beam_splitter_outputs(source4, t, w)
    e = oracles.FLIP_E_PRIME @ e @ oracles.FLIP_E_PRIME
    pairs = (("sigma_ab", out.sigma_ab.matrix, ab), ("sigma_e", out.sigma_e.matrix, e),
             ("d_dr", np.abs(out.d_dr), np.abs(d_dr)), ("d_rr", np.abs(out.d_rr), np.abs(d_rr)))
    for name, got, want in pairs:
        err = float(np.abs(got - want).max()) / max(1.0, float(np.abs(want).max()))
        ck.close("channel." + name, err, 0.0, TOL_CHANNEL, (float(source4[0, 0]), t, w))


def check_point_channel(ck: Checker, state: str, variance: float, t: float, w: float) -> None:
    sigma4 = source_matrix(state, variance)
    if state == "discord":
        params = states.DiscordStateParams(v=variance - 1.0)
    else:
        params = states.EprStateParams(v_e=variance)
    out = apply_entangling_cloner(keyrate.make_source_state(params), ChannelParams(t=t, w=w))
    check_channel(ck, sigma4, t, w, out)


def check_t_threshold(ck: Checker, state, variance, w, det, rec, t_star) -> None:
    """The reference key rate changes sign within one search tolerance of t_star."""
    det, rec = Detection(det).value, Reconciliation(rec).value
    lo = ref_key(state, variance, t_star - SEARCH_XTOL, w, det, rec)
    hi = ref_key(state, variance, t_star + SEARCH_XTOL, w, det, rec)
    ck.require(lo * hi < 0.0, f"no reference sign change around T* = {t_star!r} for "
               f"{(state, variance, w, det, rec)}: {lo!r}, {hi!r}")


def _vd_with_discord_in(lo_d: float, hi_d: float):
    """A V_D in [1, 1000] whose reference discord lies in [lo_d, hi_d], or None."""
    lo, hi = 1.0, 1000.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        value = ref_discord_state_discord(mid)
        if value < lo_d:
            lo = mid
        elif value > hi_d:
            hi = mid
        else:
            return mid
    return None


def check_discord_threshold(ck: Checker, t, w, det, rec, d_star) -> None:
    """The reference key rate changes sign between discord d_star -/+ one tolerance."""
    det, rec = Detection(det).value, Reconciliation(rec).value
    below = _vd_with_discord_in(d_star - SEARCH_XTOL, d_star - SEARCH_XTOL / 2)
    above = _vd_with_discord_in(d_star + SEARCH_XTOL / 2, d_star + SEARCH_XTOL)
    where = (t, w, det, rec, d_star)
    if below is None or above is None:
        ck.require(False, f"discord threshold outside the reference range: {where}")
        return
    k_below = ref_key("discord", below, t, w, det, rec)
    k_above = ref_key("discord", above, t, w, det, rec)
    ck.require(k_below * k_above < 0.0,
               f"no reference sign change around D* at {where}: {k_below!r}, {k_above!r}")


@lru_cache(maxsize=None)
def reference_crossing() -> float:
    """T where K_epr - K_disc changes sign at V = 40, W = 1, heterodyne DR (A8)."""
    def diff(t):
        return (ref_key("epr", 40.0, t, 1.0, "het", "dr")
                - ref_key("discord", 40.0, t, 1.0, "het", "dr"))

    lo, hi = CROSSING_BRACKET
    f_lo = diff(lo)
    while hi - lo > SEARCH_XTOL:
        mid = 0.5 * (lo + hi)
        if diff(mid) * f_lo < 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def check_dominance(ck: Checker, t: float, det: str, rec: str, k_epr: float, k_disc: float) -> None:
    """A3: at V = 40, W = 1 the EPR state gives strictly more key, except
    heterodyne DR below the crossing, where the discord state does."""
    t_cross = reference_crossing()
    if not DOMINANCE_T[0] <= t <= DOMINANCE_T[1] or abs(t - t_cross) <= 2 * SEARCH_XTOL:
        return
    reverse = det == "het" and rec == "dr" and t < t_cross
    ok = k_disc > k_epr if reverse else k_epr > k_disc
    ck.require(ok, f"A3 dominance at T = {t!r}, {det}-{rec}: epr {k_epr!r}, discord {k_disc!r}")


def check_rate_figure(ck: Checker, figure_id: str, header, table) -> None:
    """A3 and A4 on one of fig3a..fig4b (W = 1)."""
    det, rec = RATE_FIGURES[figure_id]
    col = {name: i for i, name in enumerate(header)}
    for row in table:
        t, k40, k1000, k_epr = (row[col[n]] for n in ("t", "discord_vd40", "discord_vd1000", "epr_ve40"))
        check_dominance(ck, t, det, rec, k_epr, k40)
        if k40 > 0.0:
            ck.require(k1000 >= k40, f"A4 monotonicity in {figure_id} at T = {t!r}: "
                       f"V_D=1000 {k1000!r} < V_D=40 {k40!r}")


def figure_cells(figure_id: str, header, table, w: float = 1.0):
    """(state, variance, t, w, det, rec, key_rate) of every key-rate cell of a preset,
    and (V_D, discord, ppt_nu or None) of every source cell."""
    keys, sources = [], []
    col = {name: i for i, name in enumerate(header)}
    for row in table:
        if figure_id == "fig2":
            sources.append((row[col["vd"]], row[col["discord"]], row[col["ppt_nu"]]))
        elif figure_id in RATE_FIGURES:
            det, rec = RATE_FIGURES[figure_id]
            for name, state, variance in (("discord_vd40", "discord", 40.0),
                                          ("discord_vd1000", "discord", 1000.0),
                                          ("epr_ve40", "epr", 40.0)):
                keys.append((state, variance, row[col["t"]], w, det, rec, row[col[name]]))
        else:
            det, rec = DISCORD_FIGURES[figure_id]
            vd = row[col["vd"]]
            sources.append((vd, row[col["discord"]], None))
            for name in header:
                if name.startswith("kr_t"):
                    keys.append(("discord", vd, float(name[4:]), w, det, rec, row[col[name]]))
    return keys, sources


def check_tables(ck: Checker, tables: dict, rng: random.Random) -> None:
    """Checks on every preset; rows with a failed cell were counted as failed."""
    cells = []
    for figure_id, (header, table) in tables.items():
        table = [row for row in table if None not in row]
        if figure_id in RATE_FIGURES:
            check_rate_figure(ck, figure_id, header, table)
        keys, sources = figure_cells(figure_id, header, table)
        cells += keys
        for vd, discord, ppt_nu in sources:
            ck.close("discord", discord, ref_discord_state_discord(vd), TOL_DISCORD, ("discord", vd))
            if ppt_nu is not None:
                ck.close("ppt_nu.discord", ppt_nu, 1.0, TOL_PPT_DISCORD, ("discord", vd))
    for state, variance, t, w, det, rec, value in rng.sample(cells, min(SAMPLE_CELLS, len(cells))):
        where = (state, variance, t, w, det, rec)
        ck.close("key_rate", value, ref_key(*where), TOL_INFO, where)
        check_point_channel(ck, state, variance, t, w)


def check_sweeps(ck: Checker, sweep_rows: dict, rng: random.Random) -> None:
    rows = [row for name in sorted(sweep_rows) for row in sweep_rows[name]]
    seen = set()
    for row in rows:
        check_row_identity(ck, row)
        if (row.state, row.variance) not in seen:
            seen.add((row.state, row.variance))
            check_source(ck, row.state, row.variance, row.discord, row.ppt_nu)
    for row in rng.sample(rows, min(SAMPLE_ROWS, len(rows))):
        check_row_reference(ck, row)
        check_point_channel(ck, row.state, row.variance, row.t, row.w)
    by_key = {}
    for row in sweep_rows.get("sweep_t_discord", []) + sweep_rows.get("sweep_t_epr", []):
        by_key.setdefault((row.t, row.detection, row.reconciliation), {})[row.state] = row.key_rate
    for (t, det, rec), pair in by_key.items():
        if len(pair) == 2:
            check_dominance(ck, t, det, rec, pair["epr"], pair["discord"])


def check_searches(ck: Checker, searches, values) -> None:
    for search, value in zip(searches, values):
        if value is None:
            continue  # counted as a failed operation
        if search.kind == "t":
            check_t_threshold(ck, *search.args, value)
        else:
            check_discord_threshold(ck, *search.args, value)


def flags(argv) -> dict:
    """--name value pairs of a CLI argv."""
    return {argv[i][2:]: argv[i + 1] for i in range(len(argv) - 1)
            if argv[i].startswith("--") and not argv[i + 1].startswith("--")}


def parse_csv_rows(ck: Checker, text: str, where: str) -> list:
    """Rows of CLI output in the documented CSV schema; none if the header differs."""
    lines = text.splitlines()
    ck.require(lines[:1] == [CSV_HEADER], f"{where}: header {lines[:1]!r}")
    if lines[:1] != [CSV_HEADER]:
        return []
    rows = []
    for line in lines[1:]:
        raw = dict(zip(CSV_HEADER.split(","), line.split(",")))
        values = {attr: float(raw[col]) for attr, col in zip(ROW_ATTRS, ROW_FLOATS)}
        rows.append(SimpleNamespace(state=raw["state"], detection=raw["detection"],
                                    reconciliation=raw["reconciliation"], error=raw["error"],
                                    **values))
    return rows


def same_row(ck: Checker, parsed, row, where: str) -> None:
    """Parsed CLI values equal the in-process floats exactly."""
    for attr in ROW_ATTRS + ("state", "detection", "reconciliation"):
        ck.require(getattr(parsed, attr) == getattr(row, attr),
                   f"{where}: {attr} {getattr(parsed, attr)!r} != in-process {getattr(row, attr)!r}")


def _check_result_rows(ck: Checker, parsed_rows, rows, where: str) -> None:
    ck.require(len(parsed_rows) == len(rows), f"{where}: {len(parsed_rows)} rows, want {len(rows)}")
    for parsed, row in zip(parsed_rows, rows):
        same_row(ck, parsed, row, where)
        check_row_identity(ck, parsed)
        check_row_reference(ck, parsed)
        check_source(ck, parsed.state, parsed.variance, parsed.discord, parsed.ppt_nu)


def check_command(ck: Checker, command, result) -> None:
    """One CLI invocation: its output against the in-process call and the references."""
    code, stdout, written, main_code, main_stdout = result
    if code != 0:
        return  # counted as a failed operation
    output = written if command.out else stdout
    ck.require(main_code == 0, f"{command.name}: cli.main returned {main_code}")
    ck.require(output == main_stdout.encode(),
               f"{command.name}: {'--out file' if command.out else 'stdout'} differs from "
               "the stdout of the same command")
    text = output.decode()
    f = flags(command.argv)
    where = f"cli {command.name}"
    if command.name in ("eval_csv", "eval_json"):
        state = f["state"]
        variance = float(f["vd"] if state == "discord" else f["ve"])
        row = sweeps.evaluate_point(state, variance, float(f["t"]), float(f["w"]),
                                    Detection(f["det"]), Reconciliation(f["rec"]))
        if command.name == "eval_csv":
            parsed = parse_csv_rows(ck, text, where)
        else:
            parsed = [SimpleNamespace(**item) for item in json.loads(text)]
        _check_result_rows(ck, parsed, [row], where)
    elif command.name == "sweep":
        parsed = parse_csv_rows(ck, text, where)
        lo, hi = (float(x) for x in f["range"].split(":"))
        spec = sweeps.SweepSpec(
            parameter=f["sweep"], lo=lo, hi=hi, steps=int(f["steps"]), state=f["state"],
            variance=float(f["vd"]), t=None, w=float(f["w"]),
            detections=list(Detection), reconciliations=list(Reconciliation))
        _check_result_rows(ck, parsed, sweeps.run_sweep(spec), where)
    elif command.name == "figure":
        figure_id = command.argv[1]
        header, table = sweeps.figure_table(figure_id, w=float(f["w"]), steps=int(f["steps"]))
        lines = text.splitlines()
        ck.require(lines[0] == ",".join(header), f"{where}: header {lines[0]!r}")
        parsed = [[float(x) if x else None for x in line.split(",")] for line in lines[1:]]
        ck.require(parsed == table, f"{where}: parsed table differs from figure_table")
        for *key, value in figure_cells(figure_id, header, table, w=float(f["w"]))[0]:
            ck.close("key_rate", value, ref_key(*key), TOL_INFO, tuple(key))
    elif command.name == "threshold":
        value = float(text)
        args = ("discord", float(f["vd"]), float(f["w"]), Detection(f["det"]), Reconciliation(f["rec"]))
        ck.require(value == sweeps.threshold_on_t(*args), f"{where}: {value!r} differs in process")
        check_t_threshold(ck, *args, value)
    elif command.name == "discord":
        value = float(text)
        vd = float(f["vd"])
        sigma = states.make_discord_state(states.DiscordStateParams(v=vd - 1.0))
        ck.require(value == states.gaussian_discord(sigma), f"{where}: {value!r} differs in process")
        ck.close("discord", value, ref_discord_state_discord(vd), TOL_DISCORD, ("discord", vd))
    elif command.name == "ppt":
        value = float(text)
        ve = float(f["ve"])
        sigma = states.make_epr_state(states.EprStateParams(v_e=ve))
        ck.require(value == symplectic.ppt_min_eigenvalue(sigma), f"{where}: {value!r} differs in process")
        ck.close("ppt_nu.epr", value, epr_ppt_exact(ve), TOL_PPT_EPR, ("epr", ve), relative=True)
    else:
        ck.require(False, f"no check for command {command.name!r}")


def check_round(inputs, result, seed: int) -> Checker:
    """Every check on the outputs of one round; rows are sampled with ``seed``."""
    ck = Checker()
    rng = random.Random(seed)
    check_sweeps(ck, result.sweep_rows, rng)
    check_tables(ck, result.tables, rng)
    check_searches(ck, inputs.searches, result.thresholds)
    for command in inputs.commands:
        check_command(ck, command, result.commands[command.name])
    return ck
