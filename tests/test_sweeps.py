"""Tests for grid sweeps, file output, figure presets, and threshold search."""

import dataclasses
import json
import math
import os
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discordqkd import (
    CSV_HEADER,
    DegenerateMatrix,
    Detection,
    InvalidParameter,
    NonPhysicalState,
    NoSignChange,
    Reconciliation,
    ResultRow,
    SweepSpec,
    UnknownFigure,
    evaluate_point,
    figure_table,
    grid,
    rows_to_csv,
    rows_to_json,
    run_sweep,
    threshold_on_discord,
    threshold_on_t,
)
from discordqkd import sweeps as sweeps_mod
from discordqkd.sweeps import SWEEPABLE, _table_to_json, find_sign_change, table_to_csv, write_text_atomic

import highprec as hp


def _spec(**overrides):
    base = dict(
        parameter="t", lo=0.0, hi=1.0, steps=11, state="discord",
        variance=40.0, t=None, w=1.0,
        detections=[Detection.HOMODYNE], reconciliations=[Reconciliation.REVERSE],
    )
    base.update(overrides)
    return SweepSpec(**base)


class TestGrid:
    def test_endpoints_and_spacing(self):
        values = grid(0.0, 1.0, 11)
        assert values[0] == 0.0
        assert values[-1] == 1.0
        assert len(values) == 11
        assert values == sorted(values)
        assert values[5] == pytest.approx(0.5, abs=1e-15)

    def test_too_few_steps(self):
        with pytest.raises(InvalidParameter):
            grid(0.0, 1.0, 1)
        with pytest.raises(InvalidParameter, match="steps must be an integer"):
            figure_table("fig3b", steps=2.5)


class TestEvaluatePoint:
    def test_row_contents(self):
        row = evaluate_point(
            "discord", 40.0, 0.9, 1.0, Detection.HETERODYNE, Reconciliation.REVERSE
        )
        assert row.state == "discord"
        assert row.v == 39.0
        assert row.variance == 40.0
        assert row.error == ""
        assert row.key_rate == row.i_ab - row.i_eve
        assert row.ppt_nu == pytest.approx(1.0, abs=1e-9)

    def test_epr_row_noise_column(self):
        row = evaluate_point("epr", 40.0, 0.5, 1.0, Detection.HOMODYNE, Reconciliation.DIRECT)
        assert row.v == 39.0
        assert row.variance == 40.0
        assert row.ppt_nu == pytest.approx(40.0 - math.sqrt(1599.0), rel=1e-9)

    def test_clamp_negative(self):
        raw = evaluate_point(
            "discord", 40.0, 0.5, 1.0, Detection.HETERODYNE, Reconciliation.REVERSE
        )
        clamped = evaluate_point(
            "discord", 40.0, 0.5, 1.0, Detection.HETERODYNE, Reconciliation.REVERSE,
            clamp_negative=True,
        )
        assert raw.key_rate < 0.0
        assert clamped.key_rate == 0.0

    def test_variance_domain(self):
        with pytest.raises(InvalidParameter):
            evaluate_point("discord", 0.5, 0.5, 1.0, Detection.HOMODYNE, Reconciliation.DIRECT)


class TestRunSweep:
    def test_grid_and_ordering(self):
        rows = run_sweep(_spec())
        assert len(rows) == 11
        assert [row.t for row in rows] == pytest.approx([0.1 * i for i in range(11)])
        assert all(row.error == "" for row in rows)

    def test_monotone_discord_column(self):
        spec = _spec(parameter="vd", lo=1.0, hi=1000.0, steps=25, variance=None, t=0.9)
        rows = run_sweep(spec)
        discords = [row.discord for row in rows]
        assert all(b >= a - 1e-12 for a, b in zip(discords, discords[1:]))

    def test_all_four_protocols(self):
        spec = _spec(
            steps=3,
            detections=list(Detection),
            reconciliations=list(Reconciliation),
        )
        rows = run_sweep(spec)
        assert len(rows) == 12
        combos = {(r.detection, r.reconciliation) for r in rows}
        assert combos == {("hom", "dr"), ("hom", "rr"), ("het", "dr"), ("het", "rr")}

    def test_swept_parameter_validation(self):
        with pytest.raises(InvalidParameter):
            _spec(parameter="vd", state="epr")
        with pytest.raises(InvalidParameter):
            _spec(steps=1)
        with pytest.raises(InvalidParameter, match="steps must be an integer"):
            _spec(steps=3.0)
        with pytest.raises(InvalidParameter, match="steps must be an integer"):
            _spec(steps="5")
        with pytest.raises(InvalidParameter):
            run_sweep(_spec(w=None))
        with pytest.raises(InvalidParameter, match="lo <= hi"):
            _spec(lo="0")

    @pytest.mark.parametrize("overrides", [
        dict(t=0.5),
        dict(parameter="w", t=0.5),
        dict(parameter="vd", variance=40.0, t=0.9),
        dict(parameter="ve", state="epr", variance=40.0, t=0.9),
    ])
    def test_swept_parameter_must_not_be_fixed(self, overrides):
        with pytest.raises(InvalidParameter, match="must not also be fixed"):
            _spec(**overrides)

    @pytest.mark.parametrize("overrides", [
        dict(w=None),
        dict(variance=None),
        dict(parameter="w", w=None),
        dict(parameter="vd", variance=None),
    ])
    def test_missing_fixed_value_rejected_when_built(self, overrides):
        with pytest.raises(InvalidParameter, match="missing a fixed value"):
            _spec(**overrides)

    def test_deterministic_output(self):
        spec = _spec(steps=7)
        assert rows_to_csv(run_sweep(spec)) == rows_to_csv(run_sweep(spec))

    def test_error_rows_keep_sweep_alive(self, monkeypatch):
        calls = {"n": 0}
        real = sweeps_mod.key_rate

        def flaky(*args):
            calls["n"] += 1
            if calls["n"] == 2:
                raise NonPhysicalState("synthetic failure")
            return real(*args)

        monkeypatch.setattr(sweeps_mod, "key_rate", flaky)
        rows = run_sweep(_spec(steps=3))
        assert len(rows) == 3
        assert rows[0].error == ""
        assert rows[1].error == "synthetic failure"
        assert rows[1].key_rate is None
        assert rows[2].error == ""

    def test_any_evaluation_error_is_recorded(self, monkeypatch):
        def degenerate(*args):
            raise DegenerateMatrix("synthetic degeneracy")

        monkeypatch.setattr(sweeps_mod, "key_rate", degenerate)
        row = evaluate_point(
            "discord", 40.0, 0.5, 1.0, Detection.HOMODYNE, Reconciliation.DIRECT
        )
        assert row.error == "synthetic degeneracy"
        assert (row.discord, row.ppt_nu, row.key_rate) == (None, None, None)


def _point_by_point(spec):
    swept = "variance" if spec.parameter in ("vd", "ve") else spec.parameter
    rows = []
    for value in grid(spec.lo, spec.hi, spec.steps):
        point = {"variance": spec.variance, "t": spec.t, "w": spec.w, swept: value}
        rows += [evaluate_point(spec.state, point["variance"], point["t"], point["w"], det, rec,
                                clamp_negative=spec.clamp_negative)
                 for det in spec.detections for rec in spec.reconciliations]
    return rows


_DOMAINS = {"discord": (1.0, 1e300), "epr": (1.0, 1e9), "t": (0.0, 1.0), "w": (1.0, 1e300)}


@st.composite
def _small_specs(draw):
    parameter = draw(st.sampled_from(SWEEPABLE))
    state = {"vd": "discord", "ve": "epr"}.get(parameter) or draw(st.sampled_from(["discord", "epr"]))
    fixed = {"variance": draw(st.floats(*_DOMAINS[state])), "t": draw(st.floats(*_DOMAINS["t"])),
             "w": draw(st.floats(*_DOMAINS["w"]))}
    swept = "variance" if parameter in ("vd", "ve") else parameter
    lo, hi = sorted(draw(st.floats(*_DOMAINS[state if swept == "variance" else swept])) for _ in range(2))
    return SweepSpec(
        parameter=parameter, lo=lo, hi=hi, steps=draw(st.integers(2, 9)), state=state,
        **{**fixed, swept: None},
        detections=draw(st.lists(st.sampled_from(list(Detection)), min_size=1, max_size=2, unique=True)),
        reconciliations=draw(st.lists(st.sampled_from(list(Reconciliation)), min_size=1, max_size=2,
                                      unique=True)),
        clamp_negative=draw(st.booleans()),
    )


class TestSourceBySource:
    """Sweeps and figures evaluate one source at a time and give evaluate_point's rows."""

    @pytest.mark.parametrize("clamp", [False, True])
    @pytest.mark.parametrize("parameter,lo,hi,state,variance,t,w,fails", [
        ("t", 0.0, 1.0, "discord", 40.0, None, 1.3, False),
        ("t", 0.0, 1.0, "epr", 1e8, None, 1.0, True),
        ("w", 1.0, 1e300, "discord", 40.0, 0.9, None, True),
        ("vd", 1.0, 1e300, "discord", None, 0.9, 1.0, True),
        ("ve", 1.0, 1e9, "epr", None, 0.75, 1.3, True),
    ], ids=["t", "t-failing-source", "w", "vd", "ve"])
    def test_sweep_rows_equal_point_rows(self, parameter, lo, hi, state, variance, t, w, fails, clamp):
        spec = SweepSpec(parameter=parameter, lo=lo, hi=hi, steps=9, state=state, variance=variance,
                         t=t, w=w, detections=list(Detection), reconciliations=list(Reconciliation),
                         clamp_negative=clamp)
        rows = run_sweep(spec)
        assert rows_to_csv(rows) == rows_to_csv(_point_by_point(spec))
        assert any(row.error for row in rows) == fails

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(_small_specs())
    def test_small_sweeps_equal_point_rows(self, spec):
        assert rows_to_csv(run_sweep(spec)) == rows_to_csv(_point_by_point(spec))

    @pytest.mark.parametrize("figure_id,det,rec", [
        ("fig3a", "hom", "dr"), ("fig3b", "hom", "rr"), ("fig4a", "het", "dr"), ("fig4b", "het", "rr"),
        ("fig5a", "hom", "dr"), ("fig5b", "hom", "rr"), ("fig5c", "het", "dr"), ("fig5d", "het", "rr"),
    ])
    @pytest.mark.parametrize("w,clamp", [(1.0, False), (1.3, True)])
    def test_figure_cells_equal_point_rows(self, figure_id, det, rec, w, clamp):
        header, table = figure_table(figure_id, w=w, steps=7, clamp_negative=clamp)
        for cells in table:
            if header[0] == "t":
                # Columns such as "discord_vd40" and "epr_ve40": one source per curve.
                for label, cell in zip(header[1:], cells[1:]):
                    state, variance = label.split("_")
                    row = evaluate_point(state, float(variance[2:]), cells[0], w, det, rec, clamp)
                    assert repr(cell) == repr(row.key_rate)
            else:
                # Columns "kr_t0.75", ...: one discord source per row.
                vd, discord = cells[:2]
                for label, cell in zip(header[2:], cells[2:]):
                    row = evaluate_point("discord", vd, float(label[4:]), w, det, rec, clamp)
                    assert (repr(cell), discord) == (repr(row.key_rate), row.discord)

    @pytest.mark.parametrize("overrides,sources", [
        (dict(), 1),
        (dict(parameter="vd", lo=1.0, hi=1000.0, variance=None, t=0.9), 4),
    ], ids=["t", "vd"])
    def test_failing_source_is_evaluated_once(self, monkeypatch, overrides, sources):
        spec = _spec(steps=4, detections=list(Detection), reconciliations=list(Reconciliation),
                     **overrides)
        calls = []

        def fails(*args):
            calls.append(args)
            raise NonPhysicalState("synthetic discord failure")

        monkeypatch.setattr(sweeps_mod, "discord_and_ppt", fails)
        rows = run_sweep(spec)
        assert [row.error for row in rows] == ["synthetic discord failure"] * 16
        assert all((row.discord, row.ppt_nu, row.key_rate) == (None, None, None) for row in rows)
        assert len(calls) == sources


class TestSerialization:
    def test_csv_header_exact(self):
        assert CSV_HEADER == (
            "state,V,variance,T,W,detection,reconciliation,discord,ppt_nu,"
            "i_ab,i_eve,key_rate,error"
        )

    def test_csv_round_trip_exact(self):
        rows = run_sweep(_spec(steps=5))
        text = rows_to_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        for line, row in zip(lines[1:], rows):
            fields = line.split(",")
            assert float(fields[9]) == row.i_ab
            assert float(fields[10]) == row.i_eve
            assert float(fields[11]) == row.key_rate
            assert float(fields[11]) == float(fields[9]) - float(fields[10])

    def test_error_row_serialization(self):
        row = ResultRow(
            state="discord", v=1.0, variance=2.0, t=0.5, w=1.0,
            detection="hom", reconciliation="rr",
            discord=None, ppt_nu=None, i_ab=None, i_eve=None, key_rate=None,
            error="synthetic failure",
        )
        line = rows_to_csv([row]).strip().split("\n")[1]
        assert line == "discord,1.0,2.0,0.5,1.0,hom,rr,,,,,,synthetic failure"

    def test_json_round_trip(self):
        rows = run_sweep(_spec(steps=3))
        payload = json.loads(rows_to_json(rows))
        assert len(payload) == 3
        assert payload[0]["state"] == "discord"
        assert payload[1]["key_rate"] == rows[1].key_rate

    @pytest.mark.parametrize("spec", [
        _spec(steps=5, detections=list(Detection)),
        # V_E from 1e6 to 1e8: the first point evaluates, the others fail at the source.
        _spec(parameter="ve", lo=1e6, hi=1e8, steps=5, state="epr", variance=None, t=0.5, w=1.3,
              detections=list(Detection), reconciliations=list(Reconciliation)),
    ])
    def test_json_equals_indented_dumps(self, spec):
        rows = run_sweep(spec)
        assert rows_to_json([]) == json.dumps([], indent=2) + "\n"
        assert rows_to_json(rows) == json.dumps(
            [dataclasses.asdict(row) for row in rows], indent=2) + "\n"

    def test_csv_is_loss_free(self):
        # Re-evaluating a parsed row from its input columns reproduces the
        # output columns exactly (round-trip float formatting).
        rows = run_sweep(_spec(steps=6, detections=list(Detection)))
        for line in rows_to_csv(rows).strip().split("\n")[1:]:
            f = line.split(",")
            redone = evaluate_point(
                f[0], float(f[2]), float(f[3]), float(f[4]),
                Detection(f[5]), Reconciliation(f[6]),
            )
            assert float(f[7]) == pytest.approx(redone.discord, abs=1e-9)
            assert float(f[8]) == pytest.approx(redone.ppt_nu, abs=1e-9)
            assert float(f[9]) == pytest.approx(redone.i_ab, abs=1e-9)
            assert float(f[10]) == pytest.approx(redone.i_eve, abs=1e-9)
            assert float(f[11]) == pytest.approx(redone.key_rate, abs=1e-9)

    def test_atomic_write(self, tmp_path):
        target = tmp_path / "out.csv"
        write_text_atomic("hello\n", str(target))
        assert target.read_text() == "hello\n"
        leftovers = [p for p in os.listdir(tmp_path) if p != "out.csv"]
        assert leftovers == []

    def test_atomic_write_failure_leaves_no_partial_file(self, tmp_path, monkeypatch):
        def boom(src, dst):
            raise OSError("synthetic rename failure")

        monkeypatch.setattr(os, "replace", boom)
        with pytest.raises(OSError):
            write_text_atomic("data\n", str(tmp_path / "out.csv"))
        assert os.listdir(tmp_path) == []


class _Float(float):
    """A float subclass whose own repr the writers must not use."""

    def __repr__(self):
        return f"_Float({float(self)!r})"


def _reference_fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _reference_csv(header, table) -> str:
    """The value-by-value CSV writer the column-wise one replaces."""
    return "\n".join([",".join(header)] + [",".join(map(_reference_fmt, row)) for row in table]) + "\n"


def _reference_json(header, table) -> str:
    return json.dumps([dict(zip(header, row)) for row in table], indent=2) + "\n"


_FLOATS = st.floats() | st.sampled_from([-0.0, math.nan, math.inf, -math.inf, 5e-324, 1.7e308])
_TEXT = st.text() | st.sampled_from(["%", "%s", "%%d", '"', "'", '"%(x)s"', ",", "\0"])
_KINDS = [_FLOATS, _TEXT, st.none(), st.integers(), st.booleans(), _FLOATS.map(_Float)]
#: A column holds values of one kind, each kind's fast path included, or of any mix of kinds.
_COLUMNS = st.sampled_from(_KINDS) | st.just(st.one_of(_KINDS))


@st.composite
def _tables(draw, header=None):
    header = header or draw(st.lists(_TEXT, min_size=1, max_size=5, unique=True))
    kinds = [draw(_COLUMNS) for _ in header]
    n_rows = draw(st.integers(0, 6))
    return header, [[draw(kind) for kind in kinds] for _ in range(n_rows)]


class TestSerialisersEqualReference:
    """The column-wise writers give the bytes of the value-by-value references."""

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(_tables())
    def test_tables(self, drawn):
        header, table = drawn
        assert table_to_csv(header, table) == _reference_csv(header, table)
        assert _table_to_json(header, table) == _reference_json(header, table)

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(_tables(header=[field.name for field in dataclasses.fields(ResultRow)]))
    def test_rows(self, drawn):
        header, table = drawn
        rows = [ResultRow(*values) for values in table]
        assert rows_to_csv(rows) == _reference_csv(CSV_HEADER.split(","), table)
        assert rows_to_json(rows) == _reference_json(header, table)


class TestFigures:
    def test_unknown_figure(self):
        with pytest.raises(UnknownFigure):
            figure_table("fig99")

    @pytest.mark.parametrize("figure_id", ["fig2", "fig3b", "fig5a"])
    @pytest.mark.parametrize("w", [0.5, math.nan])
    def test_w_validated_for_every_preset(self, figure_id, w):
        with pytest.raises(InvalidParameter, match="W >= 1"):
            figure_table(figure_id, w=w, steps=3)

    def test_fig2_columns(self):
        header, table = figure_table("fig2", steps=21)
        assert header == ["vd", "discord", "ppt_nu"]
        assert len(table) == 21
        assert table[0][0] == 1.0 and table[-1][0] == 1000.0
        discords = [row[1] for row in table]
        assert all(b >= a - 1e-12 for a, b in zip(discords, discords[1:]))
        assert all(abs(row[2] - 1.0) <= 1e-9 for row in table)

    def test_fig3b_has_three_curves(self):
        header, table = figure_table("fig3b", steps=11)
        assert header == ["t", "discord_vd40", "discord_vd1000", "epr_ve40"]
        assert len(table) == 11
        t_final = table[-1]
        assert t_final[0] == 1.0
        assert t_final[1] > 0.0 and t_final[2] > 0.0 and t_final[3] > 0.0

    def test_fig5b_includes_low_transmission_curve(self):
        header, table = figure_table("fig5b", steps=5)
        assert header == ["vd", "discord", "kr_t0.75", "kr_t0.8", "kr_t0.9", "kr_t0.3"]
        assert table[-1][-1] > 0.0  # reverse homodyne distils at T = 0.3

    def test_fig5_rows_keyed_by_discord(self):
        _, table = figure_table("fig5c", steps=9)
        discords = [row[1] for row in table]
        assert all(b >= a - 1e-12 for a, b in zip(discords, discords[1:]))

    def test_table_csv_formatting(self):
        text = table_to_csv(["a", "b"], [[1.0, 0.5], [2.0, None]])
        assert text == "a,b\n1.0,0.5\n2.0,\n"

    @pytest.mark.parametrize("write", [table_to_csv, _table_to_json])
    @pytest.mark.parametrize("header,table", [
        (["a", "b"], [[1.0]]), (["a", "b"], [[1.0, 2.0], [3.0]]),
        (["a", "b"], [[1.0, 2.0], [3.0, 4.0, 5.0]]), ([], []), ([], [[], []]),
    ])
    def test_table_not_as_wide_as_its_header_rejected(self, write, header, table):
        with pytest.raises(InvalidParameter, match=f"at least one column and {len(header)} values"):
            write(header, table)


class TestThresholds:
    def test_bisection_simple_root(self):
        root = find_sign_change(lambda x: x * x - 4.0, 0.0, 3.0)
        assert root == pytest.approx(2.0, abs=1e-5)

    def test_bisection_requires_sign_change(self):
        with pytest.raises(NoSignChange) as err:
            find_sign_change(lambda x: 1.0 + x, 0.0, 1.0)
        assert err.value.f_lo == 1.0
        assert err.value.f_hi == 2.0

    def test_heterodyne_reverse_cutoff(self):
        t_star = threshold_on_t(
            "discord", 40.0, 1.0, Detection.HETERODYNE, Reconciliation.REVERSE
        )
        assert t_star == pytest.approx(0.538, abs=2e-3)

    def test_transparent_channel_has_no_threshold(self):
        with pytest.raises(NoSignChange):
            threshold_on_t(
                "discord", 40.0, 1.0, Detection.HOMODYNE, Reconciliation.REVERSE,
                bracket=(0.6, 0.9),
            )

    def test_discord_threshold_heterodyne_direct(self):
        d_star = threshold_on_discord(
            0.75, 1.0, Detection.HETERODYNE, Reconciliation.DIRECT
        )
        assert d_star == pytest.approx(0.213, abs=2e-3)

    def test_discord_threshold_skips_product_state_zero(self):
        # The bracket edge V_D = 1 is a product state with exactly zero key
        # rate; the search must not report it as the threshold.
        d_star = threshold_on_discord(
            0.3, 1.0, Detection.HOMODYNE, Reconciliation.REVERSE, bracket=(1.0, 1000.0)
        )
        assert d_star > 0.05

    @pytest.mark.parametrize("bracket", [
        (0.99, 0.01), (0.5, 0.5), (math.nan, 0.9), (0.01, math.inf),
    ])
    def test_t_threshold_rejects_bad_bracket(self, bracket):
        with pytest.raises(InvalidParameter, match="lo < hi"):
            threshold_on_t(
                "discord", 40.0, 1.0, Detection.HETERODYNE, Reconciliation.REVERSE,
                bracket=bracket,
            )

    @pytest.mark.parametrize("bracket", [
        (1000.0, 1.0), (40.0, 40.0), (1.0, math.nan), (-math.inf, 1000.0),
    ])
    def test_discord_threshold_rejects_bad_bracket(self, bracket):
        with pytest.raises(InvalidParameter, match="lo < hi"):
            threshold_on_discord(
                0.75, 1.0, Detection.HETERODYNE, Reconciliation.DIRECT, bracket=bracket
            )

    def test_discord_threshold_needs_a_sign_change_past_the_product_state(self):
        # At T = 0 with W = 1, reverse reconciliation, the key rate is zero for
        # every V_D, so no discord is a threshold.
        with pytest.raises(NoSignChange):
            threshold_on_discord(0.0, 1.0, Detection.HOMODYNE, Reconciliation.REVERSE)

    def test_searches_take_no_tolerance(self):
        with pytest.raises(TypeError):
            threshold_on_t("discord", 40.0, 1.0, Detection.HETERODYNE,
                           Reconciliation.REVERSE, xtol=1e-6)
        with pytest.raises(TypeError):
            threshold_on_discord(0.75, 1.0, Detection.HETERODYNE,
                                 Reconciliation.DIRECT, xtol=1e-6)


def _vd_of_reference_discord(discord: Decimal) -> Decimal:
    """V_D whose 50-digit discord is ``discord``, by bisection (discord rises with V_D)."""
    lo, hi = Decimal(1), Decimal(1000)
    for _ in range(100):
        mid = (lo + hi) / 2
        if hp.gaussian_discord(*hp.discord_state_invariants(mid - 1)) < discord:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


T_SEARCHES = [
    ("discord", 40.0, 1.0, Detection.HETERODYNE, Reconciliation.REVERSE),  # README
    ("discord", 1000.0, 1.0, Detection.HOMODYNE, Reconciliation.DIRECT),
    ("epr", 40.0, 2.0, Detection.HOMODYNE, Reconciliation.REVERSE),
    ("epr", 40.0, 1.0, Detection.HETERODYNE, Reconciliation.DIRECT),
    ("discord", 1000.0, 1.2, Detection.HETERODYNE, Reconciliation.REVERSE),
]

DISCORD_SEARCHES = [
    (0.75, 1.0, Detection.HETERODYNE, Reconciliation.DIRECT),  # README
    (0.6, 1.0, Detection.HOMODYNE, Reconciliation.DIRECT),
    (0.5, 1.05, Detection.HOMODYNE, Reconciliation.REVERSE),
    (0.8, 1.1, Detection.HETERODYNE, Reconciliation.DIRECT),
    (0.7, 1.05, Detection.HETERODYNE, Reconciliation.REVERSE),
]

#: A returned threshold must lie this close to the 50-digit root: the
#: reference key rate changes sign across the window around it.
REFERENCE_WINDOW = Decimal("1e-10")


@pytest.mark.parametrize("state,variance,w,det,rec", T_SEARCHES)
def test_t_threshold_brackets_the_reference_root(state, variance, w, det, rec):
    t_star = Decimal(repr(threshold_on_t(state, variance, w, det, rec)))
    source = hp.discord_source(variance) if state == "discord" else hp.epr_source(variance)
    below = hp.key_rate(*source, t_star - REFERENCE_WINDOW, w, det.value, rec.value)
    above = hp.key_rate(*source, t_star + REFERENCE_WINDOW, w, det.value, rec.value)
    assert below * above < 0


@pytest.mark.parametrize("t,w,det,rec", DISCORD_SEARCHES)
def test_discord_threshold_brackets_the_reference_root(t, w, det, rec):
    d_star = Decimal(repr(threshold_on_discord(t, w, det, rec)))
    rates = [
        hp.key_rate(*hp.discord_source(_vd_of_reference_discord(d_star + delta)),
                    t, w, det.value, rec.value)
        for delta in (-REFERENCE_WINDOW, REFERENCE_WINDOW)
    ]
    assert rates[0] * rates[1] < 0
