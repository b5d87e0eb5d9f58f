"""Tests of the benchmark itself: every check rejects a perturbed value, failed
operations are counted rather than raised, and inputs follow the seed.

    python3 -m pytest -q bench
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "bench")]

import checks  # noqa: E402
import layertrace  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from discordqkd import channel, keyrate, sweeps  # noqa: E402
from discordqkd.errors import DegenerateInput  # noqa: E402
from discordqkd.keyrate import Detection, Reconciliation  # noqa: E402

HET, HOM = Detection.HETERODYNE, Detection.HOMODYNE
DR, RR = Reconciliation.DIRECT, Reconciliation.REVERSE


def _row(state="discord", variance=40.0, t=0.8, w=1.3, det=HOM, rec=RR, **changes):
    row = sweeps.evaluate_point(state, variance, t, w, det, rec)
    return SimpleNamespace(**{**dataclasses.asdict(row), **changes})


def _problems(check, *args, **kwargs):
    ck = checks.Checker()
    check(ck, *args, **kwargs)
    return ck.problems


def _drop_zeta_factor(source, params):
    """The cloner with sqrt(1 - T) dropped from zeta."""
    out = channel.apply_entangling_cloner(source, params)
    zeta = out.zeta / math.sqrt(1.0 - params.t)
    return dataclasses.replace(out, zeta=zeta, d_dr=channel.correlation_matrix(zeta, out.eta))


class TestRowChecks:
    def test_true_rows_pass(self):
        for state, variance in (("discord", 40.0), ("epr", 40.0), ("epr", 500.0)):
            row = _row(state, variance)
            assert not _problems(checks.check_row_reference, row)
            assert not _problems(checks.check_row_identity, row)
            assert not _problems(checks.check_source, state, variance, row.discord, row.ppt_nu)

    @pytest.mark.parametrize("field", ["i_ab", "i_eve", "key_rate"])
    def test_reference_rejects_perturbed_information(self, field):
        row = _row()
        assert _problems(checks.check_row_reference, _row(**{field: getattr(row, field) + 1e-8}))

    def test_identity_rejects_one_ulp(self):
        row = _row()
        assert _problems(checks.check_row_identity, _row(key_rate=math.nextafter(row.key_rate, 9.0)))

    def test_source_checks_reject_perturbed_values(self):
        disc, epr = _row("discord", 40.0), _row("epr", 40.0)
        assert _problems(checks.check_source, "discord", 40.0, disc.discord + 1e-8, disc.ppt_nu)
        assert _problems(checks.check_source, "discord", 40.0, disc.discord, 1.0 + 1e-11)
        assert _problems(checks.check_source, "epr", 40.0, epr.discord + 2e-4, epr.ppt_nu)
        assert _problems(checks.check_source, "epr", 40.0, epr.discord, epr.ppt_nu * (1 + 1e-7))

    def test_missing_value_is_rejected(self):
        assert _problems(checks.check_row_reference, _row(key_rate=None))

    def test_key_rate_tolerance_catches_zeta_without_loss_factor(self, monkeypatch):
        # At V_D = 40 the mutant raises DegenerateMatrix; at V_D = 2, T = 0.3 it returns numbers.
        monkeypatch.setattr(keyrate, "apply_entangling_cloner", _drop_zeta_factor)
        for det in (HOM, HET):
            assert _problems(checks.check_row_reference, _row(variance=2.0, t=0.3, det=det, rec=DR))


class TestChannelCheck:
    def _case(self, cloner):
        source = keyrate.make_source_state(keyrate.DiscordStateParams(v=39.0))
        params = channel.ChannelParams(t=0.7, w=1.4)
        return checks.source_matrix("discord", 40.0), params, cloner(source, params)

    def test_true_output_passes(self):
        sigma4, p, out = self._case(channel.apply_entangling_cloner)
        assert not _problems(checks.check_channel, sigma4, p.t, p.w, out)

    def test_rejects_zeta_without_loss_factor(self):
        sigma4, p, out = self._case(_drop_zeta_factor)
        assert _problems(checks.check_channel, sigma4, p.t, p.w, out)

    def test_rejects_perturbed_covariance(self):
        sigma4, p, out = self._case(channel.apply_entangling_cloner)
        bad = dataclasses.replace(out, sigma_ab=channel.TwoModeCovariance(
            out.sigma_ab.a * (1 + 1e-10), out.sigma_ab.b, out.sigma_ab.c))
        assert _problems(checks.check_channel, sigma4, p.t, p.w, bad)


class TestThresholdChecks:
    def test_t_threshold(self):
        args = ("discord", 40.0, 1.0, HET, RR)
        t_star = sweeps.threshold_on_t(*args)
        assert not _problems(checks.check_t_threshold, *args, t_star)
        assert _problems(checks.check_t_threshold, *args, t_star + 3e-4)
        assert _problems(checks.check_t_threshold, *args, t_star - 3e-4)

    def test_discord_threshold(self):
        args = (0.75, 1.0, HET, DR)
        d_star = sweeps.threshold_on_discord(*args)
        assert not _problems(checks.check_discord_threshold, *args, d_star)
        assert _problems(checks.check_discord_threshold, *args, d_star + 3e-4)
        assert _problems(checks.check_discord_threshold, *args, d_star - 3e-4)


class TestClaims:
    def test_reference_crossing_is_a8s(self):
        assert abs(checks.reference_crossing() - 0.781) < 1e-3

    @pytest.mark.parametrize("t, det, rec", [(0.7, "het", "dr"), (0.9, "het", "dr"), (0.65, "hom", "rr")])
    def test_dominance_rejects_swapped_rates(self, t, det, rec):
        k_epr = _row("epr", 40.0, t, 1.0, Detection(det), Reconciliation(rec)).key_rate
        k_disc = _row("discord", 40.0, t, 1.0, Detection(det), Reconciliation(rec)).key_rate
        assert not _problems(checks.check_dominance, t, det, rec, k_epr, k_disc)
        assert _problems(checks.check_dominance, t, det, rec, k_disc, k_epr)

    def test_monotonicity_rejects_lowered_rate(self):
        header, table = sweeps.figure_table("fig3b", steps=11)
        assert not _problems(checks.check_rate_figure, "fig3b", header, table)
        i = next(i for i, row in enumerate(table) if row[1] > 0.0)
        table[i][2] = table[i][1] - 1e-9
        assert _problems(checks.check_rate_figure, "fig3b", header, table)


class TestCommandChecks:
    @pytest.fixture(scope="class")
    def done(self, tmp_path_factory):
        inputs = workloads.make_inputs("cli", seed=7)
        result = workloads.Round()
        workloads._run_commands(inputs, result, tmp_path_factory.mktemp("cli"), workloads.cli_env())
        return inputs.commands, result.commands

    def test_true_outputs_pass(self, done):
        commands, results = done
        for command in commands:
            assert results[command.name][0] == 0
            assert not _problems(checks.check_command, command, results[command.name])

    @pytest.mark.parametrize("name", ["eval_csv", "eval_json", "discord", "ppt", "sweep", "figure", "threshold"])
    def test_rejects_changed_output(self, done, name):
        commands, results = done
        command = next(c for c in commands if c.name == name)
        slot = 2 if command.out else 1  # the --out file, else stdout
        output = bytearray(results[name][slot])
        digit = output.rindex(b".") + 2  # the second decimal of the last number
        output[digit] = ord("1" if output[digit] != ord("1") else "2")
        changed = list(results[name])
        changed[slot] = bytes(output)
        assert _problems(checks.check_command, command, tuple(changed))
        # Changed the same way in process too, it is the value that is caught.
        changed[4] = bytes(output).decode()
        assert _problems(checks.check_command, command, tuple(changed))

    def test_rejects_changed_header(self, done):
        commands, results = done
        command = commands[0]
        code, stdout, written, main_code, main_stdout = results[command.name]
        text = stdout.decode().replace("key_rate", "keyrate")
        assert _problems(checks.check_command, command, (code, text.encode(), written, main_code, text))


class TestFailuresAreCounted:
    def test_ve_sweep_counts_failed_points(self):
        spec = workloads._sweep_spec(*workloads.GRID_SWEEPS[-1])
        rows, errors = workloads.sweep_point_by_point(spec)
        assert len(rows) + len(errors) == workloads.GRID_STEPS * len(workloads.PROTOCOLS)
        # Today's e_min boundary test fails at V_E = 995.005 and 1000, on all four protocols.
        assert len(errors) == 8
        assert all("branch values disagree on the boundary" in e for e in errors)
        assert {row.variance for row in rows} == set(sweeps.grid(1.0, 1000.0, 201)) - {995.005, 1000.0}

    def test_raised_evaluation_error_is_counted(self, monkeypatch):
        real = sweeps.evaluate_point

        def flaky(state, variance, *args, **kwargs):
            if variance == 1.0:
                raise DegenerateInput("injected")
            return real(state, variance, *args, **kwargs)

        monkeypatch.setattr(sweeps, "evaluate_point", flaky)
        spec = dataclasses.replace(workloads._sweep_spec(*workloads.GRID_SWEEPS[-1]), hi=500.0, steps=3)
        rows, errors = workloads.sweep_point_by_point(spec)
        assert (len(errors), len(rows)) == (4, 8)


    def test_crashing_search_is_counted(self, monkeypatch):
        def broken(*args):
            raise TypeError("injected")

        monkeypatch.setattr(sweeps, "threshold_on_t", broken)
        inputs = workloads.make_inputs("grid", 0)
        out = workloads.Round()
        workloads._run_searches(inputs, out)
        t_searches = sum(1 for s in inputs.searches if s.kind == "t")
        assert out.failed == len(out.errors) == t_searches > 0
        assert out.attempted == len(inputs.searches)


class TestInputs:
    def test_same_seed_same_inputs(self):
        for workload in workloads.WORKLOADS:
            assert workloads.make_inputs(workload, 3) == workloads.make_inputs(workload, 3)
            assert workloads.make_inputs(workload, 3) != workloads.make_inputs(workload, 4)

    def test_round_size_does_not_depend_on_seed(self):
        for workload in workloads.WORKLOADS:
            sizes = {(len(i.searches), len(i.commands), i.table_steps)
                     for i in (workloads.make_inputs(workload, s) for s in range(20))}
            assert len(sizes) == 1
        assert len(workloads.make_inputs("thresholds", 0).searches) >= 100

    @pytest.mark.parametrize("seed", [0, 1])
    def test_no_search_fails(self, seed):
        for search in workloads.make_inputs("thresholds", seed).searches:
            workloads.run_search(search)


class TestTracer:
    def test_counts_nested_calls_and_restores(self):
        original = sweeps.evaluate_point
        tracer = layertrace.Tracer()
        with tracer:
            assert sweeps.evaluate_point is not original
            sweeps.threshold_on_t("discord", 40.0, 1.0, HET, RR)
        assert sweeps.evaluate_point is original
        assert not hasattr(keyrate.secret_key_rate, "__wrapped__")
        m = tracer.layer_metrics(rounds=1)
        assert m["sweeps.evaluate_point.calls"] == m["keyrate.secret_key_rate.calls"] > 0
        assert m["sweeps.evals_per_search"] == m["sweeps.evaluate_point.calls"]
        assert m["states.discord_calls_per_source"] == m["states.gaussian_discord.calls"]
        for name in tracer.self_ns:
            assert 0 <= tracer.self_ns[name] <= tracer.total_ns[name]


class TestHarness:
    def test_benchmark_json_matches_run(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
        assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
        layer_names = [m["name"] for m in spec["per_layer"]]
        traced = layertrace.Tracer().layer_metrics(rounds=1)
        expected = list(traced) + ["cli.interpreter_ms", "cli.import_ms", "trace.overhead_pct"]
        assert layer_names == expected
        for m in spec["per_layer"]:
            assert m["unit"] == run.per_layer_unit(m["name"])

    def test_refuses_to_run_without_the_program(self, tmp_path):
        shutil.copytree(ROOT / "bench", tmp_path / "bench")
        shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
        done = subprocess.run([sys.executable, "bench/run.py", "--workload", "grid", "--seed", "1",
                               "--seconds", "1", "--trace", "0"],
                              cwd=tmp_path, capture_output=True, timeout=60)
        assert done.returncode != 0
        assert done.stdout == b""
