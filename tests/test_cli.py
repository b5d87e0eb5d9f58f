"""Tests for the command-line interface: flags, formats, exit codes."""

import contextlib
import io
import json
import math
import os
import stat

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from discordqkd import CSV_HEADER, FIGURE_IDS, DegenerateMatrix, NonPhysicalState, figure_table
from discordqkd.cli import main

import highprec as hp

DISCORD_NATS_V2 = 0.1166606369244032949  # frozen: natural-log discord at V = 1


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_transparent_channel(self, capsys):
        code, out, err = run_cli(
            capsys, "eval", "--state", "discord", "--vd", "40", "--t", "1.0",
            "--w", "1.0", "--det", "hom", "--rec", "dr",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == CSV_HEADER
        fields = lines[1].split(",")
        assert float(fields[10]) == 0.0  # attacker learns nothing
        assert float(fields[11]) == float(fields[9])

    def test_vacuum_source(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--state", "epr", "--ve", "1", "--t", "0.5",
            "--w", "1", "--det", "hom", "--rec", "rr",
        )
        assert code == 0
        fields = out.strip().split("\n")[1].split(",")
        assert float(fields[9]) == 0.0
        assert float(fields[11]) <= 0.0

    def test_golden_row_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--vd", "40", "--t", "0.9", "--w", "1",
            "--det", "het", "--rec", "rr", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload[0]["key_rate"] == pytest.approx(1.0967347447443038, rel=1e-12)

    def test_invalid_parameter_exit_code(self, capsys):
        code, _, err = run_cli(
            capsys, "eval", "--state", "discord", "--vd", "40", "--t", "1.5",
            "--w", "1", "--det", "hom", "--rec", "dr",
        )
        assert code == 2
        assert "error" in err

    def test_state_flag_cross_check(self, capsys):
        code, _, err = run_cli(
            capsys, "eval", "--state", "epr", "--vd", "40", "--t", "0.5",
            "--w", "1", "--det", "hom", "--rec", "dr",
        )
        assert code == 2
        assert "--vd" in err

    def test_missing_required_flag(self, capsys):
        code, _, err = run_cli(
            capsys, "eval", "--state", "discord", "--vd", "40", "--t", "0.5",
            "--w", "1", "--det", "hom",
        )
        assert code == 2

    def test_unknown_flag_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "eval", "--frobnicate", "1")
        assert code == 2

    def test_nonphysical_state_exit_code(self, capsys, monkeypatch):
        import discordqkd.cli as cli_mod
        from discordqkd.sweeps import ResultRow

        def broken(*args, **kwargs):
            return ResultRow(
                state="discord", v=39.0, variance=40.0, t=0.5, w=1.0,
                detection="hom", reconciliation="dr",
                discord=None, ppt_nu=None, i_ab=None, i_eve=None, key_rate=None,
                error="synthetic failure",
            )

        monkeypatch.setattr(cli_mod, "evaluate_point", broken)
        code, _, err = run_cli(
            capsys, "eval", "--state", "discord", "--vd", "40", "--t", "0.5",
            "--w", "1", "--det", "hom", "--rec", "dr",
        )
        assert code == 3
        assert err.splitlines() == ["error: synthetic failure"]


class TestSweep:
    def test_csv_to_file(self, capsys, tmp_path):
        out_file = tmp_path / "sweep.csv"
        code, _, _ = run_cli(
            capsys, "sweep", "--sweep", "t", "--range", "0:1", "--steps", "11",
            "--state", "discord", "--vd", "40", "--w", "1",
            "--det", "hom", "--rec", "rr", "--out", str(out_file),
        )
        assert code == 0
        lines = out_file.read_text().strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 12
        t_column = [float(line.split(",")[3]) for line in lines[1:]]
        assert t_column == pytest.approx([0.1 * i for i in range(11)])

    def test_repeat_runs_byte_identical(self, capsys, tmp_path):
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = [
            "sweep", "--sweep", "vd", "--range", "1:1000", "--steps", "21",
            "--t", "0.9", "--w", "1", "--det", "het", "--rec", "rr",
        ]
        assert main(argv + ["--out", str(f1)]) == 0
        assert main(argv + ["--out", str(f2)]) == 0
        capsys.readouterr()
        assert f1.read_bytes() == f2.read_bytes()

    def test_monotone_discord_column(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--sweep", "vd", "--range", "1:1000", "--steps", "9",
            "--t", "0.9", "--w", "1", "--det", "hom", "--rec", "dr",
        )
        assert code == 0
        discords = [float(line.split(",")[7]) for line in out.strip().split("\n")[1:]]
        assert all(b >= a - 1e-12 for a, b in zip(discords, discords[1:]))

    def test_all_protocols_when_unspecified(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--sweep", "t", "--range", "0.2:0.8", "--steps", "3",
            "--state", "discord", "--vd", "40", "--w", "1",
        )
        assert code == 0
        assert len(out.strip().split("\n")) == 1 + 3 * 4

    def test_swept_parameter_must_not_be_fixed(self, capsys):
        code, _, err = run_cli(
            capsys, "sweep", "--sweep", "t", "--range", "0:1", "--steps", "3",
            "--state", "discord", "--vd", "40", "--w", "1", "--t", "0.5",
        )
        assert code == 2

    @pytest.mark.parametrize("argv,state", [
        (("--sweep", "t", "--range", "0:1", "--vd", "40", "--w", "1"), "discord"),
        (("--sweep", "w", "--range", "1:3", "--ve", "40", "--t", "0.9"), "epr"),
    ])
    def test_state_inferred_from_variance_flag(self, capsys, argv, state):
        common = ("sweep", "--steps", "3", "--det", "hom", "--rec", "rr") + argv
        code, out, err = run_cli(capsys, *common)
        assert (code, err) == (0, "")
        assert out == run_cli(capsys, *common, "--state", state)[1]
        assert all(line.startswith(state + ",") for line in out.strip().split("\n")[1:])

    @pytest.mark.parametrize("swept,flag", [("vd", "--ve"), ("ve", "--vd")])
    def test_other_kinds_variance_flag_is_named(self, capsys, swept, flag):
        code, out, err = run_cli(
            capsys, "sweep", "--sweep", swept, "--range", "1:10", "--steps", "3",
            "--t", "0.9", "--w", "1", flag, "3",
        )
        assert (code, out) == (2, "")
        assert f"{flag} is only valid" in err

    @pytest.mark.parametrize("text,code", [
        ("0.5:0.5", 0), ("0.8:0.2", 2), ("nan:1", 2), ("0:inf", 2), ("0:", 2), ("0.5", 2),
    ])
    def test_range_rules_are_the_librarys(self, capsys, text, code):
        argv = ("sweep", "--sweep", "t", "--steps", "3", "--vd", "40", "--w", "1",
                "--det", "hom", "--rec", "rr")
        got, out, err = run_cli(capsys, *argv, "--range", text)
        assert got == code
        if code == 0:
            assert out.splitlines()[1:] == 3 * [out.splitlines()[1]]
        else:
            assert out == "" and err.startswith("error: ")

    def test_clamp_negative_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--sweep", "t", "--range", "0.1:0.4", "--steps", "4",
            "--state", "discord", "--vd", "40", "--w", "1",
            "--det", "het", "--rec", "rr", "--clamp-negative",
        )
        assert code == 0
        rates = [float(line.split(",")[11]) for line in out.strip().split("\n")[1:]]
        assert all(r == 0.0 for r in rates)


class TestFigure:
    def test_fig2(self, capsys, tmp_path):
        out_file = tmp_path / "fig2.csv"
        code, _, _ = run_cli(
            capsys, "figure", "fig2", "--steps", "11", "--out", str(out_file)
        )
        assert code == 0
        lines = out_file.read_text().strip().split("\n")
        assert lines[0] == "vd,discord,ppt_nu"
        assert len(lines) == 12
        assert all(abs(float(line.split(",")[2]) - 1.0) <= 1e-9 for line in lines[1:])

    def test_fig3b_header(self, capsys):
        code, out, _ = run_cli(capsys, "figure", "fig3b", "--steps", "5")
        assert code == 0
        assert out.split("\n")[0] == "t,discord_vd40,discord_vd1000,epr_ve40"

    def test_fig5b_header(self, capsys):
        code, out, _ = run_cli(capsys, "figure", "fig5b", "--steps", "3")
        assert code == 0
        assert out.split("\n")[0] == "vd,discord,kr_t0.75,kr_t0.8,kr_t0.9,kr_t0.3"

    def test_json_objects_keyed_by_header(self, capsys):
        code, out, _ = run_cli(capsys, "figure", "fig5b", "--steps", "3", "--format", "json")
        assert code == 0
        header, table = figure_table("fig5b", steps=3)
        assert out == json.dumps([dict(zip(header, row)) for row in table], indent=2) + "\n"

    def test_unknown_figure_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "figure", "fig7")
        assert code == 2
        assert "unknown figure" in err

    def test_w_override_validated(self, capsys):
        code, _, _ = run_cli(capsys, "figure", "fig2", "--w", "0.5")
        assert code == 2


class TestThreshold:
    def test_heterodyne_reverse_transmission(self, capsys):
        code, out, _ = run_cli(
            capsys, "threshold", "--state", "discord", "--vd", "40", "--w", "1",
            "--det", "het", "--rec", "rr", "--sweep", "t",
        )
        assert code == 0
        assert float(out.strip()) == pytest.approx(0.538, abs=2e-3)

    def test_discord_threshold(self, capsys):
        code, out, _ = run_cli(
            capsys, "threshold", "--t", "0.75", "--w", "1",
            "--det", "het", "--rec", "dr", "--sweep", "discord",
        )
        assert code == 0
        assert float(out.strip()) == pytest.approx(0.213, abs=2e-3)

    def test_bracket_past_the_discord_state_domain(self, capsys):
        # At V_D = 1.7e308 the kernel's 3V + 2 overflows: the search stops with one line.
        code, out, err = run_cli(
            capsys, "threshold", "--sweep", "discord", "--range", "1:1.7e308", "--t", "0.75",
            "--w", "1", "--det", "het", "--rec", "dr",
        )
        assert code in (2, 3)
        assert out == ""
        [line] = err.splitlines()
        assert line.startswith("error: ")

    def test_no_sign_change_exit_code(self, capsys):
        code, _, err = run_cli(
            capsys, "threshold", "--state", "discord", "--vd", "40", "--w", "1",
            "--det", "hom", "--rec", "rr", "--sweep", "t", "--range", "0.6:0.9",
        )
        assert code == 5
        assert "key_rate(0.6)" in err
        assert "key_rate(0.9)" in err

    @pytest.mark.parametrize("error,line", [
        (NonPhysicalState, "error: synthetic failure"),
        (DegenerateMatrix, "error: synthetic failure"),
    ], ids=["non-physical", "degenerate"])
    @pytest.mark.parametrize("argv", [
        ("--state", "discord", "--vd", "40", "--w", "1", "--det", "het", "--rec", "rr",
         "--sweep", "t"),
        ("--t", "0.75", "--w", "1", "--det", "het", "--rec", "dr", "--sweep", "discord"),
    ])
    def test_failed_point_exits_with_its_error(self, capsys, monkeypatch, argv, error, line):
        import discordqkd.sweeps as sweeps_mod

        calls = {"n": 0}
        real = sweeps_mod.key_rate

        def flaky(*args):
            calls["n"] += 1
            if calls["n"] == 3:
                raise error("synthetic failure")
            return real(*args)

        monkeypatch.setattr(sweeps_mod, "key_rate", flaky)
        code, out, err = run_cli(capsys, "threshold", *argv)
        assert code == 3
        assert out == ""
        assert err.splitlines() == [line]


class TestStateQueries:
    def test_discord_bits(self, capsys):
        code, out, _ = run_cli(capsys, "discord", "--vd", "2")
        assert code == 0
        assert float(out.strip()) == pytest.approx(0.1683057223577845, rel=1e-10)

    def test_discord_nats(self, capsys):
        code, out, _ = run_cli(capsys, "discord", "--vd", "2", "--units", "nats")
        assert code == 0
        assert float(out.strip()) == pytest.approx(DISCORD_NATS_V2, rel=1e-10)

    def test_ppt_of_epr(self, capsys):
        code, out, _ = run_cli(capsys, "ppt", "--ve", "40")
        assert code == 0
        assert float(out.strip()) == pytest.approx(40.0 - math.sqrt(1599.0), rel=1e-9)

    def test_ppt_of_discord_state(self, capsys):
        code, out, _ = run_cli(capsys, "ppt", "--vd", "500")
        assert code == 0
        assert float(out.strip()) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("argv", [
        ("discord", "--vd", "40", "--w", "0.1", "--t", "7"),
        ("ppt", "--ve", "40", "--t", "-3"),
    ])
    def test_channel_flags_rejected(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "unrecognized arguments" in err

    @pytest.mark.parametrize("command", ["discord", "ppt"])
    def test_help_lists_only_source_flags(self, capsys, command):
        code, out, _ = run_cli(capsys, command, "--help")
        assert code == 0
        assert "--vd" in out
        assert "--t " not in out and "--w " not in out


class TestConfigFile:
    def test_defaults_from_file(self, capsys, tmp_path):
        cfg = tmp_path / "proto.cfg"
        cfg.write_text("# fixture protocol\nvd=40\nt=0.9\nw=1\ndet=het\nrec=rr\n")
        code, out, _ = run_cli(capsys, "eval", "--config", str(cfg))
        assert code == 0
        fields = out.strip().split("\n")[1].split(",")
        assert float(fields[11]) == pytest.approx(1.0967347447443038, rel=1e-12)

    def test_flags_take_precedence(self, capsys, tmp_path):
        cfg = tmp_path / "proto.cfg"
        cfg.write_text("vd=40\nt=0.9\nw=1\ndet=het\nrec=rr\n")
        code, out, _ = run_cli(capsys, "eval", "--config", str(cfg), "--t", "1.0")
        assert code == 0
        fields = out.strip().split("\n")[1].split(",")
        assert float(fields[3]) == 1.0
        assert float(fields[10]) == 0.0

    def test_bad_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "proto.cfg"
        cfg.write_text("bogus=1\n")
        code, _, err = run_cli(capsys, "eval", "--config", str(cfg))
        assert code == 2
        assert "bogus" in err

    def test_missing_file_is_io_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "eval", "--config", str(tmp_path / "nope.cfg"))
        assert code == 4

    _EVAL = ("--vd", "40", "--t", "0.9", "--w", "1", "--det", "het", "--rec", "rr")
    _SWEEP = ("--sweep", "t", "--range", "0:1", "--steps", "3", "--state", "discord",
              "--vd", "40", "--w", "1")

    @staticmethod
    def _without(argv, key):
        """argv with the flag --key and its value removed."""
        i = argv.index(f"--{key}")
        return argv[:i] + argv[i + 2:]

    # (key, value, subcommand, argv): argv holds the subcommand's flags with
    # the key at some other value, which the test drops; "-0.0" checks that a
    # leading dash in a config value is read as the value.
    KEY_CASES = [
        ("state", "discord", "eval", _EVAL + ("--state", "epr")),
        ("vd", "12.5", "eval", _EVAL),
        ("ve", "12.5", "eval", ("--ve", "3", "--t", "0.9", "--w", "1", "--det", "hom", "--rec", "dr")),
        ("t", "-0.0", "eval", _EVAL),
        ("w", "1.3", "eval", _EVAL),
        ("det", "hom", "eval", _EVAL),
        ("rec", "dr", "eval", _EVAL),
        ("sweep", "w", "sweep", ("--sweep", "t", "--range", "1:2", "--steps", "3",
                                 "--state", "discord", "--vd", "40", "--t", "0.9")),
        ("range", "0.2:0.8", "sweep", _SWEEP),
        ("steps", "4", "sweep", _SWEEP),
        ("format", "json", "eval", _EVAL + ("--format", "csv")),
        ("units", "nats", "discord", ("--vd", "2", "--units", "bits")),
    ]

    @pytest.mark.parametrize("key,value,command,argv", KEY_CASES, ids=[c[0] for c in KEY_CASES])
    def test_config_line_matches_flag(self, capsys, tmp_path, key, value, command, argv):
        base = self._without(argv, key)
        cfg = tmp_path / "one.cfg"
        cfg.write_text(f"{key} = {value}\n")
        flag = run_cli(capsys, command, *base, f"--{key}", value)
        config = run_cli(capsys, command, *base, "--config", str(cfg))
        assert flag[0] == 0
        assert config == flag

    def test_config_out_matches_flag(self, capsys, tmp_path):
        by_flag, by_config = tmp_path / "flag.csv", tmp_path / "config.csv"
        cfg = tmp_path / "one.cfg"
        cfg.write_text(f"out={by_config}\n")
        assert run_cli(capsys, "eval", *self._EVAL, "--out", str(by_flag)) == (0, "", "")
        assert run_cli(capsys, "eval", *self._EVAL, "--config", str(cfg)) == (0, "", "")
        assert by_config.read_bytes() == by_flag.read_bytes()

    def test_every_config_key_is_covered(self):
        from discordqkd.cli import _CONFIG_KEYS

        assert sorted(_CONFIG_KEYS) == sorted([c[0] for c in self.KEY_CASES] + ["out"])

    @pytest.mark.parametrize("line,command,argv", [
        ("det=xyz", "eval", ()),
        ("format=xml", "eval", _EVAL),
        ("units=furlongs", "discord", ("--vd", "2")),
        ("steps=abc", "sweep", _SWEEP),
    ])
    def test_bad_value_is_usage_error(self, capsys, tmp_path, line, command, argv):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        code, out, err = run_cli(capsys, command, *argv, "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert f"--{line.split('=')[0]}" in err
        assert "Traceback" not in err

    def test_bad_value_rejected_even_when_flag_overrides(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("det=xyz\n")
        code, _, err = run_cli(capsys, "eval", *self._EVAL, "--config", str(cfg))
        assert code == 2
        assert "--det" in err

    @pytest.mark.parametrize("line,command,argv", [
        ("units=nats", "eval", _EVAL),
        ("t=0.9", "discord", ("--vd", "2")),
        ("w=7", "ppt", ("--ve", "40")),
        ("range=0:1", "figure", ("fig2", "--steps", "3")),
        ("units=furlongs", "eval", _EVAL),
    ])
    def test_key_of_other_subcommand_ignored(self, capsys, tmp_path, line, command, argv):
        cfg = tmp_path / "other.cfg"
        cfg.write_text(line + "\n")
        plain = run_cli(capsys, command, *argv)
        assert plain[0] == 0
        assert run_cli(capsys, command, *argv, "--config", str(cfg)) == plain

    def test_first_of_repeated_keys_counts(self, capsys, tmp_path):
        cfg = tmp_path / "dup.cfg"
        cfg.write_text("t=0.5\nt=0.9\n")
        base = self._without(self._EVAL, "t")
        assert run_cli(capsys, "eval", *base, "--config", str(cfg)) == run_cli(
            capsys, "eval", *base, "--t", "0.5"
        )


class TestRowErrors:
    def test_failed_points_are_marked_not_fatal(self, capsys):
        # At V_E = 1e8 the source's own spectrum fails (DegenerateMatrix);
        # such points are recorded in their rows.
        code, out, _ = run_cli(
            capsys, "sweep", "--sweep", "w", "--range", "1:1e8", "--state", "epr",
            "--ve", "1e8", "--t", "0.5", "--steps", "5",
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert len(rows) == 20
        failed = [row for row in rows if row[12]]
        assert failed
        for row in failed:
            assert row[7:12] == [""] * 5
            code, _, err = run_cli(
                capsys, "eval", "--state", "epr", "--ve", "1e8", "--t", "0.5",
                "--w", row[4], "--det", row[5], "--rec", row[6],
            )
            assert code == 3
            assert row[12] in err


_SOURCE_COMMANDS = [
    ("eval", "--t", "0.5", "--w", "1", "--det", "hom", "--rec", "dr"), ("discord",), ("ppt",),
]


class TestExitCodesAgree:
    # A source that cannot be evaluated: at V_E = 1e8 the rounded EPR covariance
    # is singular, and at V_D = 1e300 its spectrum overflows.
    @pytest.mark.parametrize("source", [("--ve", "1e8"), ("--vd", "1e300")], ids=["ve1e8", "vd1e300"])
    @pytest.mark.parametrize("command", _SOURCE_COMMANDS, ids=["eval", "discord", "ppt"])
    def test_unevaluable_source_exits_3_from_every_command(self, capsys, command, source):
        code, out, err = run_cli(capsys, *command, *source)
        assert code == 3
        assert out == ""
        [line] = err.splitlines()
        assert line.startswith("error: ")

    @pytest.mark.parametrize("source", [("--ve", "1e8"), ("--vd", "1e300")], ids=["ve1e8", "vd1e300"])
    def test_every_command_prints_the_same_error(self, capsys, source):
        errors = {run_cli(capsys, *command, *source)[2] for command in _SOURCE_COMMANDS}
        assert len(errors) == 1


class TestOutputFiles:
    @pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)])
    def test_out_file_follows_umask(self, capsys, tmp_path, umask, mode):
        target = tmp_path / "f.csv"
        old = os.umask(umask)
        try:
            code, _, _ = run_cli(
                capsys, "figure", "fig2", "--steps", "3", "--out", str(target)
            )
        finally:
            os.umask(old)
        assert code == 0
        assert stat.S_IMODE(target.stat().st_mode) == mode


#: Flag values from the edges of every domain, and text no flag accepts.
_EDGES = ["0", "1", repr(1.0 + 2.0 ** -52), repr(1.0 - 2.0 ** -53), "0.5", "0.75", "40", "1e300",
          "1e-300", "1.7e308", "-1", "-1e300", "nan", "inf", "-inf", "junk", ""]
_NUMBER = st.sampled_from(_EDGES) | st.floats().map(repr)
_RANGE = st.tuples(_NUMBER, _NUMBER).map(":".join) | st.sampled_from(["a", "1:2:3", ":", "1"])
_STEPS = st.integers(2, 5).map(str) | st.sampled_from(["x", "3.5", ""])
_SOURCE = {"state": st.sampled_from(["discord", "epr", "junk"]), "vd": _NUMBER, "ve": _NUMBER}
_PROTOCOL = {"t": _NUMBER, "w": _NUMBER, "det": st.sampled_from(["hom", "het", "x"]),
             "rec": st.sampled_from(["dr", "rr", "x"])}
_OUTPUT = {"format": st.sampled_from(["csv", "json", "x"]),
           "out": st.sampled_from(["f.csv", "no/f.csv", "."]), "clamp-negative": st.just(True)}

#: Each subcommand's flags, and valid flag sets that drawn edits start from.
_SUBCOMMANDS = {
    "eval": ({**_SOURCE, **_PROTOCOL, **_OUTPUT}, [
        dict(vd="40", t="0.9", w="1", det="het", rec="rr"),
        dict(state="epr", ve="40", t="0.5", w="1.3", det="hom", rec="dr")]),
    "sweep": ({**_SOURCE, **_PROTOCOL, **_OUTPUT, "sweep": st.sampled_from(["vd", "ve", "t", "w", "x"]),
               "range": _RANGE, "steps": _STEPS}, [
        dict(sweep="t", range="0:1", steps="3", vd="40", w="1"),
        dict(sweep="w", range="1:1e8", steps="3", ve="40", t="0.5", det="hom"),
        dict(sweep="vd", range="1:1000", steps="3", t="0.9", w="1", rec="rr"),
        dict(sweep="ve", range="1:100", steps="3", t="0.75", w="1.3", format="json")]),
    "figure": ({"figure": st.sampled_from(list(FIGURE_IDS) + ["fig7"]), "w": _NUMBER, "steps": _STEPS,
                **_OUTPUT}, [dict(figure=fig, steps="3") for fig in FIGURE_IDS]),
    "threshold": ({**_SOURCE, **_PROTOCOL, "sweep": st.sampled_from(["t", "discord", "x"]),
                   "range": _RANGE}, [
        dict(sweep="t", vd="40", w="1", det="het", rec="rr"),
        dict(sweep="discord", t="0.75", w="1", det="het", rec="dr")]),
    "discord": ({**_SOURCE, "units": st.sampled_from(["bits", "nats", "x"])}, [
        dict(vd="2"), dict(ve="40", units="nats")]),
    "ppt": (dict(_SOURCE), [dict(ve="40"), dict(state="discord", vd="500")]),
}


class TestMainProperties:
    """cli.main on argv drawn from each subcommand's flags: typed exits, one error line."""

    @pytest.mark.parametrize("command", list(_SUBCOMMANDS))
    @settings(derandomize=True, database=None, max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_exit_codes_and_stderr(self, tmp_path, command, data):
        flags, bases = _SUBCOMMANDS[command]
        values = dict(data.draw(st.sampled_from(bases)))
        # Replace or drop a few flags (None drops one) of a valid command.
        for name in data.draw(st.lists(st.sampled_from(list(flags)), max_size=3, unique=True)):
            values[name] = data.draw(st.none() | flags[name])
        argv = [command]
        for name, value in values.items():
            if value is None:
                continue
            if name == "figure":
                argv.insert(1, value)
            elif value is True:
                argv.append(f"--{name}")
            else:
                argv.append(f"--{name}={tmp_path / value if name == 'out' else value}")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 2, 3, 4, 5), argv
        assert "Traceback" not in err.getvalue()
        if code != 0:
            assert out.getvalue() == "", argv
        if code in (3, 4, 5):
            [line] = err.getvalue().splitlines()
            assert line.startswith("error: "), argv
