"""numpy stays off the evaluation path: it loads on first use of the matrix API.

Every result the package reports comes from pure-``math`` kernels, so
``import discordqkd``, the evaluation functions and every CLI subcommand run
without numpy.  One fresh interpreter runs them all, since a module imported
by an earlier test would hide a new import.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

EVAL = ["--state", "discord", "--vd", "40", "--t", "0.9", "--w", "1.3", "--det", "het",
        "--rec", "rr"]
COMMANDS = [
    ["eval", *EVAL],
    ["eval", *EVAL, "--format", "json"],
    ["sweep", "--sweep", "t", "--range", "0:1", "--steps", "5", "--state", "epr",
     "--ve", "10", "--w", "1.3"],
    ["figure", "fig4b", "--steps", "5"],
    ["threshold", "--state", "discord", "--vd", "40", "--w", "1", "--det", "het",
     "--rec", "rr", "--sweep", "t"],
    ["threshold", "--t", "0.75", "--w", "1", "--det", "het", "--rec", "dr",
     "--sweep", "discord"],
    ["discord", "--vd", "40"],
    ["ppt", "--ve", "10"],
]

PROGRAM = """
import contextlib, io, json, sys

import discordqkd
from discordqkd import cli

discordqkd.evaluate_point("discord", 40.0, 0.9, 1.3, "het", "rr")
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main(argv)
    assert code == 0 and out.getvalue(), argv
assert "numpy" not in sys.modules, "numpy loaded on the evaluation path"

from discordqkd import DiscordStateParams, make_discord_state

assert make_discord_state(DiscordStateParams(39.0)).matrix.shape == (4, 4)
assert "numpy" in sys.modules
"""


def _run_fresh(program, *args, cwd):
    """Run program in a new interpreter that imports the package from src/."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
    done = subprocess.run([sys.executable, "-c", program, *args],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_numpy_loads_only_for_the_matrix_api(tmp_path):
    config = tmp_path / "proto.cfg"
    config.write_text("vd=40\nt=0.9\nw=1\ndet=het\nrec=rr\n")
    _run_fresh(PROGRAM, json.dumps(COMMANDS + [["eval", "--config", str(config)]]), cwd=tmp_path)

