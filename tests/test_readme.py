"""The README's examples run: the "Library use" code prints what it says, and
every command of the "Command line" block exits 0."""

import ast
import shlex
from pathlib import Path

import pytest

import discordqkd
from discordqkd import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_use_block() -> str:
    section = README.read_text().split("## Library use", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def _command_line_block() -> list[list[str]]:
    """Each ``discordqkd ...`` command of the README's first sh block under
    "Command line", with backslash continuations joined and comments dropped."""
    section = README.read_text().split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)
            for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("discordqkd ")]


def test_command_line_block(tmp_path, monkeypatch, capsys):
    commands = _command_line_block()
    assert commands
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert cli.main(argv[1:]) == 0, argv
    assert (tmp_path / "sweep.csv").is_file()


def test_library_use_example(capsys):
    source = _library_use_block()
    exec(compile(source, str(README), "exec"), {})
    discord_line, rate_line = capsys.readouterr().out.splitlines()

    discord, ppt_nu = map(float, discord_line.split())
    assert round(discord, 3) == 0.532
    assert ppt_nu == 1.0

    key_rate, i_ab, i_eve = map(float, rate_line.split())
    assert key_rate == i_ab - i_eve


def test_library_use_imports_only_public_names():
    imported = [
        alias.name
        for node in ast.walk(ast.parse(_library_use_block()))
        if isinstance(node, ast.ImportFrom) and node.module == "discordqkd"
        for alias in node.names
    ]
    assert imported
    assert [name for name in imported if name not in discordqkd.__all__] == []


@pytest.mark.parametrize("module,name", [
    ("symplectic", "partial_transpose"),
    ("channel", "correlation_matrix"), ("states", "discord_and_ppt"),
    ("errors", "DegenerateInput"),
])
def test_helpers_live_in_their_submodules(module, name):
    assert name not in discordqkd.__all__
    assert not hasattr(discordqkd, name)
    assert hasattr(getattr(discordqkd, module), name)
    assert f"`{module}.{name}`" in README.read_text()


@pytest.mark.parametrize("module,name", [
    ("channel", "heterodyne_measured_variance"), ("keyrate", "conditional_variance"),
    ("errors", "ConvergenceFailure"), ("symplectic", "I2"), ("symplectic", "Z"),
])
def test_removed_helpers_are_gone(module, name):
    assert not hasattr(getattr(discordqkd, module), name)
    # A bare Z or I2 is common in the prose; only the qualified name must be gone.
    assert (f"`{module}.{name}`" if len(name) <= 2 else name) not in README.read_text()
