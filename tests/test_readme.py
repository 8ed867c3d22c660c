"""README examples run as written: the Python quick start, and the example
config through each of the six commands the README lists."""

import re
from pathlib import Path

import pytest

from planorth import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
COMMANDS = re.findall(r"^planorth (\w+) +--config", README, flags=re.M)


def _block(lang: str) -> str:
    blocks = re.findall(rf"```{lang}\n(.*?)```", README, flags=re.S)
    assert len(blocks) == 1, f"README should hold one {lang} block"
    return blocks[0]


def test_python_quick_start():
    exec(compile(_block("python"), "README.md", "exec"), {})


def test_readme_lists_every_command():
    assert sorted(COMMANDS) == sorted(cli._COMMANDS)


@pytest.mark.parametrize("command", COMMANDS)
def test_example_config(tmp_path, command):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(_block("json"))
    assert cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
