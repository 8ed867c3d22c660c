"""README examples run as written: the Python quick start, and the example
config through ``planorth expand`` and ``planorth eval``."""

import re
from pathlib import Path

import pytest

from planorth import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _block(lang: str) -> str:
    blocks = re.findall(rf"```{lang}\n(.*?)```", README, flags=re.S)
    assert len(blocks) == 1, f"README should hold one {lang} block"
    return blocks[0]


def test_python_quick_start():
    exec(compile(_block("python"), "README.md", "exec"), {})


@pytest.mark.parametrize("command", ["expand", "eval"])
def test_example_config(tmp_path, command):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(_block("json"))
    assert cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
