"""Every upper-case module constant of the package is read somewhere in it
besides its definition: a constant that nothing reads is a flag that does
nothing.  The artifact schemas ``cli`` publishes (``*_SCHEMA``) are exempt."""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "planorth"


def _unread_constants(sources: dict) -> list:
    """``module:NAME`` for each upper-case name a module assigns at its top
    level that no module of ``sources`` (name to source text) reads."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    defined, read = [], set()
    for name, tree in trees.items():
        for node in tree.body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
            defined += [(name, n.id) for t in targets for n in ast.walk(t)
                        if isinstance(n, ast.Name) and re.fullmatch(r"[A-Z][A-Z0-9_]*", n.id)]
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.Attribute):
                read.add(n.attr)
    return [f"{module}:{const}" for module, const in defined
            if const not in read and not (module == "cli" and const.endswith("_SCHEMA"))]


def test_every_constant_is_read():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert _unread_constants(sources) == []


def test_an_unread_constant_is_named():
    sources = {"a": "TOL = 1e-9\nUNUSED, PAIR = 3, (1, 2)\nX_SCHEMA = {}\n"
                    "def f(x):\n    return x < TOL\n",
               "b": "from . import a\nLIMIT: int = 4\nprint(a.PAIR)\n",
               "cli": "A_SCHEMA = {}\n"}
    assert _unread_constants(sources) == ["a:UNUSED", "a:X_SCHEMA", "b:LIMIT"]
