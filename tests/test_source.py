"""Source-level guards: every built-in cross-check must survive python -O."""

import ast
from pathlib import Path

import pickylab

SRC = Path(pickylab.__file__).parent


def test_no_assert_statements_in_src():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == [], f"assert statements vanish under python -O; raise EngineDefect: {found}"
