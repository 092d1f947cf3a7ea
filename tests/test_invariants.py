"""Library invariants must raise typed errors, which survive `python -O`."""

import ast
from pathlib import Path

import compactrepair

SRC = Path(compactrepair.__file__).parent


def test_library_has_no_assert_statements():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements vanish under -O: {found}"
