"""Library invariants must raise typed errors, which survive `python -O`."""

import ast
from math import gcd
from pathlib import Path

import pytest

import compactrepair
from compactrepair.errors import InvariantError
from compactrepair.gf import FieldCtx, field_new

SRC = Path(compactrepair.__file__).parent


def test_library_has_no_assert_statements():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements vanish under -O: {found}"


@pytest.mark.parametrize("p, n", [(2, 4), (2, 10), (3, 3), (5, 2), (7, 1)])
def test_non_primitive_generator_fails_the_order_check(p, n, monkeypatch):
    ctx = field_new(p, 1, n)
    size = ctx.order - 1
    # z^k has order size / gcd(k, size) < size: its powers repeat early
    bad = ctx.exp(next(k for k in range(2, size) if gcd(k, size) > 1))
    monkeypatch.setattr(FieldCtx, "_find_generator", lambda self: bad)
    with pytest.raises(InvariantError, match="order check"):
        field_new(p, 1, n)
