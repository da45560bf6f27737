"""Rules the package source itself must follow."""

import ast
from pathlib import Path

import mlas2

PACKAGE_DIR = Path(mlas2.__file__).parent


def test_no_assert_in_package():
    # python -O strips assert statements, so no check may rely on one
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
