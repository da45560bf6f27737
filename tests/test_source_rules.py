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


def test_no_coercion_of_record_fields():
    # a record field is read with mlas2.dataset.read_fields, never coerced:
    # str(rec["text"]) turns a null text into "None"
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("str", "float", "int")
        and any(
            isinstance(arg, ast.Subscript)
            and isinstance(arg.slice, ast.Constant)
            and isinstance(arg.slice.value, str)
            for arg in node.args
        )
    ]
    assert found == []
