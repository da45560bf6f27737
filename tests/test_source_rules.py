"""Rules the package source itself must follow."""

import ast
import importlib
import importlib.util
from operator import attrgetter
from pathlib import Path

import mlas2

PACKAGE_DIR = Path(mlas2.__file__).parent
ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "bench" / "tracing.py"
SCRIPTS_DIR = ROOT / "scripts"


def test_no_assert_in_package():
    # python -O strips assert statements, so no check may rely on one
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE_DIR.glob("*.py")) + sorted(SCRIPTS_DIR.glob("*.py"))
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


def test_bench_trace_targets_resolve():
    # the traced benchmark patches each target in place, so renaming a traced
    # entry point (say mlas2.experiment.rank) must fail here, not in that run
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for module_name, path, _count in tracing.TARGETS:
        owner_name, _, attr = path.rpartition(".")
        module = importlib.import_module(module_name)
        owner = attrgetter(owner_name)(module) if owner_name else module
        # install() reads a method from the class's own __dict__
        if attr not in vars(owner):
            missing.append(f"{module_name}.{path}")
    assert missing == []
