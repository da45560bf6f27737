"""Rules the package source itself must follow."""

import ast
import importlib
import importlib.util
import re
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


def test_toy_oracle_imports_no_package_module():
    # scripts/toy_expected.py is an independent oracle: it shares no code
    # with the package it checks
    tree = ast.parse((SCRIPTS_DIR / "toy_expected.py").read_text(encoding="utf-8"))
    found = [
        f"toy_expected.py:{node.lineno}: {name}"
        for node in ast.walk(tree)
        for name in (
            [a.name for a in node.names] if isinstance(node, ast.Import)
            else [node.module or ""] if isinstance(node, ast.ImportFrom)
            else []
        )
        if name.split(".")[0] == "mlas2"
    ]
    assert found == []


def _writes_a_file(node: ast.Call) -> str | None:
    """How ``node`` writes a file itself (``open`` with a write mode,
    ``write_text``, ``write_bytes`` or ``json.dump``), or None."""
    func = node.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    if name in ("write_text", "write_bytes"):
        return name
    if name == "dump" and isinstance(func, ast.Attribute) and getattr(func.value, "id", None) == "json":
        return "json.dump"
    if name == "open":
        for arg in [*node.args, *(k.value for k in node.keywords if k.arg == "mode")]:
            mode = getattr(arg, "value", None)
            if isinstance(mode, str) and re.fullmatch(r"[rbt]*[wax+][rwxabt+]*", mode):
                return f"open({mode!r})"
    return None


def test_one_writer_of_output_files():
    # every output file goes through mlas2.dataset.write_lines, all or nothing;
    # the translation cache appends its lines, by its own contract
    found = [
        f"{path.name}:{node.lineno}: {how}"
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        if path.name != "dataset.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and (how := _writes_a_file(node))
        if (path.name, how) != ("translation.py", "open('a')")
    ]
    assert found == []


def _unchecked_builds(node: ast.AST, func: str | None = None):
    """``(line, what)`` for each ``__new__`` under ``node``, and each
    ``object.__setattr__`` outside a ``__post_init__``; ``func`` names the
    function that holds ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Attribute):
            if child.attr == "__new__":
                yield child.lineno, "__new__"
            elif (
                child.attr == "__setattr__"
                and getattr(child.value, "id", None) == "object"
                and func != "__post_init__"
            ):
                yield child.lineno, f"object.__setattr__ in {func}"
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else func
        yield from _unchecked_builds(child, inner)


def test_records_are_built_only_through_their_constructors():
    # a frozen record is built by its constructor, which checks it; only its
    # own __post_init__ may set a field, so no unchecked copy can be made
    found = [
        f"{path.name}:{line}: {what}"
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        for line, what in _unchecked_builds(ast.parse(path.read_text(encoding="utf-8")))
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


def test_only_the_term_index_builds_term_id_entries():
    # reranking.TermIndex is the one builder of term-id entries: no other
    # module reads or writes its columns, and the corpus keeps no builder
    columns = {"_first", "_terms", "_counts"}
    found = [
        f"{path.name}:{node.lineno}: .{node.attr}"
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        if path.name != "reranking.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr in columns
    ]
    tree = ast.parse((PACKAGE_DIR / "candidates.py").read_text(encoding="utf-8"))
    found += [
        f"candidates.py:{node.lineno}: {node.name}"
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name in ("_add_entries", "_Numbering")
    ]
    assert found == []


def _squares(node: ast.AST) -> str | None:
    """How ``node`` squares a value other than as ``w * w``, or None:
    ``float_power`` at any exponent, or a power whose exponent is the
    constant 2 (``w ** 2``, ``w **= 2``, ``pow(w, 2)``, ``np.power(w, 2)``)."""
    if isinstance(node, ast.Call):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name == "float_power":
            return name
        if name in ("pow", "power") and len(node.args) == 2:
            exponent = node.args[1]
        else:
            return None
    elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Pow):
        exponent = node.right if isinstance(node, ast.BinOp) else node.value
    else:
        return None
    if isinstance(exponent, ast.Constant) and exponent.value == 2:
        return f"power {exponent.value!r}"
    return None


def test_every_square_is_a_product():
    # tf-idf norms square each weight as `w * w`, as the oracle does; a
    # second rule (`float_power`, `** 2`) can round apart in the last bit
    found = [
        f"{path.name}:{node.lineno}: {how}"
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if (how := _squares(node))
    ]
    assert found == []


def _import_time_imports(tree: ast.Module):
    """``(line, module)`` for each import a module runs when it is imported:
    those outside function bodies. ``from mlas2 import x`` names ``mlas2.x``."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            yield from ((node.lineno, a.name) for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module == "mlas2":
                yield from ((node.lineno, f"mlas2.{a.name}") for a in node.names)
            else:
                yield node.lineno, node.module or ""
        stack.extend(ast.iter_child_nodes(node))


def test_numpy_and_the_heavy_modules_load_only_where_they_are_used():
    # a process loads numpy only when its command computes with it: only the
    # tf-idf code and the candidate corpus import it as they load, and the
    # modules that import them do so inside the functions that use them
    numpy_users = {"reranking.py", "candidates.py"}
    heavy = {"mlas2.reranking", "mlas2.candidates", "mlas2.servers"}
    allowed = {("candidates.py", "mlas2.reranking")}
    found = [
        f"{path.name}:{line}: {module}"
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        for line, module in _import_time_imports(ast.parse(path.read_text(encoding="utf-8")))
        if (module.split(".")[0] == "numpy" and path.name not in numpy_users)
        or (module in heavy and (path.name, module) not in allowed)
    ]
    assert found == []


def test_the_run_names_no_scorer_kind():
    # experiment.build_scorer alone decides what a scorer kind means: the run
    # reads no spec's kind and compares with no kind name, and no separate
    # pair memo wraps a remote scorer (the remote client keeps its own)
    tree = ast.parse((PACKAGE_DIR / "experiment.py").read_text(encoding="utf-8"))
    (run,) = [
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "run_experiment"
    ]
    found = [
        f"experiment.py:{node.lineno}: "
        + (f".{node.attr}" if isinstance(node, ast.Attribute) else repr(node.value))
        for node in ast.walk(run)
        if (isinstance(node, ast.Attribute) and node.attr == "kind")
        or (isinstance(node, ast.Constant) and node.value in ("lexical", "remote", "static"))
    ]
    found += [
        f"{path.name}:{node.lineno}: class PairMemo"
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ClassDef) and node.name == "PairMemo"
    ]
    assert found == []
