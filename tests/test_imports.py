"""What each entry point imports: the package's public names resolve on first
read, and a process loads numpy only when its command computes with it."""

import json
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import mlas2
from conftest import make_synthetic_dataset
from mlas2.dataset import save_dataset
from mlas2.servers import make_scorer_server, make_translator_server, start_in_thread
from test_experiment import write_config

ENV = {**os.environ, "PYTHONPATH": str(Path(mlas2.__file__).parents[1])}

# the names `mlas2` exported before it resolved them lazily, each with the
# module that defines it: a fixed list, not read from the package itself
PUBLIC_NAMES = {
    **dict.fromkeys(
        ["CompositionExpr", "CompositionParseError", "CompositionTerm", "concat", "materialize",
         "mix", "parse_composition", "render_composition", "transfer"],
        "mlas2.algebra",
    ),
    **dict.fromkeys(
        ["AnswerCandidate", "Dataset", "DatasetStats", "Question", "QuestionGroup",
         "filter_answerable", "load_dataset", "save_dataset", "stats", "validate_dataset"],
        "mlas2.dataset",
    ),
    **dict.fromkeys(
        ["ExperimentConfig", "Hyperparameters", "RunRecord", "early_stop_loop",
         "evaluate_dataset", "run_experiment"],
        "mlas2.experiment",
    ),
    **dict.fromkeys(
        ["DeltaReport", "JudgedRanking", "MetricsReport", "average_precision", "delta_report",
         "evaluate", "reciprocal_rank"],
        "mlas2.metrics",
    ),
    **dict.fromkeys(["LexicalScorer", "LinearHead", "linear_head_apply"], "mlas2.reranking"),
    **dict.fromkeys(["RemoteScorer", "Scorer", "StaticScorer", "rank"], "mlas2.scoring"),
    **dict.fromkeys(
        ["CachingTranslator", "HttpTranslator", "MockTranslator", "TranslationCache",
         "Translator", "mock_translate"],
        "mlas2.translation",
    ),
}


@pytest.mark.parametrize("name", sorted(PUBLIC_NAMES))
def test_each_public_name_is_the_object_its_module_defines(name):
    module = PUBLIC_NAMES[name]
    value = getattr(mlas2, name)
    assert value is getattr(import_module(module), name)
    assert value.__module__ == module


def test_dir_and_all_list_every_public_name():
    assert set(PUBLIC_NAMES) <= set(dir(mlas2))
    assert "__version__" in dir(mlas2)
    assert sorted(mlas2.__all__) == sorted(PUBLIC_NAMES)  # what `import *` binds


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="module 'mlas2' has no attribute 'no_such_name'"):
        getattr(mlas2, "no_such_name")
    assert not hasattr(mlas2, "tokenize")  # a module's name is not the package's


def imported_modules(importtime: str) -> set[str]:
    """The modules named in ``python -X importtime`` output."""
    return {
        line.rpartition("|")[2].strip()
        for line in importtime.splitlines()
        if line.startswith("import time:")
    }


@pytest.mark.parametrize(
    "service, extra", [("mock-translator", []), ("mock-scorer", ["--scores", "F"])],
    ids=["translator", "scorer"],
)
def test_a_mock_server_imports_neither_numpy_nor_reranking(tmp_path, service, extra):
    if extra:
        (tmp_path / "F").write_text('{"q": "a", "t": "b", "score": 0.5}\n')
    proc = subprocess.Popen(
        [sys.executable, "-X", "importtime", "-m", "mlas2", "serve", service, "--port", "0",
         *extra],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=ENV,
        cwd=tmp_path,
    )
    try:
        announced = json.loads(proc.stdout.readline())
    finally:
        proc.terminate()
        _, importtime = proc.communicate(timeout=30)
    assert announced["listening"] > 0
    modules = imported_modules(importtime)
    assert "mlas2.servers" in modules
    assert not {"numpy", "mlas2.reranking"} & modules


@pytest.fixture
def mock_services():
    """A translator and a zero-config scorer, served in threads."""
    servers = [make_translator_server(), make_scorer_server()]
    for server in servers:
        start_in_thread(server)
    yield [f"http://127.0.0.1:{s.server_port}" for s in servers]
    for server in servers:
        server.shutdown()
        server.server_close()


@pytest.mark.parametrize("kind, loads_numpy", [("remote", False), ("lexical", True)])
def test_only_a_lexical_experiment_run_loads_numpy(tmp_path, mock_services, kind, loads_numpy):
    translator, scorer = mock_services
    save_dataset(make_synthetic_dataset(4), tmp_path / "src.jsonl")
    config = write_config(
        tmp_path, dev_expr="En+De", test_exprs=["De"],
        translator={"kind": "http", "endpoint": f"{translator}/translate"},
        scorer={"kind": kind, **({"endpoint": f"{scorer}/score"} if kind == "remote" else {})},
    )
    code = (
        "import sys; from mlas2.cli import main; code = main(sys.argv[1:]); "
        "print(code, 'numpy' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, "experiment", "run", "--config", str(config),
         "--results-dir", str(tmp_path / "runs")],
        capture_output=True, text=True, env=ENV, timeout=60,
    )
    assert proc.stdout.splitlines()[-1] == f"0 {loads_numpy}", proc.stderr
    assert (tmp_path / "runs" / "toy-run.json").exists()
