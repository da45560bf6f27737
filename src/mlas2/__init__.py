"""Toolkit for building and evaluating multilingual answer-sentence-selection
pipelines: dataset transforms driven by composition expressions, pluggable
candidate scorers, ranking metrics with relative-delta reports, a candidate
construction pipeline, and a declarative experiment runner.

Each public name is imported from its module when it is first read (PEP 562),
so importing the package, or any one of its modules, loads only that module
and what it imports: numpy is loaded only by the code that computes with it.
"""

from importlib import import_module

_EXPORTS = {
    "mlas2.algebra": (
        "CompositionExpr", "CompositionParseError", "CompositionTerm", "concat", "materialize",
        "mix", "parse_composition", "render_composition", "transfer",
    ),
    "mlas2.dataset": (
        "AnswerCandidate", "Dataset", "DatasetStats", "Question", "QuestionGroup",
        "filter_answerable", "load_dataset", "save_dataset", "stats", "validate_dataset",
    ),
    "mlas2.experiment": (
        "ExperimentConfig", "Hyperparameters", "RunRecord", "early_stop_loop",
        "evaluate_dataset", "run_experiment",
    ),
    "mlas2.metrics": (
        "DeltaReport", "JudgedRanking", "MetricsReport", "average_precision", "delta_report",
        "evaluate", "reciprocal_rank",
    ),
    "mlas2.reranking": ("LexicalScorer", "LinearHead", "linear_head_apply"),
    "mlas2.scoring": ("RemoteScorer", "Scorer", "StaticScorer", "rank"),
    "mlas2.translation": (
        "CachingTranslator", "HttpTranslator", "MockTranslator", "TranslationCache",
        "Translator", "mock_translate",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(module), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE_OF})
