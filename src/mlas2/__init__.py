"""Toolkit for building and evaluating multilingual answer-sentence-selection
pipelines: dataset transforms driven by composition expressions, pluggable
candidate scorers, ranking metrics with relative-delta reports, a candidate
construction pipeline, and a declarative experiment runner.
"""

from mlas2.algebra import (
    CompositionExpr,
    CompositionParseError,
    CompositionTerm,
    concat,
    materialize,
    mix,
    parse_composition,
    render_composition,
    transfer,
)
from mlas2.dataset import (
    AnswerCandidate,
    Dataset,
    DatasetStats,
    Question,
    QuestionGroup,
    filter_answerable,
    load_dataset,
    save_dataset,
    stats,
    validate_dataset,
)
from mlas2.experiment import (
    ExperimentConfig,
    Hyperparameters,
    RunRecord,
    early_stop_loop,
    evaluate_dataset,
    run_experiment,
)
from mlas2.metrics import (
    DeltaReport,
    JudgedRanking,
    MetricsReport,
    average_precision,
    delta_report,
    evaluate,
    reciprocal_rank,
)
from mlas2.reranking import (
    LexicalScorer,
    LinearHead,
    RemoteScorer,
    Scorer,
    StaticScorer,
    linear_head_apply,
    rank,
)
from mlas2.translation import (
    CachingTranslator,
    HttpTranslator,
    MockTranslator,
    TranslationCache,
    Translator,
    mock_translate,
)

__version__ = "0.1.0"
