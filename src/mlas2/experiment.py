"""Experiment orchestration: declarative configs, early stopping on dev MAP,
test-set evaluation, and reproducible run records.

Fine-tuning itself stays behind the ``Trainer`` interface; the in-repo mocks
(constant and scripted trainers) make the loop logic fully testable. Running
the same config twice produces identical records modulo timestamps.
"""

from __future__ import annotations

import datetime
import json
import math
import os
from abc import ABC, abstractmethod
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Callable, Iterable, Sequence

from mlas2.algebra import CompositionParseError, materialize, parse_composition
from mlas2.dataset import (
    COUNT,
    INTEGER,
    NUMBER,
    OPTIONAL_TEXT,
    TEXT,
    TEXTS,
    Dataset,
    DatasetFormatError,
    FieldKind,
    check_replaceable,
    filter_answerable,
    fingerprint_dataset,
    load_dataset,
    read_fields,
    read_json,
    write_lines,
)
from mlas2.metrics import (
    DeltaReport,
    MetricsReport,
    check_baseline,
    delta_report,
    evaluate,
    judge,
)
from mlas2.scoring import RemoteScorer, Scorer, StaticScorer, rank
from mlas2.translation import (
    CachingTranslator,
    HttpTranslator,
    MockTranslator,
    TranslationCache,
    Translator,
)

TRANSLATOR_ENDPOINT_ENV = "MLAS2_TRANSLATOR_ENDPOINT"


class ExperimentError(RuntimeError):
    """An experiment configuration or run could not be completed."""


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Hyperparameters:
    learning_rate: float = 2e-5
    max_seq_len: int = 128
    max_iterations: int = 3
    batch_size: int = 32
    seed: int = 42

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")


@dataclass(frozen=True)
class ScorerSpec:
    kind: str  # "lexical" | "remote" | "static"
    endpoint: str | None = None
    scores_path: str | None = None
    batch_size: int = 128

    def __post_init__(self) -> None:
        if self.kind not in ("lexical", "remote", "static"):
            raise ValueError(f"unknown scorer kind {self.kind!r}")
        if self.kind == "remote" and not self.endpoint:
            raise ValueError("remote scorer needs an endpoint")
        if self.kind == "static" and not self.scores_path:
            raise ValueError("static scorer needs a scores_path")
        if self.batch_size < 1:
            raise ValueError(f"scorer batch_size must be >= 1, got {self.batch_size}")


@dataclass(frozen=True)
class TranslatorSpec:
    kind: str = "mock"  # "mock" | "http"
    endpoint: str | None = None
    cache_path: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("mock", "http"):
            raise ValueError(f"unknown translator kind {self.kind!r}")


# the JSON kind of each field annotation of the config section dataclasses
_KINDS = {"str": TEXT, "str | None": OPTIONAL_TEXT, "int": INTEGER, "float": NUMBER}


def _read_section(raw: dict, key: str, cls: type, where: str):
    """The ``cls`` a config section describes. The fields it holds must be of
    their annotations' kinds; absent ones keep the defaults."""
    section = raw.get(key, {})
    held = [f for f in fields(cls) if isinstance(section, dict) and f.name in section]
    read_fields(section, f"{where}: {key}", "config", {f.name: _KINDS[f.type] for f in held})
    return cls(**section)


@dataclass(frozen=True)
class ExperimentConfig:
    run_name: str
    pretrained_label: str
    source_train: str
    source_dev: str
    source_test: str
    ft_expr: str
    dev_expr: str
    test_exprs: tuple[str, ...]
    scorer: ScorerSpec
    translator: TranslatorSpec = TranslatorSpec()
    hyperparameters: Hyperparameters = Hyperparameters()
    baseline_run: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "test_exprs", tuple(self.test_exprs))
        if not self.test_exprs:
            raise ValueError("need at least one test expression")
        # expressions must parse up front; raises CompositionParseError
        parse_composition(self.ft_expr)
        parse_composition(self.dev_expr)
        for expr in self.test_exprs:
            parse_composition(expr)
        # each names a file in the results directory, never a path out of it
        for key in ("run_name", "baseline_run"):
            name = getattr(self, key)
            if name is not None and (
                name in ("", ".", "..") or "\0" in name or Path(name).name != name
            ):
                raise ValueError(f"{key} must be a plain file name, got {name!r}")

    @classmethod
    def from_json(cls, path: str | Path) -> "ExperimentConfig":
        """Load a config file; relative paths resolve against its directory."""
        p = Path(path)

        def resolve(value: str | None) -> str | None:
            # joining keeps an absolute value as it is
            return None if value is None else str(p.parent / value)

        try:
            raw = read_json(p, ExperimentError, "config")
            defaults = {"pretrained_label": "", "baseline_run": None}
            run_name, pretrained_label, ft_expr, dev_expr, test_exprs, baseline_run = read_fields(
                {**defaults, **raw} if isinstance(raw, dict) else raw, str(p), "config",
                {"run_name": TEXT, "pretrained_label": TEXT, "ft_expr": TEXT, "dev_expr": TEXT,
                 "test_exprs": TEXTS, "baseline_run": OPTIONAL_TEXT},
            )
            train, dev, test = read_fields(
                raw.get("source", {}), str(p), "config", {"train": TEXT, "dev": TEXT, "test": TEXT}
            )
            scorer = _read_section(raw, "scorer", ScorerSpec, str(p))
            translator = _read_section(raw, "translator", TranslatorSpec, str(p))
            return cls(
                run_name=run_name,
                pretrained_label=pretrained_label,
                source_train=resolve(train),
                source_dev=resolve(dev),
                source_test=resolve(test),
                ft_expr=ft_expr,
                dev_expr=dev_expr,
                test_exprs=tuple(test_exprs),
                scorer=replace(scorer, scores_path=resolve(scorer.scores_path)),
                translator=replace(translator, cache_path=resolve(translator.cache_path)),
                hyperparameters=_read_section(raw, "hyperparameters", Hyperparameters, str(p)),
                baseline_run=baseline_run,
            )
        except DatasetFormatError as exc:
            raise ExperimentError(str(exc)) from exc
        except CompositionParseError:
            raise
        except (TypeError, ValueError) as exc:
            raise ExperimentError(f"{p}: bad config: {exc}") from exc


# ---------------------------------------------------------------------------
# trainer interface and mocks
# ---------------------------------------------------------------------------

class Trainer(ABC):
    """One fine-tuning iteration at a time, yielding a scorer snapshot."""

    @abstractmethod
    def train_one_iteration(self) -> Scorer:
        ...


class ConstantScorerTrainer(Trainer):
    """Trainer whose snapshots are always the same scorer (nothing to learn)."""

    def __init__(self, scorer: Scorer) -> None:
        self.scorer = scorer
        self.iterations_run = 0

    def train_one_iteration(self) -> Scorer:
        self.iterations_run += 1
        return self.scorer


class _ScriptedScorer(Scorer):
    def __init__(self, dev_map: float) -> None:
        self.dev_map = dev_map

    def score_groups(self, groups):
        raise NotImplementedError("scripted snapshots cannot score; they only carry dev MAP")


class ScriptedTrainer(Trainer):
    """In-repo mock trainer: each iteration yields a snapshot carrying the next
    value of a scripted dev-MAP sequence (use with ``scripted_dev_map``)."""

    def __init__(self, dev_maps: Sequence[float]) -> None:
        self._maps = list(dev_maps)
        self.iterations_run = 0

    def train_one_iteration(self) -> Scorer:
        if self.iterations_run >= len(self._maps):
            raise ExperimentError("scripted trainer exhausted its dev-MAP sequence")
        snapshot = _ScriptedScorer(self._maps[self.iterations_run])
        self.iterations_run += 1
        return snapshot


def scripted_dev_map(scorer: Scorer) -> float:
    """Dev evaluator matching ScriptedTrainer snapshots."""
    return scorer.dev_map  # type: ignore[attr-defined]


# ---------------------------------------------------------------------------
# early stopping
# ---------------------------------------------------------------------------

@dataclass
class EarlyStopResult:
    best_iteration: int
    best_dev_map: float
    dev_maps: list[float]
    best_scorer: Scorer = field(repr=False)


def early_stop_loop(
    trainer: Trainer,
    evaluate_dev: Callable[[Scorer], float],
    max_iterations: int,
) -> EarlyStopResult:
    """Train up to ``max_iterations``, evaluating dev MAP after every
    iteration (the first included). The loop stops as soon as dev MAP fails to
    strictly improve on the best seen — ties stop — and returns the earliest
    best iteration (1-based). A NaN or infinite dev MAP raises
    ``ExperimentError``."""
    if max_iterations < 1:
        raise ValueError(f"max_iterations must be >= 1, got {max_iterations}")
    dev_maps: list[float] = []
    best_map = float("-inf")
    for iteration in range(1, max_iterations + 1):
        scorer = trainer.train_one_iteration()
        dev_map = evaluate_dev(scorer)
        if not math.isfinite(dev_map):
            raise ExperimentError(
                f"dev MAP at iteration {iteration} is {dev_map}, not a finite number"
            )
        dev_maps.append(dev_map)
        if dev_map > best_map:
            best_iteration, best_map, best_scorer = iteration, dev_map, scorer
        else:
            break
    return EarlyStopResult(best_iteration, best_map, dev_maps, best_scorer)


# ---------------------------------------------------------------------------
# evaluation pipeline
# ---------------------------------------------------------------------------

def evaluate_dataset(dataset: Dataset, scorer: Scorer, *, test_set: str | None = None) -> MetricsReport:
    """Drop unanswerable questions, rank every remaining group in one
    ``rank`` call, and aggregate P@1 / MAP / MRR. The number of excluded
    questions is recorded on the report."""
    groups = filter_answerable(dataset).groups
    excluded = len(dataset.groups) - len(groups)
    rankings = [judge(group, ranking) for group, ranking in zip(groups, rank(groups, scorer))]
    return evaluate(
        rankings,
        test_set=test_set if test_set is not None else dataset.name,
        num_excluded=excluded,
    )


def build_translator(spec: TranslatorSpec) -> Translator:
    if spec.kind == "mock":
        backend: Translator = MockTranslator()
        name = "mock"
    else:
        endpoint = spec.endpoint or os.environ.get(TRANSLATOR_ENDPOINT_ENV)
        if not endpoint:
            raise ExperimentError(
                f"http translator needs an endpoint (or ${TRANSLATOR_ENDPOINT_ENV})"
            )
        backend = HttpTranslator(endpoint)
        name = f"http {endpoint}"
    if spec.cache_path:
        return CachingTranslator(backend, TranslationCache(spec.cache_path, name))
    return backend


def build_scorer(spec: ScorerSpec, *, max_seq_len: int) -> Callable[[Iterable[str]], Scorer]:
    """The scorers a spec describes, as a function from the candidate texts
    of a composition to the scorer that ranks it. A lexical builder keeps one
    ``TermIndex``, so its scorers tokenize each distinct text once between
    them, and builds each scorer's idf table from the texts it is given. The
    other kinds make their one scorer here (a static one reads its file
    now) and return it for any texts."""
    if spec.kind == "lexical":
        from mlas2.reranking import LexicalScorer, TermIndex  # numpy, for lexical runs only

        index = TermIndex()
        return lambda texts: LexicalScorer(texts, index)
    if spec.kind == "remote":
        scorer: Scorer = RemoteScorer(
            spec.endpoint, max_seq_len=max_seq_len, batch_size=spec.batch_size
        )
    else:
        scorer = StaticScorer.from_jsonl(spec.scores_path)
    return lambda texts: scorer


# ---------------------------------------------------------------------------
# run records
# ---------------------------------------------------------------------------

_LIST = FieldKind("a JSON list", lambda v: isinstance(v, list))
_STRINGS = FieldKind(
    "an object of strings", lambda v: isinstance(v, dict) and all(map(TEXT.test, v.values()))
)
_NUMBERS = FieldKind(
    "a list of JSON numbers", lambda v: isinstance(v, list) and all(map(NUMBER.test, v))
)
# in the order of the dataclass fields
_RUN_RECORD = {
    "run_name": TEXT, "config": FieldKind("a JSON object", lambda v: isinstance(v, dict)),
    "started": TEXT, "finished": TEXT, "fingerprints": _STRINGS, "dev_maps": _NUMBERS,
    "best_iteration": COUNT, "reports": _LIST, "deltas": _LIST,
}
_DELTA = {
    "name": TEXT, "baseline": TEXT, "p_at_1_pct": NUMBER, "map_pct": NUMBER, "mrr_pct": NUMBER
}


@dataclass
class RunRecord:
    run_name: str
    config: dict
    started: str
    finished: str
    fingerprints: dict[str, str]
    dev_maps: list[float]
    best_iteration: int
    reports: list[MetricsReport]
    deltas: list[DeltaReport]

    def to_dict(self) -> dict:
        # the fields in declaration order, with reports and deltas in wire format
        return {
            **vars(self),
            "reports": [{**r.to_json_dict(), "n_excluded": r.num_excluded} for r in self.reports],
            "deltas": [d.to_json_dict() for d in self.deltas],
        }

    def save(self, path: str | Path) -> None:
        write_lines(path, [json.dumps(self.to_dict(), ensure_ascii=False, indent=2) + "\n"])

    @classmethod
    def load(cls, path: str | Path) -> "RunRecord":
        """Read a saved record; a malformed one raises ExperimentError naming the file."""
        where = str(path)
        raw = read_json(path, ExperimentError, "run record")
        try:
            *head, reports, deltas = read_fields(
                {"deltas": [], **raw} if isinstance(raw, dict) else raw, where, "run", _RUN_RECORD
            )
            return cls(
                *head,
                reports=[MetricsReport.from_json_dict(r, where) for r in reports],
                deltas=[DeltaReport(*read_fields(d, where, "run", _DELTA)) for d in deltas],
            )
        except DatasetFormatError as exc:
            raise ExperimentError(str(exc)) from exc


# ---------------------------------------------------------------------------
# experiment execution
# ---------------------------------------------------------------------------

def _now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")


def run_experiment(
    config: ExperimentConfig,
    *,
    trainer: Trainer | None = None,
    results_dir: str | Path | None = None,
) -> RunRecord:
    """Materialize the fine-tuning and dev compositions, run the
    early-stopping loop, then build and evaluate each test composition in
    turn with the best scorer, compute deltas against the named baseline run,
    and persist the run record.

    Without an explicit trainer, a constant trainer wraps the scorer the
    config describes for the dev set (real fine-tuning lives behind the
    Trainer interface), and each test composition is ranked by that spec's
    scorer for its own texts: its own idf table if lexical, and the run's one
    remote client, memo and all, if remote.
    """
    started = _now()
    hp = config.hyperparameters
    # fail before the work: the record must be writable where it goes, the
    # translation cache must be a file it can append to, and another run
    # named as the baseline must have readable reports
    record_path = None
    if results_dir is not None:
        record_path = Path(results_dir) / f"{config.run_name}.json"
        record_path.parent.mkdir(parents=True, exist_ok=True)
        check_replaceable(record_path)
    translator = build_translator(config.translator)
    base_reports: dict[str, MetricsReport] = {}
    if config.baseline_run and config.baseline_run != config.run_name:
        if results_dir is None:
            raise ExperimentError("baseline_run given but no results_dir to load it from")
        base_path = Path(results_dir) / f"{config.baseline_run}.json"
        if not base_path.exists():
            raise ExperimentError(f"baseline run not found: {base_path}")
        base_reports = {r.test_set: r for r in RunRecord.load(base_path).reports}
        for expr in config.test_exprs:
            if expr not in base_reports:
                raise ExperimentError(
                    f"baseline run {config.baseline_run!r} has no report for test {expr!r}"
                )
            check_baseline(base_reports[expr], str(base_path), ExperimentError)

    # one load per source file and one transfer per (source, language): the
    # compositions of a source share its views
    sources: dict[str, tuple[Dataset, dict[str, Dataset]]] = {}

    def compose(expr: str, path: str, split: str) -> Dataset:
        if path not in sources:
            sources[path] = (load_dataset(path, split), {})
        source, views = sources[path]
        return replace(materialize(parse_composition(expr), source, translator, views), split=split)

    # the fine-tuning composition is only fingerprinted, so it is dropped at once
    fingerprints = {
        "ft": fingerprint_dataset(compose(config.ft_expr, config.source_train, "train"))
    }
    dev_data = compose(config.dev_expr, config.source_dev, "dev")
    fingerprints["dev"] = fingerprint_dataset(dev_data)

    # built after the dev set, so a bad scores file fails here; the builder
    # and the scorers it keeps (a remote client's memo) die with the run
    scorer_for = None
    if trainer is None:
        scorer_for = build_scorer(config.scorer, max_seq_len=hp.max_seq_len)
        trainer = ConstantScorerTrainer(scorer_for(dev_data.candidate_texts()))

    # a trainer may hand back the snapshot it handed back last time (the
    # constant trainer always does); its dev MAP is then the one just computed
    last: tuple[Scorer | None, float] = (None, 0.0)

    def evaluate_dev(scorer: Scorer) -> float:
        nonlocal last
        if last[0] is not scorer:
            last = (scorer, evaluate_dataset(dev_data, scorer).map)
        return last[1]

    stop = early_stop_loop(trainer, evaluate_dev, hp.max_iterations)

    # each test composition is built, fingerprinted and evaluated in turn, and
    # released before the next is built, so one at a time is alive
    def report(expr: str) -> MetricsReport:
        data = compose(expr, config.source_test, "test")
        fingerprints[f"test:{expr}"] = fingerprint_dataset(data)
        scorer = stop.best_scorer if scorer_for is None else scorer_for(data.candidate_texts())
        return evaluate_dataset(data, scorer, test_set=expr)

    reports = [report(expr) for expr in config.test_exprs]

    deltas: list[DeltaReport] = []
    if config.baseline_run:
        if config.baseline_run == config.run_name:
            for r in reports:
                check_baseline(r, f"run {config.run_name!r}", ExperimentError)
            base_reports = {r.test_set: r for r in reports}
        deltas = [
            delta_report(
                base_reports[r.test_set], r, name=r.test_set, baseline_name=config.baseline_run
            )
            for r in reports
        ]

    record = RunRecord(
        run_name=config.run_name,
        # normalize the snapshot to JSON types so saved and in-memory records agree
        config=json.loads(json.dumps(asdict(config))),
        started=started,
        finished=_now(),
        fingerprints=fingerprints,
        dev_maps=stop.dev_maps,
        best_iteration=stop.best_iteration,
        reports=reports,
        deltas=deltas,
    )
    if record_path is not None:
        record.save(record_path)
    return record
