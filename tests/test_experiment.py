import json
import math
import weakref
from collections import Counter
from dataclasses import asdict
from itertools import chain

import pytest
from hypothesis import assume, given, settings

from conftest import (
    CountingTieScorer,
    make_dataset,
    make_group,
    make_synthetic_dataset,
    rank_one,
    tie_heavy_datasets,
    tie_table,
)
from mlas2 import experiment, reranking
from mlas2.algebra import CompositionParseError, materialize, parse_composition
from mlas2.dataset import filter_answerable, save_dataset
from mlas2.experiment import (
    ConstantScorerTrainer,
    ExperimentConfig,
    ExperimentError,
    Hyperparameters,
    RunRecord,
    ScorerSpec,
    ScriptedTrainer,
    Trainer,
    TranslatorSpec,
    early_stop_loop,
    evaluate_dataset,
    run_experiment,
    scripted_dev_map,
)
from mlas2.metrics import evaluate, judge
from mlas2.reranking import LexicalScorer
from mlas2.scoring import RemoteScorer, ScoringError, StaticScorer, TextPairScorer
from mlas2.servers import make_scorer_server, start_in_thread
from mlas2.translation import MockTranslator, mock_translate


# ---------------------------------------------------------------------------
# early stopping
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "maps,best,iterations",
    [
        ([0.5, 0.6, 0.55], 2, 3),
        ([0.5, 0.4], 1, 2),
        ([0.4, 0.5, 0.6], 3, 3),
        ([0.5, 0.5], 1, 2),  # a tie is not an improvement
        ([0.9], 1, 1),
    ],
)
def test_early_stop_sequences(maps, best, iterations):
    trainer = ScriptedTrainer(maps)
    result = early_stop_loop(trainer, scripted_dev_map, max_iterations=3 if len(maps) > 1 else 1)
    assert result.best_iteration == best
    assert trainer.iterations_run == iterations
    assert result.dev_maps == maps[:iterations]
    assert result.best_dev_map == max(maps[:iterations])


def test_early_stop_respects_max_iterations():
    trainer = ScriptedTrainer([0.1, 0.2, 0.3, 0.4, 0.5])
    result = early_stop_loop(trainer, scripted_dev_map, max_iterations=2)
    assert trainer.iterations_run == 2
    assert result.best_iteration == 2


def test_early_stop_rejects_bad_max_iterations():
    with pytest.raises(ValueError):
        early_stop_loop(ScriptedTrainer([0.5]), scripted_dev_map, max_iterations=0)


@pytest.mark.parametrize(
    "maps,bad_iteration",
    [([float("nan")], 1), ([0.5, float("nan")], 2), ([0.5, float("inf")], 2)],
)
def test_early_stop_rejects_non_finite_dev_map(maps, bad_iteration):
    with pytest.raises(ExperimentError, match=f"iteration {bad_iteration}"):
        early_stop_loop(ScriptedTrainer(maps), scripted_dev_map, max_iterations=3)


def test_constant_trainer_stops_after_two_iterations():
    trainer = ConstantScorerTrainer(StaticScorer({}))
    result = early_stop_loop(trainer, lambda s: 0.7, max_iterations=3)
    assert trainer.iterations_run == 2
    assert result.best_iteration == 1


# ---------------------------------------------------------------------------
# dataset evaluation
# ---------------------------------------------------------------------------

def perfect_scorer_for(dataset):
    table = {
        (g.question.id, c.id): float(c.label) for g in dataset.groups for c in g.candidates
    }
    return StaticScorer(table)


def test_evaluate_dataset_perfect_scores(tiny_dataset):
    report = evaluate_dataset(tiny_dataset, perfect_scorer_for(tiny_dataset))
    assert (report.p_at_1, report.map, report.mrr) == (1.0, 1.0, 1.0)
    assert report.num_questions == 2
    assert report.num_excluded == 0


def test_evaluate_dataset_excludes_unanswerable(tiny_dataset):
    extra = make_group("q9", "unanswerable question", [("nope", 0)])
    d = make_dataset(list(tiny_dataset.groups) + [extra])
    report = evaluate_dataset(d, perfect_scorer_for(d))
    assert report.num_questions == 2
    assert report.num_excluded == 1


def test_evaluate_dataset_empty_after_filtering():
    d = make_dataset([make_group("q1", "question", [("no", 0)])])
    with pytest.raises(ValueError, match="nothing to evaluate"):
        evaluate_dataset(d, perfect_scorer_for(d))


def per_group_report(dataset, scorer):
    """Reference: rank each answerable group with its own scorer call."""
    answerable = filter_answerable(dataset)
    rankings = [judge(g, rank_one(g.question, g.candidates, scorer)) for g in answerable.groups]
    return evaluate(
        rankings, test_set=dataset.name, num_excluded=len(dataset.groups) - len(answerable.groups)
    )


@settings(max_examples=60, deadline=None)
@given(d=tie_heavy_datasets())
def test_evaluate_dataset_equals_per_group_rank(d):
    assume(filter_answerable(d).groups)
    lexical = LexicalScorer(d.candidate_texts())
    assert evaluate_dataset(d, lexical) == per_group_report(d, lexical)
    static = StaticScorer(tie_table(d))
    assert evaluate_dataset(d, static) == per_group_report(d, static)
    counting = CountingTieScorer()
    assert evaluate_dataset(d, counting) == per_group_report(d, CountingTieScorer())
    # one call over every answerable group's pairs
    assert counting.calls == 1
    assert counting.pairs == sum(len(g.candidates) for g in filter_answerable(d).groups)


@pytest.mark.parametrize("extra", [-1, 1])
def test_evaluate_dataset_wrong_score_count_is_an_error(tiny_dataset, extra):
    # one score too many must not be cut off: every group would get a slice
    class OffByOne(CountingTieScorer):
        def score_pairs(self, pairs):
            scores = super().score_pairs(pairs)
            return scores[:-1] if extra < 0 else scores + [0.5]

    with pytest.raises(ScoringError, match=f"returned {5 + extra} scores for 5 pairs"):
        evaluate_dataset(tiny_dataset, OffByOne())


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------

def write_config(tmp_path, **overrides):
    raw = {
        "run_name": "toy-run",
        "pretrained_label": "bert-base-multilingual-cased",
        "source": {"train": "src.jsonl", "dev": "src.jsonl", "test": "src.jsonl"},
        "ft_expr": "En",
        "dev_expr": "En",
        "test_exprs": ["En"],
        "scorer": {"kind": "lexical"},
        "translator": {"kind": "mock"},
    }
    raw.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return path


def test_config_resolves_relative_paths(tmp_path):
    path = write_config(tmp_path)
    config = ExperimentConfig.from_json(path)
    assert config.source_train == str(tmp_path / "src.jsonl")
    assert config.hyperparameters == Hyperparameters()
    assert config.hyperparameters.learning_rate == 2e-5
    assert config.hyperparameters.max_seq_len == 128
    assert config.hyperparameters.max_iterations == 3
    assert config.hyperparameters.seed == 42


def test_config_rejects_bad_expression(tmp_path):
    path = write_config(tmp_path, ft_expr="En+")
    with pytest.raises(CompositionParseError):
        ExperimentConfig.from_json(path)


def test_config_missing_field(tmp_path):
    path = write_config(tmp_path)
    raw = json.loads(path.read_text())
    del raw["run_name"]
    path.write_text(json.dumps(raw))
    with pytest.raises(ExperimentError, match="missing config field"):
        ExperimentConfig.from_json(path)


@pytest.mark.parametrize(
    "overrides",
    [
        {"scorer": {"kind": "remote"}},
        {"scorer": {"kind": "bogus"}},
        {"hyperparameters": {"max_iterations": 0}},
        {"test_exprs": []},
        {"scorer": {"kind": "lexical", "batch_size": 0}},
    ],
)
def test_config_value_error_names_the_file(tmp_path, overrides):
    path = write_config(tmp_path, **overrides)
    with pytest.raises(ExperimentError, match="bad config") as info:
        ExperimentConfig.from_json(path)
    assert str(path) in str(info.value)


@pytest.mark.parametrize("text", ["[]", "{broken", '{"run_name": "x", "scorer": 5}'])
def test_config_file_not_an_object_names_the_file(tmp_path, text):
    path = tmp_path / "config.json"
    path.write_text(text)
    with pytest.raises(ExperimentError, match="bad config") as info:
        ExperimentConfig.from_json(path)
    assert str(path) in str(info.value)


@pytest.mark.parametrize(
    "overrides",
    [
        {"run_name": None},
        {"test_exprs": "En"},
        {"test_exprs": ["En", 5]},
        {"ft_expr": 5},
        {"pretrained_label": None},
        {"source": {"train": None, "dev": "src.jsonl", "test": "src.jsonl"}},
        {"baseline_run": 3},
        {"scorer": {"kind": "lexical", "batch_size": "big"}},
        {"scorer": {"kind": "static", "scores_path": 5}},
        {"scorer": [1]},
        {"translator": {"endpoint": 5}},
        {"translator": {"kind": "mock", "cache_path": ["c.jsonl"]}},
        {"hyperparameters": {"seed": "x"}},
        {"hyperparameters": {"learning_rate": "high"}},
        {"hyperparameters": {"max_iterations": 2.0}},
        {"hyperparameters": {"max_seq_len": True}},
        {"ft_expr": "En\ud800"},
        {"baseline_run": "\udfff"},
        {"translator": {"kind": "mock", "cache_path": "c\ud800.jsonl"}},
    ],
    ids=[
        "null-run-name", "string-test-exprs", "number-in-test-exprs", "number-expr",
        "null-label", "null-source", "number-baseline", "string-scorer-batch-size",
        "number-scores-path", "list-scorer", "number-translator-endpoint", "list-cache-path",
        "string-seed", "string-learning-rate", "float-max-iterations", "bool-max-seq-len",
        "surrogate-expr", "surrogate-baseline", "surrogate-cache-path",
    ],
)
def test_config_wrongly_typed_field_names_the_file(tmp_path, overrides):
    # before, a null run_name became "None" and "test_exprs": "En" the terms E and n
    path = write_config(tmp_path, **overrides)
    with pytest.raises(ExperimentError, match="bad config") as info:
        ExperimentConfig.from_json(path)
    assert str(path) in str(info.value)


@pytest.mark.parametrize("key", ["run_name", "baseline_run"])
@pytest.mark.parametrize("name", ["../x", "/x", "", ".", "..", "runs/x", "x\0"])
def test_config_output_names_must_be_plain_file_names(tmp_path, key, name):
    # each is joined to the results directory as a file name
    path = write_config(tmp_path, **{key: name})
    with pytest.raises(ExperimentError, match=f"bad config: {key} must be a plain file name") as info:
        ExperimentConfig.from_json(path)
    assert str(path) in str(info.value)


def test_config_sections_keep_their_values(tmp_path):
    # typing the sections reads values, never converts them: an integer
    # learning rate stays an integer in the snapshot
    scorer = {"kind": "remote", "endpoint": "http://127.0.0.1:1/score", "batch_size": 7}
    translator = {"kind": "http", "endpoint": None, "cache_path": "cache.jsonl"}
    hp = {"learning_rate": 1, "max_seq_len": 64, "max_iterations": 2, "batch_size": 8, "seed": -3}
    path = write_config(tmp_path, scorer=scorer, translator=translator, hyperparameters=hp)
    config = asdict(ExperimentConfig.from_json(path))
    assert config["scorer"] == {**scorer, "scores_path": None}
    assert config["translator"] == {**translator, "cache_path": str(tmp_path / "cache.jsonl")}
    assert config["hyperparameters"] == hp
    assert type(config["hyperparameters"]["learning_rate"]) is int


def test_config_baseline_run_may_be_null(tmp_path):
    assert ExperimentConfig.from_json(write_config(tmp_path, baseline_run=None)).baseline_run is None


def test_config_nested_too_deeply_names_the_file(tmp_path):
    # json.load raises RecursionError here, which is no ValueError
    path = tmp_path / "config.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    with pytest.raises(ExperimentError, match="bad config") as info:
        ExperimentConfig.from_json(path)
    assert str(path) in str(info.value)


def test_scorer_spec_validation():
    with pytest.raises(ValueError, match="unknown scorer"):
        ScorerSpec(kind="neural")
    with pytest.raises(ValueError, match="endpoint"):
        ScorerSpec(kind="remote")
    with pytest.raises(ValueError, match="scores_path"):
        ScorerSpec(kind="static")
    with pytest.raises(ValueError, match="unknown translator"):
        TranslatorSpec(kind="carrier-pigeon")


@pytest.mark.parametrize("batch_size", [0, -1])
def test_scorer_spec_rejects_batch_size_below_1(batch_size):
    # before, -1 made a remote scorer send nothing and 0 failed inside range()
    for kind, extra in [("lexical", {}), ("remote", {"endpoint": "http://127.0.0.1:1/score"})]:
        with pytest.raises(ValueError, match="batch_size must be >= 1"):
            ScorerSpec(kind, batch_size=batch_size, **extra)


# ---------------------------------------------------------------------------
# run_experiment
# ---------------------------------------------------------------------------

def setup_sources(tmp_path, dataset=None):
    d = dataset if dataset is not None else make_synthetic_dataset(8)
    src = tmp_path / "src.jsonl"
    save_dataset(d, src)
    return d, src


def static_scores_file(tmp_path, dataset):
    path = tmp_path / "scores.jsonl"
    with path.open("w") as fh:
        for g in dataset.groups:
            for c in g.candidates:
                fh.write(json.dumps({"qid": g.question.id, "cid": c.id, "score": float(c.label)}) + "\n")
    return path


def test_run_experiment_perfect_static(tmp_path):
    d, src = setup_sources(tmp_path)
    scores = static_scores_file(tmp_path, d)
    config = ExperimentConfig.from_json(
        write_config(
            tmp_path,
            scorer={"kind": "static", "scores_path": str(scores)},
        )
    )
    record = run_experiment(config, results_dir=tmp_path / "runs")
    assert len(record.reports) == 1
    report = record.reports[0]
    assert (report.p_at_1, report.map, report.mrr) == (1.0, 1.0, 1.0)
    assert record.best_iteration == 1
    assert len(record.dev_maps) == 2  # constant dev MAP: second iteration ties, loop stops
    assert (tmp_path / "runs" / "toy-run.json").exists()


def test_run_experiment_scores_dev_once_per_snapshot(tmp_path):
    setup_sources(tmp_path)
    config = ExperimentConfig.from_json(
        write_config(tmp_path, hyperparameters={"max_iterations": 3})
    )
    # one scorer call per evaluation: dev, then the one test composition
    scorer = CountingTieScorer()
    record = run_experiment(config, trainer=ConstantScorerTrainer(scorer))
    assert len(record.dev_maps) == 2 and record.dev_maps[0] == record.dev_maps[1]
    assert scorer.calls == 2  # dev scored once for two iterations, then test

    class FreshSnapshots(Trainer):
        def __init__(self):
            self.snapshots = []

        def train_one_iteration(self):
            self.snapshots.append(CountingTieScorer())
            return self.snapshots[-1]

    trainer = FreshSnapshots()
    assert run_experiment(config, trainer=trainer).dev_maps == record.dev_maps
    # each snapshot scored dev once; the first, the best, also scored test
    assert [s.calls for s in trainer.snapshots] == [2, 1]


def test_run_experiment_deterministic_modulo_timestamps(tmp_path):
    _, src = setup_sources(tmp_path)
    config = ExperimentConfig.from_json(write_config(tmp_path, test_exprs=["En+De", "EnDe"]))
    a = run_experiment(config, results_dir=tmp_path / "runs")
    b = run_experiment(config, results_dir=tmp_path / "runs")
    da, db = a.to_dict(), b.to_dict()
    for record in (da, db):
        record.pop("started")
        record.pop("finished")
    assert da == db


def test_run_experiment_baseline_self_is_zero(tmp_path):
    _, src = setup_sources(tmp_path)
    config = ExperimentConfig.from_json(write_config(tmp_path, baseline_run="toy-run"))
    record = run_experiment(config, results_dir=tmp_path / "runs")
    assert len(record.deltas) == 1
    delta = record.deltas[0]
    assert (delta.p_at_1_pct, delta.map_pct, delta.mrr_pct) == (0.0, 0.0, 0.0)
    assert delta.baseline == "toy-run"


def test_run_experiment_baseline_from_results_dir(tmp_path):
    d, src = setup_sources(tmp_path)
    runs = tmp_path / "runs"
    base_config = ExperimentConfig.from_json(write_config(tmp_path, run_name="base"))
    run_experiment(base_config, results_dir=runs)

    scores = static_scores_file(tmp_path, d)
    config = ExperimentConfig.from_json(
        write_config(
            tmp_path,
            run_name="perfect",
            scorer={"kind": "static", "scores_path": str(scores)},
            baseline_run="base",
        )
    )
    record = run_experiment(config, results_dir=runs)
    assert record.deltas[0].baseline == "base"
    # the perfect scorer can only go up from the lexical baseline
    assert record.deltas[0].p_at_1_pct >= 0.0


def test_run_experiment_missing_baseline(tmp_path):
    _, src = setup_sources(tmp_path)
    config = ExperimentConfig.from_json(write_config(tmp_path, baseline_run="nonexistent"))
    with pytest.raises(ExperimentError, match="baseline run not found"):
        run_experiment(config, results_dir=tmp_path / "runs")
    with pytest.raises(ExperimentError, match="results_dir"):
        run_experiment(config)


def never_materialized(monkeypatch):
    """Make ``run_experiment`` fail the test if it materializes a dataset."""

    def materialize(*args):
        raise AssertionError("a dataset was materialized")

    monkeypatch.setattr("mlas2.experiment.materialize", materialize)


def test_run_experiment_checks_the_record_target_before_the_work(tmp_path, monkeypatch):
    setup_sources(tmp_path)
    config = ExperimentConfig.from_json(write_config(tmp_path))
    (tmp_path / "runs" / "toy-run.json").mkdir(parents=True)
    (tmp_path / "file").write_text("")
    never_materialized(monkeypatch)
    with pytest.raises(OSError, match="not a regular file, so not replaced"):
        run_experiment(config, results_dir=tmp_path / "runs")
    with pytest.raises(FileExistsError):
        run_experiment(config, results_dir=tmp_path / "file")


@pytest.mark.parametrize("target", ["missing/c.jsonl", "directory"])
def test_run_experiment_checks_the_translation_cache_before_any_input_is_read(
    tmp_path, monkeypatch, target
):
    setup_sources(tmp_path)
    (tmp_path / "directory").mkdir()
    config = ExperimentConfig.from_json(
        write_config(tmp_path, translator={"kind": "mock", "cache_path": target})
    )

    def no_read(*args, **kwargs):
        raise AssertionError("an input was read")

    monkeypatch.setattr("mlas2.experiment.load_dataset", no_read)
    with pytest.raises(OSError, match=f"^translation cache {tmp_path / target}: "):
        run_experiment(config, results_dir=tmp_path / "runs")


def test_run_experiment_loads_the_baseline_before_the_work(tmp_path, monkeypatch):
    setup_sources(tmp_path)
    config = ExperimentConfig.from_json(write_config(tmp_path, baseline_run="missing"))
    never_materialized(monkeypatch)
    with pytest.raises(ExperimentError, match="baseline run not found"):
        run_experiment(config, results_dir=tmp_path / "runs")
    (tmp_path / "runs" / "missing.json").write_text(json.dumps({
        "run_name": "missing", "config": {}, "started": "", "finished": "", "fingerprints": {},
        "dev_maps": [], "best_iteration": 1, "reports": [],
    }))
    with pytest.raises(ExperimentError, match="has no report for test 'En'"):
        run_experiment(config, results_dir=tmp_path / "runs")


def test_run_experiment_checks_the_baseline_metrics_before_the_work(tmp_path, monkeypatch):
    # a zero metric failed only in the delta, after every dataset was
    # materialized and scored, naming neither the run, the test nor the metric
    setup_sources(tmp_path)
    config = ExperimentConfig.from_json(write_config(tmp_path, baseline_run="b"))
    (tmp_path / "runs").mkdir()
    (tmp_path / "runs" / "b.json").write_text(json.dumps({
        "run_name": "b", "config": {}, "started": "", "finished": "", "fingerprints": {},
        "dev_maps": [], "best_iteration": 1,
        "reports": [{"test": "En", "n": 2, "p_at_1": 0.5, "map": 0.0, "mrr": 0.5}],
    }))
    never_materialized(monkeypatch)
    with pytest.raises(ExperimentError) as exc:
        run_experiment(config, results_dir=tmp_path / "runs")
    assert str(exc.value) == (
        f"{tmp_path / 'runs' / 'b.json'}: test 'En': baseline map must be positive, got 0.0"
    )


def test_a_run_that_is_its_own_baseline_checks_its_reports_before_the_deltas(tmp_path):
    # a zero in its own reports failed in the delta with a bare ValueError,
    # naming neither the run, the test nor the metric
    d, _ = setup_sources(tmp_path)
    inverted = {(g.question.id, c.id): 1.0 - c.label for g in d.groups for c in g.candidates}
    scores = tmp_path / "scores.jsonl"
    scores.write_text("".join(
        json.dumps({"qid": qid, "cid": cid, "score": s}) + "\n" for (qid, cid), s in inverted.items()
    ))
    config = ExperimentConfig.from_json(write_config(
        tmp_path, baseline_run="toy-run", scorer={"kind": "static", "scores_path": str(scores)}
    ))
    with pytest.raises(ExperimentError) as exc:
        run_experiment(config, results_dir=tmp_path / "runs")
    assert str(exc.value) == "run 'toy-run': test 'En': baseline p_at_1 must be positive, got 0.0"
    assert list((tmp_path / "runs").iterdir()) == []


@pytest.mark.parametrize(
    "record",
    [
        {"run_name": "b", "reports": [{"test": "En"}]},
        {"run_name": "b"},
        [1, 2],
    ],
    ids=["report-missing-n", "no-reports", "list-body"],
)
def test_run_experiment_malformed_baseline_is_experiment_error(tmp_path, record):
    _, src = setup_sources(tmp_path)
    runs = tmp_path / "runs"
    runs.mkdir()
    (runs / "b.json").write_text(json.dumps(record))
    config = ExperimentConfig.from_json(write_config(tmp_path, baseline_run="b"))
    with pytest.raises(ExperimentError, match="b.json: "):
        run_experiment(config, results_dir=runs)
    with pytest.raises(ExperimentError, match="b.json: "):
        RunRecord.load(runs / "b.json")


def test_run_experiment_materializes_compositions(tmp_path):
    d, src = setup_sources(tmp_path)
    config = ExperimentConfig.from_json(write_config(tmp_path, test_exprs=["En+De"]))
    record = run_experiment(config)
    assert record.reports[0].test_set == "En+De"
    assert record.reports[0].num_questions == 2 * len(d.groups)
    assert set(record.fingerprints) == {"ft", "dev", "test:En+De"}


def test_a_run_loads_translates_and_tokenizes_each_distinct_thing_once(tmp_path, monkeypatch):
    d, src = setup_sources(tmp_path)
    config = ExperimentConfig.from_json(write_config(
        tmp_path, ft_expr="En+De", dev_expr="En",
        test_exprs=["En", "En+De", "EnDe+DeEn", "En+EnDe+De+DeEn"],
    ))
    expected = run_experiment(config).to_dict()
    loads, translated, tokenized = Counter(), Counter(), Counter()

    def counting(counter, fn, key):
        def counted(*args):
            counter.update(key(*args))
            return fn(*args)
        return counted

    monkeypatch.setattr("mlas2.experiment.load_dataset", counting(
        loads, experiment.load_dataset, lambda path, split: [path]
    ))
    monkeypatch.setattr(MockTranslator, "translate_batch", counting(
        translated, MockTranslator.translate_batch, lambda _, r: ((t, r.tgt) for t in r.texts)
    ))
    monkeypatch.setattr("mlas2.reranking.tokenize", counting(
        tokenized, reranking.tokenize, lambda text: [text]
    ))
    record = run_experiment(config).to_dict()
    for r in (expected, record):
        del r["started"], r["finished"]
    assert record == expected
    # train, dev and test name one file
    assert loads == {str(src): 1}
    texts = [t.text for g in d.groups for t in (g.question, *g.candidates)]
    assert translated == {(text, "de"): 1 for text in texts}
    assert set(tokenized.values()) == {1}
    assert set(tokenized) == {*texts, *(mock_translate(t, "en", "de") for t in texts)}


def test_a_run_keeps_one_test_composition_alive_at_a_time(tmp_path, monkeypatch):
    setup_sources(tmp_path)
    exprs = ["En", "En+De", "EnDe+DeEn", "En+EnDe+De+DeEn"]
    config = ExperimentConfig.from_json(
        write_config(tmp_path, ft_expr="En+De", dev_expr="En", test_exprs=exprs)
    )
    expected = run_experiment(config).to_dict()
    # every composition a run builds is fingerprinted: ft, dev, then each test
    built = []
    alive = []
    fingerprint_dataset, evaluate_dataset = experiment.fingerprint_dataset, experiment.evaluate_dataset

    def fingerprint(data):
        built.append(weakref.ref(data))
        return fingerprint_dataset(data)

    def evaluate(data, scorer, **kwargs):
        alive.append([ref() is not None for ref in built])
        return evaluate_dataset(data, scorer, **kwargs)

    monkeypatch.setattr("mlas2.experiment.fingerprint_dataset", fingerprint)
    monkeypatch.setattr("mlas2.experiment.evaluate_dataset", evaluate)
    record = run_experiment(config).to_dict()
    for r in (expected, record):
        del r["started"], r["finished"]
    assert record == expected
    assert list(record["fingerprints"]) == ["ft", "dev", *(f"test:{e}" for e in exprs)]
    # the dev set is scored once, with only itself alive; each test composition
    # is scored with the dev set and itself alive, the ones before it released
    assert alive == [[False, True]] + [[False, True, *[False] * i, True] for i in range(4)]


MEMO_TESTS = ["De", "En+De", "EnDe+DeEn", "DeEn"]


def composed_pairs(dataset, expr):
    """The (question, candidate) text pairs a run scores for ``expr``."""
    data = materialize(parse_composition(expr), dataset, MockTranslator(), {})
    return [(g.question.text, c.text) for g in data.groups for c in g.candidates]


@pytest.fixture
def memo_run(tmp_path):
    """A remote run over a table-mode scorer server with the dev set ``De``,
    which two test compositions repeat: each score call's pairs, the table,
    the server and the config, and a memo-free rerun of the config."""
    d, _ = setup_sources(tmp_path)
    calls = [composed_pairs(d, expr) for expr in ["De", *MEMO_TESTS]]  # dev, then tests
    table = {pair: i % 7 / 6 for i, pair in enumerate(dict.fromkeys(chain(*calls)))}
    server = make_scorer_server(pair_scores=table)
    start_in_thread(server)
    endpoint = f"http://127.0.0.1:{server.server_port}/score"
    config = ExperimentConfig.from_json(write_config(
        tmp_path, dev_expr="De", test_exprs=MEMO_TESTS,
        scorer={"kind": "remote", "endpoint": endpoint, "batch_size": 16},
    ))

    class MemoFree(TextPairScorer):
        # the remote client's wire call, without its memo
        remote = RemoteScorer(endpoint, batch_size=16)

        def score_pairs(self, pairs):
            return self.remote.score_pairs(pairs)

    def memo_free():
        return run_experiment(config, trainer=ConstantScorerTrainer(MemoFree()))

    yield calls, table, server, config, memo_free
    server.shutdown()
    server.server_close()


def posts_sent(server, run):
    before = server.request_count
    record = run().to_dict()
    del record["started"], record["finished"]
    return record, server.request_count - before


def test_a_remote_run_scores_each_distinct_pair_once(memo_run):
    calls, _, server, config, memo_free = memo_run
    expected, posts_without = posts_sent(server, memo_free)
    record, posts = posts_sent(server, lambda: run_experiment(config))
    assert record == expected
    assert posts_without == sum(math.ceil(len(pairs) / 16) for pairs in calls)
    # each call sends the distinct pairs no earlier call sent
    seen = set()
    fresh = []
    for pairs in calls:
        fresh.append(set(pairs) - seen)
        seen |= fresh[-1]
    assert fresh[1] == set()  # the test De repeats the dev set: no POST
    assert posts == sum(math.ceil(len(new) / 16) for new in fresh) < posts_without


def test_a_remote_runs_memo_dies_with_the_run(memo_run):
    calls, table, server, config, memo_free = memo_run
    first, posts = posts_sent(server, lambda: run_experiment(config))
    server.pair_scores = {pair: 1.0 - score for pair, score in table.items()}
    expected, _ = posts_sent(server, memo_free)
    second, posts_again = posts_sent(server, lambda: run_experiment(config))
    assert second == expected
    assert second["reports"] != first["reports"]
    assert posts_again == posts


def test_run_record_round_trip(tmp_path):
    _, src = setup_sources(tmp_path)
    config = ExperimentConfig.from_json(write_config(tmp_path, baseline_run="toy-run"))
    record = run_experiment(config, results_dir=tmp_path / "runs")
    loaded = RunRecord.load(tmp_path / "runs" / "toy-run.json")
    assert loaded.to_dict() == record.to_dict()


@pytest.mark.parametrize(
    "overrides",
    [
        {"run_name": 5},
        {"dev_maps": "abc"},
        {"dev_maps": [0.5, "0.6"]},
        {"best_iteration": "3"},
        {"fingerprints": {"ft": 5}},
        {"config": []},
        {"deltas": [{"name": "En", "baseline": "b", "p_at_1_pct": "1", "map_pct": 0, "mrr_pct": 0}]},
        {"deltas": [{"name": "En", "baseline": "b"}]},
    ],
    ids=[
        "number-run-name", "string-dev-maps", "string-in-dev-maps", "string-best-iteration",
        "number-fingerprint", "list-config", "string-delta", "delta-missing-metrics",
    ],
)
def test_run_record_wrongly_typed_field_names_the_file(tmp_path, overrides):
    # before, each of these loaded as it was and DeltaReport took any values
    _, src = setup_sources(tmp_path)
    record = run_experiment(ExperimentConfig.from_json(write_config(tmp_path)))
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**record.to_dict(), **overrides}))
    with pytest.raises(ExperimentError, match="bad run record") as info:
        RunRecord.load(path)
    assert str(path) in str(info.value)


@pytest.mark.parametrize(
    "text", ["[" * 200_000 + "]" * 200_000, "{broken"], ids=["nested-too-deeply", "invalid"]
)
def test_run_record_invalid_json_names_the_file(tmp_path, text):
    # json.load raised RecursionError on the deep file, which is no ValueError
    path = tmp_path / "b.json"
    path.write_text(text)
    with pytest.raises(ExperimentError, match="bad run record: invalid JSON") as info:
        RunRecord.load(path)
    assert str(path) in str(info.value)


def test_run_record_not_utf8_names_the_file(tmp_path):
    # this raised UnicodeDecodeError, which is no ExperimentError
    path = tmp_path / "b.json"
    path.write_bytes(b'{"run_name": "\xff"}')
    with pytest.raises(ExperimentError, match="bad run record: invalid UTF-8") as info:
        RunRecord.load(path)
    assert str(path) in str(info.value)


def test_run_experiment_records_hyperparameters(tmp_path):
    _, src = setup_sources(tmp_path)
    config = ExperimentConfig.from_json(write_config(tmp_path))
    record = run_experiment(config)
    hp = record.config["hyperparameters"]
    assert hp == {
        "learning_rate": 2e-5,
        "max_seq_len": 128,
        "max_iterations": 3,
        "batch_size": 32,
        "seed": 42,
    }
