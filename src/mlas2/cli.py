"""Command-line entry point exposing every pipeline stage.

Exit codes: 0 success, 1 usage error (bad flags, malformed composition
expressions), 2 runtime error (missing files, invalid data, unreachable
backends). Machine-readable output goes to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from mlas2 import algebra
from mlas2.algebra import CompositionParseError, MixAlignmentError
from mlas2.dataset import (
    SCORE,
    TEXT,
    DatasetFormatError,
    FieldKind,
    check_replaceable,
    filter_answerable,
    jsonl_line,
    load_dataset,
    load_questions,
    read_json,
    read_table,
    save_dataset,
    stats,
    validate_dataset,
    write_lines,
)
from mlas2.experiment import (
    TRANSLATOR_ENDPOINT_ENV,
    ExperimentConfig,
    ExperimentError,
    ScorerSpec,
    TranslatorSpec,
    build_scorer,
    build_translator,
    evaluate_dataset,
    run_experiment,
)
from mlas2.metrics import (
    MetricsReport,
    check_baseline,
    delta_report,
    evaluate,
    judge,
    render_delta_table,
)
from mlas2.scoring import Scorer, ScoringError, rank
from mlas2.translation import TranslationError, Translator


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; the CLI contract wants 1
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}\n{self.format_usage()}")


def _emit(payload: dict) -> None:
    print(json.dumps(payload, ensure_ascii=False))


def _translator(args) -> Translator:
    """The translator the flags describe; an http translator with neither
    --endpoint nor the environment variable is a usage error."""
    try:
        return build_translator(
            TranslatorSpec(args.translator, endpoint=args.endpoint, cache_path=args.cache)
        )
    except ExperimentError as exc:
        raise UsageError(f"mlas2: {exc}") from exc


def _scorer(args, texts) -> Scorer:
    """The scorer the flags describe, for ranking ``texts``; a remote scorer
    without --endpoint or a static one without --scores is a usage error."""
    try:
        spec = ScorerSpec(
            args.scorer, endpoint=args.endpoint, scores_path=args.scores, batch_size=args.batch_size
        )
    except ValueError as exc:
        raise UsageError(f"mlas2: {exc}") from exc
    return build_scorer(spec, max_seq_len=args.max_seq_len)(texts)


# ---------------------------------------------------------------------------
# dataset subcommands
# ---------------------------------------------------------------------------

def cmd_dataset_stats(args) -> int:
    d = load_dataset(args.dataset, args.split)
    s = stats(d)
    _emit({"n_q": s.num_questions, "pos": s.num_correct, "neg": s.num_incorrect})
    return 0


def cmd_dataset_validate(args) -> int:
    d = load_dataset(args.dataset, args.split)
    violations = validate_dataset(d)
    _emit({"violations": violations})
    return 0 if not violations else 2


def cmd_dataset_transfer(args) -> int:
    translator = _translator(args)
    d = load_dataset(args.dataset, args.split)
    out = algebra.transfer(d, translator, args.to)
    save_dataset(out, args.out)
    _emit({"out": args.out, "groups": len(out.groups), "lang": args.to})
    return 0


def cmd_dataset_mix(args) -> int:
    d_q = load_dataset(args.questions_from, args.split)
    d_t = load_dataset(args.candidates_from, args.split)
    out = algebra.mix(d_q, d_t)
    save_dataset(out, args.out)
    _emit({"out": args.out, "groups": len(out.groups)})
    return 0


def cmd_dataset_concat(args) -> int:
    d_a = load_dataset(args.first, args.split)
    d_b = load_dataset(args.second, args.split)
    out = algebra.concat(d_a, d_b)
    save_dataset(out, args.out)
    _emit({"out": args.out, "groups": len(out.groups)})
    return 0


def cmd_dataset_compose(args) -> int:
    plan = algebra.parse_composition(args.expr)
    translator = _translator(args)
    source = load_dataset(args.source, args.split)
    out = algebra.materialize(plan, source, translator)
    save_dataset(out, args.out)
    _emit({"out": args.out, "groups": len(out.groups), "name": out.name})
    return 0


# ---------------------------------------------------------------------------
# candidate pipeline subcommands
# ---------------------------------------------------------------------------

def cmd_candidates_build(args) -> int:
    from mlas2 import candidates  # numpy, loaded by the candidate commands only

    # the counts are checked before any input is read
    for name, value in (("k_docs", args.k_docs), ("k_sents", args.k_sents)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    # questions and scorer first, so that either fails before the index build
    questions = load_questions(args.questions)
    scorer = _scorer(args, ()) if args.scorer == "remote" else None
    corpus = candidates.load_corpus(args.corpus)
    tasks = []
    total = 0
    for question in questions:
        cands = candidates.select_candidates(
            question, corpus, scorer, k_docs=args.k_docs, k_sents=args.k_sents
        )
        tasks.append((question, cands))
        total += len(cands)
    candidates.export_annotation_tasks(tasks, args.out)
    _emit({"out": args.out, "questions": len(questions), "candidates": total})
    return 0


def cmd_candidates_annotate(args) -> int:
    from mlas2 import candidates

    d = candidates.import_annotations(
        args.tasks,
        args.gold,
        name=args.name or Path(args.out).stem,
        split=args.split,
        language=args.lang,
    )
    save_dataset(d, args.out)
    _emit({"out": args.out, "groups": len(d.groups), "candidates": d.num_candidates()})
    return 0


# ---------------------------------------------------------------------------
# ranking and evaluation
# ---------------------------------------------------------------------------

def cmd_rank(args) -> int:
    d = load_dataset(args.dataset, args.split)
    scorer = _scorer(args, d.candidate_texts())
    lines = [
        jsonl_line({"qid": g.question.id, "ranking": ranking})
        for g, ranking in zip(d.groups, rank(d.groups, scorer))
    ]
    if args.out:
        write_lines(args.out, lines)
    else:
        sys.stdout.writelines(lines)
    return 0


_RANKING = FieldKind(
    "a list of [id, score] pairs with scores in [0, 1]",
    lambda v: isinstance(v, list)
    and all(
        isinstance(p, list) and len(p) == 2 and TEXT.test(p[0]) and SCORE.test(p[1]) for p in v
    ),
)


def _load_rankings(path: str) -> dict[str, list[list]]:
    """Each question's ranking, as ``[cid, score]`` pairs."""
    return read_table(path, "ranking", ("qid",), "ranking", _RANKING)


def cmd_evaluate(args) -> int:
    d = load_dataset(args.dataset, args.split)
    base = None
    if args.baseline:
        # read before anything is emitted: a bad baseline leaves stdout empty
        raw = read_json(args.baseline, DatasetFormatError, "metrics report")
        base = MetricsReport.from_json_dict(raw, args.baseline)
        check_baseline(base, args.baseline, DatasetFormatError)
    name = args.name or d.name
    if args.rankings:
        answerable = filter_answerable(d)
        rankings_by_qid = _load_rankings(args.rankings)
        judged = []
        for group in answerable.groups:
            if group.question.id not in rankings_by_qid:
                raise DatasetFormatError(
                    f"{args.rankings}: no ranking for question {group.question.id!r}"
                )
            judged.append(judge(group, rankings_by_qid[group.question.id]))
        report = evaluate(
            judged, test_set=name, num_excluded=len(d.groups) - len(answerable.groups)
        )
    else:
        report = evaluate_dataset(d, _scorer(args, d.candidate_texts()), test_set=name)
    outputs = [report]
    if base is not None:
        # before anything is emitted: a delta that fails leaves stdout empty
        outputs.append(delta_report(base, report, baseline_name=base.test_set or args.baseline))
    for output in outputs:
        _emit(output.to_json_dict())
    return 0


# ---------------------------------------------------------------------------
# experiments and mock services
# ---------------------------------------------------------------------------

def cmd_experiment_run(args) -> int:
    config = ExperimentConfig.from_json(args.config)
    if args.seed is not None:
        config = replace(
            config, hyperparameters=replace(config.hyperparameters, seed=args.seed)
        )
    record = run_experiment(config, results_dir=args.results_dir)
    print(json.dumps(record.to_dict(), ensure_ascii=False, indent=2))
    if record.deltas:
        print(render_delta_table(record.deltas, title=f"run {record.run_name}"), file=sys.stderr)
    print(
        f"run record: {Path(args.results_dir) / (record.run_name + '.json')}",
        file=sys.stderr,
    )
    return 0


def cmd_serve(args) -> int:
    from mlas2 import servers

    if args.service == "mock-scorer":
        pair_scores = servers.load_pair_scores(args.scores) if args.scores else None
        server = servers.make_scorer_server(args.port, pair_scores=pair_scores)
    else:
        server = servers.make_translator_server(args.port)
    _emit({"listening": server.server_port, "path": server.RequestHandlerClass.path_served})
    sys.stdout.flush()
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


# ---------------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------------

def _add_split(p) -> None:
    p.add_argument("--split", choices=("train", "dev", "test"), default="train")


def _add_translator_flags(p) -> None:
    p.add_argument("--translator", choices=("mock", "http"), default="mock")
    p.add_argument("--endpoint", help=f"http translator URL (default ${TRANSLATOR_ENDPOINT_ENV})")
    p.add_argument("--cache", help="JSONL translation cache path")


def _add_scorer_flags(p) -> None:
    p.add_argument("--scorer", choices=("lexical", "remote", "static"), default="lexical")
    p.add_argument("--endpoint", help="remote scorer URL")
    p.add_argument("--scores", help="static score file (JSONL of qid/cid/score)")
    p.add_argument("--max-seq-len", type=int, default=128, dest="max_seq_len")
    p.add_argument("--batch-size", type=int, default=128, dest="batch_size")


def _port(text: str) -> int:
    # bind() raises OverflowError outside this range; argparse makes the
    # ArgumentTypeError a usage error before any socket is opened
    try:
        port = int(text)
    except ValueError:
        port = -1
    if not 0 <= port <= 65535:
        raise argparse.ArgumentTypeError(f"invalid port {text!r} (want an integer in 0..65535)")
    return port


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mlas2", description=__doc__)
    parser.set_defaults(out=None)  # for the subcommands without --out
    sub = parser.add_subparsers(dest="command", required=True)

    p_dataset = sub.add_parser("dataset", help="dataset transforms and checks")
    dsub = p_dataset.add_subparsers(dest="subcommand", required=True)

    p = dsub.add_parser("stats", help="question/label counts")
    p.add_argument("dataset")
    _add_split(p)
    p.set_defaults(func=cmd_dataset_stats)

    p = dsub.add_parser("validate", help="check dataset invariants")
    p.add_argument("dataset")
    _add_split(p)
    p.set_defaults(func=cmd_dataset_validate)

    p = dsub.add_parser("transfer", help="translate every text into a target language")
    p.add_argument("dataset")
    p.add_argument("--to", required=True, help="target language code")
    p.add_argument("--out", required=True)
    _add_split(p)
    _add_translator_flags(p)
    p.set_defaults(func=cmd_dataset_transfer)

    p = dsub.add_parser("mix", help="questions from one dataset, candidates from another")
    p.add_argument("questions_from")
    p.add_argument("candidates_from")
    p.add_argument("--out", required=True)
    _add_split(p)
    p.set_defaults(func=cmd_dataset_mix)

    p = dsub.add_parser("concat", help="append two datasets, re-keying ids")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--out", required=True)
    _add_split(p)
    p.set_defaults(func=cmd_dataset_concat)

    p = dsub.add_parser("compose", help="materialize a composition expression")
    p.add_argument("--expr", required=True, help='e.g. "En+De" or "EnDe+DeEn"')
    p.add_argument("--source", required=True, help="source dataset JSONL")
    p.add_argument("--out", required=True)
    _add_split(p)
    _add_translator_flags(p)
    p.set_defaults(func=cmd_dataset_compose)

    p_cands = sub.add_parser("candidates", help="candidate construction pipeline")
    csub = p_cands.add_subparsers(dest="subcommand", required=True)

    p = csub.add_parser("build", help="retrieve, split, select, and export tasks")
    p.add_argument("--corpus", required=True, help="JSONL of {id, text} documents")
    p.add_argument("--questions", required=True, help="JSONL of question records")
    p.add_argument("--out", required=True, help="annotation task file")
    p.add_argument("--k-docs", type=int, default=500, dest="k_docs")
    p.add_argument("--k-sents", type=int, default=100, dest="k_sents")
    p.add_argument("--scorer", choices=("lexical", "remote"), default="lexical")
    p.add_argument("--endpoint", help="remote scorer URL")
    p.add_argument("--max-seq-len", type=int, default=128, dest="max_seq_len")
    p.add_argument("--batch-size", type=int, default=128, dest="batch_size")
    p.set_defaults(func=cmd_candidates_build, scores=None)

    p = csub.add_parser("annotate", help="merge labels into tasks, emit a dataset")
    p.add_argument("--tasks", required=True)
    p.add_argument("--gold", help="JSONL of {qid, cid, label}; omit if tasks carry labels")
    p.add_argument("--out", required=True)
    p.add_argument("--name", help="dataset name (default: output stem)")
    p.add_argument("--lang", default="en")
    p.add_argument("--split", choices=("train", "dev", "test"), default="test")
    p.set_defaults(func=cmd_candidates_annotate)

    p = sub.add_parser("rank", help="rank every question's candidates")
    p.add_argument("dataset")
    p.add_argument("--out", help="output JSONL (default stdout)")
    _add_split(p)
    _add_scorer_flags(p)
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("evaluate", help="P@1 / MAP / MRR of a scorer or rankings file")
    p.add_argument("dataset")
    p.add_argument("--rankings", help="JSONL produced by `mlas2 rank`")
    p.add_argument("--baseline", help="baseline metrics report JSON for deltas")
    p.add_argument("--name", help="test set label")
    _add_split(p)
    _add_scorer_flags(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("experiment", help="declarative experiment runs")
    esub = p.add_subparsers(dest="subcommand", required=True)
    p = esub.add_parser("run", help="run an experiment config")
    p.add_argument("--config", required=True)
    p.add_argument("--results-dir", default="runs", dest="results_dir")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.set_defaults(func=cmd_experiment_run)

    p = sub.add_parser("serve", help="mock services for end-to-end runs")
    p.add_argument("service", choices=("mock-scorer", "mock-translator"))
    p.add_argument("--port", type=_port, default=0, help="TCP port (default 0: any free port)")
    p.add_argument("--scores", help="static pair-score file for the mock scorer")
    p.set_defaults(func=cmd_serve)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.out is not None:
            # before any input is read: an output that cannot be written
            # fails the command before its work, not after
            check_replaceable(args.out)
        return args.func(args)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except CompositionParseError as exc:
        print(f"mlas2: bad composition expression: {exc}", file=sys.stderr)
        return 1
    except UnicodeError:
        # every text is checked where it is read, so no input gets here: a
        # program fault, which must not pass as a runtime error
        raise
    except (
        DatasetFormatError,
        MixAlignmentError,
        TranslationError,
        ScoringError,
        ExperimentError,
        ValueError,
        OSError,
    ) as exc:
        print(f"mlas2: error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    raise SystemExit(main())
