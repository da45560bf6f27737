import json
import os
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings

import mlas2
from conftest import CountingTieScorer, make_dataset, make_group, rank_one, tie_heavy_datasets, tie_table
from mlas2 import servers
from mlas2.cli import main
from mlas2.dataset import load_dataset, save_dataset, validate_dataset
from test_dataset import FIXTURE_LINES, write_fixture
from test_experiment import never_materialized


@pytest.fixture
def fixture_path(tmp_path):
    path = tmp_path / "train.jsonl"
    write_fixture(path)
    return path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def first_json(out):
    return json.loads(out.splitlines()[0])


# ---------------------------------------------------------------------------
# dataset commands
# ---------------------------------------------------------------------------

def test_stats_prints_counts(capsys, fixture_path):
    code, out, _ = run(capsys, "dataset", "stats", fixture_path)
    assert code == 0
    assert first_json(out) == {"n_q": 2, "pos": 3, "neg": 2}


def test_validate_clean_dataset(capsys, fixture_path):
    code, out, _ = run(capsys, "dataset", "validate", fixture_path)
    assert code == 0
    assert first_json(out) == {"violations": []}


def test_validate_flags_violations(capsys, tmp_path):
    lines = [
        {"kind": "q", "id": "q1", "origin_id": "q1", "text": "a", "lang": "en", "prov": ["en"]},
        {"kind": "q", "id": "q2", "origin_id": "q2", "text": "b", "lang": "en", "prov": ["en"]},
        {"kind": "c", "id": "c1", "qid": "q1", "origin_id": "c1", "text": "x", "label": 1, "lang": "en", "prov": ["en"]},
        {"kind": "c", "id": "c1b", "qid": "q2", "origin_id": "c1b", "text": "y", "label": 0, "lang": "en", "prov": ["en"]},
    ]
    path = tmp_path / "d.jsonl"
    write_fixture(path, lines)
    # loader catches duplicates up front, so patch a conflicting id into one line
    text = path.read_text().replace('"id": "c1b"', '"id": "c1"')
    # the loader itself rejects duplicate candidate ids -> runtime error exit 2
    path.write_text(text)
    code, out, err = run(capsys, "dataset", "validate", path)
    assert code == 2
    assert "duplicate candidate id" in err


def test_transfer_and_compose(capsys, fixture_path, tmp_path):
    out_path = tmp_path / "de.jsonl"
    code, out, _ = run(
        capsys, "dataset", "transfer", fixture_path, "--to", "de", "--out", out_path
    )
    assert code == 0
    assert first_json(out)["groups"] == 2
    d = load_dataset(out_path, "train")
    assert d.groups[0].question.language == "de"

    composed = tmp_path / "ende.jsonl"
    code, out, _ = run(
        capsys,
        "dataset", "compose",
        "--expr", "EnDe+DeEn",
        "--source", fixture_path,
        "--out", composed,
    )
    assert code == 0
    assert first_json(out) == {"out": str(composed), "groups": 4, "name": "EnDe+DeEn"}
    assert validate_dataset(load_dataset(composed, "train")) == []


def test_mix_and_concat(capsys, fixture_path, tmp_path):
    de = tmp_path / "de.jsonl"
    run(capsys, "dataset", "transfer", fixture_path, "--to", "de", "--out", de)

    mixed = tmp_path / "mixed.jsonl"
    code, out, _ = run(capsys, "dataset", "mix", fixture_path, de, "--out", mixed)
    assert code == 0
    d = load_dataset(mixed, "train")
    assert all(g.question.language == "en" for g in d.groups)
    assert all(c.language == "de" for g in d.groups for c in g.candidates)

    both = tmp_path / "both.jsonl"
    code, out, _ = run(capsys, "dataset", "concat", fixture_path, de, "--out", both)
    assert code == 0
    assert first_json(out)["groups"] == 4


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_bad_expression_exits_1(capsys, fixture_path, tmp_path):
    code, _, err = run(
        capsys,
        "dataset", "compose",
        "--expr", "En+",
        "--source", fixture_path,
        "--out", tmp_path / "x.jsonl",
    )
    assert code == 1
    assert "composition" in err


@pytest.mark.parametrize("expr", ["", "enDe", "EnDeFr", "+De"])
def test_malformed_expressions_exit_1(capsys, fixture_path, tmp_path, expr):
    code, _, _ = run(
        capsys,
        "dataset", "compose", "--expr", expr,
        "--source", fixture_path, "--out", tmp_path / "x.jsonl",
    )
    assert code == 1


def test_unknown_subcommand_exits_1(capsys):
    code, _, err = run(capsys, "dataset", "explode")
    assert code == 1
    assert "usage" in err.lower()


def test_unknown_flag_exits_1(capsys, fixture_path):
    code, _, _ = run(capsys, "dataset", "stats", fixture_path, "--frobnicate")
    assert code == 1


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "dataset", "stats", "no/such/file.jsonl")
    assert code == 2
    assert "error" in err


def test_malformed_dataset_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text("{broken\n")
    code, _, err = run(capsys, "dataset", "stats", path)
    assert code == 2
    assert "bad.jsonl:1" in err


@pytest.mark.parametrize("command", ["dataset", "corpus"])
def test_line_that_is_not_utf8_exits_2_naming_it(capsys, tmp_path, command):
    # both exited 2 with a bare "'utf-8' codec can't decode" and no path:line
    path = tmp_path / "bad.jsonl"
    if command == "dataset":
        write_fixture(path, FIXTURE_LINES[:2])
        argv = ["dataset", "stats", path]
    else:
        path.write_text(json.dumps({"id": "d1", "text": "Cats chase mice."}) + "\n\n")
        questions = tmp_path / "questions.jsonl"
        write_fixture(questions, [FIXTURE_LINES[0]])
        argv = ["candidates", "build", "--corpus", path, "--questions", questions,
                "--out", tmp_path / "tasks.jsonl"]
    with path.open("ab") as fh:
        fh.write(b'{"id": "d\xff", "text": "x"}\n')
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert f"{path}:3: invalid UTF-8" in err


def test_deeply_nested_line_exits_2_without_traceback(tmp_path):
    # json.loads raises RecursionError here, which is no ValueError
    path = tmp_path / "deep.jsonl"
    path.write_text("[" * 100_000 + "]" * 100_000 + "\n")
    env = {**os.environ, "PYTHONPATH": str(Path(mlas2.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "mlas2", "dataset", "stats", str(path)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 2
    assert "deep.jsonl:1: invalid JSON" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_importing_the_cli_loads_no_http_client():
    # only an HTTP translator or a remote scorer sends a request, so only
    # they import `requests`, which every command would otherwise load; and
    # only the commands that compute with numpy import it
    env = {**os.environ, "PYTHONPATH": str(Path(mlas2.__file__).parents[1])}
    code = "import sys, mlas2.cli; print('requests' in sys.modules, 'numpy' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert (proc.returncode, proc.stdout) == (0, "False False\n")


def test_compose_rejects_null_text_instead_of_writing_none(capsys, tmp_path):
    path = tmp_path / "src.jsonl"
    write_fixture(path, [{**FIXTURE_LINES[0], "text": None}, *FIXTURE_LINES[1:3]])
    out = tmp_path / "out.jsonl"
    code, _, err = run(capsys, "dataset", "compose", "--expr", "En", "--source", path, "--out", out)
    assert code == 2
    assert "src.jsonl:1: bad question record: 'text' must be a JSON string" in err
    assert not out.exists()


def test_stats_rejects_a_text_with_a_lone_surrogate(capsys, tmp_path):
    # the JSON escape "\ud800" reads as a text no output can encode; stats exited 0
    path = tmp_path / "src.jsonl"
    write_fixture(path, [FIXTURE_LINES[0], {**FIXTURE_LINES[1], "text": "sky \ud800"}])
    code, out, err = run(capsys, "dataset", "stats", path)
    assert (code, out) == (2, "")
    assert f"{path}:2: bad candidate record: 'text' must be a JSON string encodable as UTF-8" in err


@pytest.mark.parametrize("line", [1, 2], ids=["question", "candidate"])
def test_compose_rejects_a_lone_surrogate_before_writing(capsys, tmp_path, line):
    # compose exited 2 with a bare "'utf-8' codec can't encode" and left an empty
    # file (bad question) or one holding only the question line (bad candidate)
    lines = list(FIXTURE_LINES[:3])
    lines[line - 1] = {**lines[line - 1], "text": "\ud800"}
    path = tmp_path / "src.jsonl"
    write_fixture(path, lines)
    out = tmp_path / "o.jsonl"
    code, _, err = run(capsys, "dataset", "compose", "--expr", "En", "--source", path, "--out", out)
    assert code == 2
    assert f"{path}:{line}: bad " in err and "must be a JSON string encodable as UTF-8" in err
    assert list(tmp_path.iterdir()) == [path]


def test_dead_translator_endpoint_exits_2(capsys, fixture_path, tmp_path, monkeypatch):
    sleeps = []
    monkeypatch.setattr("mlas2.wire.time.sleep", sleeps.append)
    code, _, err = run(
        capsys,
        "dataset", "transfer", fixture_path,
        "--to", "de",
        "--translator", "http",
        "--endpoint", "http://127.0.0.1:1/translate",
        "--out", tmp_path / "x.jsonl",
    )
    assert code == 2
    assert "unreachable" in err
    # the default backoff: three attempts, waiting 0.5 s then 1.0 s
    assert sleeps == [0.5, 1.0]


def test_cache_filled_by_mock_serves_nothing_to_http(capsys, fixture_path, tmp_path):
    cache = tmp_path / "cache.jsonl"
    transfer = ["dataset", "transfer", fixture_path, "--to", "de", "--cache", cache]
    code, _, _ = run(capsys, *transfer, "--out", tmp_path / "mock.jsonl")
    assert code == 0
    server = servers.make_translator_server()
    servers.start_in_thread(server)
    try:
        http = ["--translator", "http", "--endpoint",
                f"http://127.0.0.1:{server.server_port}/translate"]
        code, _, _ = run(capsys, *transfer, *http, "--out", tmp_path / "http.jsonl")
        assert code == 0
        sent = server.request_count
        assert sent > 0
        # the http translator's own lines now serve it
        code, _, _ = run(capsys, *transfer, *http, "--out", tmp_path / "again.jsonl")
        assert (code, server.request_count) == (0, sent)
    finally:
        server.shutdown()
        server.server_close()
    assert (tmp_path / "http.jsonl").read_text() == (tmp_path / "mock.jsonl").read_text()


@pytest.mark.parametrize(
    "argv",
    [
        ["rank", "{data}", "--scorer", "remote"],
        ["rank", "{data}", "--scorer", "static"],
        ["dataset", "transfer", "{data}", "--to", "de", "--translator", "http", "--out", "{out}"],
        ["candidates", "build", "--corpus", "{corpus}", "--questions", "{questions}",
         "--out", "{out}", "--scorer", "remote"],
    ],
    ids=["rank-remote", "rank-static", "transfer-http", "candidates-remote"],
)
def test_backend_flags_missing_exit_1(capsys, fixture_path, tmp_path, monkeypatch, argv):
    monkeypatch.delenv("MLAS2_TRANSLATOR_ENDPOINT", raising=False)
    corpus, questions = tmp_path / "corpus.jsonl", tmp_path / "questions.jsonl"
    corpus.write_text(json.dumps({"id": "d1", "text": "Cats chase mice."}) + "\n")
    write_fixture(questions, [FIXTURE_LINES[0]])
    paths = {"data": fixture_path, "corpus": corpus, "questions": questions}
    argv = [a.format(out=tmp_path / "out.jsonl", **paths) for a in argv]
    code, out, _ = run(capsys, *argv)
    assert code == 1
    assert out == ""


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


# ---------------------------------------------------------------------------
# rank / evaluate
# ---------------------------------------------------------------------------

def write_scores(path, table):
    """A static score file holding ``table``'s (qid, cid) -> score entries."""
    path.write_text("".join(
        json.dumps({"qid": qid, "cid": cid, "score": score}) + "\n"
        for (qid, cid), score in table.items()
    ))
    return path


def perfect_scores_path(tmp_path, dataset):
    return write_scores(tmp_path / "scores.jsonl", {
        (g.question.id, c.id): float(c.label) for g in dataset.groups for c in g.candidates
    })


def test_rank_writes_rankings(capsys, fixture_path, tmp_path):
    out_path = tmp_path / "ranked.jsonl"
    code, _, _ = run(
        capsys, "rank", fixture_path, "--scorer", "lexical", "--out", out_path
    )
    assert code == 0
    lines = [json.loads(l) for l in out_path.read_text().splitlines()]
    assert [l["qid"] for l in lines] == ["q1", "q2"]
    assert len(lines[1]["ranking"]) == 3


@pytest.mark.parametrize("kind", ["fifo", "symlink"])
def test_rank_out_refuses_a_target_that_is_not_a_regular_file(capsys, fixture_path, tmp_path, kind):
    # opened for writing, a FIFO without a reader blocked the command; a
    # symlink, such as /dev/stdout, would be replaced by the renamed temp file
    target = tmp_path / "ranked.jsonl"
    if kind == "fifo":
        os.mkfifo(target)
    else:
        (tmp_path / "real.jsonl").write_bytes(b"old\n")
        target.symlink_to(tmp_path / "real.jsonl")
    before = sorted(tmp_path.iterdir())
    code, out, err = run(capsys, "rank", fixture_path, "--scorer", "lexical", "--out", target)
    assert (code, out) == (2, "")
    assert f"{target}: not a regular file" in err
    assert target.is_fifo() if kind == "fifo" else target.is_symlink()
    assert sorted(tmp_path.iterdir()) == before
    assert kind == "fifo" or (tmp_path / "real.jsonl").read_bytes() == b"old\n"


def test_rank_writes_an_empty_ranking_for_a_question_without_candidates(capsys, tmp_path):
    data = tmp_path / "data.jsonl"
    write_fixture(data, [*FIXTURE_LINES[:2], FIXTURE_LINES[3]])  # q1, its candidate, q2
    ranked = tmp_path / "ranked.jsonl"
    code, _, err = run(capsys, "rank", data, "--scorer", "lexical", "--out", ranked)
    assert (code, err) == (0, "")
    lines = [json.loads(l) for l in ranked.read_text().splitlines()]
    assert [(l["qid"], [cid for cid, _ in l["ranking"]]) for l in lines] == [
        ("q1", ["q1c0"]), ("q2", [])
    ]

    code, out, _ = run(capsys, "evaluate", data, "--rankings", ranked)
    assert code == 0
    assert first_json(out)["n"] == 1


def test_rank_to_stdout_matches_library(capsys, fixture_path, tmp_path):
    from mlas2.experiment import ScorerSpec, build_scorer
    from mlas2.scoring import StaticScorer

    d = load_dataset(fixture_path, "train")
    table = tie_table(d)
    scores = write_scores(tmp_path / "scores.jsonl", table)
    for flags, scorer in (
        (["--scorer", "lexical"],
         build_scorer(ScorerSpec("lexical"), max_seq_len=128)(d.candidate_texts())),
        (["--scorer", "static", "--scores", scores], StaticScorer(table)),
    ):
        code, out, _ = run(capsys, "rank", fixture_path, *flags)
        assert code == 0
        expected = [
            {"qid": g.question.id,
             "ranking": [[cid, s] for cid, s in rank_one(g.question, g.candidates, scorer)]}
            for g in d.groups
        ]
        got = [json.loads(l) for l in out.splitlines()]
        assert got == expected


@settings(max_examples=40, deadline=None)
@given(d=tie_heavy_datasets())
def test_rank_equals_per_group_rank(d):
    from mlas2.experiment import ScorerSpec, build_scorer
    from mlas2.scoring import StaticScorer

    def per_group(scorer):
        return [
            {"qid": g.question.id,
             "ranking": [[cid, s] for cid, s in rank_one(g.question, g.candidates, scorer)]}
            for g in d.groups
        ]

    with tempfile.TemporaryDirectory() as tmp:
        data, out = Path(tmp) / "data.jsonl", Path(tmp) / "ranked.jsonl"
        save_dataset(d, data)

        def ranked(*flags):
            assert main(["rank", str(data), "--out", str(out), *flags]) == 0
            return [json.loads(l) for l in out.read_text().splitlines()]

        lexical = build_scorer(ScorerSpec("lexical"), max_seq_len=128)(d.candidate_texts())
        assert ranked("--scorer", "lexical") == per_group(lexical)
        table = tie_table(d)
        scores = write_scores(Path(tmp) / "scores.jsonl", table)
        assert ranked("--scorer", "static", "--scores", str(scores)) == per_group(StaticScorer(table))
        counting = CountingTieScorer()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("mlas2.cli._scorer", lambda args, texts: counting)
            assert ranked() == per_group(CountingTieScorer())
    # one call over every group's pairs
    assert counting.calls == 1
    assert counting.pairs == sum(len(g.candidates) for g in d.groups)


def test_a_unicode_error_is_a_program_fault(monkeypatch, fixture_path):
    # every text is checked where it is read, so a UnicodeError is never bad
    # input: it must escape, not pass as exit 2
    def fault(*args):
        raise UnicodeEncodeError("utf-8", "\udfff", 0, 1, "surrogates not allowed")

    monkeypatch.setattr("mlas2.cli.load_dataset", fault)
    with pytest.raises(UnicodeEncodeError):
        main(["dataset", "stats", str(fixture_path)])


def test_a_scorer_one_group_short_is_a_scoring_error(capsys, monkeypatch, fixture_path):
    from mlas2.scoring import Scorer, ScoringError, rank

    class OneGroupShort(Scorer):
        def score_groups(self, groups):
            return [[0.5] * len(g.candidates) for g in groups][1:]

    d = load_dataset(fixture_path, "train")
    n = len(d.groups)
    with pytest.raises(ScoringError, match=f"returned scores for {n - 1} groups, not {n}"):
        rank(d.groups, OneGroupShort())
    monkeypatch.setattr("mlas2.cli._scorer", lambda args, texts: OneGroupShort())
    code, out, err = run(capsys, "evaluate", fixture_path)
    assert (code, out) == (2, "")
    assert f"returned scores for {n - 1} groups, not {n}" in err


@pytest.mark.parametrize("batch_size", ["0", "-1"])
def test_batch_size_below_1_exits_1(capsys, fixture_path, batch_size):
    code, out, err = run(capsys, "rank", fixture_path, "--scorer", "remote",
                         "--endpoint", "http://127.0.0.1:1/score", "--batch-size", batch_size)
    assert code == 1
    assert out == ""
    assert "batch_size must be >= 1" in err


def test_evaluate_perfect_static_scorer(capsys, fixture_path, tmp_path):
    d = load_dataset(fixture_path, "train")
    scores = perfect_scores_path(tmp_path, d)
    code, out, _ = run(
        capsys, "evaluate", fixture_path, "--scorer", "static", "--scores", scores
    )
    assert code == 0
    report = first_json(out)
    assert report["p_at_1"] == 1.0 and report["map"] == 1.0 and report["mrr"] == 1.0
    assert report["n"] == 2


class LookupCountingTable(dict):
    """A scorer server's pair-score table that counts each pair's lookups."""

    def __init__(self, scores):
        super().__init__(scores)
        self.lookups = Counter()

    def __getitem__(self, pair):
        self.lookups[pair] += 1
        return super().__getitem__(pair)


@pytest.mark.parametrize("command", ["rank", "evaluate"])
def test_the_remote_scorer_sends_a_repeated_pair_once(capsys, tmp_path, command):
    # two questions with one text share a candidate text under different ids
    q = "what is blue"
    data = tmp_path / "data.jsonl"
    save_dataset(make_dataset([
        make_group("q1", q, [("the sky is blue", 1), ("grass is green", 0)]),
        make_group("q2", q, [("grass is green", 1), ("the sea is blue", 0)]),
    ]), data)
    table = LookupCountingTable(
        {(q, "the sky is blue"): 0.9, (q, "grass is green"): 0.2, (q, "the sea is blue"): 0.6}
    )
    server = servers.make_scorer_server(pair_scores=table)
    servers.start_in_thread(server)
    try:
        code, out, err = run(capsys, command, data, "--scorer", "remote",
                             "--endpoint", f"http://127.0.0.1:{server.server_port}/score")
    finally:
        server.shutdown()
        server.server_close()
    assert (code, err) == (0, "")
    if command == "rank":
        assert [json.loads(l) for l in out.splitlines()] == [
            {"qid": "q1", "ranking": [["q1c0", 0.9], ["q1c1", 0.2]]},
            {"qid": "q2", "ranking": [["q2c1", 0.6], ["q2c0", 0.2]]},
        ]
    else:
        # q2's correct candidate ranks second
        assert first_json(out) == {"test": "data", "n": 2, "p_at_1": 0.5, "map": 0.75, "mrr": 0.75}
    assert table.lookups == {pair: 1 for pair in table}


def test_evaluate_with_rankings_file(capsys, fixture_path, tmp_path):
    ranked = tmp_path / "ranked.jsonl"
    run(capsys, "rank", fixture_path, "--scorer", "lexical", "--out", ranked)
    code, out, _ = run(capsys, "evaluate", fixture_path, "--rankings", ranked)
    assert code == 0

    code2, out2, _ = run(capsys, "evaluate", fixture_path, "--scorer", "lexical")
    assert first_json(out) == first_json(out2)


@pytest.mark.parametrize(
    "lines",
    [
        # q1's candidates are q1c0 (correct) and q1c1: repeating q1c0 scored MAP 1.0
        [{"qid": "q1", "ranking": [["q1c0", 0.9], ["q1c0", 0.8]]}],
        # a second line for q1 would silently replace the first
        [
            {"qid": "q1", "ranking": [["q1c0", 0.9], ["q1c1", 0.1]]},
            {"qid": "q1", "ranking": [["q1c1", 0.9], ["q1c0", 0.1]]},
        ],
    ],
    ids=["repeated-candidate", "second-line-for-question"],
)
def test_evaluate_rejects_a_corrupt_rankings_file(capsys, fixture_path, tmp_path, lines):
    ranked = tmp_path / "ranked.jsonl"
    ranked.write_text("".join(json.dumps(line) + "\n" for line in lines))
    q2 = [["q2c0", 0.9], ["q2c1", 0.8], ["q2c2", 0.1]]
    with ranked.open("a") as fh:
        fh.write(json.dumps({"qid": "q2", "ranking": q2}) + "\n")
    code, out, err = run(capsys, "evaluate", fixture_path, "--rankings", ranked)
    assert code == 2
    assert out == ""
    assert "q1" in err


# each keyed input: the command line, where {data} is the dataset, {tasks} an
# annotation task file and {file} the keyed file; two records with one key;
# and the end of the error
REPEATED_KEYS = {
    "static-scores": (
        "rank {data} --scorer static --scores {file} --out {out}",
        [{"qid": "q1", "cid": "q1c0", "score": 0.9}, {"qid": "q1", "cid": "q1c0", "score": 0.0}],
        "score record for ('q1', 'q1c0')",
    ),
    "gold": (
        "candidates annotate --tasks {tasks} --gold {file} --out {out}",
        [{"qid": "q1", "cid": "c1", "label": 1}, {"qid": "q1", "cid": "c1", "label": 0}],
        "gold record for ('q1', 'c1')",
    ),
    "rankings": (
        "evaluate {data} --rankings {file}",
        [{"qid": "q1", "ranking": [["q1c0", 0.9], ["q1c1", 0.1]]},
         {"qid": "q1", "ranking": [["q1c1", 0.9], ["q1c0", 0.1]]}],
        "ranking record for 'q1'",
    ),
    "corpus": (
        "candidates build --corpus {file} --questions {questions} --out {out}",
        [{"id": "d1", "text": "The sky is blue."}, {"id": "d1", "text": "Grass is green."}],
        "corpus record for 'd1'",
    ),
    "pair-scores": (
        "serve mock-scorer --scores {file}",
        [{"q": "q", "t": "t", "score": 0.9}, {"q": "q", "t": "t", "score": 0.0}],
        "pair-score record for ('q', 't')",
    ),
}


@pytest.mark.parametrize("name", sorted(REPEATED_KEYS))
def test_a_repeated_key_exits_2_before_the_work(capsys, monkeypatch, tmp_path, name):
    # a static or pair score file kept the last of a key's records: a table
    # scoring the right answer 0.9, then 0.0, evaluated to P@1 0.0 with exit 0
    def no_work(*args, **kwargs):
        raise AssertionError("the command went on past its input")

    for target in ("mlas2.cli.rank", "mlas2.cli.evaluate_dataset", "mlas2.cli.judge",
                   "mlas2.candidates.select_candidates", "mlas2.servers.make_scorer_server"):
        monkeypatch.setattr(target, no_work)
    data, tasks, path = tmp_path / "data.jsonl", tmp_path / "tasks.jsonl", tmp_path / "keyed.jsonl"
    questions = tmp_path / "questions.jsonl"
    write_fixture(data)
    write_fixture(questions, [r for r in FIXTURE_LINES if r["kind"] == "q"])
    tasks.write_text(json.dumps({"qid": "q1", "cid": "c1", "q": "q", "t": "t", "label": None}) + "\n")
    command, records, error = REPEATED_KEYS[name]
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    argv = command.format(
        data=data, questions=questions, tasks=tasks, file=path, out=tmp_path / "out.jsonl"
    ).split()
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"mlas2: error: {path}:2: duplicate {error}\n"
    assert sorted(tmp_path.iterdir()) == [data, path, questions, tasks]


def test_evaluate_with_baseline_reports_delta(capsys, fixture_path, tmp_path):
    d = load_dataset(fixture_path, "train")
    scores = perfect_scores_path(tmp_path, d)
    base_path = tmp_path / "baseline.json"
    code, out, _ = run(
        capsys, "evaluate", fixture_path, "--scorer", "static", "--scores", scores,
        "--name", "base",
    )
    base_path.write_text(out.splitlines()[0])

    code, out, _ = run(
        capsys, "evaluate", fixture_path,
        "--scorer", "static", "--scores", scores,
        "--baseline", base_path,
    )
    assert code == 0
    lines = out.splitlines()
    delta = json.loads(lines[1])
    assert (delta["p_at_1_pct"], delta["map_pct"], delta["mrr_pct"]) == (0.0, 0.0, 0.0)


@pytest.mark.parametrize(
    "baseline",
    [
        {"test": "x", "n": 3},
        [1, 2],
        {"test": "x", "n": 3, "p_at_1": 0.5, "map": "high", "mrr": 0.5},
        {"test": "x", "n": 3, "p_at_1": None, "map": 0.5, "mrr": 0.5},
    ],
    ids=["missing-key", "list-body", "string-metric", "null-metric"],
)
def test_evaluate_malformed_baseline_exits_2(capsys, fixture_path, tmp_path, baseline):
    base_path = tmp_path / "baseline.json"
    base_path.write_text(json.dumps(baseline))
    code, _, err = run(
        capsys, "evaluate", fixture_path, "--scorer", "lexical", "--baseline", base_path
    )
    assert code == 2
    assert "baseline.json" in err and "metrics report" in err


def test_evaluate_zero_metric_baseline_exits_2_before_any_output(capsys, fixture_path, tmp_path):
    # the report was printed before the relative change failed on the zero
    base_path = tmp_path / "baseline.json"
    base_path.write_text(json.dumps({"test": "x", "n": 2, "p_at_1": 0.0, "map": 0.5, "mrr": 0.5}))
    code, out, err = run(
        capsys, "evaluate", fixture_path, "--scorer", "lexical", "--baseline", base_path
    )
    assert (code, out) == (2, "")
    assert f"{base_path}: test 'x': baseline p_at_1 must be positive, got 0.0" in err


def evaluate_against_tiny_baseline(capsys, fixture_path, tmp_path, tiny):
    """Evaluate perfect scores (P@1 1.0) against a baseline P@1 of ``tiny``."""
    scores = perfect_scores_path(tmp_path, load_dataset(fixture_path, "train"))
    base_path = tmp_path / "baseline.json"
    base_path.write_text(json.dumps({"test": "x", "n": 2, "p_at_1": tiny, "map": 0.5, "mrr": 0.5}))
    return run(
        capsys, "evaluate", fixture_path, "--scorer", "static", "--scores", scores,
        "--baseline", base_path,
    )


def test_evaluate_against_a_tiny_baseline_metric_reports_its_delta(capsys, fixture_path, tmp_path):
    # quantized in 28 digits, a change of 1e32 percent ended in a traceback
    code, out, err = evaluate_against_tiny_baseline(capsys, fixture_path, tmp_path, 1e-30)
    assert (code, err) == (0, "")
    delta = json.loads(out.splitlines()[1])
    assert delta["p_at_1_pct"] == 100.0 * (1.0 - 1e-30) / 1e-30
    assert (delta["map_pct"], delta["mrr_pct"]) == (100.0, 100.0)


def test_evaluate_against_a_subnormal_baseline_metric_exits_2_before_any_output(
    capsys, fixture_path, tmp_path
):
    # the relative change would overflow to infinity, which has no percent to
    # print; the baseline is rejected where it is read, naming its file
    code, out, err = evaluate_against_tiny_baseline(capsys, fixture_path, tmp_path, 5e-324)
    base_path = tmp_path / "baseline.json"
    assert (code, out) == (2, "")
    assert err == (
        f"mlas2: error: {base_path}: test 'x': baseline p_at_1 is too small for a percent "
        "change, got 5e-324\n"
    )


@pytest.mark.parametrize(
    "text", ["[" * 200_000 + "]" * 200_000, "{broken"], ids=["nested-too-deeply", "invalid"]
)
def test_evaluate_unparsable_baseline_exits_2_before_any_output(capsys, fixture_path, tmp_path, text):
    # the deep file ended in a RecursionError traceback; the invalid one exited 2
    # without naming the file, after the report was already on stdout
    base_path = tmp_path / "baseline.json"
    base_path.write_text(text)
    code, out, err = run(
        capsys, "evaluate", fixture_path, "--scorer", "lexical", "--baseline", base_path
    )
    assert code == 2
    assert out == ""
    assert f"{base_path}: bad metrics report: invalid JSON" in err
    assert "Traceback" not in err


def test_evaluate_baseline_not_utf8_names_the_file(capsys, fixture_path, tmp_path):
    base_path = tmp_path / "baseline.json"
    base_path.write_bytes(b'{"test": "\xff"}')
    code, out, err = run(
        capsys, "evaluate", fixture_path, "--scorer", "lexical", "--baseline", base_path
    )
    assert (code, out) == (2, "")
    assert f"{base_path}: bad metrics report: invalid UTF-8" in err


# ---------------------------------------------------------------------------
# candidates + experiment wiring
# ---------------------------------------------------------------------------

def test_candidates_build_and_annotate(capsys, tmp_path):
    corpus_path = tmp_path / "corpus.jsonl"
    with corpus_path.open("w") as fh:
        fh.write(json.dumps({"id": "d1", "text": "Cats chase mice. Cats sleep."}) + "\n")
        fh.write(json.dumps({"id": "d2", "text": "The sun is a star."}) + "\n")
    questions_path = tmp_path / "questions.jsonl"
    questions_path.write_text(
        json.dumps({"kind": "q", "id": "q1", "origin_id": "q1", "text": "what do cats chase", "lang": "en", "prov": ["en"]}) + "\n"
    )
    tasks = tmp_path / "tasks.jsonl"
    code, out, _ = run(
        capsys,
        "candidates", "build",
        "--corpus", corpus_path,
        "--questions", questions_path,
        "--k-docs", 2, "--k-sents", 3,
        "--out", tasks,
    )
    assert code == 0
    assert first_json(out)["questions"] == 1

    gold = tmp_path / "gold.jsonl"
    with gold.open("w") as fh:
        for line in tasks.read_text().splitlines():
            rec = json.loads(line)
            label = 1 if "chase" in rec["t"] else 0
            fh.write(json.dumps({"qid": rec["qid"], "cid": rec["cid"], "label": label}) + "\n")
    dataset_path = tmp_path / "source.jsonl"
    code, out, _ = run(
        capsys,
        "candidates", "annotate",
        "--tasks", tasks, "--gold", gold, "--out", dataset_path,
    )
    assert code == 0
    d = load_dataset(dataset_path, "test")
    assert validate_dataset(d) == []
    assert first_json(out)["candidates"] == d.num_candidates()


def _task(qid, cid, q="what is x"):
    return {"qid": qid, "cid": cid, "q": q, "t": "x is y", "label": 1}


ANNOTATE_CONFLICTS = {
    # both tasks qualify to the candidate id 'q:1:d:0'
    "qualified-id": (
        [_task("q", "1:d:0"), _task("q:1", "d:0")], "duplicate candidate id 'q:1:d:0'"
    ),
    "repeated-task": ([_task("q", "d:0"), _task("q", "d:0")], "duplicate candidate id 'q:d:0'"),
    "question-text": (
        [_task("q", "d:0"), _task("q", "d:1", q="what is z")],
        "question 'q' has text 'what is z', but its first task has 'what is x'",
    ),
}


@pytest.mark.parametrize("name", sorted(ANNOTATE_CONFLICTS))
def test_annotate_rejects_tasks_that_make_no_loadable_dataset(capsys, tmp_path, name):
    # colliding qualified ids were written, and `dataset stats` then rejected
    # the file; a second text of one question was silently dropped
    records, error = ANNOTATE_CONFLICTS[name]
    tasks, labeled = tmp_path / "tasks.jsonl", tmp_path / "labeled.jsonl"
    tasks.write_text("".join(json.dumps(r) + "\n" for r in records))
    code, out, err = run(capsys, "candidates", "annotate", "--tasks", tasks, "--out", labeled)
    assert (code, out) == (2, "")
    assert err == f"mlas2: error: {tasks}:2: {error}\n"
    assert sorted(tmp_path.iterdir()) == [tasks]


# every subcommand that takes --out, with an input path its loader would read
OUT_COMMANDS = {
    "dataset-transfer": "dataset transfer {src} --to de",
    "dataset-mix": "dataset mix {src} {src}",
    "dataset-concat": "dataset concat {src} {src}",
    "dataset-compose": "dataset compose --expr En+De --source {src}",
    "candidates-build": "candidates build --corpus {src} --questions {src}",
    "candidates-annotate": "candidates annotate --tasks {src}",
    "rank": "rank {src}",
}


@pytest.mark.parametrize("target", ["missing/out.jsonl", "directory"])
@pytest.mark.parametrize("name", sorted(OUT_COMMANDS))
def test_an_unwritable_out_exits_2_before_any_input_is_read(
    capsys, monkeypatch, tmp_path, name, target
):
    # `candidates build --out <dir>` failed only after the whole job
    def no_read(*args, **kwargs):
        raise AssertionError("an input was read")

    for loader in ("mlas2.cli.load_dataset", "mlas2.cli.load_questions",
                   "mlas2.candidates.load_corpus", "mlas2.candidates.import_annotations"):
        monkeypatch.setattr(loader, no_read)
    (tmp_path / "directory").mkdir()
    before = sorted(tmp_path.rglob("*"))
    argv = OUT_COMMANDS[name].format(src=tmp_path / "input.jsonl").split()
    code, out, err = run(capsys, *argv, "--out", tmp_path / target)
    assert (code, out) == (2, "")
    assert err.startswith(f"mlas2: error: {tmp_path / target}: ")
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("target", ["missing/c.jsonl", "directory"])
@pytest.mark.parametrize("name", ["dataset-transfer", "dataset-compose"])
def test_an_unusable_cache_exits_2_before_any_input_is_read(
    capsys, monkeypatch, tmp_path, name, target
):
    # `--cache missing/c.jsonl` failed only at the first store, after the
    # first batch was translated, with a bare errno message
    def no_call(*args, **kwargs):
        raise AssertionError("an input was read or a text translated")

    monkeypatch.setattr("mlas2.cli.load_dataset", no_call)
    monkeypatch.setattr("mlas2.translation.MockTranslator.translate_batch", no_call)
    (tmp_path / "directory").mkdir()
    before = sorted(tmp_path.rglob("*"))
    argv = OUT_COMMANDS[name].format(src=tmp_path / "input.jsonl").split()
    cache = tmp_path / target
    code, out, err = run(capsys, *argv, "--cache", cache, "--out", tmp_path / "out.jsonl")
    assert (code, out) == (2, "")
    assert err.startswith(f"mlas2: error: translation cache {cache}: ")
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("k_sents", [-1, 0])
def test_candidates_build_rejects_k_sents_below_1(capsys, tmp_path, k_sents):
    # -1 silently dropped the last candidate and 0 wrote no tasks, both with exit 0
    corpus_path = tmp_path / "corpus.jsonl"
    corpus_path.write_text(json.dumps({"id": "d1", "text": "Cats chase mice. Cats sleep."}) + "\n")
    questions_path = tmp_path / "questions.jsonl"
    write_fixture(questions_path, [FIXTURE_LINES[0]])
    tasks = tmp_path / "tasks.jsonl"
    code, out, err = run(
        capsys,
        "candidates", "build",
        "--corpus", corpus_path, "--questions", questions_path,
        "--k-sents", k_sents, "--out", tasks,
    )
    assert code == 2
    assert out == ""
    assert f"k_sents must be >= 1, got {k_sents}" in err
    assert not tasks.exists()


@pytest.mark.parametrize("flag", ["--k-docs", "--k-sents"])
@pytest.mark.parametrize("value", [-3, 0])
def test_candidates_build_rejects_counts_below_1_before_any_input_is_read(
    capsys, monkeypatch, tmp_path, flag, value
):
    # with no questions, `--k-docs 0 --k-sents -3` exited 0 and wrote an empty
    # task file; with questions, `--k-docs 0` failed only after the index build
    def no_call(*args, **kwargs):
        raise AssertionError("an input was read")

    monkeypatch.setattr("mlas2.cli.load_questions", no_call)
    monkeypatch.setattr("mlas2.candidates.load_corpus", no_call)
    questions = tmp_path / "questions.jsonl"
    questions.write_text("")
    tasks = tmp_path / "tasks.jsonl"
    argv = ["candidates", "build", "--corpus", tmp_path / "corpus.jsonl", "--questions", questions]
    code, out, err = run(capsys, *argv, flag, value, "--out", tasks)
    assert (code, out) == (2, "")
    assert err == f"mlas2: error: {flag[2:].replace('-', '_')} must be >= 1, got {value}\n"
    assert not tasks.exists()

    code, out, err = run(capsys, *argv, flag, "2.5", "--out", tasks)
    assert (code, out) == (1, "")  # not an integer: a usage error, as before
    assert f"argument {flag}: invalid" in err
    assert not tasks.exists()


def test_candidates_build_names_a_question_without_tokens(capsys, tmp_path):
    corpus_path = tmp_path / "corpus.jsonl"
    corpus_path.write_text(json.dumps({"id": "d1", "text": "Cats chase mice. Cats sleep."}) + "\n")
    questions_path = tmp_path / "questions.jsonl"
    write_fixture(questions_path, [
        {"kind": "q", "id": qid, "origin_id": qid, "text": text, "lang": "en", "prov": ["en"]}
        for qid, text in [("q1", "what do cats chase"), ("q2", "?!")]
    ])
    tasks = tmp_path / "tasks.jsonl"
    code, out, err = run(
        capsys,
        "candidates", "build",
        "--corpus", corpus_path, "--questions", questions_path, "--out", tasks,
    )
    assert (code, out) == (2, "")
    assert "'q2'" in err and "no tokens" in err
    assert not tasks.exists()


@pytest.mark.parametrize("port", ["70000", "-1"])
def test_serve_port_out_of_range_exits_1(capsys, monkeypatch, port):
    # bind() raised an OverflowError traceback; argparse now rejects the port
    def no_serving(args):
        raise AssertionError("serve ran with an invalid port")

    monkeypatch.setattr("mlas2.cli.cmd_serve", no_serving)
    code, out, err = run(capsys, "serve", "mock-translator", "--port", port)
    assert (code, out) == (1, "")
    assert f"invalid port '{port}'" in err
    assert "Traceback" not in err


def test_experiment_run_null_run_name_exits_2(capsys, tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(
        json.dumps(
            {
                "run_name": None,
                "source": {"train": "src.jsonl", "dev": "src.jsonl", "test": "src.jsonl"},
                "ft_expr": "En",
                "dev_expr": "En",
                "test_exprs": ["En"],
                "scorer": {"kind": "lexical"},
            }
        )
    )
    runs = tmp_path / "runs"
    code, _, err = run(capsys, "experiment", "run", "--config", config_path, "--results-dir", runs)
    assert code == 2
    assert "config.json: bad config record: 'run_name' must be a JSON string" in err
    assert not (runs / "None.json").exists()


@pytest.mark.parametrize("key", ["run_name", "baseline_run"])
def test_experiment_run_names_cannot_leave_the_results_dir(capsys, tmp_path, key):
    # a run name of "../escaped" wrote escaped.json beside runs/ and exited 0
    config = {
        "run_name": "ok",
        "source": {"train": "src.jsonl", "dev": "src.jsonl", "test": "src.jsonl"},
        "ft_expr": "En",
        "dev_expr": "En",
        "test_exprs": ["En"],
        "scorer": {"kind": "lexical"},
        key: "../escaped",
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    runs = tmp_path / "runs"
    code, out, err = run(capsys, "experiment", "run", "--config", config_path, "--results-dir", runs)
    assert (code, out) == (2, "")
    assert f"{config_path}: bad config: {key} must be a plain file name, got '../escaped'" in err
    assert sorted(tmp_path.iterdir()) == [config_path]


def test_experiment_run_batch_size_0_exits_2(capsys, tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(
        json.dumps(
            {
                "run_name": "zero-batch",
                "source": {"train": "src.jsonl", "dev": "src.jsonl", "test": "src.jsonl"},
                "ft_expr": "En",
                "dev_expr": "En",
                "test_exprs": ["En"],
                "scorer": {"kind": "lexical", "batch_size": 0},
            }
        )
    )
    runs = tmp_path / "runs"
    code, out, err = run(capsys, "experiment", "run", "--config", config_path, "--results-dir", runs)
    assert code == 2
    assert out == ""
    assert "config.json: bad config" in err and "batch_size must be >= 1" in err
    assert not runs.exists()


@pytest.mark.parametrize("tiny", [1e-30, 5e-324], ids=["tiny", "subnormal"])
def test_experiment_run_against_a_tiny_baseline_metric(capsys, tmp_path, monkeypatch, tiny):
    # a baseline record whose P@1 is 1e-30 ended in a decimal traceback; a
    # subnormal one would overflow the relative change, so the run fails
    # before its work, naming the record file and the test
    d = make_dataset([make_group("q1", "where do cats sleep", [("cats sleep", 1), ("sun", 0)])])
    save_dataset(d, tmp_path / "src.jsonl")
    config = {
        "run_name": "base",
        "source": {"train": "src.jsonl", "dev": "src.jsonl", "test": "src.jsonl"},
        "ft_expr": "En",
        "dev_expr": "En",
        "test_exprs": ["En"],
        "scorer": {"kind": "lexical"},
    }
    config_path, runs = tmp_path / "config.json", tmp_path / "runs"
    config_path.write_text(json.dumps(config))
    assert run(capsys, "experiment", "run", "--config", config_path, "--results-dir", runs)[0] == 0
    record = json.loads((runs / "base.json").read_text())
    assert record["reports"][0]["p_at_1"] == 1.0
    record["reports"][0]["p_at_1"] = tiny
    (runs / "base.json").write_text(json.dumps(record))
    config_path.write_text(json.dumps({**config, "run_name": "next", "baseline_run": "base"}))
    if tiny != 1e-30:
        never_materialized(monkeypatch)
    code, out, err = run(capsys, "experiment", "run", "--config", config_path, "--results-dir", runs)
    if tiny == 1e-30:
        assert code == 0
        assert json.loads(out)["deltas"][0]["p_at_1_pct"] == 100.0 * (1.0 - tiny) / tiny
        assert (runs / "next.json").exists()
    else:
        assert (code, out) == (2, "")
        assert err == (
            f"mlas2: error: {runs / 'base.json'}: test 'En': baseline p_at_1 is too small "
            "for a percent change, got 5e-324\n"
        )
        assert not (runs / "next.json").exists()


def test_experiment_run_cli(capsys, tmp_path):
    d = make_dataset(
        [
            make_group("q1", "where do cats sleep", [("cats sleep anywhere warm", 1), ("the sun is hot", 0)]),
            make_group("q2", "what is the sun", [("the sun is a star", 1), ("cats chase mice", 0)]),
        ]
    )
    src = tmp_path / "src.jsonl"
    save_dataset(d, src)
    config = {
        "run_name": "cli-run",
        "pretrained_label": "bert-base-uncased",
        "source": {"train": "src.jsonl", "dev": "src.jsonl", "test": "src.jsonl"},
        "ft_expr": "En",
        "dev_expr": "En",
        "test_exprs": ["En+De"],
        "scorer": {"kind": "lexical"},
        "baseline_run": "cli-run",
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    code, out, err = run(
        capsys, "experiment", "run", "--config", config_path, "--results-dir", tmp_path / "runs"
    )
    assert code == 0
    record = json.loads(out)
    assert record["run_name"] == "cli-run"
    assert record["reports"][0]["test"] == "En+De"
    assert record["deltas"][0]["p_at_1_pct"] == 0.0
    assert (tmp_path / "runs" / "cli-run.json").exists()
    assert "FT / test set" in err  # rendered delta table goes to stderr
