"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside pytest's own output.
"""

import importlib.util
import json
import math
import os
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import (
    make_candidate,
    make_dataset,
    make_group,
    make_question,
    make_synthetic_dataset,
    rank_one,
)
from mlas2.algebra import (
    CompositionParseError,
    concat,
    mix,
    parse_composition,
    transfer,
)
from mlas2.cli import main as cli_main
from mlas2.dataset import load_dataset, validate_dataset
from mlas2.experiment import (
    RunRecord,
    ScriptedTrainer,
    early_stop_loop,
    scripted_dev_map,
)
from mlas2.metrics import (
    DeltaReport,
    JudgedRanking,
    MetricsReport,
    delta_report,
    evaluate,
    render_delta_table,
)
from mlas2.reranking import LinearHead, linear_head_apply
from mlas2.scoring import RemoteScorer, Scorer, ScoringError
from mlas2.servers import make_scorer_server, start_in_thread
from mlas2.translation import MockTranslator

ROOT = Path(__file__).resolve().parent.parent
TOY = ROOT / "tests" / "fixtures" / "toy"


def ok(criterion, detail=""):
    print(f"[acceptance {criterion}] PASS {detail}".rstrip())


# ---------------------------------------------------------------------------
# 1. metric oracle equivalence: 1,000 random judged rankings vs brute force
# ---------------------------------------------------------------------------

def test_c01_metric_oracle_equivalence():
    start = time.perf_counter()
    rng = random.Random(42)
    rankings = []
    for i in range(1000):
        n = rng.randint(1, 120)
        labels = [rng.randint(0, 1) for _ in range(n)]
        if not any(labels):
            labels[rng.randrange(n)] = 1
        rankings.append(JudgedRanking(f"q{i}", tuple(labels)))

    report = evaluate(rankings)

    # brute force straight from the definitions
    p1 = sum(1.0 if r.labels[0] == 1 else 0.0 for r in rankings) / len(rankings)
    aps = []
    rrs = []
    for r in rankings:
        labels = list(r.labels)
        hits, acc = 0, 0.0
        for i, lab in enumerate(labels, start=1):
            if lab:
                hits += 1
                acc += hits / i
        aps.append(acc / hits)
        rrs.append(1.0 / (labels.index(1) + 1))
    assert abs(report.p_at_1 - p1) < 1e-9
    assert abs(report.map - sum(aps) / len(aps)) < 1e-9
    assert abs(report.mrr - sum(rrs) / len(rrs)) < 1e-9

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    ok(1, f"1000 rankings, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. AP and MRR spot values
# ---------------------------------------------------------------------------

def test_c02_metric_spot_values():
    from mlas2.metrics import average_precision, reciprocal_rank

    assert average_precision(JudgedRanking("a", (0, 1, 1))) == pytest.approx(7 / 12, abs=1e-12)
    assert average_precision(JudgedRanking("b", (1, 0, 0))) == 1.0
    assert reciprocal_rank(JudgedRanking("c", (0, 0, 1))) == pytest.approx(1 / 3, abs=1e-12)
    ok(2)


# ---------------------------------------------------------------------------
# 3. dataset-algebra invariants on a 50-question fixture
# ---------------------------------------------------------------------------

def test_c03_algebra_invariants():
    start = time.perf_counter()
    d = make_synthetic_dataset(50)

    transferred = transfer(d, MockTranslator(), "de")
    assert len(transferred.groups) == len(d.groups)
    for before, after in zip(d.groups, transferred.groups):
        assert len(after.candidates) == len(before.candidates)
        assert after.question.origin_id == before.question.origin_id
        assert [c.label for c in after.candidates] == [c.label for c in before.candidates]
        assert [c.origin_id for c in after.candidates] == [c.origin_id for c in before.candidates]

    round_trip = transfer(transferred, MockTranslator(), "en")
    for before, after in zip(d.groups, round_trip.groups):
        assert after.question.text == before.question.text
        for b, a in zip(before.candidates, after.candidates):
            assert a.text == b.text

    both = concat(d, transferred)
    assert len(both.groups) == 100
    assert both.num_candidates() == d.num_candidates() * 2
    assert validate_dataset(both) == []

    mixed = mix(d, transferred)
    assert all(g.question.language == "en" for g in mixed.groups)
    assert all(c.language == "de" for g in mixed.groups for c in g.candidates)

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    ok(3, f"{elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 4. composition parser goldens, malformed input via CLI
# ---------------------------------------------------------------------------

def test_c04_composition_parser_goldens(tmp_path, capsys):
    def terms(expr):
        return [(t.q_lang, t.t_lang) for t in parse_composition(expr).terms]

    assert terms("En+De") == [("en", "en"), ("de", "de")]
    assert terms("EnDe+DeEn") == [("en", "de"), ("de", "en")]
    assert len(terms("En+EnDe+De+DeEn")) == 4
    assert len(terms("En+De+Fr+Es+It")) == 5
    # every composition string the delta tables and the multilingual runs use
    for expr in (
        "En", "De", "EnDe", "DeEn", "EnEn", "DeDe",
        "En+De", "En+De+Fr", "En+De+Fr+Es", "En+De+Fr+Es+It",
        "EnDe+DeEn", "En+EnDe+De+DeEn", "EnEn+EnDe", "DeDe+DeEn",
    ):
        parse_composition(expr)

    for bad in ("En+", "+De", "enDe", "EnDeFr", ""):
        with pytest.raises(CompositionParseError):
            parse_composition(bad)

    src = tmp_path / "src.jsonl"
    from mlas2.dataset import save_dataset

    save_dataset(make_dataset([make_group("q1", "question", [("a", 1)])]), src)
    code = cli_main(
        ["dataset", "compose", "--expr", "En+", "--source", str(src), "--out", str(tmp_path / "x.jsonl")]
    )
    capsys.readouterr()
    assert code == 1
    ok(4)


# ---------------------------------------------------------------------------
# 5. ranking determinism
# ---------------------------------------------------------------------------

class TableScorer(Scorer):
    def __init__(self, table):
        self.table = dict(table)

    def score_groups(self, groups):
        return [[self.table[c.id] for c in g.candidates] for g in groups]


def test_c05_ranking_determinism():
    q = make_question("q1", "question")
    rng = random.Random(42)
    ids = [f"c{i:02d}" for i in range(12)]
    table = {cid: rng.random() for cid in ids}
    cands = [make_candidate(cid, f"text {cid}", 0) for cid in ids]
    baseline = rank_one(q, cands, TableScorer(table))

    for _ in range(100):
        shuffled = cands[:]
        rng.shuffle(shuffled)
        assert rank_one(q, shuffled, TableScorer(table)) == baseline

    base_order = [cid for cid, _ in baseline]
    for transform in (lambda s: s**3, lambda s: 0.1 + 0.8 * s, lambda s: math.tanh(s)):
        warped = {cid: transform(s) for cid, s in table.items()}
        assert [cid for cid, _ in rank_one(q, cands, TableScorer(warped))] == base_order

    equal = {cid: 0.5 for cid in ids}
    assert [cid for cid, _ in rank_one(q, cands, TableScorer(equal))] == sorted(ids)
    ok(5, "100 permutations, 3 monotone transforms")


# ---------------------------------------------------------------------------
# 6. linear head
# ---------------------------------------------------------------------------

def test_c06_linear_head():
    import numpy as np

    head = LinearHead(np.zeros((4, 2)), np.zeros(2))
    assert linear_head_apply([1.0, -2.0, 3.0, 0.5], head) == 0.5

    head = LinearHead(np.zeros((2, 2)), [0.0, math.log(3.0)])
    assert abs(linear_head_apply([9.9, -9.9], head) - 0.75) < 1e-12

    with pytest.raises(ValueError):
        linear_head_apply([1.0, 2.0, 3.0], head)
    ok(6)


# ---------------------------------------------------------------------------
# 7. early-stopping rule
# ---------------------------------------------------------------------------

def test_c07_early_stopping_rule():
    for maps, expected_best, expected_runs in (
        ([0.5, 0.6, 0.55], 2, 3),
        ([0.5, 0.4], 1, 2),
        ([0.4, 0.5, 0.6], 3, 3),
    ):
        trainer = ScriptedTrainer(maps)
        result = early_stop_loop(trainer, scripted_dev_map, max_iterations=3)
        assert result.best_iteration == expected_best
        assert trainer.iterations_run == expected_runs
    ok(7)


# ---------------------------------------------------------------------------
# 8. end-to-end desk-scale run against the committed brute-force oracle
# ---------------------------------------------------------------------------

def test_c08_end_to_end_toy_run(tmp_path, capsys):
    start = time.perf_counter()
    params = json.loads((TOY / "params.json").read_text())
    expected = json.loads((TOY / "expected_metrics.json").read_text())

    # the committed expectation must be exactly what the oracle script computes
    oracle = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "toy_expected.py")],
        capture_output=True,
        text=True,
        check=True,
    )
    assert json.loads(oracle.stdout) == expected

    tasks = tmp_path / "tasks.jsonl"
    source = tmp_path / "source_en.jsonl"
    composed = tmp_path / "test_ende.jsonl"

    assert cli_main([
        "candidates", "build",
        "--corpus", str(TOY / "corpus.jsonl"),
        "--questions", str(TOY / "questions.jsonl"),
        "--k-docs", str(params["k_docs"]),
        "--k-sents", str(params["k_sents"]),
        "--out", str(tasks),
    ]) == 0
    assert cli_main([
        "candidates", "annotate",
        "--tasks", str(tasks),
        "--gold", str(TOY / "gold_labels.jsonl"),
        "--out", str(source),
        "--name", "En",
    ]) == 0
    assert cli_main([
        "dataset", "compose",
        "--expr", params["expr"],
        "--source", str(source),
        "--translator", "mock",
        "--split", "test",
        "--out", str(composed),
    ]) == 0
    assert cli_main(["dataset", "validate", str(composed), "--split", "test"]) == 0
    capsys.readouterr()

    config = {
        "run_name": "toy",
        "pretrained_label": "bert-base-multilingual-cased",
        "source": {"train": str(source), "dev": str(source), "test": str(source)},
        "ft_expr": params["ft"],
        "dev_expr": params["dev"],
        "test_exprs": [params["expr"]],
        "scorer": {"kind": "lexical"},
        "translator": {"kind": "mock"},
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    assert cli_main([
        "experiment", "run", "--config", str(config_path), "--results-dir", str(tmp_path / "runs")
    ]) == 0
    capsys.readouterr()

    record = RunRecord.load(tmp_path / "runs" / "toy.json")
    report = record.reports[0].to_json_dict()
    assert report == expected  # exact match, floats included

    # the composed file on disk is the same dataset the experiment evaluated
    from mlas2.dataset import fingerprint_dataset

    composed_data = load_dataset(composed, "test", name=params["expr"])
    assert fingerprint_dataset(composed_data) == record.fingerprints[f"test:{params['expr']}"]

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    ok(8, f"metrics {report['p_at_1']:.4f}/{report['map']:.4f}/{report['mrr']:.4f}, {elapsed:.2f}s")


@pytest.mark.skipif(shutil.which("bash") is None, reason="the demo script needs bash")
def test_demo_pipeline_script_matches_the_oracle(tmp_path):
    # the README's scripts/demo_pipeline.sh, with an mlas2 command on PATH
    # that runs this interpreter on this checkout's package
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    shim = bin_dir / "mlas2"
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m mlas2 "$@"\n')
    shim.chmod(0o755)
    env = {
        **os.environ,
        "PATH": f"{bin_dir}{os.pathsep}{os.environ.get('PATH', '')}",
        "PYTHONPATH": os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
        ),
    }
    out = tmp_path / "demo"
    result = subprocess.run(
        ["bash", str(ROOT / "scripts" / "demo_pipeline.sh"), str(out)],
        env=env, capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    reports = RunRecord.load(out / "runs" / "toy-demo.json").reports
    expected = json.loads((TOY / "expected_metrics.json").read_text())
    assert [r.to_json_dict() for r in reports if r.test_set == "En+De"] == [expected]


def test_toy_fixture_generator_reproduces_the_fixture(tmp_path, monkeypatch, capsys):
    # scripts/make_toy_fixture.py replays the pipeline through the package's
    # API; regenerating into tmp_path must give the committed files exactly
    spec = importlib.util.spec_from_file_location(
        "make_toy_fixture", ROOT / "scripts" / "make_toy_fixture.py"
    )
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(script, "FIXTURES", tmp_path)
    monkeypatch.setattr(sys, "path", list(sys.path))  # main() prepends src
    script.main()
    capsys.readouterr()
    names = sorted(p.name for p in TOY.iterdir())
    assert names == ["corpus.jsonl", "expected_metrics.json", "gold_labels.jsonl",
                     "params.json", "questions.jsonl"]
    assert sorted(p.name for p in tmp_path.iterdir()) == names
    for name in names:
        assert (tmp_path / name).read_bytes() == (TOY / name).read_bytes(), name


# ---------------------------------------------------------------------------
# 9. delta report arithmetic and table layout
# ---------------------------------------------------------------------------

def test_c09_delta_reports():
    def report(p1, m, rr, name="run"):
        return MetricsReport(test_set=name, num_questions=9, p_at_1=p1, map=m, mrr=rr)

    base = report(0.60, 0.5, 0.5, name="base")
    assert delta_report(base, report(0.54, 0.5, 0.5)).p_at_1_pct == -10.0

    self_delta = delta_report(base, base)
    assert (self_delta.p_at_1_pct, self_delta.map_pct, self_delta.mrr_pct) == (0.0, 0.0, 0.0)

    rows = [
        DeltaReport("En", "base", 0.0, 0.0, 0.0),
        DeltaReport("En+De", "base", -2.6, -3.8, -3.2),
        DeltaReport("EnDe+DeEn", "base", -10.5, -8.1, -9.3),
        DeltaReport("En+EnDe+De+DeEn", "base", -2.3, -8.5, -4.1),
    ]
    table = render_delta_table(rows)
    lines = table.splitlines()
    body = lines[2:-1]
    assert len(body) == len(rows)  # one row per composition expression
    for row, line in zip(rows, body):
        assert line.startswith(row.name)
    assert "P@1" in lines[0] and "MAP" in lines[0] and "MRR" in lines[0]
    ok(9)


# ---------------------------------------------------------------------------
# 10. scoring protocol conformance
# ---------------------------------------------------------------------------

def test_c10_protocol_conformance():
    pairs = [(f"question {i}", f"candidate {i}") for i in range(257)]
    table = {pair: ((i * 13) % 101) / 100 for i, pair in enumerate(pairs)}
    server = make_scorer_server(pair_scores=table)
    start_in_thread(server)
    try:
        endpoint = f"http://127.0.0.1:{server.server_port}/score"
        scorer = RemoteScorer(endpoint, batch_size=128)
        before = server.request_count
        scores = scorer.score_pairs(pairs)
        assert server.request_count - before == 3
        assert scores == [table[p] for p in pairs]  # order preserved

        with pytest.raises(ScoringError):  # unknown pair -> non-200 -> typed error
            scorer.score_pairs([("not", "there")])

        server.pair_scores[("q", "short")] = 0.5
    finally:
        server.shutdown()
        server.server_close()

    # count mismatch from a rogue server is an error, not a truncation
    import http.server
    import threading

    class ShortHandler(http.server.BaseHTTPRequestHandler):
        def log_message(self, fmt, *args):
            pass

        def do_POST(self):
            self.rfile.read(int(self.headers["Content-Length"]))
            data = json.dumps({"scores": [0.5]}).encode()
            self.send_response(200)
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

    rogue = http.server.ThreadingHTTPServer(("127.0.0.1", 0), ShortHandler)
    threading.Thread(target=rogue.serve_forever, daemon=True).start()
    try:
        scorer = RemoteScorer(f"http://127.0.0.1:{rogue.server_port}/score")
        with pytest.raises(ScoringError, match="1 scores for 2 pairs"):
            scorer.score_pairs([("a", "b"), ("c", "d")])
    finally:
        rogue.shutdown()
        rogue.server_close()
    ok(10, "257 pairs -> 3 requests")
