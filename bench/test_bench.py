"""Self-tests of the benchmark harness (not of mlas2).

Run from the repository root: ``python3 -m pytest -q bench/test_bench.py``.
They use small inputs, so the whole file runs in a few seconds.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import check
import gen
import run
import tracing

SMALL = {
    "eval-compose": dict(gen.PARAMS["eval-compose"], questions=8, dev_questions=4,
                         train_questions=4, cands=12, unanswerable=0.25, vocab=300),
    "candidates-build": dict(gen.PARAMS["candidates-build"], docs=60, questions=4,
                             vocab=400, k_docs=10, k_sents=7),
    "remote-services": dict(gen.PARAMS["remote-services"], questions=8, cands=6,
                            unanswerable=0.25, vocab=300),
}


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_same_seed_same_bytes_other_seed_other_bytes(tmp_path, workload):
    a, _ = gen.generate(workload, 7, tmp_path / "a", SMALL[workload])
    b, _ = gen.generate(workload, 7, tmp_path / "b", SMALL[workload])
    c, _ = gen.generate(workload, 8, tmp_path / "c", SMALL[workload])
    assert _files(a) == _files(b)
    data_a, data_c = _files(a), _files(c)
    assert data_a.keys() == data_c.keys()
    assert all(data_a[k] != data_c[k] for k in data_a if k not in ("config.json", "facts.json"))


def test_generation_is_cached_by_seed_and_parameters(tmp_path):
    params = SMALL["eval-compose"]
    first, _ = gen.generate("eval-compose", 3, tmp_path, params)
    marker = first / "test.jsonl"
    stamp = marker.stat().st_mtime_ns
    again, _ = gen.generate("eval-compose", 3, tmp_path, params)
    assert again == first and marker.stat().st_mtime_ns == stamp
    other, _ = gen.generate("eval-compose", 3, tmp_path, dict(params, cands=13))
    assert other != first


def test_score_table_covers_every_pairing_and_favours_positives(tmp_path):
    d, facts = gen.generate("remote-services", 5, tmp_path, SMALL["remote-services"])
    table = {(r["q"], r["t"]): r["score"]
             for r in map(json.loads, (d / "pair_scores.jsonl").read_text().splitlines())}
    assert len(table) == 4 * facts["splits"]["test"]["candidates"]
    assert all(0.0 <= s <= 1.0 for s in table.values())
    pos, neg = [], []
    qs = {}
    for rec in map(json.loads, (d / "source.jsonl").read_text().splitlines()):
        if rec["kind"] == "q":
            qs[rec["id"]] = rec["text"]
            continue
        q = qs[rec["qid"]]
        for qq in (q, gen.mock_de(q)):
            for tt in (rec["text"], gen.mock_de(rec["text"])):
                (pos if rec["label"] else neg).append(table[(qq, tt)])
    assert sum(pos) / len(pos) > sum(neg) / len(neg)


def _run_op(tmp_path, workload, *, trace=False, seed=11):
    input_dir, facts = gen.generate(workload, seed, tmp_path / "inputs", SMALL[workload])
    op_dir = tmp_path / "op"
    report = run.run_child(workload, input_dir, op_dir, "test-op", trace=trace)
    report = run.verify_op(workload, report, op_dir, input_dir, facts, None)
    assert report["ok"], report.get("why")
    return report, op_dir, input_dir, facts


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_traced_op_counts_the_pairs_the_benchmark_derives(tmp_path, workload):
    report, *_ = _run_op(tmp_path, workload, trace=True)
    layers = tracing.per_layer([report["trace"]["spans"]])
    assert layers["reranking.pairs_scored"] == report["pairs"]
    assert layers["cli.self_s"] > 0
    if workload == "remote-services":
        assert layers["translation.cache_hit_ratio"] == pytest.approx(0.8)
        assert layers["reranking.score_posts"] > 0 and layers["translation.posts_failed"] == 0


def test_digest_rejects_one_altered_byte_in_the_task_file(tmp_path):
    report, op_dir, input_dir, facts = _run_op(tmp_path, "candidates-build")
    digest = report["digest"]
    tasks = op_dir / "tasks.jsonl"
    original = tasks.read_bytes()
    assert check.check_op("candidates-build", op_dir, input_dir, facts, digest) == digest
    # a letter inside a candidate text, and the very first byte
    pos = original.index(b'"t": "') + 8
    for at in (pos, 0):
        altered = bytearray(original)
        altered[at] = ord("x") if altered[at] != ord("x") else ord("y")
        tasks.write_bytes(bytes(altered))
        with pytest.raises(check.CheckFailed):
            check.check_op("candidates-build", op_dir, input_dir, facts, digest)


@pytest.mark.parametrize("workload", ["eval-compose", "remote-services"])
def test_digest_rejects_one_altered_metric_in_the_run_record(tmp_path, workload):
    report, op_dir, input_dir, facts = _run_op(tmp_path, workload)
    digest = report["digest"]
    path = op_dir / "runs" / f"{facts['config']['run_name']}.json"
    record = json.loads(path.read_text())
    assert check.record_digest(record) == digest
    # timestamps are not part of the digest
    record["started"] = record["finished"] = "1970-01-01T00:00:00+00:00"
    path.write_text(json.dumps(record))
    assert check.check_op(workload, op_dir, input_dir, facts, digest) == digest
    record["reports"][-1]["map"] = record["reports"][-1]["map"] * (1 - 1e-12)
    path.write_text(json.dumps(record))
    with pytest.raises(check.CheckFailed):
        check.check_op(workload, op_dir, input_dir, facts, digest)


def test_invariants_catch_a_wrong_count_without_a_digest(tmp_path):
    _, op_dir, input_dir, facts = _run_op(tmp_path, "eval-compose")
    path = op_dir / "runs" / "eval-compose.json"
    record = json.loads(path.read_text())
    record["reports"][0]["n_excluded"] += 1
    path.write_text(json.dumps(record))
    with pytest.raises(check.CheckFailed, match="n_excluded"):
        check.check_op("eval-compose", op_dir, input_dir, facts, None)


def test_self_time_on_a_synthetic_span_tree():
    # root [0, 10] with children [1, 3] and [2, 6] (overlapping, union 5)
    # and [9, 12] (clipped to 1); the [2, 6] child has a child [3, 4]
    spans = [
        ["root", 0.0, 10.0, None, 0, False],
        ["a", 1.0, 3.0, 0, 0, False],
        ["b", 2.0, 6.0, 0, 0, False],
        ["c", 3.0, 4.0, 2, 0, False],
        ["d", 9.0, 12.0, 0, 0, False],
    ]
    assert tracing.self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0])


def test_per_layer_reads_self_times_counts_and_parents():
    post = "requests.Session.post"
    remote = "mlas2.reranking.RemoteScorer.score_pairs"
    spans = [
        ["mlas2.cli.main", 0.0, 10.0, None, 0, False],
        [remote, 1.0, 5.0, 0, 20, False],
        [post, 1.5, 2.5, 1, 1, False],
        [post, 3.0, 4.0, 1, 0, True],
        ["mlas2.candidates.retrieve_documents", 6.0, 6.5, 0, 0, False],
        ["mlas2.candidates.retrieve_documents", 7.0, 8.0, 0, 0, False],
    ]
    layers = tracing.per_layer([spans])
    assert layers["reranking.score_s"] == pytest.approx(2.0)
    assert layers["reranking.pairs_scored"] == 20
    assert layers["reranking.score_posts"] == 2
    assert layers["reranking.pairs_per_post"] == 10
    assert layers["translation.posts"] == 0
    assert layers["servers.score_rtt_p50_ms"] == pytest.approx(1000.0)
    assert layers["candidates.retrieve_s"] == pytest.approx(1.5)
    assert layers["candidates.retrieve_p90_ms"] == pytest.approx(1000.0)
    assert layers["cli.self_s"] == pytest.approx(4.5)


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert tracing.percentile(values, 50) == 50
    assert tracing.percentile(values, 90) == 90
    assert tracing.percentile(values, 99) == 99
    assert tracing.percentile([], 50) == 0.0


def test_compare_prints_one_row_per_workload(tmp_path):
    for side, job in (("a", 2.0), ("b", 1.0)):
        d = tmp_path / side
        d.mkdir()
        for seed in (1, 2, 3):
            metrics = {name: {"value": job if name == "job_s" else 1.0, "unit": unit}
                       for name, unit in run.END_TO_END.items()}
            for workload in ("eval-compose", "remote-services"):
                res = {"workload": workload, "trace": False, "result": {"metrics": metrics}}
                (d / f"{workload}-{seed}.json").write_text(json.dumps(res))
        traced = {"workload": "eval-compose", "trace": True,
                  "result": {"metrics": {"reranking.score_s": {"value": job, "unit": "s"}}}}
        (d / "eval-compose-traced.json").write_text(json.dumps(traced))
    out = run.compare(tmp_path / "a", tmp_path / "b").splitlines()
    rows = [line for line in out if line.split(":")[0] in ("eval-compose", "remote-services")]
    assert len(rows) == 2
    assert "job_s A 2 [2, 2] n=3 | B 1 [1, 1] n=3 | B/A 0.500" in rows[0]
    assert "reranking.score_s 0.500 (base 2)" in rows[0]
