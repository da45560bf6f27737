"""Output checks for benchmark ops.

Every op's output is reduced to a digest: for experiment runs, the sha256 of
the canonical run record without ``started``/``finished`` and with the
run-local parts of the config snapshot (source paths, cache path, scorer
endpoint) reduced to what does not depend on where or when the op ran; for
``candidates build``, the sha256 of the task file. ``digests.json`` holds the
digests of the seeds the benchmark ships. Every seed, shipped or not, is also
checked against invariants derived from the generated inputs alone; the
remote workload is scored from a known table, so its metrics are recomputed
here exactly.

Nothing in this module imports ``mlas2``.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

DIGESTS_PATH = Path(__file__).with_name("digests.json")

_SENTENCE_END = re.compile(r"(?<=[.!?])\s+")


class CheckFailed(Exception):
    """An op's output is wrong."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def normalized_record(record: dict) -> dict:
    out = {k: v for k, v in record.items() if k not in ("started", "finished")}
    config = dict(out.get("config", {}))
    for key in ("source_train", "source_dev", "source_test"):
        if isinstance(config.get(key), str):
            config[key] = Path(config[key]).name
    for key in ("scorer", "translator"):
        spec = dict(config.get(key) or {})
        if spec.get("endpoint") is not None:
            spec["endpoint"] = "<endpoint>"
        for path_key in ("cache_path", "scores_path"):
            if isinstance(spec.get(path_key), str):
                spec[path_key] = Path(spec[path_key]).name
        config[key] = spec
    out["config"] = config
    return out


def record_digest(record: dict) -> str:
    canon = json.dumps(normalized_record(record), sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def load_digests() -> dict:
    if DIGESTS_PATH.exists():
        return json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))
    return {}


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------

def _terms(expr: str) -> int:
    return expr.count("+") + 1


def _in_unit(value) -> bool:
    return isinstance(value, float | int) and 0.0 <= value <= 1.0


def check_experiment_record(record: dict, facts: dict) -> None:
    config = facts["config"]
    test = facts["splits"]["test"]
    _require(record.get("run_name") == config["run_name"], "run_name differs from config")
    reports = record.get("reports", [])
    _require([r.get("test") for r in reports] == config["test_exprs"],
             f"reports cover {[r.get('test') for r in reports]}, want {config['test_exprs']}")
    for r in reports:
        k = _terms(r["test"])
        _require(r["n"] == k * test["answerable"],
                 f"{r['test']}: n={r['n']}, want {k * test['answerable']}")
        _require(r["n_excluded"] == k * test["excluded"],
                 f"{r['test']}: n_excluded={r['n_excluded']}, want {k * test['excluded']}")
        for m in ("p_at_1", "map", "mrr"):
            _require(_in_unit(r[m]), f"{r['test']}: {m}={r[m]!r} outside [0, 1]")
        hits = r["p_at_1"] * r["n"]
        _require(abs(hits - round(hits)) < 1e-6, f"{r['test']}: P@1 is not hits/n")
        _require(r["p_at_1"] <= r["mrr"] + 1e-12, f"{r['test']}: P@1 exceeds MRR")
    dev_maps = record.get("dev_maps", [])
    # a constant trainer's second dev MAP ties the first, which stops the loop
    _require(len(dev_maps) == min(2, config["hyperparameters"]["max_iterations"]),
             f"dev_maps={dev_maps!r}")
    _require(all(_in_unit(m) and m == dev_maps[0] for m in dev_maps), f"dev_maps={dev_maps!r}")
    _require(record.get("best_iteration") == 1, "best_iteration != 1")
    want_fp = {"ft", "dev", *(f"test:{e}" for e in config["test_exprs"])}
    fps = record.get("fingerprints", {})
    _require(set(fps) == want_fp, f"fingerprints cover {sorted(fps)}")
    _require(all(re.fullmatch(r"[0-9a-f]{64}", v) for v in fps.values()), "bad fingerprint")
    deltas = record.get("deltas", [])
    _require(len(deltas) == len(reports), "one delta per report expected")
    for d in deltas:
        _require((d["p_at_1_pct"], d["map_pct"], d["mrr_pct"]) == (0.0, 0.0, 0.0),
                 f"self-baseline delta is not zero: {d}")


def _mock_de(text: str) -> str:
    return " ".join("de:" + tok for tok in text.split())


def expected_remote_reports(input_dir: Path, facts: dict) -> list[dict]:
    """P@1/MAP/MRR of every test composition, ranked by the score table
    (ties by candidate id are measure-zero for random float scores)."""
    table = {}
    with (input_dir / "pair_scores.jsonl").open(encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            table[(rec["q"], rec["t"])] = rec["score"]
    groups = []
    with (input_dir / "source.jsonl").open(encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            if rec["kind"] == "q":
                groups.append((rec["text"], []))
            else:
                groups[-1][1].append((rec["text"], rec["label"]))
    lang = {"En": lambda s: s, "De": _mock_de}
    out = []
    for expr in facts["config"]["test_exprs"]:
        p1 = ap = rr = 0.0
        n = 0
        for term in expr.split("+"):
            q_lang, t_lang = (term[:2], term[2:] or term[:2])
            for q_text, cands in groups:
                if not any(label for _, label in cands):
                    continue
                q = lang[q_lang](q_text)
                ranked = sorted(cands, key=lambda c: -table[(q, lang[t_lang](c[0]))])
                labels = [label for _, label in ranked]
                first = labels.index(1) + 1
                hits, total = 0, 0.0
                for i, label in enumerate(labels, start=1):
                    if label:
                        hits += 1
                        total += hits / i
                p1 += labels[0]
                ap += total / hits
                rr += 1.0 / first
                n += 1
        out.append({"test": expr, "n": n, "p_at_1": p1 / n, "map": ap / n, "mrr": rr / n})
    return out


def check_remote_metrics(record: dict, input_dir: Path, facts: dict) -> None:
    for got, want in zip(record["reports"], expected_remote_reports(input_dir, facts)):
        for m in ("p_at_1", "map", "mrr"):
            _require(abs(got[m] - want[m]) <= 1e-9,
                     f"{want['test']}: {m}={got[m]!r}, score table gives {want[m]!r}")


def check_tasks(tasks_path: Path, input_dir: Path, facts: dict) -> None:
    sentences: dict[str, list[str]] = {}
    with (input_dir / "corpus.jsonl").open(encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            sentences[rec["id"]] = _SENTENCE_END.split(rec["text"])
    want_k = min(facts["k_sents"], facts["k_docs"] * facts["sents_per_doc"])
    by_q: dict[str, list[dict]] = {}
    order: list[str] = []
    with tasks_path.open(encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            if rec["qid"] not in by_q:
                order.append(rec["qid"])
            by_q.setdefault(rec["qid"], []).append(rec)
    _require(order == [qid for qid, _ in facts["questions"]], "tasks not in question order")
    for qid, q_text in facts["questions"]:
        recs = by_q[qid]
        _require(len(recs) == want_k, f"{qid}: {len(recs)} tasks, want {want_k}")
        _require(len({r["cid"] for r in recs}) == len(recs), f"{qid}: duplicate candidates")
        for r in recs:
            _require(r["q"] == q_text and r["label"] is None, f"{qid}: bad task {r['cid']}")
            doc_id, _, idx = r["cid"].rpartition(":")
            sents = sentences.get(doc_id)
            _require(sents is not None and idx.isdigit() and int(idx) < len(sents)
                     and sents[int(idx)] == r["t"], f"{qid}: {r['cid']} is not that sentence")


# ---------------------------------------------------------------------------
# one op
# ---------------------------------------------------------------------------

def check_op(workload: str, op_dir: Path, input_dir: Path, facts: dict,
             expected_digest: str | None) -> str:
    """Check one op's output; return its digest or raise CheckFailed."""
    try:
        digest = _check_output(workload, op_dir, input_dir, facts)
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        raise CheckFailed(f"malformed output: {exc!r}") from exc
    if expected_digest is not None:
        _require(digest == expected_digest,
                 f"digest {digest[:16]} differs from the shipped {expected_digest[:16]}")
    return digest


def _check_output(workload: str, op_dir: Path, input_dir: Path, facts: dict) -> str:
    if workload == "candidates-build":
        tasks = op_dir / "tasks.jsonl"
        _require(tasks.exists(), "no task file written")
        check_tasks(tasks, input_dir, facts)
        return file_digest(tasks)
    path = op_dir / "runs" / f"{facts['config']['run_name']}.json"
    _require(path.exists(), "no run record written")
    record = json.loads(path.read_text(encoding="utf-8"))
    check_experiment_record(record, facts)
    if workload == "remote-services":
        check_remote_metrics(record, input_dir, facts)
    return record_digest(record)
