"""Seeded input generator for the benchmark workloads.

Deliberately independent of ``mlas2``: it writes the JSONL files the CLI
reads and knows the documented formats and the mock translator's token-prefix
rule (``"what is x"`` -> ``"de:what de:is de:x"``), nothing else. The same
seed and parameters give byte-identical files.

Besides the files, every generator returns a small ``facts`` dict (counts the
output check derives its invariants from). Outputs are cached on disk under a
key made of the workload, the seed and the parameters, so generation is paid
once per key and never inside a timed region.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
from itertools import accumulate
from pathlib import Path

GENERATOR_VERSION = 1
KEEP_INPUT_SETS = 4

# Sizes per workload. eval-compose and remote-services share the dataset
# shape (groups of ``cands`` candidates); each op runs for several seconds, so
# one op already averages over the host's CPU-speed phases, and a few fit in
# one measured window. candidates-build keeps the CLI defaults k_docs=500 /
# k_sents=100 and a fixed sentence count per document, so every pool holds
# 2.5k sentences; its 100 questions give the per-question p90 10 samples
# beyond it.
PARAMS = {
    "eval-compose": {
        "questions": 240, "dev_questions": 20, "train_questions": 20,
        "cands": 50, "unanswerable": 0.05, "vocab": 6000,
    },
    "candidates-build": {
        "docs": 20000, "sents_per_doc": 5, "questions": 100, "vocab": 20000,
        "k_docs": 500, "k_sents": 100,
    },
    "remote-services": {
        "questions": 400, "cands": 10, "unanswerable": 0.05, "vocab": 6000,
    },
}

_ONSETS = ["b", "c", "d", "f", "g", "h", "k", "l", "m", "n", "p", "r", "s", "t",
           "v", "w", "z", "br", "ch", "cl", "dr", "fl", "gr", "pl", "pr", "sh",
           "st", "th", "tr"]
_NUCLEI = ["a", "e", "i", "o", "u", "ai", "ea", "ee", "ia", "io", "oa", "ou"]
_CODAS = ["", "", "n", "r", "s", "t", "l", "m", "nd", "rt", "st", "x"]


class Vocab:
    """Pseudo-words with Zipf-like frequencies (weight of rank r is 1/r)."""

    def __init__(self, rng: random.Random, size: int) -> None:
        words: list[str] = []
        seen: set[str] = set()
        while len(words) < size:
            syllables = rng.choice((1, 2, 2, 3, 3, 4))
            w = "".join(
                rng.choice(_ONSETS) + rng.choice(_NUCLEI) + rng.choice(_CODAS)
                for _ in range(syllables)
            )
            if w not in seen:
                seen.add(w)
                words.append(w)
        self.words = words
        self._cum = list(accumulate(1.0 / (r + 1) for r in range(size)))

    def draw(self, rng: random.Random, k: int) -> list[str]:
        return rng.choices(self.words, cum_weights=self._cum, k=k)

    def draw_rare(self, rng: random.Random, k: int) -> list[str]:
        """Tokens from the less frequent half, which carry most idf weight."""
        half = len(self.words) // 2
        return [self.words[half + rng.randrange(len(self.words) - half)] for _ in range(k)]


def mock_de(text: str) -> str:
    """The mock translator's en->de rule: every token gains a ``de:`` prefix."""
    return " ".join("de:" + tok for tok in text.split())


def _unique_text(rng: random.Random, seen: set[str], make) -> str:
    # texts are unique dataset-wide so the (q, t) score table has one key per
    # pair; a collision is re-drawn from the same stream, so output stays seeded
    while True:
        text = make()
        if text not in seen:
            seen.add(text)
            return text


def _write_jsonl(path: Path, records) -> None:
    with path.open("w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, ensure_ascii=False))
            fh.write("\n")


# ---------------------------------------------------------------------------
# labeled QA datasets (eval-compose, remote-services)
# ---------------------------------------------------------------------------

def make_dataset(rng: random.Random, vocab: Vocab, n_q: int, cands: int,
                 unanswerable: float, prefix: str, seen: set[str]):
    """Groups of (question, [(cid, text, label)]). Answerable questions get
    1-3 positives that share 2-4 question tokens; a share ``unanswerable``
    of the questions (rounded) gets no positive at all."""
    no_answer = set(rng.sample(range(n_q), round(n_q * unanswerable)))
    groups = []
    for i in range(n_q):
        qid = f"{prefix}{i:05d}"
        q_tokens: list[str] = []

        def make_q():
            q_tokens[:] = vocab.draw(rng, rng.randint(4, 7)) + vocab.draw_rare(rng, 2)
            rng.shuffle(q_tokens)
            return " ".join(q_tokens)

        q_text = _unique_text(rng, seen, make_q)
        n_c = cands + rng.randint(-cands // 10, cands // 10)
        n_pos = 0 if i in no_answer else rng.randint(1, 3)
        pos_slots = set(rng.sample(range(n_c), n_pos))
        rows = []
        for j in range(n_c):
            label = 1 if j in pos_slots else 0

            def make_c():
                toks = vocab.draw(rng, rng.randint(8, 16))
                if label:
                    toks += rng.sample(q_tokens, min(len(q_tokens), rng.randint(2, 4)))
                elif rng.random() < 0.3:
                    toks += rng.sample(q_tokens, 1)
                rng.shuffle(toks)
                return " ".join(toks)

            rows.append((f"{qid}-c{j:03d}", _unique_text(rng, seen, make_c), label))
        groups.append((qid, q_text, rows))
    return groups


def dataset_records(groups):
    for qid, q_text, rows in groups:
        yield {"kind": "q", "id": qid, "origin_id": qid, "text": q_text,
               "lang": "en", "prov": ["en"]}
        for cid, text, label in rows:
            yield {"kind": "c", "id": cid, "qid": qid, "origin_id": cid, "text": text,
                   "label": label, "lang": "en", "prov": ["en"]}


def dataset_facts(groups) -> dict:
    answerable = [g for g in groups if any(label for _, _, label in g[2])]
    return {
        "questions": len(groups),
        "answerable": len(answerable),
        "excluded": len(groups) - len(answerable),
        "candidates": sum(len(g[2]) for g in groups),
        "answerable_candidates": sum(len(g[2]) for g in answerable),
    }


def pair_score_records(rng: random.Random, groups):
    """Mock-scorer table over the four (question, candidate) language
    pairings en/en, en/de, de/en, de/de; positives score higher on average."""
    for _, q_text, rows in groups:
        qs = (q_text, mock_de(q_text))
        for _, t_text, label in rows:
            for q in qs:
                for t in (t_text, mock_de(t_text)):
                    score = 0.35 + 0.65 * rng.random() if label else 0.75 * rng.random()
                    yield {"q": q, "t": t, "score": score}


def gen_eval_compose(rng: random.Random, p: dict, out: Path) -> dict:
    vocab = Vocab(rng, p["vocab"])
    seen: set[str] = set()
    splits = {}
    for split, n_q, prefix in (("test", p["questions"], "q"),
                               ("dev", p["dev_questions"], "d"),
                               ("train", p["train_questions"], "t")):
        groups = make_dataset(rng, vocab, n_q, p["cands"], p["unanswerable"], prefix, seen)
        _write_jsonl(out / f"{split}.jsonl", dataset_records(groups))
        splits[split] = dataset_facts(groups)
    config = {
        "run_name": "eval-compose",
        "pretrained_label": "bench-lexical",
        "source": {"train": "train.jsonl", "dev": "dev.jsonl", "test": "test.jsonl"},
        "ft_expr": "En+De",
        "dev_expr": "En",
        "test_exprs": ["En", "En+De", "EnDe+DeEn", "En+EnDe+De+DeEn"],
        "scorer": {"kind": "lexical"},
        "translator": {"kind": "mock"},
        "hyperparameters": {"max_iterations": 3},
        "baseline_run": "eval-compose",
    }
    (out / "config.json").write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
    return {"splits": splits, "config": config}


def gen_remote_services(rng: random.Random, p: dict, out: Path) -> dict:
    vocab = Vocab(rng, p["vocab"])
    groups = make_dataset(rng, vocab, p["questions"], p["cands"], p["unanswerable"], "q", set())
    _write_jsonl(out / "source.jsonl", dataset_records(groups))
    _write_jsonl(out / "pair_scores.jsonl", pair_score_records(rng, groups))
    facts = dataset_facts(groups)
    # dev and test read one source: "De" on dev fills the translation cache,
    # and every test transfer to de reads it back
    config = {
        "run_name": "remote-services",
        "pretrained_label": "bench-remote",
        "source": {"train": "source.jsonl", "dev": "source.jsonl", "test": "source.jsonl"},
        "ft_expr": "En",
        "dev_expr": "De",
        "test_exprs": ["De", "En+De", "EnDe+DeEn", "DeEn"],
        "scorer": {"kind": "remote", "endpoint": None, "batch_size": 128},
        "translator": {"kind": "http", "cache_path": "translations.jsonl"},
        "hyperparameters": {"max_iterations": 3},
        "baseline_run": "remote-services",
    }
    (out / "config.json").write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
    return {"splits": {"dev": facts, "test": facts, "train": facts}, "config": config}


# ---------------------------------------------------------------------------
# candidate pipeline inputs (candidates-build)
# ---------------------------------------------------------------------------

def gen_candidates_build(rng: random.Random, p: dict, out: Path) -> dict:
    vocab = Vocab(rng, p["vocab"])
    docs = []
    with (out / "corpus.jsonl").open("w", encoding="utf-8") as fh:
        for i in range(p["docs"]):
            sents = []
            for _ in range(p["sents_per_doc"]):
                toks = vocab.draw(rng, rng.randint(7, 15))
                toks[0] = toks[0].capitalize()
                sents.append(" ".join(toks) + rng.choice((".", ".", ".", "?", "!")))
            doc_id = f"d{i:06d}"
            docs.append(sents)
            fh.write(json.dumps({"id": doc_id, "text": " ".join(sents)}) + "\n")
    questions = []
    for i in range(p["questions"]):
        # half of the questions paraphrase a corpus sentence, the rest are
        # free text; both always have tokens
        if i % 2 == 0:
            src = docs[rng.randrange(len(docs))][rng.randrange(p["sents_per_doc"])]
            toks = src.rstrip(".?!").lower().split()
            toks = rng.sample(toks, min(len(toks), rng.randint(3, 6))) + vocab.draw(rng, 2)
        else:
            toks = vocab.draw(rng, rng.randint(4, 7)) + vocab.draw_rare(rng, 2)
        qid = f"q{i:05d}"
        questions.append({"kind": "q", "id": qid, "origin_id": qid,
                          "text": " ".join(toks), "lang": "en", "prov": ["en"]})
    _write_jsonl(out / "questions.jsonl", questions)
    return {
        "docs": p["docs"],
        "sents_per_doc": p["sents_per_doc"],
        "questions": [(q["id"], q["text"]) for q in questions],
        "k_docs": p["k_docs"],
        "k_sents": p["k_sents"],
    }


GENERATORS = {
    "eval-compose": gen_eval_compose,
    "candidates-build": gen_candidates_build,
    "remote-services": gen_remote_services,
}


def input_key(workload: str, seed: int, params: dict) -> str:
    blob = json.dumps([GENERATOR_VERSION, workload, seed, params], sort_keys=True)
    return f"{workload}-s{seed}-{hashlib.sha256(blob.encode()).hexdigest()[:12]}"


def generate(workload: str, seed: int, root: Path,
             params: dict | None = None) -> tuple[Path, dict]:
    """Generate (or reuse) the inputs of one workload and seed under ``root``.

    Returns the input directory and its facts. At most ``KEEP_INPUT_SETS``
    input sets per workload stay cached; older ones are removed.
    """
    params = dict(PARAMS[workload] if params is None else params)
    out = root / input_key(workload, seed, params)
    facts_path = out / "facts.json"
    if facts_path.exists():
        os.utime(out)
        return out, json.loads(facts_path.read_text(encoding="utf-8"))
    tmp = out.with_name(out.name + ".tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    rng = random.Random(f"mlas2-bench:{workload}:{seed}")
    facts = GENERATORS[workload](rng, params, tmp)
    (tmp / "facts.json").write_text(json.dumps(facts) + "\n", encoding="utf-8")
    os.replace(tmp, out)
    cached = sorted(
        (d for d in root.glob(f"{workload}-s*") if d.is_dir() and d != out
         and not d.name.endswith(".tmp")),
        key=lambda d: d.stat().st_mtime,
    )
    for old in cached[: max(0, len(cached) - (KEEP_INPUT_SETS - 1))]:
        shutil.rmtree(old, ignore_errors=True)
    return out, facts
