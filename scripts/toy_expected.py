#!/usr/bin/env python3
"""Independent brute-force oracle for the toy end-to-end run.

Replays the whole desk-scale pipeline over the committed fixtures — document
retrieval, sentence splitting, candidate selection, gold annotation, the
En+De composition with the token-prefix translation rule, lexical ranking,
and metric aggregation — using only this file's own straight-from-definition
code (standard library only, nothing imported from the package). Prints the
expected metrics report for the composed test set as one JSON line.

Run from the repository root: python scripts/toy_expected.py
"""

import json
import math
import re
from collections import Counter
from pathlib import Path

FIXTURES = Path(__file__).resolve().parent.parent / "tests" / "fixtures" / "toy"

TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
BOUNDARY_RE = re.compile(r"[.!?]+(?=\s|$)")


def tokens(text):
    return TOKEN_RE.findall(text.lower())


def sentences(text):
    out, start = [], 0
    ends = [m.end() for m in BOUNDARY_RE.finditer(text)]
    if not ends or ends[-1] != len(text):
        ends.append(len(text))
    for end in ends:
        segment = text[start:end].strip()
        if segment:
            out.append(segment)
        start = end
    return out


def df_table(texts):
    df = Counter()
    for text in texts:
        df.update(set(tokens(text)))
    return df, len(texts)


def tfidf(df, n, text):
    counts = Counter(tokens(text))
    return {w: tf * (math.log((n + 1) / (df.get(w, 0) + 1)) + 1.0) for w, tf in counts.items()}


def add(values):
    """Floats added one by one, left to right: Python 3.12's sum() is
    compensated, so this oracle never calls it on floats."""
    total = 0.0
    for x in values:
        total += x
    return total


def norm(u):
    return math.sqrt(add(x * x for x in u.values()))


def cosine(u, v):
    nu, nv = norm(u), norm(v)
    if nu == 0.0 or nv == 0.0:
        return 0.0
    dot = add(x * v[w] for w, x in u.items() if w in v)
    return dot / (nu * nv)


def retrieve(docs, doc_df, doc_n, question_text, k_docs):
    """Document retrieval: cosine over document-level tf-idf, ties by doc id."""
    q_vec = tfidf(doc_df, doc_n, question_text)
    scored = [(d["id"], cosine(q_vec, tfidf(doc_df, doc_n, d["text"]))) for d in docs]
    scored.sort(key=lambda item: (-item[1], item[0]))
    return [doc_id for doc_id, _ in scored[:k_docs]]


def translate(text, src, tgt):
    out = []
    for tok in text.split():
        if tok.startswith(src + ":"):
            out.append(tok[len(src) + 1:])
        else:
            out.append(tgt + ":" + tok)
    return " ".join(out)


def read_jsonl(path):
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]


def main():
    params = json.loads((FIXTURES / "params.json").read_text())
    k_docs, k_sents = params["k_docs"], params["k_sents"]
    docs = read_jsonl(FIXTURES / "corpus.jsonl")
    questions = read_jsonl(FIXTURES / "questions.jsonl")
    gold = {(r["qid"], r["cid"]): r["label"] for r in read_jsonl(FIXTURES / "gold_labels.jsonl")}

    doc_df, doc_n = df_table([d["text"] for d in docs])
    by_id = {d["id"]: d["text"] for d in docs}

    # candidate selection: idf over every sentence of the corpus, ties by candidate id
    sent_df, sent_n = df_table([s for d in docs for s in sentences(d["text"])])

    def select(question_text):
        pool = []
        for doc_id in retrieve(docs, doc_df, doc_n, question_text, k_docs):
            for i, sentence in enumerate(sentences(by_id[doc_id])):
                pool.append((f"{doc_id}:{i}", sentence))
        q_vec = tfidf(sent_df, sent_n, question_text)
        scored = [
            (cid, text, cosine(q_vec, tfidf(sent_df, sent_n, text))) for cid, text in pool
        ]
        scored.sort(key=lambda item: (-item[2], item[0]))
        return [(cid, text) for cid, text, _ in scored[:k_sents]]

    # annotation: dataset-wide candidate ids are qid-qualified
    source = []
    for q in questions:
        cands = [
            (f"{q['id']}:{cid}", text, gold[(q["id"], cid)]) for cid, text in select(q["text"])
        ]
        source.append((q["id"], q["text"], cands))

    # composition "En+De": identity part (#0 suffix) then translated part (#1)
    groups = []
    for qid, q_text, cands in source:
        groups.append((q_text, [(f"{cid}#0", text, label) for cid, text, label in cands]))
    for qid, q_text, cands in source:
        groups.append(
            (
                translate(q_text, "en", "de"),
                [(f"{cid}#1", translate(text, "en", "de"), label) for cid, text, label in cands],
            )
        )

    # lexical ranking: idf over the composed test set's candidate texts
    rank_df, rank_n = df_table([text for _, cands in groups for _, text, _ in cands])
    judged = []
    for q_text, cands in groups:
        if not any(label == 1 for _, _, label in cands):
            continue  # unanswerable questions stay out of the aggregation
        q_vec = tfidf(rank_df, rank_n, q_text)
        scored = [
            (cid, label, cosine(q_vec, tfidf(rank_df, rank_n, text))) for cid, text, label in cands
        ]
        scored.sort(key=lambda item: (-item[2], item[0]))
        judged.append([label for _, label, _ in scored])

    def average_precision(labels):
        hits, total = 0, 0.0
        for i, label in enumerate(labels, start=1):
            if label:
                hits += 1
                total += hits / i
        return total / hits

    n = len(judged)
    report = {
        "test": params["expr"],
        "n": n,
        "p_at_1": add(float(labels[0]) for labels in judged) / n,
        "map": add(average_precision(labels) for labels in judged) / n,
        "mrr": add(1.0 / (labels.index(1) + 1) for labels in judged) / n,
    }
    print(json.dumps(report))


if __name__ == "__main__":
    main()
