"""Candidate construction: retrieve documents from a local tf-idf index,
split them into sentences, select the top candidates with a pluggable scorer,
and round-trip annotation task files into labeled datasets.
"""

from __future__ import annotations

import heapq
import itertools
import json
import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from mlas2.dataset import (
    LABEL,
    TEXT,
    AnswerCandidate,
    Dataset,
    DatasetFormatError,
    Question,
    QuestionGroup,
    iter_jsonl,
    read_fields,
)
from mlas2.reranking import IdfTable, TextPairScorer, order, tokenize


@dataclass(frozen=True)
class Document:
    id: str
    text: str


class DocumentCorpus:
    """Immutable inverted index over a document collection.

    Postings map each term to (doc id, term frequency) pairs sorted by doc id.
    Term weights come from an ``IdfTable`` whose document frequencies are the
    posting-list lengths, and per-document tf-idf norms are precomputed for
    cosine retrieval.
    """

    def __init__(self, documents: Sequence[Document]) -> None:
        docs = list(documents)
        seen: set[str] = set()
        for doc in docs:
            if doc.id in seen:
                raise ValueError(f"duplicate document id {doc.id!r}")
            seen.add(doc.id)
        self.documents: tuple[Document, ...] = tuple(docs)
        self.by_id = {doc.id: doc for doc in docs}
        self._ids_sorted: tuple[str, ...] = tuple(sorted(self.by_id))

        index: dict[str, list[tuple[str, int]]] = {}
        doc_terms: list[Counter[str]] = []
        for doc in docs:
            counts = Counter(tokenize(doc.text))
            doc_terms.append(counts)
            for term, tf in counts.items():
                index.setdefault(term, []).append((doc.id, tf))
        for postings in index.values():
            postings.sort()
        self._index = index
        self.idf_table = IdfTable(
            {term: len(postings) for term, postings in index.items()}, len(docs)
        )

        self._norms: dict[str, float] = {
            doc.id: self.idf_table.counts_norm(counts) for doc, counts in zip(docs, doc_terms)
        }

    @property
    def num_docs(self) -> int:
        return len(self.documents)

    def postings(self, term: str) -> list[tuple[str, int]]:
        return list(self._index.get(term, ()))


def build_index(docs: Iterable[Document | dict]) -> DocumentCorpus:
    """Build a corpus from Document objects or ``{"id","text"}`` dicts."""
    converted = [
        d if isinstance(d, Document) else _read_document(d, f"document {i}")
        for i, d in enumerate(docs)
    ]
    return DocumentCorpus(converted)


def _read_document(rec: dict, where: str) -> Document:
    return Document(*read_fields(rec, where, "corpus", {"id": TEXT, "text": TEXT}))


def load_corpus(path: str | Path) -> DocumentCorpus:
    """Load a JSONL corpus of ``{"id":str,"text":str}`` records."""
    return DocumentCorpus([_read_document(rec, where) for where, rec in iter_jsonl(path)])


def retrieve_documents(query: str, corpus: DocumentCorpus, k: int = 500) -> list[str]:
    """Top-k document ids by tf-idf cosine against the query; ties break by
    doc id. Documents sharing no term score 0 but still count toward k."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    table = corpus.idf_table
    q_weights, q_norm = table.vector_with_norm(query)
    if not q_weights:
        raise ValueError("query has no tokens after tokenization")

    # dot products over postings only; every other document scores 0
    dots: dict[str, float] = {}
    for term, qw in q_weights.items():
        idf = table.idf(term)
        for doc_id, tf in corpus._index.get(term, ()):
            dots[doc_id] = dots.get(doc_id, 0.0) + qw * tf * idf

    norms = corpus._norms
    ranked = [
        doc_id
        for _, doc_id in heapq.nsmallest(
            k, ((-(dot / (q_norm * norms[doc_id])), doc_id) for doc_id, dot in dots.items())
        )
    ]
    if len(ranked) < k:
        fill = (doc_id for doc_id in corpus._ids_sorted if doc_id not in dots)
        ranked.extend(itertools.islice(fill, k - len(ranked)))
    return ranked


# ---------------------------------------------------------------------------
# sentence splitting
# ---------------------------------------------------------------------------

_BOUNDARY_RE = re.compile(r"[.!?]+(?=\s|$)")


def sentence_spans(text: str) -> list[tuple[int, int]]:
    """Character spans of sentences: segments ending in '.', '!' or '?'
    followed by whitespace or end of text. Abbreviations are not handled;
    a trailing segment without terminal punctuation is kept as a sentence."""
    spans = []
    start = 0
    boundaries = [m.end() for m in _BOUNDARY_RE.finditer(text)]
    if not boundaries or boundaries[-1] != len(text):
        boundaries.append(len(text))
    for end in boundaries:
        s, e = start, end
        while s < e and text[s].isspace():
            s += 1
        while e > s and text[e - 1].isspace():
            e -= 1
        if s < e:
            spans.append((s, e))
        start = end
    return spans


def split_sentences(text: str) -> list[str]:
    return [text[s:e] for s, e in sentence_spans(text)]


# ---------------------------------------------------------------------------
# candidate selection and annotation round trip
# ---------------------------------------------------------------------------

def select_candidates(
    question: Question,
    corpus: DocumentCorpus,
    scorer: TextPairScorer,
    k_docs: int = 500,
    k_sents: int = 100,
) -> list[AnswerCandidate]:
    """Pool the sentences of the top-k_docs retrieved documents, score them
    against the question in one call, and keep the best k_sents (ties by
    candidate id); records are built only for the sentences kept.

    Candidate ids are ``{doc_id}:{sentence_index}``; labels stay None until
    annotation.
    """
    if k_sents < 1:
        raise ValueError(f"k_sents must be >= 1, got {k_sents}")
    pool: dict[str, str] = {}
    for doc_id in retrieve_documents(question.text, corpus, k_docs):
        for i, sentence in enumerate(split_sentences(corpus.by_id[doc_id].text)):
            pool[f"{doc_id}:{i}"] = sentence
    if not pool:
        raise ValueError(f"no candidate sentences for question {question.id!r}")
    scores = scorer.score_pairs([(question.text, sentence) for sentence in pool.values()])
    lang = question.language
    return [
        AnswerCandidate(cid, question.id, cid, pool[cid], None, lang, (lang,))
        for cid, _ in order(list(pool), scores)[:k_sents]
    ]


def export_annotation_tasks(
    tasks: Sequence[tuple[Question, Sequence[AnswerCandidate]]], path: str | Path
) -> None:
    """Write annotation tasks as JSONL
    ``{"qid":str,"cid":str,"q":str,"t":str,"label":null}``; candidates must
    still be unlabeled."""
    with Path(path).open("w", encoding="utf-8") as fh:
        for question, cands in tasks:
            for cand in cands:
                if cand.label is not None:
                    raise ValueError(f"candidate {cand.id!r} is already labeled")
                rec = {
                    "qid": question.id,
                    "cid": cand.id,
                    "q": question.text,
                    "t": cand.text,
                    "label": None,
                }
                fh.write(json.dumps(rec, ensure_ascii=False))
                fh.write("\n")


def load_gold_labels(path: str | Path) -> dict[tuple[str, str], int]:
    """Load gold annotations: JSONL ``{"qid":str,"cid":str,"label":0|1}``."""
    table: dict[tuple[str, str], int] = {}
    for where, rec in iter_jsonl(path):
        qid, cid, label = read_fields(
            rec, where, "gold", {"qid": TEXT, "cid": TEXT, "label": LABEL}
        )
        if (qid, cid) in table:
            raise DatasetFormatError(f"{where}: duplicate gold label for {(qid, cid)!r}")
        table[(qid, cid)] = label
    return table


def import_annotations(
    tasks_path: str | Path,
    gold_path: str | Path | None = None,
    *,
    name: str,
    split: str = "test",
    language: str = "en",
) -> Dataset:
    """Turn an annotation task file back into a labeled dataset.

    Labels come from the gold file when given, otherwise from the (edited)
    task file itself; every task must end up with a 0/1 label. Candidate ids
    are qualified as ``{qid}:{cid}`` so they stay unique dataset-wide even
    when two questions selected the same sentence.
    """
    gold = load_gold_labels(gold_path) if gold_path is not None else None
    questions: dict[str, Question] = {}
    grouped: dict[str, list[AnswerCandidate]] = {}
    seen: set[tuple[str, str]] = set()
    for where, rec in iter_jsonl(tasks_path):
        qid, cid, q_text, t_text = read_fields(
            rec, where, "task", {"qid": TEXT, "cid": TEXT, "q": TEXT, "t": TEXT}
        )
        if (qid, cid) in seen:
            raise DatasetFormatError(f"{where}: duplicate task for {(qid, cid)!r}")
        seen.add((qid, cid))
        if gold is not None:
            if (qid, cid) not in gold:
                raise DatasetFormatError(f"{where}: no gold label for {(qid, cid)!r}")
            label = gold[(qid, cid)]
        elif rec.get("label") is None:
            raise DatasetFormatError(f"{where}: task for {(qid, cid)!r} is unlabeled")
        else:
            (label,) = read_fields(rec, where, "task", {"label": LABEL})
        if qid not in questions:
            questions[qid] = Question(qid, qid, q_text, language, (language,))
        full_cid = f"{qid}:{cid}"
        grouped.setdefault(qid, []).append(
            AnswerCandidate(
                id=full_cid,
                question_id=qid,
                origin_id=full_cid,
                text=t_text,
                label=label,
                language=language,
                provenance=(language,),
            )
        )
    groups = tuple(QuestionGroup(q, tuple(grouped[qid])) for qid, q in questions.items())
    return Dataset(name, split, groups)
