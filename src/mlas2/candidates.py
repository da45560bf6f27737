"""Candidate construction: retrieve documents from a local tf-idf index,
split them into sentences, select the top candidates with a pluggable scorer,
and round-trip annotation task files into labeled datasets.
"""

from __future__ import annotations

import re
from array import array
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from mlas2.dataset import (
    LABEL,
    TEXT,
    AnswerCandidate,
    Dataset,
    DatasetFormatError,
    Question,
    QuestionGroup,
    iter_jsonl,
    jsonl_line,
    read_fields,
    read_table,
    write_lines,
)
from mlas2.reranking import (
    IdfTable,
    TermIndex,
    Vectors,
    concat_ranges,
    cosines,
    norms,
    tokenize,
)
from mlas2.scoring import ScoringError, TextPairScorer, order


@dataclass(frozen=True)
class Document:
    id: str
    text: str


class DocumentCorpus:
    """Immutable index over a document collection, built in one pass over
    each sentence's span and tokens and one array pass per chunk of
    documents.

    The sentences, numbered in document order, are the entries of one
    ``TermIndex``, whose ``term_ids`` key both idf tables and the postings.
    Each sentence keeps its span in its document and its tf-idf weights and
    norm over ``sentence_idf``, the idf table over every corpus sentence,
    which ``score_sentences`` scores against.

    Documents are numbered in id order. The postings are compact: for each
    term id, the numbers of the documents that hold the term and its
    frequency in each, as two integer columns in document order (so in id
    order). ``idf_table`` weighs terms by these document frequencies, and
    each document's tf-idf norm is kept for cosine retrieval.
    """

    def __init__(self, documents: Sequence[Document]) -> None:
        docs = list(documents)
        seen: set[str] = set()
        for doc in docs:
            if doc.id in seen:
                raise ValueError(f"duplicate document id {doc.id!r}")
            seen.add(doc.id)
        self.documents: tuple[Document, ...] = tuple(docs)
        self._docs = tuple(sorted(docs, key=lambda doc: doc.id))
        self._numbers = {doc.id: n for n, doc in enumerate(self._docs)}

        # a query is never numbered through the index: new ids would lie
        # past the postings, and the corpus would grow with its queries
        index = self._index = TermIndex()
        # the documents' entries, over the same term ids, read into the postings
        doc_index = TermIndex(index.term_ids)
        self._sentence_first = array("q", [0])  # per document, then the total
        self._starts, self._ends = array("q"), array("q")  # per sentence
        for c in range(0, len(self._docs), _CHUNK_DOCS):
            spans: list[tuple[int, int]] = []
            tokens: list[list[str]] = []
            per_doc: list[int] = []
            for doc in self._docs[c : c + _CHUNK_DOCS]:
                doc_spans = sentence_spans(doc.text)
                # each sentence is lowercased on its own, never the document:
                # `str.lower` reads the neighbouring characters (a final
                # sigma) and can change a text's length (`İ`)
                tokens += [tokenize(doc.text[start:end]) for start, end in doc_spans]
                spans += doc_spans
                per_doc.append(len(doc_spans))
            self._sentence_first.extend((len(self._starts) + np.cumsum(per_doc)).tolist())
            self._starts.extend(start for start, _ in spans)
            self._ends.extend(end for _, end in spans)

            terms, sentence_of = index.term_stream(tokens)
            index.append(terms, sentence_of, len(tokens))
            # only whitespace lies between sentences, so their tokens are
            # exactly the documents'
            doc_of = np.repeat(np.arange(len(per_doc)), per_doc)[sentence_of]
            doc_index.append(terms, doc_of, len(per_doc))
        # a plain copy: looking up a term it lacks numbers nothing
        self.term_ids = dict(index.term_ids)
        self._index_documents(*doc_index.entries())
        del doc_index  # freed before the sentence weights and norms are built

        # a sentence holds each of its terms once, so counting the term
        # column counts the sentences that hold each term; the views pin the
        # index's columns, which never grow again
        first, terms, counts = index.entries()
        df = np.bincount(terms, minlength=len(self.term_ids))
        self.sentence_idf = IdfTable(df, len(self._starts))
        self._sentences = self.sentence_idf.vectors(first, terms, counts)

    def _index_documents(self, first: np.ndarray, terms: np.ndarray, tfs: np.ndarray) -> None:
        """The postings, ``idf_table`` and document norms from each document's
        term ids and counts, as ``TermIndex.entries`` gives them; the sort's
        and the norms' temporaries are freed on return."""
        by_term = np.argsort(terms, kind="stable")
        doc_df = np.bincount(terms, minlength=len(self.term_ids))
        self._post_first = np.concatenate(([0], np.cumsum(doc_df)))
        self._post_docs = np.repeat(np.arange(len(self._docs)), np.diff(first))[by_term]
        self._post_tfs = tfs[by_term]
        self.idf_table = IdfTable(doc_df, len(self._docs))
        weights = self.idf_table.weights(terms, tfs)
        squares = np.multiply(weights, weights, out=weights)  # in place: no second array
        self._norms = norms(squares, first)

    @property
    def num_docs(self) -> int:
        return len(self.documents)

    def postings(self, term: str) -> list[tuple[str, int]]:
        """(doc id, term frequency) pairs of a term, in doc id order."""
        t = self.term_ids.get(term)
        if t is None:
            return []
        span = slice(self._post_first[t], self._post_first[t + 1])
        docs, tfs = self._post_docs[span].tolist(), self._post_tfs[span].tolist()
        return [(self._docs[n].id, tf) for n, tf in zip(docs, tfs)]

    def sentences(self, doc_id: str) -> range:
        """The numbers of a document's sentences, in text order."""
        n = self._numbers[doc_id]
        return range(self._sentence_first[n], self._sentence_first[n + 1])

    def sentence_text(self, number: int) -> str:
        doc = self._docs[bisect_right(self._sentence_first, number) - 1]
        return doc.text[self._starts[number] : self._ends[number]]

    def query_vector(self, query: str, table: IdfTable) -> Vectors:
        """The query's tf-idf vector over one of the corpus's tables, as one
        text. Every term the corpus lacks takes the one id past its terms:
        it matches no term but still counts toward the vector's length and
        norm."""
        counts = Counter(tokenize(query))
        ids = self.term_ids
        terms = np.array([ids.get(term, len(ids)) for term in counts], dtype=np.intp)
        return table.vectors(np.array([0, len(terms)]), terms, list(counts.values()))

    def score_sentences(self, query: str, numbers: Sequence[int]) -> list[float]:
        """Lexical scores of ``query`` against the numbered sentences: what a
        ``LexicalScorer`` over every corpus sentence gives for their texts,
        read from the precomputed sentence vectors instead of re-tokenizing
        them."""
        q = self.query_vector(query, self.sentence_idf)
        return cosines(q, self._sentences, np.zeros(len(numbers), np.intp), numbers).tolist()


def _top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """The positions, in order, of the scores at least the k-th best: every
    tie at the k-th best is kept, so a stable sort of the kept scores ranks
    them as it would all of them."""
    if len(scores) <= k:
        return np.arange(len(scores))
    kth = np.partition(scores, len(scores) - k)[len(scores) - k]
    return np.flatnonzero(~(scores < kth))  # not `>= kth`: a NaN is never dropped


# documents whose tokens are numbered and counted in one array pass: larger
# chunks leave fewer passes but a larger heap behind
_CHUNK_DOCS = 256


def load_corpus(path: str | Path) -> DocumentCorpus:
    """Load a JSONL corpus of ``{"id":str,"text":str}`` records."""
    # the id -> text table is freed before the index is built
    return DocumentCorpus(
        [Document(*item) for item in read_table(path, "corpus", ("id",), "text", TEXT).items()]
    )


def retrieve_documents(query: str, corpus: DocumentCorpus, k: int = 500) -> list[str]:
    """Top-k document ids by tf-idf cosine against the query; ties break by
    doc id. Documents sharing no term score 0 but still count toward k."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    table = corpus.idf_table
    q = corpus.query_vector(query, table)
    if not len(q.terms):
        raise ValueError("query has no tokens after tokenization")

    # dot products over the query's term ids' postings only, added per
    # document in query-term order; every other document scores 0
    dots = np.zeros(corpus.num_docs)
    first = corpus._post_first
    for t, qw in zip(q.terms.tolist(), q.weights.tolist()):
        if t < len(corpus.term_ids):
            span = slice(first[t], first[t + 1])
            dots[corpus._post_docs[span]] += qw * (corpus._post_tfs[span] * table.idf(t))

    # every weight is at least 1, so a document matches exactly when its dot
    # is nonzero; only those scoring at least the k-th best are sorted, and a
    # stable sort keeps tied documents in id order
    matched = np.flatnonzero(dots)
    scores = dots[matched] / (q.norms[0] * corpus._norms[matched])
    kept = _top_k(scores, k)
    ranked = matched[kept[np.argsort(-scores[kept], kind="stable")[:k]]]
    if len(ranked) < k:
        ranked = np.concatenate((ranked, np.flatnonzero(dots == 0.0)[: k - len(ranked)]))
    return [corpus._docs[n].id for n in ranked.tolist()]


# ---------------------------------------------------------------------------
# sentence splitting
# ---------------------------------------------------------------------------

# a sentence starts at a non-space character and runs to the first '.', '!'
# or '?' followed by whitespace or the end of text, or else to the text's last
# non-space character; `\s` is `str.isspace`. Each step to the next
# punctuation character is one `[^.!?]*[.!?]`, so a long run of punctuation
# is matched in linear time (a lazy `.*?` or a `[.!?]+` search is quadratic)
_SENTENCE_RE = re.compile(r"(?=\S)(?:(?:[^.!?]*[.!?])+?(?=\s|$)|.*\S)", re.S)


def sentence_spans(text: str) -> list[tuple[int, int]]:
    """Character spans of sentences: segments ending in '.', '!' or '?'
    followed by whitespace or end of text, without surrounding whitespace.
    Abbreviations are not handled; a trailing segment without terminal
    punctuation is kept as a sentence."""
    return [m.span() for m in _SENTENCE_RE.finditer(text)]


def split_sentences(text: str) -> list[str]:
    return [text[s:e] for s, e in sentence_spans(text)]


# ---------------------------------------------------------------------------
# candidate selection and annotation round trip
# ---------------------------------------------------------------------------

def select_candidates(
    question: Question,
    corpus: DocumentCorpus,
    scorer: TextPairScorer | None = None,
    k_docs: int = 500,
    k_sents: int = 100,
) -> list[AnswerCandidate]:
    """Pool the sentences of the top-k_docs retrieved documents, score them
    against the question in one call, and keep the best k_sents (ties by
    candidate id); records are built only for the sentences kept.

    With no scorer, the corpus scores the pool lexically from its forward
    index (``score_sentences``); a scorer gets the sentence texts in one
    ``score_pairs`` call. Candidate ids are ``{doc_id}:{sentence_index}``;
    labels stay None until annotation.
    """
    if k_sents < 1:
        raise ValueError(f"k_sents must be >= 1, got {k_sents}")
    try:
        doc_ids = retrieve_documents(question.text, corpus, k_docs)
    except ValueError as exc:
        raise ValueError(f"question {question.id!r}: {exc}") from exc
    docs = np.array([corpus._numbers[doc_id] for doc_id in doc_ids], dtype=np.intp)
    sentence_first = np.asarray(corpus._sentence_first)
    starts, stops = sentence_first[docs], sentence_first[docs + 1]
    numbers = concat_ranges(starts, stops)
    if not len(numbers):
        raise ValueError(f"no candidate sentences for question {question.id!r}")
    if scorer is None:
        scores = corpus.score_sentences(question.text, numbers)
    else:
        scores = scorer.score_pairs(
            [(question.text, corpus.sentence_text(number)) for number in numbers.tolist()]
        )
        if len(scores) != len(numbers):
            raise ScoringError(
                f"scorer returned {len(scores)} scores for {len(numbers)} candidates"
            )
    scores = np.asarray(scores, dtype=float)

    # only the sentences `_top_k` keeps get ids; `order` ranks them as it
    # would the whole pool
    kept = _top_k(scores, k_sents)
    doc = np.repeat(np.arange(len(docs)), stops - starts)[kept]
    pool = {
        f"{doc_ids[d]}:{number - start}": number
        for d, number, start in zip(doc.tolist(), numbers[kept].tolist(), starts[doc].tolist())
    }
    return [
        AnswerCandidate(cid, cid, corpus.sentence_text(pool[cid]), None, (question.language,))
        for cid, _ in order(list(pool), scores[kept].tolist())[:k_sents]
    ]


def export_annotation_tasks(
    tasks: Sequence[tuple[Question, Sequence[AnswerCandidate]]], path: str | Path
) -> None:
    """Write annotation tasks as JSONL
    ``{"qid":str,"cid":str,"q":str,"t":str,"label":null}``; candidates must
    still be unlabeled."""
    labeled = next((c for _, cands in tasks for c in cands if c.label is not None), None)
    if labeled is not None:
        raise ValueError(f"candidate {labeled.id!r} is already labeled")
    write_lines(path, (
        jsonl_line({"qid": q.id, "cid": c.id, "q": q.text, "t": c.text, "label": None})
        for q, cands in tasks for c in cands
    ))


def load_gold_labels(path: str | Path) -> dict[tuple[str, str], int]:
    """Load gold annotations: JSONL ``{"qid":str,"cid":str,"label":0|1}``."""
    return read_table(path, "gold", ("qid", "cid"), "label", LABEL)


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
    when two questions selected the same sentence. A repeated qualified id,
    or a second text of one question, is a ``DatasetFormatError``.
    """
    gold = load_gold_labels(gold_path) if gold_path is not None else None
    questions: dict[str, Question] = {}
    grouped: dict[str, list[AnswerCandidate]] = {}
    seen: set[str] = set()
    for where, rec in iter_jsonl(tasks_path):
        qid, cid, q_text, t_text = read_fields(
            rec, where, "task", {"qid": TEXT, "cid": TEXT, "q": TEXT, "t": TEXT}
        )
        full_cid = f"{qid}:{cid}"
        if full_cid in seen:
            raise DatasetFormatError(f"{where}: duplicate candidate id {full_cid!r}")
        seen.add(full_cid)
        if qid not in questions:
            questions[qid] = Question(qid, qid, q_text, (language,))
        elif questions[qid].text != q_text:
            raise DatasetFormatError(
                f"{where}: question {qid!r} has text {q_text!r}, "
                f"but its first task has {questions[qid].text!r}"
            )
        if gold is not None:
            if (qid, cid) not in gold:
                raise DatasetFormatError(f"{where}: no gold label for {(qid, cid)!r}")
            label = gold[(qid, cid)]
        elif rec.get("label") is None:
            raise DatasetFormatError(f"{where}: task for {(qid, cid)!r} is unlabeled")
        else:
            (label,) = read_fields(rec, where, "task", {"label": LABEL})
        grouped.setdefault(qid, []).append(
            AnswerCandidate(full_cid, full_cid, t_text, label, (language,))
        )
    groups = tuple(QuestionGroup(q, tuple(grouped[qid])) for qid, q in questions.items())
    return Dataset(name, split, groups)
