"""Candidate scoring and ranking.

Scorers assign each (question, candidate) pair a correctness probability in
[0, 1]. ``Scorer.score_groups`` is the one scoring protocol: it scores a
whole list of question groups per call, so a text-pair scorer sends every
group's pairs in one ``score_pairs`` call. ``order`` sorts candidate ids by
score with deterministic id tie-breaking, and ``rank`` scores a list of groups
in one call and orders each.
Backends: a tf-idf lexical baseline, a static score table, an HTTP client for
remote models, and a linear classification head applied to externally
produced embeddings.
"""

from __future__ import annotations

import math
import re
import reprlib
from abc import ABC, abstractmethod
from array import array
from collections import Counter
from functools import cached_property
from itertools import islice
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np
import requests

from mlas2.dataset import SCORE, QuestionGroup, read_table
from mlas2.wire import post_json


class ScoringError(RuntimeError):
    """A scorer backend failed or violated the scoring protocol."""


# ---------------------------------------------------------------------------
# tokenization and tf-idf
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


def tokenize(text: str) -> list[str]:
    """Lowercase and split on non-alphanumeric characters, dropping empties."""
    return _TOKEN_RE.findall(text.lower())


class TermIndex:
    """Texts as term ids and counts in first-occurrence order, stored flat:
    text ``n`` holds the entries from ``_first[n]`` up to ``_first[n + 1]``.
    Terms and texts are numbered in first-seen order. ``number`` tokenizes
    each distinct text once; ``add`` appends a text it is given as tokens.
    An index lives as long as its owner: one run, one scorer or one corpus."""

    def __init__(self) -> None:
        self.term_ids: dict[str, int] = {}
        self._numbers: dict[str, int] = {}
        self._first = array("q", [0])
        self._terms = array("i")
        self._counts = array("i")

    def add(self, tokens: Iterable[str]) -> int:
        """Append a text given by its tokens, not keyed by its text; its number."""
        counts = Counter(tokens)
        ids = self.term_ids
        for term in counts:
            ids.setdefault(term, len(ids))
        self._terms.extend(map(ids.__getitem__, counts))
        self._counts.extend(counts.values())
        self._first.append(len(self._terms))
        return len(self._first) - 2

    def number(self, text: str) -> int:
        """The text's number; a text seen for the first time is tokenized."""
        n = self._numbers.get(text)
        if n is None:
            n = self._numbers[text] = self.add(tokenize(text))
        return n

    def numbers(self, texts: Iterable[str]) -> array:
        """The numbers of ``texts``, in order."""
        return array("i", map(self.number, texts))

    def terms(self, n: int) -> tuple[array, array]:
        """Text ``n``'s term ids and their counts."""
        span = slice(self._first[n], self._first[n + 1])
        return self._terms[span], self._counts[span]

    def document_frequencies(self, numbers: Iterable[int]) -> dict[int, int]:
        """How many of the numbered texts hold each term id, each text
        counted as often as its number is given."""
        df = [0] * len(self.term_ids)
        first, terms = self._first, self._terms
        for n in numbers:
            for t in terms[first[n] : first[n + 1]]:
                df[t] += 1
        return {t: k for t, k in enumerate(df) if k}


class IdfTable:
    """Smoothed inverse document frequencies over a candidate corpus:
    idf(w) = ln((N+1)/(df(w)+1)) + 1, computed once per term at construction;
    every unseen term shares the df = 0 value. Terms are keyed by their text
    or, in a table over a ``TermIndex`` (a scorer's or a corpus's), by id.

    This is the package's one tf-idf core: the lexical scorer, the mock
    scorer server, document retrieval and the corpus sentence index all
    weigh terms through it.
    """

    def __init__(self, df: dict, num_docs: int) -> None:
        self.df = dict(df)
        self.num_docs = num_docs
        self._idf = {
            term: math.log((num_docs + 1) / (n + 1)) + 1.0 for term, n in self.df.items()
        }
        self._unseen_idf = math.log(num_docs + 1) + 1.0

    @classmethod
    def from_texts(cls, texts: Iterable[str], index: TermIndex | None = None) -> "IdfTable":
        """The table of ``texts``, each text one document. Given a term index,
        the texts are read through it and the table is keyed by its term ids."""
        if index is not None:
            numbers = index.numbers(texts)
            return cls(index.document_frequencies(numbers), len(numbers))
        df: Counter[str] = Counter()
        n = 0
        for text in texts:
            n += 1
            df.update(set(tokenize(text)))
        return cls(dict(df), n)

    def idf(self, term: str) -> float:
        return self._idf.get(term, self._unseen_idf)

    @cached_property
    def _idf_by_id(self) -> np.ndarray:
        return np.fromiter(self._idf.values(), dtype=float, count=len(self._idf))

    def vector(self, text: str) -> dict[str, float]:
        """Tf-idf weights of a text's terms, in first-occurrence order."""
        counts = Counter(tokenize(text))
        return self.vector_of(counts, counts.values())

    def vector_of(self, terms: Iterable, tfs: Iterable[int]) -> dict:
        """Tf-idf weights (tf times idf) of terms, or of term ids in a table
        keyed by them, given with their counts; in the order given."""
        idf, unseen = self._idf, self._unseen_idf
        return {term: tf * idf.get(term, unseen) for term, tf in zip(terms, tfs)}

    def weights(self, term_ids: Sequence[int], tfs: Sequence[int]) -> np.ndarray:
        """The tf-idf weights ``vector_of`` gives (tf times idf, elementwise),
        in a table keyed by every term id from 0, in order."""
        return np.asarray(tfs) * self._idf_by_id[np.asarray(term_ids)]


def vector_norm(weights: Iterable[float]) -> float:
    """Norm of a text's tf-idf weights, summed in their order."""
    return math.sqrt(sum([x * x for x in weights]))


def cosine(u: dict, nu: float, v: dict, nv: float) -> float:
    """Cosine similarity of sparse non-negative vectors (weights keyed by
    term or term id) given with their norms, in [0, 1]; 0.0 when either is
    zero. The dot product sums over the shorter vector (u on a tie) in its
    own order."""
    if nu == 0.0 or nv == 0.0:
        return 0.0
    if len(v) < len(u):
        u, v = v, u
    dot = sum(x * v[t] for t, x in u.items() if t in v)
    # sqrt(s) ** 2 can fall below s, so a text scored against itself could
    # exceed 1 by an ulp
    return min(1.0, dot / (nu * nv))


def lexical_score(q_text: str, t_text: str, idf_table: IdfTable) -> float:
    """Tf-idf cosine between question and candidate; always in [0, 1]."""
    q, t = idf_table.vector(q_text), idf_table.vector(t_text)
    return cosine(q, vector_norm(q.values()), t, vector_norm(t.values()))


# ---------------------------------------------------------------------------
# scorer backends
# ---------------------------------------------------------------------------

class Scorer(ABC):
    """Assigns correctness probabilities to candidates, for a whole list of
    question groups per call."""

    @abstractmethod
    def score_groups(self, groups: Sequence[QuestionGroup]) -> list[list[float]]:
        """Each group's scores, in candidate order."""


class TextPairScorer(Scorer):
    """Scorer that only looks at the (question text, candidate text) pair."""

    @abstractmethod
    def score_pairs(self, pairs: Sequence[tuple[str, str]]) -> list[float]:
        ...

    def score_groups(self, groups: Sequence[QuestionGroup]) -> list[list[float]]:
        """Score every group's pairs in one ``score_pairs`` call, then slice
        the scores per group. A wrong total count is a ``ScoringError``, never
        a truncation."""
        pairs = [(g.question.text, c.text) for g in groups for c in g.candidates]
        scores = self.score_pairs(pairs)
        if len(scores) != len(pairs):
            raise ScoringError(f"scorer returned {len(scores)} scores for {len(pairs)} pairs")
        rest = iter(scores)
        return [list(islice(rest, len(g.candidates))) for g in groups]


class LexicalScorer(TextPairScorer):
    """Tf-idf cosine over an idf table built from ``texts``, the texts it
    ranks. Texts are read through a term index, keyed by term id: ``index``
    when given (the scorers of one run share one), else one of its own."""

    def __init__(self, texts: Iterable[str], index: TermIndex | None = None) -> None:
        self.index = TermIndex() if index is None else index
        self.idf_table = IdfTable.from_texts(texts, self.index)

    def _vector(self, n: int) -> tuple[dict[int, float], float]:
        v = self.idf_table.vector_of(*self.index.terms(n))
        return v, vector_norm(v.values())

    def score_pairs(self, pairs: Sequence[tuple[str, str]]) -> list[float]:
        """Each distinct text is vectorized once per call: the questions up
        front, and each candidate text as the pairs are taken in the order of
        the candidate texts' numbers. The order is walked from a flat array,
        not a list, to keep the call's memory small."""
        qs = self.index.numbers(q for q, _ in pairs)
        ts = self.index.numbers(t for _, t in pairs)
        questions = {n: self._vector(n) for n in set(qs)}
        out = [0.0] * len(pairs)
        last = None
        for i in memoryview(np.argsort(ts)):
            if ts[i] != last:
                last = ts[i]
                tv = self._vector(last)
            out[i] = cosine(*questions[qs[i]], *tv)
        return out


class StaticScorer(Scorer):
    """Scores looked up from a (question id, candidate id) table."""

    def __init__(self, table: dict[tuple[str, str], float]) -> None:
        for key, score in table.items():
            if not 0.0 <= score <= 1.0:
                raise ScoringError(f"score for {key!r} outside [0, 1]: {score}")
        self.table = dict(table)

    @classmethod
    def from_jsonl(cls, path: str | Path) -> "StaticScorer":
        """Load a JSONL file of ``{"qid":str,"cid":str,"score":float}`` records."""
        return cls(read_table(path, "score", ("qid", "cid"), "score", SCORE))

    def score_groups(self, groups: Sequence[QuestionGroup]) -> list[list[float]]:
        try:
            return [[self.table[g.question.id, c.id] for c in g.candidates] for g in groups]
        except KeyError as exc:
            raise ScoringError(f"no static score for question/candidate {exc.args[0]!r}") from None


class RemoteScorer(TextPairScorer):
    """HTTP client for the scoring protocol.

    Request: ``{"max_seq_len":int,"pairs":[{"q":str,"t":str},...]}``;
    response: ``{"scores":[float,...]}`` with status 200. Pairs are sent in
    chunks of ``batch_size``; responses are validated (count, JSON number,
    range) and reassembled in input order — a short response is an error,
    never a silent truncation.
    """

    def __init__(
        self,
        endpoint: str,
        *,
        max_seq_len: int = 128,
        batch_size: int = 128,
        session: requests.Session | None = None,
    ) -> None:
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.endpoint = endpoint
        self.max_seq_len = max_seq_len
        self.batch_size = batch_size
        self._session = session or requests.Session()

    def score_pairs(self, pairs: Sequence[tuple[str, str]]) -> list[float]:
        out: list[float] = []
        for start in range(0, len(pairs), self.batch_size):
            out.extend(self._send(pairs[start : start + self.batch_size]))
        return out

    def _send(self, pairs: Sequence[tuple[str, str]]) -> list[float]:
        body = post_json(
            self._session,
            self.endpoint,
            {"max_seq_len": self.max_seq_len, "pairs": [{"q": q, "t": t} for q, t in pairs]},
            error=ScoringError,
            service="scorer",
        )
        scores = body.get("scores")
        if not isinstance(scores, list) or not all(map(SCORE.test, scores)):
            raise ScoringError(
                f"scorer returned no scores, a non-number or a score outside [0, 1]: "
                f"{reprlib.repr(scores)}"
            )
        if len(scores) != len(pairs):
            raise ScoringError(f"scorer returned {len(scores)} scores for {len(pairs)} pairs")
        return [float(s) for s in scores]


# ---------------------------------------------------------------------------
# linear classification head
# ---------------------------------------------------------------------------

class LinearHead:
    """Linear layer over a d-dimensional embedding; the positive class sits at
    index 1 of the softmax output."""

    def __init__(self, weights, bias) -> None:
        w = np.asarray(weights, dtype=float)
        b = np.asarray(bias, dtype=float)
        if w.ndim != 2 or b.ndim != 1 or w.shape[1] != b.shape[0]:
            raise ValueError(
                f"weights must be d x k and bias length k, got {w.shape} and {b.shape}"
            )
        if b.shape[0] < 2:
            raise ValueError(f"need at least 2 classes, got {b.shape[0]}")
        if not (np.isfinite(w).all() and np.isfinite(b).all()):
            raise ValueError("head parameters must be finite")
        self.weights = w
        self.bias = b

    @property
    def input_dim(self) -> int:
        return self.weights.shape[0]

    @property
    def num_classes(self) -> int:
        return self.weights.shape[1]


def linear_head_apply(x, head: LinearHead) -> float:
    """Probability of the positive class for one embedding: softmax(Wᵀx + b)[1]."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1 or v.shape[0] != head.input_dim:
        raise ValueError(
            f"dimension mismatch: embedding has shape {v.shape}, head expects ({head.input_dim},)"
        )
    if not np.isfinite(v).all():
        raise ValueError("embedding must be finite")
    z = head.weights.T @ v + head.bias
    z = z - z.max()
    p = np.exp(z)
    p = p / p.sum()
    if not np.isfinite(p).all():
        raise ValueError("softmax produced non-finite probabilities")
    return float(p[1])


# ---------------------------------------------------------------------------
# ranking
# ---------------------------------------------------------------------------

def order(ids: Sequence[str], scores: Sequence[float]) -> list[tuple[str, float]]:
    """Pair candidate ids with their scores, best first; ties break by id
    ascending, so the result is deterministic and permutation-invariant."""
    if len(scores) != len(ids):
        raise ScoringError(f"scorer returned {len(scores)} scores for {len(ids)} candidates")
    return sorted(zip(ids, map(float, scores)), key=lambda item: (-item[1], item[0]))


def rank(groups: Sequence[QuestionGroup], scorer: Scorer) -> list[list[tuple[str, float]]]:
    """Score every group in one ``score_groups`` call and ``order`` each
    group's candidates; a group without candidates ranks as ``[]``."""
    scores = scorer.score_groups(groups)
    if len(scores) != len(groups):
        raise ScoringError(f"scorer returned scores for {len(scores)} groups, not {len(groups)}")
    return [order([c.id for c in g.candidates], s) for g, s in zip(groups, scores)]
