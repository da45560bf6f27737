"""The scoring protocol, and the backends that need no numpy.

Scorers assign each (question, candidate) pair a correctness probability in
[0, 1]. ``Scorer.score_groups`` is the one scoring protocol: it scores a
whole list of question groups per call, so a text-pair scorer sends every
group's pairs in one ``score_pairs`` call. ``order`` sorts candidate ids by
score with deterministic id tie-breaking, and ``rank`` scores a list of groups
in one call and orders each.
Backends here: a static score table, and an HTTP client for remote models that
keeps a memo of the pairs it has scored. The tf-idf lexical baseline
and the linear head live in ``mlas2.reranking``, the one scoring module that
imports numpy.
"""

from __future__ import annotations

import reprlib
from abc import ABC, abstractmethod
from itertools import islice
from pathlib import Path
from typing import Sequence

from mlas2.dataset import SCORE, QuestionGroup, read_table
from mlas2.wire import client_session, post_json


class ScoringError(RuntimeError):
    """A scorer backend failed or violated the scoring protocol."""


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

    ``score_pairs`` is the raw wire call. ``score_groups`` keeps a memo of
    every pair the client has scored, ``{q: {t: score}}``, for the client's
    lifetime, and sends each distinct pair once. That is sound because the
    protocol requires a server to score each pair by itself, independently
    of the other pairs in a request.
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
        self._session = client_session(endpoint, session)
        self._scores: dict[str, dict[str, float]] = {}

    def score_groups(self, groups: Sequence[QuestionGroup]) -> list[list[float]]:
        """Send the distinct pairs of ``groups`` that the memo lacks, in
        first-seen order and in one ``score_pairs`` call (none when every
        pair is known), and read each group's scores from the memo."""
        memo = self._scores
        fresh = list(dict.fromkeys(
            (g.question.text, c.text)
            for g in groups
            for c in g.candidates
            if c.text not in memo.get(g.question.text, ())
        ))
        if fresh:
            scores = self.score_pairs(fresh)
            if len(scores) != len(fresh):
                raise ScoringError(f"scorer returned {len(scores)} scores for {len(fresh)} pairs")
            for (q, t), score in zip(fresh, scores):
                memo.setdefault(q, {})[t] = score
        return [[memo[g.question.text][c.text] for c in g.candidates] for g in groups]

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
