import math
from collections import Counter

import pytest
from hypothesis import strategies as st

from mlas2.dataset import AnswerCandidate, Dataset, Question, QuestionGroup
from mlas2.reranking import tokenize
from mlas2.scoring import TextPairScorer, rank


def make_question(qid: str, text: str, lang: str = "en") -> Question:
    return Question(id=qid, origin_id=qid, text=text, provenance=(lang,))


def make_candidate(cid: str, text: str, label: int | None, lang: str = "en") -> AnswerCandidate:
    return AnswerCandidate(id=cid, origin_id=cid, text=text, label=label, provenance=(lang,))


def make_group(qid: str, q_text: str, labeled_texts, lang: str = "en") -> QuestionGroup:
    cands = tuple(
        make_candidate(f"{qid}c{i}", text, label, lang)
        for i, (text, label) in enumerate(labeled_texts)
    )
    return QuestionGroup(make_question(qid, q_text, lang), cands)


def make_dataset(groups, name: str = "En", split: str = "train") -> Dataset:
    return Dataset(name, split, tuple(groups))


@pytest.fixture
def tiny_dataset() -> Dataset:
    """Two questions with candidate labels [1, 0] and [1, 1, 0]."""
    return make_dataset(
        [
            make_group("q1", "what color is the sky", [("the sky is blue", 1), ("grass is green", 0)]),
            make_group(
                "q2",
                "how many legs has a spider",
                [
                    ("a spider has eight legs", 1),
                    ("spiders are eight legged", 1),
                    ("a dog has four legs", 0),
                ],
            ),
        ]
    )


def make_synthetic_dataset(
    num_questions: int = 50, cands_per_question: int = 4, lang: str = "en"
) -> Dataset:
    """Deterministic fixture: every question gets one positive candidate."""
    groups = []
    for i in range(num_questions):
        labeled = [(f"answer {i} variant {j} token{j}", 1 if j == 0 else 0) for j in range(cands_per_question)]
        groups.append(make_group(f"q{i:03d}", f"question number {i} about topic{i}", labeled, lang))
    return make_dataset(groups, name="En", split="train")


def rank_one(q: Question, cands, scorer) -> list[tuple[str, float]]:
    """``rank`` of one question's candidates."""
    return rank([QuestionGroup(q, tuple(cands))], scorer)[0]


def tie_table(d: Dataset) -> dict[tuple[str, str], float]:
    """A static score for every (question id, candidate id) pair of ``d``;
    three distinct scores, so most rankings hold ties."""
    return {(g.question.id, c.id): len(c.text) % 3 / 2 for g in d.groups for c in g.candidates}


class CountingTieScorer(TextPairScorer):
    """Text-pair scorer with three distinct scores, so most rankings hold
    ties; it counts its ``score_pairs`` calls and the pairs they carried."""

    def __init__(self) -> None:
        self.calls = 0
        self.pairs = 0

    def score_pairs(self, pairs):
        self.calls += 1
        self.pairs += len(pairs)
        return [(len(q) + len(t)) % 3 / 2 for q, t in pairs]


# a small vocabulary, so question texts repeat across groups and scores tie
_texts = st.lists(
    st.sampled_from(["sky", "blue", "cat", "sun", "star", "legs"]), min_size=1, max_size=3
).map(" ".join)


@st.composite
def tie_heavy_datasets(draw) -> Dataset:
    """Datasets of 1-6 groups of 1-5 candidates with random labels; some
    groups are unanswerable."""
    groups = []
    for i in range(draw(st.integers(1, 6))):
        labeled = draw(st.lists(st.tuples(_texts, st.sampled_from([0, 1])), min_size=1, max_size=5))
        groups.append(make_group(f"q{i}", draw(_texts), labeled))
    return make_dataset(groups)


def left_to_right_sum(values) -> float:
    """Floats added one by one, in order: Python 3.12's ``sum()`` is
    compensated, so references never call it on floats."""
    total = 0.0
    for x in values:
        total += x
    return total


def idf(df: int, num_docs: int) -> float:
    """Smoothed idf of a term held by ``df`` of ``num_docs`` texts."""
    return math.log((num_docs + 1) / (df + 1)) + 1.0


def norm(weights) -> float:
    """A vector's norm: its weights squared as ``w * w``, added left to right."""
    return math.sqrt(left_to_right_sum(w * w for w in weights))


def per_pair_lexical_score(q_text: str, t_text: str, texts) -> float:
    """Reference: the tf-idf cosine of one pair over the idf table of
    ``texts``, each text one document, computed from the texts alone,
    without the [0, 1] clamp. Each vector holds ``tf * idf`` in its text's
    first-occurrence order; the dot adds ``q_weight * t_weight`` over the
    shared terms in the question's order."""
    df = Counter(term for text in texts for term in set(tokenize(text)))

    def vector(text):
        counts = Counter(tokenize(text))
        return {term: tf * idf(df[term], len(texts)) for term, tf in counts.items()}

    u, v = vector(q_text), vector(t_text)
    nu, nv = norm(u.values()), norm(v.values())
    if nu == 0.0 or nv == 0.0:
        return 0.0
    dot = left_to_right_sum(x * v[t] for t, x in u.items() if t in v)
    return dot / (nu * nv)
