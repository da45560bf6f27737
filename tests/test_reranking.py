import json
import math
import random
from collections import Counter
from itertools import chain, groupby

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    idf,
    left_to_right_sum,
    make_candidate,
    make_group,
    make_question,
    per_pair_lexical_score,
    rank_one,
)
from mlas2 import reranking
from mlas2.dataset import QuestionGroup
from mlas2.experiment import ScorerSpec, build_scorer
from mlas2.reranking import (
    IdfTable,
    LexicalScorer,
    LinearHead,
    TermIndex,
    linear_head_apply,
    tokenize,
)
from mlas2.scoring import (
    RemoteScorer,
    Scorer,
    ScoringError,
    StaticScorer,
    order,
    rank,
)


def brute_force_tfidf_cosine(q_text, t_text, corpus_texts):
    """Independent oracle: recompute smoothed tf-idf cosine from first principles."""
    docs = [tokenize(t) for t in corpus_texts]
    n = len(docs)

    def idf(word):
        df = sum(1 for doc in docs if word in doc)
        return math.log((n + 1) / (df + 1)) + 1

    def vec(text):
        toks = tokenize(text)
        return {w: toks.count(w) * idf(w) for w in set(toks)}

    u, v = vec(q_text), vec(t_text)
    dot = left_to_right_sum(u[w] * v[w] for w in set(u) & set(v))
    nu = math.sqrt(left_to_right_sum(x * x for x in u.values()))
    nv = math.sqrt(left_to_right_sum(x * x for x in v.values()))
    return 0.0 if nu == 0 or nv == 0 else dot / (nu * nv)


def lexical_score(q_text, t_text, texts):
    """One pair's score from a ``LexicalScorer`` over ``texts``."""
    return LexicalScorer(texts).score_pairs([(q_text, t_text)])[0]


# ---------------------------------------------------------------------------
# tokenization and lexical scoring
# ---------------------------------------------------------------------------

def test_tokenize():
    assert tokenize("Hello, World! 42") == ["hello", "world", "42"]
    assert tokenize("de:was de:ist") == ["de", "was", "de", "ist"]
    assert tokenize("__ --- !!") == []


def test_lexical_score_three_doc_corpus():
    corpus = ["a b", "a c", "d"]
    got = lexical_score("a b", "a c", corpus)
    oracle = brute_force_tfidf_cosine("a b", "a c", corpus)
    assert got == pytest.approx(oracle, abs=1e-12)
    # frozen oracle value: (ln(4/3)+1)^2 / ((ln(4/3)+1)^2 + (ln2+1)^2)
    assert got == pytest.approx(0.366446816266513, abs=1e-12)


def test_lexical_score_identical_and_disjoint():
    corpus = ["x y z", "p q"]
    assert lexical_score("x y z", "x y z", corpus) == pytest.approx(1.0, abs=1e-12)
    assert lexical_score("x y", "p q", corpus) == 0.0
    assert lexical_score("", "x", corpus) == 0.0


def test_identical_texts_score_exactly_one():
    # sqrt(3) ** 2 < 3, so the unclamped cosine of this text with itself is
    # 1.0000000000000002
    assert per_pair_lexical_score("a b c", "a b c", ["a b c"]) > 1.0
    assert LexicalScorer(["a b c"]).score_pairs([("a b c", "a b c")]) == [1.0]


_words = st.lists(st.sampled_from(["a", "b", "cc", "d", "ee", "f", "gg"]), max_size=8).map(
    " ".join
)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(_words, max_size=6),
    st.lists(_words, min_size=1, max_size=3),
    st.lists(st.tuples(st.integers(0, 2), _words, st.booleans()), max_size=25),
)
def test_score_pairs_equals_per_pair_formula(corpus, questions, picks):
    """Batches that repeat question texts (and hold self-pairs) score exactly
    as the per-pair formula does, clamped to 1."""
    pairs = []
    for i, text, self_pair in picks:
        q = questions[i % len(questions)]
        pairs.append((q, q if self_pair else text))
    expected = [min(1.0, per_pair_lexical_score(q, t, corpus)) for q, t in pairs]
    assert LexicalScorer(corpus).score_pairs(pairs) == expected
    assert [lexical_score(q, t, corpus) for q, t in pairs] == expected


# tie-heavy unicode: final and capital sigma, a dotted capital I that lowers
# to two code points, underscores (not token characters), digits and repeats
_unicode_words = st.sampled_from(
    ["Σ", "σς", "ΣΑΣ", "İ", "i", "x_y", "_", "42", "4", "ab", "AB", "ab ab", "zq"]
)
_unicode_texts = st.lists(_unicode_words, max_size=5).map(" ".join)


@st.composite
def _scored_datasets(draw):
    """Candidate texts with repeats, and pairs over them whose questions may
    hold terms no candidate holds."""
    pool = draw(st.lists(_unicode_texts, min_size=1, max_size=5))
    texts = draw(st.lists(st.sampled_from(pool), max_size=8))
    questions = draw(st.lists(_unicode_texts, min_size=1, max_size=3))
    pair = st.tuples(st.sampled_from(questions), st.sampled_from(pool))
    pairs = draw(st.lists(pair, max_size=10))
    return texts, pairs


def _text_path(texts, pairs):
    return [min(1.0, per_pair_lexical_score(q, t, texts)) for q, t in pairs]


@settings(max_examples=150, deadline=None)
@given(_scored_datasets())
def test_term_index_scores_equal_the_text_path(dataset):
    texts, pairs = dataset
    assert LexicalScorer(texts).score_pairs(pairs) == _text_path(texts, pairs)


@settings(max_examples=80, deadline=None)
@given(st.lists(_scored_datasets(), min_size=2, max_size=4), st.booleans())
def test_scorers_sharing_one_term_index_equal_the_text_path(datasets, build_first):
    """Scored in either order, and with every scorer built before any scores
    (so the index grows after an idf table is built) or each built as it
    scores."""
    for ordered in (datasets, datasets[::-1]):
        index = TermIndex()
        expected = [_text_path(texts, pairs) for texts, pairs in ordered]
        if build_first:
            scorers = [LexicalScorer(texts, index) for texts, _ in ordered]
            got = [s.score_pairs(pairs) for s, (_, pairs) in zip(scorers, ordered)]
        else:
            got = [LexicalScorer(texts, index).score_pairs(pairs) for texts, pairs in ordered]
        assert got == expected


def _entries(index, n):
    """Text ``n``'s term ids and their counts."""
    _, terms, counts = index.entries(np.array([n]))
    return terms.tolist(), counts.tolist()


def test_term_index_tokenizes_each_distinct_text_once():
    index = TermIndex()
    assert list(index.numbers(["b a b", "c", "b a b"])) == [0, 1, 0]
    assert list(index.numbers(["c"])) == [1]
    assert index.term_ids == {"b": 0, "a": 1, "c": 2}
    assert _entries(index, 0) == ([0, 1], [2, 1])
    # each text counts as often as it is given
    assert IdfTable.from_texts(["b a b", "c", "b a b"], index).df.tolist() == [2, 2, 1]


def _numbered_per_text(batches):
    """Reference: each batch's numbers, the term ids and the flat columns,
    with every text numbered, tokenized and counted on its own, in order."""
    term_ids, numbers = {}, {}
    first, terms, counts = [0], [], []
    got = []
    for batch in batches:
        for text in batch:
            if text not in numbers:
                numbers[text] = len(numbers)
                for term, tf in Counter(tokenize(text)).items():
                    terms.append(term_ids.setdefault(term, len(term_ids)))
                    counts.append(tf)
                first.append(len(terms))
        got.append([numbers[text] for text in batch])
    return got, term_ids, (first, terms, counts)


# few distinct texts, so batches repeat them; "" and "_ ." have no token
_NUMBERED_TEXT = st.sampled_from(["", "_ .", "b a b", "a", "ΟΔΟΣ ς", "Σσ ς", "İ i", "ß SS", "x_1 x"])


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(_NUMBERED_TEXT | st.text(max_size=6), max_size=12), max_size=3))
@example([["", "b a b", "", "_ .", "b a b"], ["a", "b a b", "ΟΔΟΣ ς"]])
def test_numbers_equal_a_per_text_loop(batches):
    """Numbered in one or more calls, whatever the chunk: the same numbers,
    term ids and columns as numbering each text on its own."""
    expected_numbers, expected_ids, expected_columns = _numbered_per_text(batches)
    for size in (1, 2, 3, reranking._CHUNK_NUMBERED):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(reranking, "_CHUNK_NUMBERED", size)
            index = TermIndex()
            got = [index.numbers(iter(batch)).tolist() for batch in batches]
        assert got == expected_numbers
        assert list(index.term_ids.items()) == list(expected_ids.items())
        assert tuple(column.tolist() for column in index.entries()) == expected_columns


def test_idf_unseen_term_uses_zero_df():
    index = TermIndex()
    table = IdfTable.from_texts(["a", "b", "c"], index)
    # a term numbered after the table was built is unseen to it
    unseen = index.term_ids.setdefault("zzz", len(index.term_ids))
    assert table.idf(unseen) == pytest.approx(math.log(4.0) + 1.0)
    assert table.weights([unseen, 0], [2, 1]).tolist() == [2 * table.idf(unseen), table.idf(0)]


def test_idf_takes_math_log_of_each_df():
    # np.log rounds ln(21 / 20) one ulp apart from math.log
    table = IdfTable.from_texts(["a b"] * 19 + ["b"], TermIndex())
    assert table.df.tolist() == [19, 20]
    assert [table.idf(0), table.idf(1)] == [idf(19, 20), idf(20, 20)]


@settings(max_examples=60, deadline=None)
@given(st.text(alphabet="ab cd", max_size=30), st.text(alphabet="ab cd", max_size=30))
def test_lexical_score_symmetric(a, b):
    corpus = ["a b", "c d", "a c"]
    assert lexical_score(a, b, corpus) == pytest.approx(lexical_score(b, a, corpus), abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.text(alphabet="abcd ", max_size=30), st.text(alphabet="abcd ", max_size=30))
def test_lexical_score_in_unit_interval(a, b):
    s = lexical_score(a, b, ["a b", "c d"])
    assert 0.0 <= s <= 1.0


# ---------------------------------------------------------------------------
# linear head
# ---------------------------------------------------------------------------

def test_head_uniform_when_zero():
    head = LinearHead(np.zeros((3, 2)), np.zeros(2))
    assert linear_head_apply([1.0, 2.0, 3.0], head) == 0.5


def test_head_analytic_bias():
    head = LinearHead(np.zeros((2, 2)), [0.0, math.log(3.0)])
    assert linear_head_apply([5.0, -1.0], head) == pytest.approx(0.75, abs=1e-12)


def test_head_hand_computed_logits():
    # columns (1,0) and (0,1): z = x, score = 1 / (1 + e^2) for x = (1, -1)
    head = LinearHead([[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0])
    got = linear_head_apply([1.0, -1.0], head)
    assert got == pytest.approx(1.0 / (1.0 + math.exp(2.0)), abs=1e-15)
    assert got == pytest.approx(0.11920292202211755, abs=1e-15)


def test_head_dimension_mismatch():
    head = LinearHead(np.zeros((3, 2)), np.zeros(2))
    with pytest.raises(ValueError, match="dimension mismatch"):
        linear_head_apply([1.0, 2.0], head)


def test_head_rejects_bad_parameters():
    with pytest.raises(ValueError, match="classes"):
        LinearHead(np.zeros((3, 1)), np.zeros(1))
    with pytest.raises(ValueError, match="finite"):
        LinearHead(np.full((2, 2), np.nan), np.zeros(2))
    head = LinearHead(np.zeros((2, 2)), np.zeros(2))
    with pytest.raises(ValueError, match="finite"):
        linear_head_apply([np.inf, 0.0], head)


def test_head_shift_invariance():
    head_a = LinearHead(np.zeros((2, 2)), [0.0, 0.4])
    head_b = LinearHead(np.zeros((2, 2)), [7.0, 7.4])
    x = [0.3, -0.2]
    assert linear_head_apply(x, head_a) == pytest.approx(linear_head_apply(x, head_b), abs=1e-12)


def test_head_more_classes():
    head = LinearHead(np.zeros((2, 3)), [0.0, 0.0, 0.0])
    assert linear_head_apply([1.0, 1.0], head) == pytest.approx(1.0 / 3.0)


# ---------------------------------------------------------------------------
# static scorer
# ---------------------------------------------------------------------------

def test_static_scorer_lookup_and_errors(tmp_path):
    path = tmp_path / "scores.jsonl"
    rows = [
        {"qid": "q1", "cid": "c1", "score": 0.9},
        {"qid": "q1", "cid": "c2", "score": 0.1},
    ]
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    scorer = StaticScorer.from_jsonl(path)
    q = make_question("q1", "question")
    cands = [make_candidate("c1", "a", 1), make_candidate("c2", "b", 0)]
    assert scorer.score_groups([QuestionGroup(q, tuple(cands))]) == [[0.9, 0.1]]
    with pytest.raises(ScoringError, match="no static score"):
        scorer.score_groups([QuestionGroup(q, (make_candidate("c3", "c", 0),))])


def test_static_scorer_rejects_out_of_range():
    with pytest.raises(ScoringError, match="outside"):
        StaticScorer({("q1", "c1"): 1.5})


# ---------------------------------------------------------------------------
# rank
# ---------------------------------------------------------------------------

class FixedScorer(Scorer):
    def __init__(self, table):
        self.table = dict(table)

    def score_groups(self, groups):
        return [[self.table[c.id] for c in g.candidates] for g in groups]


def _cands(ids):
    return [make_candidate(cid, f"text {cid}", 0) for cid in ids]


def test_rank_orders_by_score():
    q = make_question("q1", "question")
    ranked = rank_one(q, _cands(["c1", "c2", "c3"]), FixedScorer({"c1": 0.2, "c2": 0.9, "c3": 0.5}))
    assert [cid for cid, _ in ranked] == ["c2", "c3", "c1"]


def test_rank_breaks_ties_by_id():
    q = make_question("q1", "question")
    ranked = rank_one(q, _cands(["c3", "c1", "c2"]), FixedScorer({"c1": 0.5, "c2": 0.5, "c3": 0.5}))
    assert [cid for cid, _ in ranked] == ["c1", "c2", "c3"]


def test_rank_permutation_invariant():
    q = make_question("q1", "question")
    scorer = FixedScorer({f"c{i}": (i * 37 % 11) / 11 for i in range(8)})
    cands = _cands([f"c{i}" for i in range(8)])
    baseline = rank_one(q, cands, scorer)
    rng = random.Random(7)
    for _ in range(25):
        shuffled = cands[:]
        rng.shuffle(shuffled)
        assert rank_one(q, shuffled, scorer) == baseline


def test_rank_monotone_transform_invariant():
    q = make_question("q1", "question")
    table = {f"c{i}": (i * 37 % 11) / 11 for i in range(8)}
    cands = _cands(list(table))
    base_order = [cid for cid, _ in rank_one(q, cands, FixedScorer(table))]
    for transform in (lambda s: s**3, lambda s: 0.2 + 0.6 * s, lambda s: math.tanh(2 * s)):
        warped = {cid: transform(s) for cid, s in table.items()}
        order = [cid for cid, _ in rank_one(q, cands, FixedScorer(warped))]
        assert order == base_order


def test_order_sorts_by_score_then_id():
    assert order(["c2", "c10", "c1"], [0.5, 0.5, 0.9]) == [("c1", 0.9), ("c10", 0.5), ("c2", 0.5)]
    assert order([], []) == []
    with pytest.raises(ScoringError, match="returned 1 scores for 2 candidates"):
        order(["c1", "c2"], [0.5])


def test_rank_rejects_empty_and_bad_scorer():
    q = make_question("q1", "question")
    # a group without candidates ranks as an empty list
    assert rank_one(q, [], FixedScorer({})) == []
    assert rank([], FixedScorer({})) == []

    class ShortScorer(Scorer):
        def score_groups(self, groups):
            return [[0.5] for _ in groups]

    with pytest.raises(ScoringError, match="scores"):
        rank_one(q, _cands(["c1", "c2"]), ShortScorer())


def length_scores(pairs):
    return [len(q) / (len(q) + len(t)) for q, t in pairs]


class RecordingRemoteScorer(RemoteScorer):
    """A remote client whose wire call scores a pair by its texts' lengths
    and records every call's pairs; ``drop`` scores that many pairs fewer
    than it is given. It never opens a connection."""

    def __init__(self, drop=0):
        super().__init__("http://127.0.0.1:9/score")
        self.calls = []
        self.drop = drop

    def score_pairs(self, pairs):
        self.calls.append(list(pairs))
        return length_scores(pairs[self.drop:])


def pair_groups(pairs):
    """``pairs`` as question groups, one per run of one question text, with
    ids unique across the call."""
    runs = [(q, [t for _, t in run]) for q, run in groupby(pairs, key=lambda p: p[0])]
    return [
        make_group(f"q{i}", q, [(t, None) for t in texts]) for i, (q, texts) in enumerate(runs)
    ]


def test_remote_scorer_sends_each_distinct_pair_once():
    remote = RecordingRemoteScorer()
    first = [("q", "b"), ("q", "a"), ("q", "b"), ("qq", "a")]
    second = [("qq", "a"), ("q", "cc"), ("q", "a"), ("q", "cc")]
    for pairs in (first, second, first + second, []):
        scores = remote.score_groups(pair_groups(pairs))
        assert list(chain.from_iterable(scores)) == length_scores(pairs)
    # only the pairs no earlier call had, each once, in first-seen order; a
    # call without such pairs sends nothing
    assert remote.calls == [[("q", "b"), ("q", "a"), ("qq", "a")], [("q", "cc")]]


def test_remote_scorer_short_reply_is_an_error_never_truncation():
    remote = RecordingRemoteScorer(drop=1)
    with pytest.raises(ScoringError, match="returned 1 scores for 2 pairs"):
        remote.score_groups(pair_groups([("q", "a"), ("q", "b"), ("q", "a")]))


def test_lexical_scorer_from_dataset(tiny_dataset):
    scorer = build_scorer(ScorerSpec("lexical"), max_seq_len=128)(tiny_dataset.candidate_texts())
    group = tiny_dataset.groups[1]
    ranked = rank_one(group.question, group.candidates, scorer)
    assert len(ranked) == 3
    assert ranked[0][1] >= ranked[-1][1]
    # "a spider has eight legs" shares the most tokens with the question;
    # "spiders are eight legged" shares none and lands last
    assert ranked[0][0] == "q2c0"
    assert ranked[-1][0] == "q2c1"
