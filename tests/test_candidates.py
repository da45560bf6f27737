import json
import math
import random
import re
from collections import Counter
from itertools import accumulate

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    idf,
    left_to_right_sum,
    make_candidate,
    make_question,
    norm,
    per_pair_lexical_score,
)
from mlas2 import candidates
from mlas2.candidates import (
    Document,
    DocumentCorpus,
    export_annotation_tasks,
    import_annotations,
    load_corpus,
    load_gold_labels,
    retrieve_documents,
    select_candidates,
    sentence_spans,
    split_sentences,
)
from mlas2.dataset import DatasetFormatError, QuestionGroup, stats, validate_dataset
from mlas2.reranking import IdfTable, LexicalScorer, TermIndex, tokenize
from mlas2.scoring import ScoringError, TextPairScorer, order


def linear_scan_postings(docs, term):
    out = []
    for doc in docs:
        tf = tokenize(doc.text).count(term)
        if tf:
            out.append((doc.id, tf))
    return sorted(out)


def brute_force_retrieval(query, docs, k):
    """Independent oracle: cosine between smoothed tf-idf vectors, ties by id."""
    n = len(docs)
    tokenized = {d.id: tokenize(d.text) for d in docs}

    def idf(term):
        df = sum(1 for toks in tokenized.values() if term in toks)
        return math.log((n + 1) / (df + 1)) + 1

    def vec(tokens):
        return {w: tokens.count(w) * idf(w) for w in set(tokens)}

    q_vec = vec(tokenize(query))
    q_norm = math.sqrt(left_to_right_sum(x * x for x in q_vec.values()))
    scored = []
    for d in docs:
        v = vec(tokenized[d.id])
        norm = math.sqrt(left_to_right_sum(x * x for x in v.values()))
        dot = left_to_right_sum(q_vec[w] * v[w] for w in set(q_vec) & set(v))
        score = dot / (q_norm * norm) if norm and dot else 0.0
        scored.append((d.id, score))
    scored.sort(key=lambda item: (-item[1], item[0]))
    return [doc_id for doc_id, _ in scored[:k]]


def full_sort_retrieval(query, corpus, k):
    """Reference: the retrieval the postings-only top-k replaced. It scores
    every document with the same float operations in the same order, then
    sorts them all."""

    def idf(term):
        return math.log((corpus.num_docs + 1) / (len(corpus.postings(term)) + 1)) + 1.0

    q_weights = {term: tf * idf(term) for term, tf in Counter(tokenize(query)).items()}
    q_norm = norm(q_weights.values())
    dots = {}
    for term, qw in q_weights.items():
        for doc_id, tf in corpus.postings(term):
            dots[doc_id] = dots.get(doc_id, 0.0) + qw * (tf * idf(term))
    scored = []
    for doc in corpus.documents:
        counts = Counter(tokenize(doc.text))
        d_norm = norm([tf * idf(term) for term, tf in counts.items()])
        dot = dots.get(doc.id, 0.0)
        score = dot / (q_norm * d_norm) if d_norm > 0.0 and dot != 0.0 else 0.0
        scored.append((doc.id, score))
    scored.sort(key=lambda item: (-item[1], item[0]))
    return [doc_id for doc_id, _ in scored[:k]]


# ---------------------------------------------------------------------------
# index
# ---------------------------------------------------------------------------

def test_postings_count_term_frequencies():
    corpus = DocumentCorpus([Document("d1", "a b a")])
    assert corpus.postings("a") == [("d1", 2)]
    assert corpus.postings("b") == [("d1", 1)]
    assert corpus.postings("zzz") == []


def test_empty_corpus():
    corpus = DocumentCorpus([])
    assert corpus.num_docs == 0
    assert corpus.postings("a") == []


def test_duplicate_doc_id_rejected(tmp_path):
    with pytest.raises(ValueError, match="duplicate document id"):
        DocumentCorpus([Document("d1", "a"), Document("d1", "b")])
    # a corpus file names the second record's line
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"id": "d1", "text": "a"}\n\n{"id": "d1", "text": "b"}\n')
    with pytest.raises(DatasetFormatError) as exc:
        load_corpus(path)
    assert str(exc.value) == f"{path}:3: duplicate corpus record for 'd1'"


def test_postings_match_linear_scan_oracle():
    rng = random.Random(42)
    vocab = [f"w{i}" for i in range(30)]
    docs = [
        Document(f"d{i:03d}", " ".join(rng.choice(vocab) for _ in range(rng.randint(1, 40))))
        for i in range(100)
    ]
    corpus = DocumentCorpus(docs)
    for term in rng.sample(vocab, 25) + ["unseen", "w0"]:
        assert corpus.postings(term) == linear_scan_postings(docs, term)


# ---------------------------------------------------------------------------
# retrieval
# ---------------------------------------------------------------------------

def test_query_equal_to_document_ranks_it_first():
    corpus = DocumentCorpus(
        [
            Document("d1", "apples grow on trees"),
            Document("d2", "the moon orbits the earth"),
            Document("d3", "rivers flow to the sea"),
        ]
    )
    assert retrieve_documents("the moon orbits the earth", corpus, 3)[0] == "d2"


def test_k_larger_than_corpus_returns_all():
    corpus = DocumentCorpus([Document("d1", "a"), Document("d2", "b")])
    assert retrieve_documents("a", corpus, 10) == ["d1", "d2"]


def test_retrieval_matches_brute_force_oracle():
    docs = [Document("d1", "a b"), Document("d2", "a c"), Document("d3", "d")]
    corpus = DocumentCorpus(docs)
    assert retrieve_documents("a b", corpus, 3) == brute_force_retrieval("a b", docs, 3)

    rng = random.Random(11)
    vocab = [f"w{i}" for i in range(12)]
    docs = [
        Document(f"d{i:02d}", " ".join(rng.choice(vocab) for _ in range(rng.randint(2, 15))))
        for i in range(25)
    ]
    corpus = DocumentCorpus(docs)
    for _ in range(10):
        query = " ".join(rng.choice(vocab) for _ in range(rng.randint(1, 4)))
        assert retrieve_documents(query, corpus, 25) == brute_force_retrieval(query, docs, 25)


_doc_text = st.lists(st.sampled_from(["a", "b", "cc", "d", "ee", "f"]), max_size=12).map(
    " ".join
)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(_doc_text, max_size=20),
    st.lists(st.sampled_from(["a", "b", "cc", "zz"]), min_size=1, max_size=4).map(" ".join),
    st.randoms(use_true_random=False),
)
# identical documents tie across k (k at the match count and one less): a
# top-k that keeps only the scores above the k-th best drops the tie and
# fills with documents that match nothing
@example(["a", "a b", "cc", "a b", "a b"], "a", random.Random(0))
@example(["a b", "a", "b a", "a", "cc", "a b", "a"], "a b", random.Random(1))
def test_top_k_equals_full_sort(texts, query, rng):
    """k below, at and above the number of matching documents, with ids that
    are not in corpus order, gives exactly the full sort's list."""
    ids = [f"d{i:02d}" for i in range(len(texts))]
    rng.shuffle(ids)
    corpus = DocumentCorpus([Document(i, t) for i, t in zip(ids, texts)])
    q_terms = set(tokenize(query))
    matching = sum(1 for t in texts if q_terms & set(tokenize(t)))
    for k in sorted({1, max(1, matching - 1), max(1, matching), matching + 1, len(texts) + 2}):
        assert retrieve_documents(query, corpus, k) == full_sort_retrieval(query, corpus, k)


def test_empty_query_rejected():
    corpus = DocumentCorpus([Document("d1", "a")])
    with pytest.raises(ValueError, match="no tokens"):
        retrieve_documents("!!!", corpus, 1)


# ---------------------------------------------------------------------------
# sentence splitting
# ---------------------------------------------------------------------------

def test_split_sentences_examples():
    assert split_sentences("A b. C d?") == ["A b.", "C d?"]
    assert split_sentences("") == []
    assert split_sentences("no terminal punctuation") == ["no terminal punctuation"]
    assert split_sentences("One! Two? Three.") == ["One!", "Two?", "Three."]
    assert split_sentences("Ends mid. trailing words") == ["Ends mid.", "trailing words"]


def test_split_keeps_non_boundary_periods():
    # '.' not followed by whitespace is not a boundary (e.g. decimals)
    assert split_sentences("Pi is 3.14 roughly. Yes.") == ["Pi is 3.14 roughly.", "Yes."]


def test_split_collapses_punctuation_runs():
    assert split_sentences("What?! Sure.") == ["What?!", "Sure."]


@settings(max_examples=100, deadline=None)
@given(st.text(alphabet="ab .!?\n", max_size=60))
def test_spans_recover_sentences(text):
    spans = sentence_spans(text)
    sentences = split_sentences(text)
    assert [text[s:e] for s, e in spans] == sentences
    for s, e in spans:
        assert s < e
        assert not text[s].isspace() and not text[e - 1].isspace()


def loop_sentence_spans(text):
    """Reference splitter: cut after each run of '.', '!' or '?' followed by
    whitespace or the end, then strip each segment with ``str.isspace``."""
    spans = []
    start = 0
    boundaries = [m.end() for m in re.finditer(r"[.!?]+(?=\s|$)", text)]
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


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="ab .!?\t\n\x1cΣİ", max_size=40))
@example("a. ! b")
@example("a.\n")
@example("...")
@example("\x1c")
@example("x y. z")
@example("..x.!? y")
def test_sentence_spans_equal_the_loop_reference(text):
    assert sentence_spans(text) == loop_sentence_spans(text)


# ---------------------------------------------------------------------------
# candidate selection
# ---------------------------------------------------------------------------

TOY_DOCS = [
    {"id": "d1", "text": "Cats chase mice. Cats sleep all day. Dogs chase cats."},
    {"id": "d2", "text": "The sun is a star. Stars shine at night."},
    {"id": "d3", "text": "Cats chase mice. Mice eat cheese."},
]


def _scorer(corpus):
    sentences = [s for doc in corpus.documents for s in split_sentences(doc.text)]
    return LexicalScorer(sentences)


def test_select_returns_whole_pool_when_small():
    corpus = DocumentCorpus([Document(**d) for d in TOY_DOCS])
    q = make_question("q1", "what do cats chase")
    cands = select_candidates(q, corpus, _scorer(corpus), k_docs=3, k_sents=100)
    assert len(cands) == 7  # every sentence of every document
    assert all(c.label is None for c in cands)
    assert all(c.provenance == ("en",) for c in cands)  # the question's language


def test_select_keeps_duplicate_sentences_distinct():
    corpus = DocumentCorpus([Document(**d) for d in TOY_DOCS])
    q = make_question("q1", "what do cats chase")
    cands = select_candidates(q, corpus, _scorer(corpus), k_docs=3, k_sents=100)
    dupes = [c for c in cands if c.text == "Cats chase mice."]
    assert len(dupes) == 2
    assert {c.id for c in dupes} == {"d1:0", "d3:0"}


# a small vocabulary, so sentences repeat and scores tie often
_WORD = st.sampled_from(["cats", "chase", "mice", "sun", "star"])
_SENTENCE = st.lists(_WORD, min_size=1, max_size=3).map(lambda ws: " ".join(ws) + ".")
_DOC = st.lists(_SENTENCE, min_size=1, max_size=12).map(" ".join)


@settings(max_examples=80, deadline=None)
@given(
    texts=st.lists(_DOC, min_size=1, max_size=4),
    query=st.lists(_WORD, min_size=1, max_size=3).map(" ".join),
    k_docs=st.integers(1, 4),
    k_sents=st.integers(1, 30),
)
@example(
    texts=[d["text"] for d in TOY_DOCS], query="what do cats chase", k_docs=3, k_sents=4
)
def test_select_matches_score_and_sort_oracle(texts, query, k_docs, k_sents):
    corpus = DocumentCorpus([Document(f"d{i}", t) for i, t in enumerate(texts, start=1)])
    scorer = _scorer(corpus)
    q = make_question("q1", query)
    got = select_candidates(q, corpus, scorer, k_docs=k_docs, k_sents=k_sents)

    # score a record for every pooled sentence, sort by (-score, id), keep k_sents
    pool = []
    for doc_id in retrieve_documents(q.text, corpus, k_docs):
        doc = next(d for d in corpus.documents if d.id == doc_id)
        for i, sentence in enumerate(split_sentences(doc.text)):
            pool.append(make_candidate(f"{doc_id}:{i}", sentence, None))
    [scores] = scorer.score_groups([QuestionGroup(q, tuple(pool))])
    expected = [c for c, _ in sorted(zip(pool, scores), key=lambda x: (-x[1], x[0].id))][:k_sents]
    assert got == expected


def test_select_respects_k_docs():
    corpus = DocumentCorpus([Document(**d) for d in TOY_DOCS])
    q = make_question("q1", "cats chase mice")
    cands = select_candidates(q, corpus, _scorer(corpus), k_docs=1, k_sents=100)
    assert {c.id.split(":")[0] for c in cands} <= {"d1", "d3"}
    assert len({c.id.split(":")[0] for c in cands}) == 1


def test_corpus_is_unchanged_by_its_queries():
    # query terms are looked up in the corpus's term ids, never added to them
    corpus = DocumentCorpus([Document(**d) for d in TOY_DOCS])
    num_terms = len(corpus.term_ids)
    q = make_question("q1", "what do cats chase")
    first = select_candidates(q, corpus, k_docs=2, k_sents=4)
    unseen = select_candidates(make_question("q2", "zebra quokka zebra"), corpus, k_docs=2, k_sents=4)
    assert [c.id for c in unseen] == ["d1:0", "d1:1", "d1:2", "d2:0"]  # all zero, in id order
    assert len(corpus.term_ids) == num_terms
    assert select_candidates(q, corpus, k_docs=2, k_sents=4) == first
    assert len(corpus.term_ids) == num_terms


# ---------------------------------------------------------------------------
# the one-pass index against text-based oracles
# ---------------------------------------------------------------------------

# few words, so scores tie often; final sigma at sentence ends, a dotted
# capital I that lowercases to two characters, digits, underscores and a
# decimal point that is no boundary
_U_WORD = st.sampled_from(
    ["ΟΔΟΣ", "Σσ", "ς", "İstanbul", "ß", "42", "x_1", "3.14", "cats", "CATS"]
)
_U_PUNCT = st.sampled_from([".", "?!", "!?!", "...", ""])
_U_SENTENCE = st.tuples(st.lists(_U_WORD, max_size=4).map(" ".join), _U_PUNCT).map("".join)
_U_DOC = st.lists(
    st.tuples(_U_SENTENCE, st.sampled_from([" ", "\n", " \t "])).map("".join), max_size=6
).map("".join)
_U_QUERY = st.lists(
    st.sampled_from(["ΟΔΟΣ", "ς", "istanbul", "42", "x", "cats", "zzz", "yyy"]),
    min_size=1,
    max_size=6,
).map(" ".join)


def _unicode_corpus(texts):
    return DocumentCorpus([Document(f"d{i}", t) for i, t in enumerate(texts)])


def _select_or_error(*args, **kwargs):
    try:
        return select_candidates(*args, **kwargs)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=150, deadline=None)
@given(st.text())
@example("ΑΣ. ΒΣ\tİ. x")
def test_sentence_tokens_are_the_document_tokens(text):
    # the index counts a document's terms from its sentences' tokens
    assert [t for s in split_sentences(text) for t in tokenize(s)] == tokenize(text)


@settings(max_examples=150, deadline=None)
@given(
    texts=st.lists(_U_DOC, min_size=1, max_size=5),
    query=_U_QUERY,
    k_docs=st.integers(1, 7),
    k_sents=st.integers(1, 40),
)
# unseen query terms make the question the longer vector; the second
# sentence's score is an ulp apart when its dot is added in the sentence's
# order instead of the question's
@example(
    texts=["istanbul star istanbul istanbul star star. star 42 x istanbul x."],
    query="istanbul x 42 sun ΟΔΟΣ zzz",
    k_docs=1,
    k_sents=2,
)
# no sentence at all: the pool's numbers are empty
@example(texts=[""], query="cats", k_docs=1, k_sents=1)
# a sentence without tokens has norm 0 and scores 0.0
@example(texts=[". "], query="ΟΔΟΣ", k_docs=1, k_sents=1)
# every query term is one the corpus lacks: nothing matches
@example(texts=["cats 42. ß x_1"], query="zzz yyy zzz", k_docs=1, k_sents=2)
# the third sentence has as many distinct terms as the question; its score
# is an ulp apart when its dot is added in the sentence's order instead of
# the question's
@example(
    texts=["cats. star x_1. star ΟΔΟΣ ς ς x."],
    query="x ΟΔΟΣ ς star ΟΔΟΣ star",
    k_docs=1,
    k_sents=2,
)
def test_array_selection_equals_text_selection(texts, query, k_docs, k_sents):
    corpus = _unicode_corpus(texts)
    lexical = _scorer(corpus)  # over every split sentence, scoring texts
    q = make_question("q1", query)
    got = _select_or_error(q, corpus, None, k_docs=k_docs, k_sents=k_sents)
    assert got == _select_or_error(q, corpus, lexical, k_docs=k_docs, k_sents=k_sents)

    numbers = [j for doc in corpus.documents for j in corpus.sentences(doc.id)]
    sentences = [corpus.sentence_text(j) for j in numbers]
    expected = [min(1.0, per_pair_lexical_score(query, t, sentences)) for t in sentences]
    assert corpus.score_sentences(query, numbers) == expected
    assert lexical.score_pairs([(query, t) for t in sentences]) == expected


@settings(max_examples=150, deadline=None)
@given(st.lists(_U_DOC, max_size=6))
# the first sentence's norm is an ulp apart with its squares taken as
# Python's `w ** 2` instead of `w * w`
@example(["x x x y", "a", "b", "c", "d"])
def test_sentence_norms_and_df_equal_per_sentence_loops(texts):
    corpus = _unicode_corpus(texts)
    first, terms, counts = (column.tolist() for column in corpus._index.entries())
    sentences = range(len(first) - 1)
    df = [0] * len(corpus.term_ids)
    for j in sentences:
        for t in terms[first[j] : first[j + 1]]:
            df[t] += 1
    for j in sentences:
        span = slice(first[j], first[j + 1])
        entries = zip(terms[span], counts[span])
        weights = [tf * idf(df[t], len(sentences)) for t, tf in entries]
        assert corpus._sentences.weights[span].tolist() == weights
        assert corpus._sentences.norms[j] == norm(weights)
    assert corpus.sentence_idf.df.tolist() == df


# most sentences share no term with the question, so most of a pool ties at 0.0
_TIE_WORD = st.sampled_from(["cats", "sun", "star", "mice", "ΟΔΟΣ", "ς"])
_TIE_DOC = st.lists(
    st.lists(_TIE_WORD, max_size=3).map(lambda ws: " ".join(ws) + "."), min_size=1, max_size=8
).map(" ".join)


class _RoundingScorer(TextPairScorer):
    """Scores a pair by how many of its question's words its text holds, in
    a few steps, so scores tie often; ``wrong`` scores one pair too many
    (1) or too few (-1)."""

    def __init__(self, wrong: int = 0) -> None:
        self.wrong = wrong

    def score_pairs(self, pairs):
        scores = [min(1.0, len(set(tokenize(q)) & set(tokenize(t))) / 4) for q, t in pairs]
        return scores[:-1] if self.wrong < 0 else scores + [0.5] * self.wrong


def _pool(corpus, query, k_docs):
    """The pool ``select_candidates`` scores: its ids and sentence numbers."""
    return [
        (f"{doc_id}:{i}", number)
        for doc_id in retrieve_documents(query, corpus, k_docs)
        for i, number in enumerate(corpus.sentences(doc_id))
    ]


@settings(max_examples=150, deadline=None)
@given(
    texts=st.lists(_TIE_DOC, min_size=1, max_size=5),
    query=st.lists(st.sampled_from(["cats", "mice", "ς"]), min_size=1, max_size=3).map(" ".join),
    k_docs=st.integers(1, 6),
    extra=st.integers(1, 5),
)
def test_top_k_keeps_every_tie_at_the_threshold(texts, query, k_docs, extra):
    corpus = DocumentCorpus([Document(f"d{i}", t) for i, t in enumerate(texts)])
    q = make_question("q1", query)
    pool = _pool(corpus, query, k_docs)
    ids, numbers = [cid for cid, _ in pool], [number for _, number in pool]
    texts_of = dict(zip(ids, map(corpus.sentence_text, numbers)))

    def expected(scores, k_sents):
        return [
            make_candidate(cid, texts_of[cid], None)
            for cid, _ in order(ids, scores)[:k_sents]
        ]

    # k_sents past every nonzero score, so a threshold, if any, is a 0.0 tie
    scores = corpus.score_sentences(query, numbers)
    k_sents = sum(score > 0.0 for score in scores) + extra
    got = select_candidates(q, corpus, None, k_docs=k_docs, k_sents=k_sents)
    assert got == expected(scores, k_sents)

    stub = _RoundingScorer()
    scores = stub.score_pairs([(query, texts_of[cid]) for cid in ids])
    for k_sents in {1, k_sents, len(ids)}:
        got = select_candidates(q, corpus, stub, k_docs=k_docs, k_sents=k_sents)
        assert got == expected(scores, k_sents)

    for wrong in (-1, 1):
        with pytest.raises(ScoringError, match=f"returned {len(ids) + wrong} scores"):
            select_candidates(q, corpus, _RoundingScorer(wrong), k_docs=k_docs, k_sents=1)


@settings(max_examples=150, deadline=None)
@given(st.lists(_U_DOC, max_size=6))
def test_sentence_table_equals_idf_over_split_sentences(texts):
    corpus = _unicode_corpus(texts)
    index = TermIndex()
    expected = IdfTable.from_texts((s for t in texts for s in split_sentences(t)), index)
    # one entry per term id, since its weights read idf by position
    assert len(corpus.sentence_idf.df) == len(corpus.term_ids)
    df = corpus.sentence_idf.df.tolist()
    expected_df = expected.df.tolist()
    assert {term: df[t] for term, t in corpus.term_ids.items()} == {
        term: expected_df[t] for term, t in index.term_ids.items()
    }
    assert corpus.sentence_idf.num_docs == expected.num_docs
    for doc in corpus.documents:
        got = [corpus.sentence_text(j) for j in corpus.sentences(doc.id)]
        assert got == split_sentences(doc.text)


@settings(max_examples=150, deadline=None)
@given(st.lists(_U_DOC, max_size=6), _U_QUERY)
# the first document's norm is 6.636394757809999 with its squares taken as
# `w * w`, and 6.636394757809998 with them taken as Python's `w ** 2`
@example(["x x x y", "a", "b", "c", "d"], "x")
def test_postings_and_norms_equal_whole_document_counts(texts, query):
    corpus = _unicode_corpus(texts)
    counts = {doc.id: Counter(tokenize(doc.text)) for doc in corpus.documents}
    table = corpus.idf_table
    for term in {t for c in counts.values() for t in c} | {"zzz"}:
        expected = sorted((doc_id, c[term]) for doc_id, c in counts.items() if term in c)
        assert corpus.postings(term) == expected
        t = corpus.term_ids.get(term)
        assert (0 if t is None else table.df[t]) == len(expected)
    for doc_id, c in counts.items():
        weights = [tf * table.idf(corpus.term_ids[term]) for term, tf in c.items()]
        assert corpus._norms[corpus._numbers[doc_id]] == norm(weights)
    if tokenize(query):
        for k in (1, 2, len(texts) + 3):
            assert retrieve_documents(query, corpus, k) == full_sort_retrieval(query, corpus, k)


def _per_sentence_index(texts):
    """Reference: the index the per-sentence loop built for ``_unicode_corpus``
    of ``texts``. Each sentence's terms are numbered as first seen and its
    entries counted in a local loop, each document's terms are counted
    whole, the postings are gathered term by term, and the norms are summed
    in Python."""
    docs = sorted((f"d{i}", t) for i, t in enumerate(texts))
    term_ids = {}
    first, terms, counts = [0], [], []
    starts, ends, sentence_first = [], [], [0]
    doc_entries = []
    for _, text in docs:
        doc_tokens = []
        for start, end in sentence_spans(text):
            tokens = tokenize(text[start:end])
            doc_tokens += tokens
            for term, tf in Counter(tokens).items():
                terms.append(term_ids.setdefault(term, len(term_ids)))
                counts.append(tf)
            first.append(len(terms))
            starts.append(start)
            ends.append(end)
        sentence_first.append(len(starts))
        doc_entries.append([(term_ids[t], tf) for t, tf in Counter(doc_tokens).items()])

    num_terms = len(term_ids)
    postings = [[] for _ in range(num_terms)]
    for n, entries in enumerate(doc_entries):
        for t, tf in entries:
            postings[t].append((n, tf))
    doc_idf = [idf(len(p), len(docs)) for p in postings]
    sentence_df = [0] * num_terms
    for t in terms:
        sentence_df[t] += 1
    sentence_idf = [idf(df, len(starts)) for df in sentence_df]
    sentence_entries = [
        list(zip(terms[first[j] : first[j + 1]], counts[first[j] : first[j + 1]]))
        for j in range(len(starts))
    ]
    return {
        "term_ids": list(term_ids.items()),
        "index": (first, terms, counts),
        "sentences": (sentence_first, starts, ends),
        "postings": (
            list(accumulate(map(len, postings), initial=0)),
            [n for p in postings for n, _ in p],
            [tf for p in postings for _, tf in p],
        ),
        "norms": [norm([tf * doc_idf[t] for t, tf in entries]) for entries in doc_entries],
        "sentence_norms": [
            norm([tf * sentence_idf[t] for t, tf in entries]) for entries in sentence_entries
        ],
        "df": ([len(p) for p in postings], sentence_df),
    }


def _index_state(corpus):
    return {
        "term_ids": list(corpus.term_ids.items()),
        "index": tuple(column.tolist() for column in corpus._index.entries()),
        "sentences": (list(corpus._sentence_first), list(corpus._starts), list(corpus._ends)),
        "postings": (
            corpus._post_first.tolist(),
            corpus._post_docs.tolist(),
            corpus._post_tfs.tolist(),
        ),
        "norms": corpus._norms.tolist(),
        "sentence_norms": corpus._sentences.norms.tolist(),
        "df": (corpus.idf_table.df.tolist(), corpus.sentence_idf.df.tolist()),
    }


@settings(max_examples=150, deadline=None)
@given(st.lists(_U_DOC, max_size=7))
# a document without a sentence, and one whose sentence has no token
@example([""])
@example([". "])
@example(["ΑΣ. ΒΣ\tİ. x"])
# in chunks of one or two documents, a chunk without a token lies between
# chunks with tokens
@example(["cats 42. cats", "x_1 ß. 42", "...", "?! ", "ς ΟΔΟΣ. cats"])
def test_bulk_build_equals_per_sentence_loop(texts):
    expected = _per_sentence_index(texts)
    for size in (1, 2, 3, candidates._CHUNK_DOCS):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(candidates, "_CHUNK_DOCS", size)
            corpus = _unicode_corpus(texts)
        assert _index_state(corpus) == expected


# ---------------------------------------------------------------------------
# annotation round trip
# ---------------------------------------------------------------------------

def test_export_empty(tmp_path):
    path = tmp_path / "tasks.jsonl"
    export_annotation_tasks([], path)
    assert path.read_text() == ""


def test_export_rejects_labeled(tmp_path):
    from conftest import make_candidate

    q = make_question("q1", "question")
    tasks = [(q, [make_candidate("c0", "text", None), make_candidate("c1", "text", 1)])]
    with pytest.raises(ValueError, match="already labeled"):
        export_annotation_tasks(tasks, tmp_path / "t.jsonl")
    assert list(tmp_path.iterdir()) == []
    (tmp_path / "t.jsonl").write_bytes(b"old\n")
    with pytest.raises(ValueError, match="already labeled"):
        export_annotation_tasks(tasks, tmp_path / "t.jsonl")
    assert list(tmp_path.iterdir()) == [tmp_path / "t.jsonl"]
    assert (tmp_path / "t.jsonl").read_bytes() == b"old\n"


def _build_tasks(tmp_path):
    corpus = DocumentCorpus([Document(**d) for d in TOY_DOCS])
    scorer = _scorer(corpus)
    tasks = []
    for qid, text in (("q1", "what do cats chase"), ("q2", "what is the sun")):
        q = make_question(qid, text)
        tasks.append((q, select_candidates(q, corpus, scorer, k_docs=3, k_sents=5)))
    path = tmp_path / "tasks.jsonl"
    export_annotation_tasks(tasks, path)
    return tasks, path


def test_round_trip_preserves_ids_and_order(tmp_path):
    tasks, path = _build_tasks(tmp_path)
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert [(l["qid"], l["cid"]) for l in lines] == [
        (q.id, c.id) for q, cands in tasks for c in cands
    ]
    assert all(l["label"] is None for l in lines)

    gold_path = tmp_path / "gold.jsonl"
    with gold_path.open("w") as fh:
        for l in lines:
            fh.write(json.dumps({"qid": l["qid"], "cid": l["cid"], "label": 0}) + "\n")
    d = import_annotations(path, gold_path, name="toy", split="test")
    assert [g.question.id for g in d.groups] == ["q1", "q2"]
    # imported candidate ids are qid-qualified but keep order
    for group, (q, cands) in zip(d.groups, tasks):
        assert [c.id for c in group.candidates] == [f"{q.id}:{c.id}" for c in cands]
    assert validate_dataset(d) == []


def test_import_with_all_negative_gold(tmp_path):
    tasks, path = _build_tasks(tmp_path)
    n_c = sum(len(cands) for _, cands in tasks)
    gold_path = tmp_path / "gold.jsonl"
    with gold_path.open("w") as fh:
        for q, cands in tasks:
            for c in cands:
                fh.write(json.dumps({"qid": q.id, "cid": c.id, "label": 0}) + "\n")
    d = import_annotations(path, gold_path, name="toy")
    s = stats(d)
    assert (s.num_questions, s.num_correct, s.num_incorrect) == (len(tasks), 0, n_c)


def test_import_requires_labels(tmp_path):
    _, path = _build_tasks(tmp_path)
    with pytest.raises(ValueError, match="unlabeled"):
        import_annotations(path, None, name="toy")


def test_import_missing_gold_label(tmp_path):
    _, path = _build_tasks(tmp_path)
    gold_path = tmp_path / "gold.jsonl"
    gold_path.write_text(json.dumps({"qid": "q1", "cid": "d1:0", "label": 1}) + "\n")
    with pytest.raises(ValueError, match="no gold label"):
        import_annotations(path, gold_path, name="toy")


def test_gold_labels_validation(tmp_path):
    path = tmp_path / "gold.jsonl"
    path.write_text('{"qid":"q1","cid":"c1","label":2}\n')
    with pytest.raises(ValueError, match="label"):
        load_gold_labels(path)
    path.write_text(
        '{"qid":"q1","cid":"c1","label":1}\n{"qid":"q1","cid":"c1","label":0}\n'
    )
    with pytest.raises(ValueError, match="duplicate"):
        load_gold_labels(path)


def test_load_corpus(tmp_path):
    path = tmp_path / "corpus.jsonl"
    with path.open("w") as fh:
        for doc in TOY_DOCS:
            fh.write(json.dumps(doc) + "\n")
    corpus = load_corpus(path)
    assert corpus.num_docs == 3
    with pytest.raises(ValueError, match="bad corpus record"):
        path.write_text('{"id": "d1"}\n')
        load_corpus(path)
