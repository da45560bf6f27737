"""The package's lexical kernels against the independent oracle's formula.

``scripts/toy_expected.py`` computes tf-idf from its definition: weights
``tf * idf``, norms ``sqrt`` of the ``w * w`` added left to right, and dots
that add ``q_weight * t_weight`` over the shared terms in the question's
order. Every lexical score and document norm the package computes must
equal it bit for bit.
"""

import importlib.util
import random
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from mlas2.candidates import Document, DocumentCorpus, retrieve_documents
from mlas2.reranking import LexicalScorer
from test_candidates import TOY_DOCS

ORACLE_PATH = Path(__file__).resolve().parents[1] / "scripts" / "toy_expected.py"
_spec = importlib.util.spec_from_file_location("toy_expected", ORACLE_PATH)
oracle = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracle)


def oracle_score(df, n, q_text, t_text):
    """The oracle's cosine of one pair, clamped to 1 as every score is."""
    return min(1.0, oracle.cosine(oracle.tfidf(df, n, q_text), oracle.tfidf(df, n, t_text)))


# the oracle lowercases whole documents and the corpus each sentence, so the
# alphabet has no letter whose lowercase reads its neighbours (a final sigma)
# or changes a text's length (`İ`); few words, so scores and df tie
_WORD = st.sampled_from(["a", "b", "cc", "AB", "ab", "x_1", "42", "ß", "ΟΔΟ", "ee"])
_SENTENCE = st.tuples(st.lists(_WORD, max_size=4).map(" ".join), st.sampled_from([".", "?!", ""]))
_DOC = st.lists(
    st.tuples(_SENTENCE.map("".join), st.sampled_from([" ", "\n"])).map("".join), max_size=5
).map("".join)
_QUERY = st.lists(st.sampled_from(["a", "ab", "cc", "42", "ΟΔΟ", "zz"]), min_size=1, max_size=5)


@settings(max_examples=100, deadline=None)
@given(st.lists(_DOC, max_size=6), _QUERY.map(" ".join), st.randoms(use_true_random=False))
# the corpus examples of test_candidates.py; several were chosen where the
# addition orders or squaring rules the package used before round apart
@example(["a", "a b", "cc", "a b", "a b"], "a", random.Random(0))
@example(["a b", "a", "b a", "a", "cc", "a b", "a"], "a b", random.Random(1))
@example(
    ["istanbul star istanbul istanbul star star. star 42 x istanbul x."],
    "istanbul x 42 sun ΟΔΟΣ zzz",
    random.Random(0),
)
@example([""], "cats", random.Random(0))
@example([". "], "ΟΔΟΣ", random.Random(0))
@example(["cats 42. ß x_1"], "zzz yyy zzz", random.Random(0))
@example(["cats. star x_1. star ΟΔΟΣ ς ς x."], "x ΟΔΟΣ ς star ΟΔΟΣ star", random.Random(0))
@example(["x x x y", "a", "b", "c", "d"], "x", random.Random(0))
@example(["ΑΣ. ΒΣ\tİ. x"], "x", random.Random(0))
@example(["cats 42. cats", "x_1 ß. 42", "...", "?! ", "ς ΟΔΟΣ. cats"], "cats 42", random.Random(0))
@example([d["text"] for d in TOY_DOCS], "what do cats chase", random.Random(0))
# the "b" documents score alike in exact arithmetic, so their order rests on
# rounding: multiplying the query weight into `tf` before `idf` swaps them
@example(["42 42 42 42 42 42 42", "b b b b b b", "x", "b b b b b"], "a b a b b", random.Random(0))
def test_kernels_compute_the_oracle_formula(texts, query, rng):
    ids = [f"d{i:02d}" for i in range(len(texts))]
    rng.shuffle(ids)  # ids out of corpus order, so ties break by id
    docs = [{"id": i, "text": t} for i, t in zip(ids, texts)]
    corpus = DocumentCorpus([Document(d["id"], d["text"]) for d in docs])
    df, n = oracle.df_table(texts)

    # the lexical scorer over the documents as texts, each text one document
    pairs = [(q, t) for q in [query, *texts] for t in texts]
    assert LexicalScorer(texts).score_pairs(pairs) == [oracle_score(df, n, q, t) for q, t in pairs]

    # document norms and retrieval, over the document df
    for d in docs:
        expected = oracle.norm(oracle.tfidf(df, n, d["text"]))
        assert corpus._norms[corpus._numbers[d["id"]]] == expected
    if oracle.tokens(query):
        for k in (1, 2, len(texts) + 3):
            assert retrieve_documents(query, corpus, k) == oracle.retrieve(docs, df, n, query, k)

    # the corpus's sentence scores, over the sentence df
    numbers = [j for doc in corpus.documents for j in corpus.sentences(doc.id)]
    sentences = [corpus.sentence_text(j) for j in numbers]
    sent_df, sent_n = oracle.df_table(sentences)
    expected = [oracle_score(sent_df, sent_n, query, s) for s in sentences]
    assert corpus.score_sentences(query, numbers) == expected
