"""The tf-idf lexical scorer and the linear classification head: the scoring
code that computes with numpy.

``TermIndex`` turns texts into term ids and counts, ``IdfTable`` weighs
them, and ``cosines`` is the package's one lexical score; ``LexicalScorer``
ranks texts with it. ``LinearHead`` applies a softmax layer to externally
produced embeddings. The scoring protocol and the backends that need no
numpy (static, and remote with its pair memo) are in ``mlas2.scoring``.
"""

from __future__ import annotations

import math
import re
from array import array
from itertools import chain, count, filterfalse, islice
from typing import Iterable, NamedTuple, Sequence

import numpy as np

# RemoteScorer is unused here: bench/tracing.py patches it under this
# module's name, and test_bench_trace_targets_resolve guards that
from mlas2.scoring import RemoteScorer, TextPairScorer


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
    Terms and texts are numbered in first-seen order, and ``term_ids`` numbers
    a term it lacks as it is looked up. This is the package's one builder of
    term-id entries: ``numbers`` keys texts and tokenizes each distinct text
    once; ``term_stream`` and ``append`` add texts given as tokens, unkeyed.
    An index lives as long as its owner: one run, one scorer or one corpus.

    Never keep a numpy view of a column across a call that appends texts:
    an ``array`` that exports its buffer cannot grow (``BufferError``)."""

    def __init__(self, term_ids: _Numbering | None = None) -> None:
        """``term_ids``, when given, is another index's numbering, shared."""
        self.term_ids = _Numbering() if term_ids is None else term_ids
        self._numbers: dict[str, int] = {}
        self._first = array("q", [0])
        self._terms = array("i")
        self._counts = array("i")

    def numbers(self, texts: Iterable[str]) -> array:
        """The numbers of ``texts``, in order. Per chunk of texts, the ones
        not seen before are tokenized and appended together."""
        known = self._numbers
        out = array("i")
        texts = iter(texts)
        while chunk := list(islice(texts, _CHUNK_NUMBERED)):
            fresh = list(filterfalse(known.__contains__, dict.fromkeys(chunk)))
            if fresh:
                n = len(self._first) - 1
                tokens = list(map(tokenize, fresh))
                self.append(*self.term_stream(tokens), len(tokens))
                known.update(zip(fresh, count(n)))
            out.extend(map(known.__getitem__, chunk))
        return out

    def term_stream(self, tokens: Sequence[Sequence[str]]) -> tuple[np.ndarray, np.ndarray]:
        """The term id of every token of the token lists, in order, and the
        list each token belongs to; new terms are numbered as first seen."""
        lengths = np.fromiter(map(len, tokens), np.intp, len(tokens))
        terms = np.fromiter(
            map(self.term_ids.__getitem__, chain.from_iterable(tokens)), np.intp, lengths.sum()
        )
        return terms, np.repeat(np.arange(len(tokens)), lengths)

    def append(self, terms: np.ndarray, owners: np.ndarray, num_texts: int) -> None:
        """Append ``num_texts`` texts from a stream of term ids, each token
        ``i`` belonging to text ``owners[i]`` (nondecreasing from 0): each
        text's distinct terms and their counts, in first-occurrence order.

        A stable sort by (owner, term) puts each group's first token at its
        start; the group's count is written there, and the tokens holding a
        count are the entries, in stream order."""
        keys = owners * len(self.term_ids) + terms
        by_key = np.argsort(keys, kind="stable")
        starts = np.flatnonzero(np.diff(keys[by_key], prepend=-1))
        counts = np.zeros(len(keys), np.intp)
        counts[by_key[starts]] = np.diff(starts, append=len(keys))
        entries = np.flatnonzero(counts)
        _extend(self._terms, terms[entries])
        _extend(self._counts, counts[entries])
        sizes = np.bincount(owners[entries], minlength=num_texts)
        _extend(self._first, self._first[-1] + np.cumsum(sizes))

    def entries(self, numbers: np.ndarray | None = None) -> tuple[np.ndarray, ...]:
        """The numbered texts' entries laid out flat, as ``(first, term ids,
        counts)``: text ``numbers[i]`` holds entries ``first[i]`` up to
        ``first[i + 1]``. Without ``numbers``, every text's, as views that pin
        the columns; with them, gathered copies."""
        first, terms, counts = map(np.asarray, (self._first, self._terms, self._counts))
        if numbers is None:
            return first, terms, counts
        starts, stops = first[numbers], first[numbers + 1]
        gathered = concat_ranges(starts, stops)
        return np.concatenate(([0], np.cumsum(stops - starts))), terms[gathered], counts[gathered]


class _Numbering(dict):
    """Term ids in first-seen order: a term looked up for the first time
    takes the next id."""

    def __missing__(self, term: str) -> int:
        n = self[term] = len(self)
        return n


def _extend(column: array, values: np.ndarray) -> None:
    """Append ``values`` to an integer column, converted to its type."""
    column.frombytes(values.astype(column.typecode).tobytes())


# texts per `numbers` chunk: the unseen texts of a chunk are tokenized
# together, so a larger chunk keeps more token lists alive at once (4,096
# raised eval-compose's peak RSS by 7.8%)
_CHUNK_NUMBERED = 256


class IdfTable:
    """Smoothed inverse document frequencies over a candidate corpus, as
    arrays indexed by term id: idf(w) = ln((N+1)/(df(w)+1)) + 1, computed
    with ``math.log`` once per distinct df. A term id the table lacks (one
    numbered after it was built, or a query term the corpus lacks) takes
    the unseen-term idf, the df = 0 value.

    This is the package's one tf-idf weighting: the lexical scorer, the mock
    scorer server, document retrieval and the corpus sentence index all
    weigh terms through it.
    """

    def __init__(self, df: np.ndarray, num_docs: int) -> None:
        self.df = np.asarray(df, dtype=np.intp)
        self.num_docs = num_docs
        # one entry past the last term id: the unseen-term idf, df = 0
        values, inverse = np.unique(np.append(self.df, 0), return_inverse=True)
        idf = [math.log((num_docs + 1) / (n + 1)) + 1.0 for n in values.tolist()]
        self._idf = np.array(idf)[inverse]

    @classmethod
    def from_texts(cls, texts: Iterable[str], index: TermIndex) -> "IdfTable":
        """The table of ``texts``, each text one document, read through
        ``index``: df counts each text as often as it is given."""
        numbers = np.asarray(index.numbers(texts))
        df = np.zeros(len(index.term_ids), np.intp)
        for c in range(0, len(numbers), _CHUNK_TEXTS):
            _, terms, _ = index.entries(numbers[c : c + _CHUNK_TEXTS])
            df += np.bincount(terms, minlength=len(df))
        return cls(df, len(numbers))

    def idf(self, term: int) -> float:
        return float(self._idf[min(term, len(self.df))])

    def weights(self, term_ids: Sequence[int], tfs: Sequence[int]) -> np.ndarray:
        """Tf-idf weights (tf times idf) of term ids given with their counts."""
        ids = np.asarray(term_ids)
        # an id past the table reads the unseen idf at the end; the clamped
        # copy is made only when needed, since a corpus's ids are many
        if ids.max(initial=0) > len(self.df):
            ids = np.minimum(ids, len(self.df))
        return np.asarray(tfs) * self._idf[ids]

    def vectors(self, first: np.ndarray, term_ids: np.ndarray, tfs: Sequence[int]) -> Vectors:
        """The tf-idf vectors of texts laid out flat, their weights squared
        as ``w * w`` for the norms."""
        weights = self.weights(term_ids, tfs)
        return Vectors(first, term_ids, weights, norms(weights * weights, first))


# texts whose document frequencies one `bincount` counts
_CHUNK_TEXTS = 4096


class Vectors(NamedTuple):
    """Texts' tf-idf vectors, stored flat: text ``n`` holds the term ids and
    weights from ``first[n]`` up to ``first[n + 1]``, in first-occurrence
    order, and has norm ``norms[n]``."""

    first: np.ndarray
    terms: np.ndarray
    weights: np.ndarray
    norms: np.ndarray


def norms(squares: np.ndarray, first: np.ndarray) -> np.ndarray:
    """The norm of each text from its weights' squares ``w * w``,
    ``squares[first[n]:first[n + 1]]``, added left to right."""
    starts, lengths = first[:-1], np.diff(first)
    sums = np.zeros(len(lengths))
    rows, p = np.flatnonzero(lengths), 0
    while len(rows):
        sums[rows] += squares[starts[rows] + p]
        p += 1
        rows = rows[lengths[rows] > p]
    return np.sqrt(sums)


def cosines(q: Vectors, t: Vectors, qs: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """The tf-idf cosine of q text ``qs[i]`` with t text ``ts[i]`` for each
    pair ``i``, in [0, 1]: the package's one lexical score.

    Each pair's products ``q_weight * t_weight`` sit in the order of q's
    entries and are added left to right; a term t lacks adds an exact 0.0
    to a sum that is never negative. The dot is divided by the product of
    the norms and clamped to 1.0, since a text scored against itself can
    round one ulp above it; a zero norm scores 0.0.

    Every t entry of a pair finds its weight in q by ``searchsorted`` over
    q's entries sorted by (term, text), so q needs no dense per-text array.
    """
    qs, ts = np.asarray(qs, np.intp), np.asarray(ts, np.intp)
    q_start, t_start = q.first[qs], t.first[ts]
    q_len, t_len = q.first[qs + 1] - q_start, t.first[ts + 1] - t_start
    entries = concat_ranges(t_start, t_start + t_len)
    pair = np.repeat(np.arange(len(ts)), t_len)
    terms = t.terms[entries]

    # (term, q text) keys, in 64 bits; only the t entries whose term some q
    # text holds are looked up
    num_q = len(q.first) - 1
    q_keys = q.terms.astype(np.intp) * num_q + np.repeat(np.arange(num_q), np.diff(q.first))
    by_key = np.argsort(q_keys)
    sorted_keys = q_keys[by_key]
    maybe = np.flatnonzero(np.isin(terms, q.terms))
    keys = terms[maybe].astype(np.intp) * num_q + qs[pair[maybe]]
    found = np.minimum(np.searchsorted(sorted_keys, keys), len(sorted_keys) - 1)
    matched = sorted_keys[found] == keys
    hit = maybe[matched]
    pair, entries, q_entry = pair[hit], entries[hit], by_key[found[matched]]

    table = np.zeros((int(q_len.max(initial=0)), len(ts)))
    table[q_entry - q_start[pair], pair] = q.weights[q_entry] * t.weights[entries]
    dots = np.zeros(len(ts))
    for row in table:
        dots += row

    q_norms, t_norms = q.norms[qs], t.norms[ts]
    scores = np.zeros(len(ts))
    scored = (q_norms != 0.0) & (t_norms != 0.0)
    scores[scored] = np.minimum(1.0, dots[scored] / (q_norms[scored] * t_norms[scored]))
    return scores


def concat_ranges(starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """The integers of each range ``[starts[i], stops[i])``, concatenated."""
    lengths = stops - starts
    return np.arange(lengths.sum()) + np.repeat(starts - np.cumsum(lengths) + lengths, lengths)


# ---------------------------------------------------------------------------
# lexical scorer
# ---------------------------------------------------------------------------

class LexicalScorer(TextPairScorer):
    """Tf-idf cosine over an idf table built from ``texts``, the texts it
    ranks. Texts are read through a term index, keyed by term id: ``index``
    when given (the scorers of one run share one), else one of its own."""

    def __init__(self, texts: Iterable[str], index: TermIndex | None = None) -> None:
        self.index = TermIndex() if index is None else index
        self.idf_table = IdfTable.from_texts(texts, self.index)

    def score_pairs(self, pairs: Sequence[tuple[str, str]]) -> list[float]:
        """Every text is numbered first; then each block of pairs gathers,
        weighs and norms only its own distinct texts and scores through
        ``cosines``, which keeps the call's memory small."""
        qs = np.asarray(self.index.numbers(q for q, _ in pairs))
        ts = np.asarray(self.index.numbers(t for _, t in pairs))
        out: list[float] = []
        for start in range(0, len(pairs), _BLOCK_PAIRS):
            block = slice(start, start + _BLOCK_PAIRS)
            q, q_local = self._vectors(qs[block])
            t, t_local = self._vectors(ts[block])
            out += cosines(q, t, q_local, t_local).tolist()
        return out

    def _vectors(self, numbers: np.ndarray) -> tuple[Vectors, np.ndarray]:
        """The tf-idf vectors of the distinct numbered texts, and each
        number's place among them."""
        distinct, local = np.unique(numbers, return_inverse=True)
        return self.idf_table.vectors(*self.index.entries(distinct)), local


# pairs scored per ``cosines`` call: a larger block gathers more texts at once
# and raises the peak memory of a run
_BLOCK_PAIRS = 1024


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
