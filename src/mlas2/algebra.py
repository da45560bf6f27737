"""Dataset transforms and the composition mini-language naming them.

Three transforms build multilingual variants out of one source dataset:
``transfer`` (translate every text), ``mix`` (questions from one dataset,
candidates from another, joined on origin_id), and ``concat`` (append groups,
re-keying ids). Composition expressions like ``"En+EnDe+De+DeEn"`` name
pipelines of these transforms; ``materialize`` executes them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from typing import Iterable, Iterator

from mlas2.dataset import AnswerCandidate, Dataset, Question, QuestionGroup, validate_language
from mlas2.translation import TranslationError, TranslationRequest, Translator


class CompositionParseError(ValueError):
    """A composition expression does not match the grammar."""


class MixAlignmentError(ValueError):
    """Two datasets cannot be mixed because their origin ids do not line up."""


# ---------------------------------------------------------------------------
# composition expressions
#
# expr := term ("+" term)*
# term := CODE | CODE CODE          -- one code: same-language block,
# CODE := [A-Z][a-z]+               -- two codes: question/candidate mix
# ---------------------------------------------------------------------------

_CODE_RE = re.compile(r"[A-Z][a-z]+")


@dataclass(frozen=True)
class CompositionTerm:
    q_lang: str
    t_lang: str

    def __post_init__(self) -> None:
        validate_language(self.q_lang)
        validate_language(self.t_lang)

    @property
    def is_mixed(self) -> bool:
        return self.q_lang != self.t_lang


@dataclass(frozen=True)
class CompositionExpr:
    terms: tuple[CompositionTerm, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", tuple(self.terms))
        if not self.terms:
            raise ValueError("composition expression needs at least one term")


def parse_composition(expr: str) -> CompositionExpr:
    """Parse expressions like ``"En+De"`` or ``"EnDe+DeEn"``.

    A single capitalized code names a same-language block; two concatenated
    codes name a mixed pairing (question language first). Whitespace around
    ``+`` is ignored.
    """
    if not expr or not expr.strip():
        raise CompositionParseError("empty composition expression")
    terms = []
    for raw in expr.split("+"):
        token = raw.strip()
        if not token:
            raise CompositionParseError(f"empty term in {expr!r}")
        codes = _CODE_RE.findall(token)
        if "".join(codes) != token or len(codes) not in (1, 2):
            raise CompositionParseError(f"unparsable term {token!r} in {expr!r}")
        try:
            langs = [validate_language(c.lower()) for c in codes]
        except ValueError as exc:
            raise CompositionParseError(f"bad term {token!r} in {expr!r}: {exc}") from exc
        terms.append(CompositionTerm(langs[0], langs[-1]))
    return CompositionExpr(tuple(terms))


def render_term(term: CompositionTerm) -> str:
    def cap(code: str) -> str:
        return code[0].upper() + code[1:]

    if term.is_mixed:
        return cap(term.q_lang) + cap(term.t_lang)
    return cap(term.q_lang)


def render_composition(expr: CompositionExpr) -> str:
    """Inverse of parse_composition on canonical expressions."""
    return "+".join(render_term(t) for t in expr.terms)


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------

def transfer(d: Dataset, translator: Translator, target: str) -> Dataset:
    """Translate every question and candidate text into ``target``.

    Ids, origin ids, labels, grouping, and record order are preserved; the
    target language is appended to each record's provenance chain. Records
    already in the target language are left untouched, so a transfer to the
    dataset's own language is a no-op with no translator calls.
    """
    validate_language(target)
    jobs: dict[str, list[str]] = {}
    for group in d.groups:
        for record in (group.question, *group.candidates):
            if record.language != target:
                jobs.setdefault(record.language, []).append(record.text)
    if not jobs:
        return d

    translated: dict[str, Iterator[str]] = {}
    for src, texts in jobs.items():
        try:
            out = translator.translate_batch(TranslationRequest(tuple(texts), src, target))
        except TranslationError as exc:
            raise TranslationError(
                f"while transferring dataset {d.name!r} ({src}->{target}): {exc}"
            ) from exc
        if len(out) != len(texts):
            raise TranslationError(
                f"translator returned {len(out)} texts for {len(texts)} inputs "
                f"({src}->{target})"
            )
        translated[src] = iter(out)

    # translations are taken in the order the jobs were queued: each group's
    # question, then its candidates
    def move(record):
        if record.language == target:
            return record
        text, chain = next(translated[record.language]), record.provenance + (target,)
        if type(record) is Question:
            return Question(record.id, record.origin_id, text, chain)
        return AnswerCandidate(record.id, record.origin_id, text, record.label, chain)

    groups = tuple(
        QuestionGroup(move(g.question), tuple(map(move, g.candidates))) for g in d.groups
    )
    return Dataset(f"{d.name}->{target}", d.split, groups)


def _by_origin(items: Iterable[tuple[str, object]], what: str) -> dict:
    """A dict, in order, from each ``(origin_id, item)`` pair's origin id to
    its item; a repeated origin id raises MixAlignmentError."""
    by_origin = {}
    for origin, item in items:
        if origin in by_origin:
            raise MixAlignmentError(f"duplicate {what} origin_id {origin!r}")
        by_origin[origin] = item
    return by_origin


def mix(d_q: Dataset, d_t: Dataset) -> Dataset:
    """Pair questions of ``d_q`` with candidates of ``d_t``, joined on origin_id.

    Both operands must derive from one source dataset: question and candidate
    origin-id sets have to match exactly. Each output group holds its
    ``d_t`` partner's candidates tuple as it is, labels included.
    """
    q_groups = _by_origin(((g.question.origin_id, g) for g in d_q.groups), "question")
    t_groups = _by_origin(((g.question.origin_id, g) for g in d_t.groups), "question")
    if q_groups.keys() != t_groups.keys():
        for origin in q_groups:
            if origin not in t_groups:
                raise MixAlignmentError(f"question origin_id {origin!r} missing from {d_t.name!r}")
        extra = next(o for o in t_groups if o not in q_groups)
        raise MixAlignmentError(f"question origin_id {extra!r} missing from {d_q.name!r}")

    groups = []
    for origin, g in q_groups.items():
        partner = t_groups[origin]
        q_cands = _by_origin(((c.origin_id, c) for c in g.candidates), "candidate")
        t_cands = _by_origin(((c.origin_id, c) for c in partner.candidates), "candidate")
        if q_cands.keys() != t_cands.keys():
            missing = next(o for o in [*q_cands, *t_cands] if o not in q_cands or o not in t_cands)
            raise MixAlignmentError(
                f"candidate origin_id {missing!r} not shared by both operands "
                f"(question {origin!r})"
            )
        groups.append(QuestionGroup(g.question, partner.candidates))
    return Dataset(f"mix({d_q.name},{d_t.name})", d_q.split, tuple(groups))


def concat_many(datasets: list[Dataset]) -> Dataset:
    """Append the groups of several datasets, re-keying every id with a
    deterministic ``#k`` operand suffix so the result stays unique. Origin ids
    are unchanged."""
    if not datasets:
        raise ValueError("nothing to concatenate")
    groups = []
    for k, d in enumerate(datasets):
        for g in d.groups:
            q = g.question
            q = Question(f"{q.id}#{k}", q.origin_id, q.text, q.provenance)
            cands = tuple(
                AnswerCandidate(f"{c.id}#{k}", c.origin_id, c.text, c.label, c.provenance)
                for c in g.candidates
            )
            groups.append(QuestionGroup(q, cands))
    name = "+".join(d.name for d in datasets)
    return Dataset(name, datasets[0].split, tuple(groups))


def concat(d_a: Dataset, d_b: Dataset) -> Dataset:
    return concat_many([d_a, d_b])


def materialize(
    plan: CompositionExpr,
    source: Dataset,
    translator: Translator,
    views: dict[str, Dataset] | None = None,
) -> Dataset:
    """Build the dataset named by a composition expression out of one source.

    Same-language terms become transfers (a no-op for the source language),
    mixed terms become ``mix`` of two transfers, and the parts are
    concatenated left to right. Transfers are computed once per language and
    kept in ``views``, language to transferred source: pass one memo for
    every composition of one source through one translator, and each
    language is transferred once across them all. The output's split is the
    source's.
    """
    views = {} if views is None else views

    def to_lang(lang: str) -> Dataset:
        if lang not in views:
            views[lang] = transfer(source, translator, lang)
        return views[lang]

    parts = [
        mix(to_lang(term.q_lang), to_lang(term.t_lang)) if term.is_mixed else to_lang(term.t_lang)
        for term in plan.terms
    ]
    out = parts[0] if len(parts) == 1 else concat_many(parts)
    return replace(out, name=render_composition(plan))
