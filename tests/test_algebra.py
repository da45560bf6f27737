import json
import time
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_dataset, make_group, make_synthetic_dataset
from mlas2.algebra import (
    CompositionExpr,
    CompositionParseError,
    CompositionTerm,
    MixAlignmentError,
    concat,
    concat_many,
    materialize,
    mix,
    parse_composition,
    render_composition,
    transfer,
)
from mlas2 import dataset
from mlas2.dataset import (
    AnswerCandidate,
    Dataset,
    Question,
    QuestionGroup,
    dataset_lines,
    load_dataset,
    save_dataset,
    validate_dataset,
)
from mlas2.translation import MockTranslator, mock_translate

from test_translation import CountingTranslator


def terms(expr):
    return [(t.q_lang, t.t_lang) for t in parse_composition(expr).terms]


# ---------------------------------------------------------------------------
# composition expressions
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "expr,expected",
    [
        ("En", [("en", "en")]),
        ("En+De", [("en", "en"), ("de", "de")]),
        ("EnDe+DeEn", [("en", "de"), ("de", "en")]),
        ("En+EnDe+De+DeEn", [("en", "en"), ("en", "de"), ("de", "de"), ("de", "en")]),
        ("En+De+Fr+Es+It", [("en", "en"), ("de", "de"), ("fr", "fr"), ("es", "es"), ("it", "it")]),
        ("En+De+Fr", [("en", "en"), ("de", "de"), ("fr", "fr")]),
        ("En+De+Fr+Es", [("en", "en"), ("de", "de"), ("fr", "fr"), ("es", "es")]),
        ("EnDe", [("en", "de")]),
        ("DeEn", [("de", "en")]),
        ("EnEn", [("en", "en")]),
        ("EnEn+EnDe", [("en", "en"), ("en", "de")]),
        ("DeDe+DeEn", [("de", "de"), ("de", "en")]),
        ("En+EnDe+ De+DeEn", [("en", "en"), ("en", "de"), ("de", "de"), ("de", "en")]),
        ("Mu", [("mu", "mu")]),
        ("Eng+Deu", [("eng", "eng"), ("deu", "deu")]),
        ("EngDeu", [("eng", "deu")]),
    ],
)
def test_parse_goldens(expr, expected):
    assert terms(expr) == expected


@pytest.mark.parametrize(
    "expr",
    ["", "   ", "En+", "+En", "En++De", "enDe", "E", "EN", "X1", "EnDeFr", "Abcdefghi", "En De", "En-De"],
)
def test_parse_rejects_malformed(expr):
    with pytest.raises(CompositionParseError):
        parse_composition(expr)


def test_render_round_trip_examples():
    for expr in ("En", "En+De", "EnDe+DeEn", "En+EnDe+De+DeEn"):
        assert render_composition(parse_composition(expr)) == expr


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from(["en", "de", "fr", "es", "it"]), st.sampled_from(["en", "de", "fr"])),
        min_size=1,
        max_size=5,
    )
)
def test_parse_render_identity_on_canonical(pairs):
    expr = CompositionExpr(tuple(CompositionTerm(q, t) for q, t in pairs))
    assert parse_composition(render_composition(expr)) == expr


def test_empty_expr_object_rejected():
    with pytest.raises(ValueError):
        CompositionExpr(())


# ---------------------------------------------------------------------------
# transfer
# ---------------------------------------------------------------------------

def test_transfer_translates_and_extends_provenance(tiny_dataset):
    out = transfer(tiny_dataset, MockTranslator(), "de")
    assert out.groups[0].question.text == "de:what de:color de:is de:the de:sky"
    for group in out.groups:
        assert group.question.provenance == ("en", "de")
        for cand in group.candidates:
            assert cand.language == "de"
            assert cand.provenance == ("en", "de")


def test_transfer_preserves_structure(tiny_dataset):
    out = transfer(tiny_dataset, MockTranslator(), "de")
    assert len(out.groups) == len(tiny_dataset.groups)
    for before, after in zip(tiny_dataset.groups, out.groups):
        assert after.question.id == before.question.id
        assert after.question.origin_id == before.question.origin_id
        assert [c.id for c in after.candidates] == [c.id for c in before.candidates]
        assert [c.label for c in after.candidates] == [c.label for c in before.candidates]
        assert [c.origin_id for c in after.candidates] == [c.origin_id for c in before.candidates]


def test_transfer_round_trip_restores_texts():
    d = make_synthetic_dataset(50)
    back = transfer(transfer(d, MockTranslator(), "de"), MockTranslator(), "en")
    for before, after in zip(d.groups, back.groups):
        assert after.question.text == before.question.text
        assert after.question.provenance == ("en", "de", "en")
        for b, a in zip(before.candidates, after.candidates):
            assert a.text == b.text
            assert a.provenance == ("en", "de", "en")


def test_transfer_to_same_language_is_noop(tiny_dataset):
    counting = CountingTranslator(MockTranslator())
    out = transfer(tiny_dataset, counting, "en")
    assert out == tiny_dataset
    assert counting.batch_calls == 0


def test_transfer_empty_dataset():
    empty = make_dataset([], name="En")
    out = transfer(empty, MockTranslator(), "de")
    assert out.groups == ()


# ---------------------------------------------------------------------------
# mix
# ---------------------------------------------------------------------------

def test_mix_takes_questions_and_candidates_from_operands(tiny_dataset):
    d_de = transfer(tiny_dataset, MockTranslator(), "de")
    mixed = mix(tiny_dataset, d_de)
    assert len(mixed.groups) == len(tiny_dataset.groups)
    for group, orig in zip(mixed.groups, tiny_dataset.groups):
        assert group.question.language == "en"
        assert group.question.text == orig.question.text
        assert len(group.candidates) == len(orig.candidates)
        for cand in group.candidates:
            assert cand.language == "de"
            assert cand.text.startswith("de:")
            assert all(tok.startswith("de:") for tok in cand.text.split())


def test_mix_shares_the_partners_candidates(tiny_dataset):
    d_de = transfer(tiny_dataset, MockTranslator(), "de")
    mixed = mix(tiny_dataset, d_de)
    for group, partner in zip(mixed.groups, d_de.groups):
        assert len(group.candidates) == len(partner.candidates)
        assert all(c is p for c, p in zip(group.candidates, partner.candidates))


def test_mix_self_is_identity(tiny_dataset):
    mixed = mix(tiny_dataset, tiny_dataset)
    assert mixed.groups == tiny_dataset.groups


def test_mix_labels_come_from_candidate_operand(tiny_dataset):
    d_de = transfer(tiny_dataset, MockTranslator(), "de")
    mixed = mix(d_de, tiny_dataset)
    for group, orig in zip(mixed.groups, tiny_dataset.groups):
        assert group.question.language == "de"
        assert [c.label for c in group.candidates] == [c.label for c in orig.candidates]
        assert [c.language for c in group.candidates] == ["en"] * len(orig.candidates)


def test_mix_reports_first_missing_origin(tiny_dataset):
    smaller = make_dataset([tiny_dataset.groups[0]])
    with pytest.raises(MixAlignmentError, match="'q2' missing"):
        mix(tiny_dataset, smaller)
    with pytest.raises(MixAlignmentError, match="'q2' missing"):
        mix(smaller, tiny_dataset)


def one_question_per_origin(origins, name):
    return make_dataset([make_group(o, "q", []) for o in origins], name=name)


@pytest.mark.parametrize("n", [3, 20_000])
def test_mix_names_the_unmatched_question_in_linear_time(n):
    # each missing-from-d_q check rebuilt d_q's origin set: 4 s at 8,000 groups
    origins = [f"o{i}" for i in range(n)]
    more = one_question_per_origin([*origins, "extra"], "More")
    fewer = one_question_per_origin(origins, "Fewer")
    start = time.perf_counter()
    with pytest.raises(MixAlignmentError) as info:
        mix(fewer, more)
    assert str(info.value) == "question origin_id 'extra' missing from 'Fewer'"
    with pytest.raises(MixAlignmentError) as info:
        mix(more, fewer)
    assert str(info.value) == "question origin_id 'extra' missing from 'Fewer'"
    assert time.perf_counter() - start < 5.0


@pytest.mark.parametrize("n", [3, 20_000])
def test_mix_names_the_unshared_candidate_in_linear_time(n):
    # each element looked at rebuilt both operands' shared set
    d_q = make_dataset([make_group("q", "q", [(f"t{i}", 0) for i in range(n)])])
    g = d_q.groups[0]
    renamed = replace(g.candidates[-1], origin_id="other")
    d_t = make_dataset([replace(g, candidates=(*g.candidates[:-1], renamed))])
    start = time.perf_counter()
    for operands in [(d_q, d_t), (d_t, d_q)]:
        with pytest.raises(MixAlignmentError) as info:
            mix(*operands)
        missing = f"qc{n - 1}" if operands[0] is d_q else "other"
        assert str(info.value) == (
            f"candidate origin_id {missing!r} not shared by both operands (question 'q')"
        )
    assert time.perf_counter() - start < 5.0


def test_mix_rejects_duplicate_origin():
    g1 = make_group("q1", "question one", [("a", 1)])
    g2 = make_group("q2", "question two", [("b", 0)])
    # two groups sharing a question origin_id make the join ambiguous
    clash = make_dataset([g1, replace(g2, question=replace(g2.question, origin_id="q1"))])
    with pytest.raises(MixAlignmentError, match="duplicate question origin_id"):
        mix(clash, clash)


def test_mix_rejects_mismatched_candidates(tiny_dataset):
    other = transfer(tiny_dataset, MockTranslator(), "de")
    g0 = other.groups[0]
    changed = replace(
        g0,
        candidates=tuple(replace(c, origin_id=c.origin_id + "X") for c in g0.candidates),
    )
    broken = make_dataset([changed, other.groups[1]], name=other.name)
    with pytest.raises(MixAlignmentError, match="candidate origin_id"):
        mix(tiny_dataset, broken)


# ---------------------------------------------------------------------------
# concat
# ---------------------------------------------------------------------------

def test_concat_sizes_add(tiny_dataset):
    d_de = transfer(tiny_dataset, MockTranslator(), "de")
    both = concat(tiny_dataset, d_de)
    assert len(both.groups) == 4
    assert both.num_candidates() == 10


def test_concat_rekeys_and_validates(tiny_dataset):
    d_de = transfer(tiny_dataset, MockTranslator(), "de")
    both = concat(tiny_dataset, d_de)
    assert validate_dataset(both) == []
    assert [g.question.id for g in both.groups] == ["q1#0", "q2#0", "q1#1", "q2#1"]
    # origin ids survive re-keying
    assert [g.question.origin_id for g in both.groups] == ["q1", "q2", "q1", "q2"]
    assert [c.id for c in both.groups[2].candidates] == ["q1c0#1", "q1c1#1"]
    assert [c.origin_id for c in both.groups[2].candidates] == ["q1c0", "q1c1"]


def test_composed_candidates_serialize_with_their_groups_question_id(tiny_dataset):
    d_de = transfer(tiny_dataset, MockTranslator(), "de")
    for out in (concat(tiny_dataset, d_de), mix(tiny_dataset, d_de), mix(d_de, tiny_dataset)):
        qid = None
        for rec in map(json.loads, dataset_lines(out)):
            if rec["kind"] == "q":
                qid = rec["id"]
            else:
                assert rec["qid"] == qid
        assert qid == out.groups[-1].question.id


def test_concat_with_empty(tiny_dataset):
    out = concat(tiny_dataset, make_dataset([], name="empty"))
    assert len(out.groups) == len(tiny_dataset.groups)
    assert [g.question.origin_id for g in out.groups] == ["q1", "q2"]


def group_signature(dataset):
    return sorted(
        (
            g.question.origin_id,
            g.question.provenance,
            g.question.text,
            tuple((c.origin_id, c.provenance, c.text, c.label) for c in g.candidates),
        )
        for g in dataset.groups
    )


def test_concat_associative_up_to_rekeying(tiny_dataset):
    a = tiny_dataset
    b = transfer(a, MockTranslator(), "de")
    c = transfer(a, MockTranslator(), "fr")
    left = concat(concat(a, b), c)
    right = concat(a, concat(b, c))
    assert group_signature(left) == group_signature(right)
    assert validate_dataset(left) == []
    assert validate_dataset(right) == []


def test_concat_many_requires_operands():
    with pytest.raises(ValueError):
        concat_many([])


# ---------------------------------------------------------------------------
# materialize
# ---------------------------------------------------------------------------

def test_materialize_identity(tiny_dataset):
    out = materialize(parse_composition("En"), tiny_dataset, MockTranslator())
    assert out == tiny_dataset  # fixture is already named "En"


def test_materialize_concat_of_languages(tiny_dataset):
    out = materialize(parse_composition("En+De"), tiny_dataset, MockTranslator())
    assert out.name == "En+De"
    assert len(out.groups) == 4
    langs = [g.question.language for g in out.groups]
    assert langs.count("en") == 2 and langs.count("de") == 2
    assert validate_dataset(out) == []


def test_materialize_mixed_terms(tiny_dataset):
    out = materialize(parse_composition("EnDe+DeEn"), tiny_dataset, MockTranslator())
    assert len(out.groups) == 4
    seen = [(g.question.language, {c.language for c in g.candidates}) for g in out.groups]
    assert seen.count(("en", {"de"})) == 2
    assert seen.count(("de", {"en"})) == 2
    # candidate texts in the EnDe half carry the mock "de:" prefix, questions do not
    ende_groups = [g for g in out.groups if g.question.language == "en"]
    for group in ende_groups:
        assert not group.question.text.startswith("de:")
        for cand in group.candidates:
            assert all(tok.startswith("de:") for tok in cand.text.split())
    assert validate_dataset(out) == []


def test_materialize_caches_transfers(tiny_dataset):
    counting = CountingTranslator(MockTranslator())
    materialize(parse_composition("En+EnDe+De+DeEn"), tiny_dataset, counting)
    # "de" is needed three times but translated once; "en" is the identity
    assert counting.batch_calls == 1


# ---------------------------------------------------------------------------
# composed records
# ---------------------------------------------------------------------------

_LANGS = ["en", "de", "fr"]
# ids over a small alphabet holding "#", so a re-keyed id may look like another id
_IDS = st.text(st.sampled_from("ab#0"), min_size=1, max_size=4)


@st.composite
def sources(draw):
    """A valid dataset (globally unique ids, origin id = id) whose records
    are in random languages with random provenance chains."""
    hops = st.lists(st.sampled_from(_LANGS), min_size=1, max_size=3).map(tuple)
    texts = st.text(st.sampled_from("xy é\t"), max_size=8)
    qids = draw(st.lists(_IDS, max_size=4, unique=True))
    cids = iter(draw(st.lists(_IDS, min_size=3 * len(qids), max_size=3 * len(qids), unique=True)))
    groups = []
    for qid in qids:
        cands = tuple(
            AnswerCandidate(cid, cid, draw(texts), draw(st.sampled_from([0, 1])), draw(hops))
            for cid in [next(cids) for _ in range(draw(st.integers(0, 3)))]
        )
        groups.append(QuestionGroup(Question(qid, qid, draw(texts), draw(hops)), cands))
    return Dataset("En", "test", tuple(groups))


def all_records(d):
    return [r for g in d.groups for r in (g.question, *g.candidates)]


def assert_as_if_constructed(out):
    """Every record and group of ``out`` equals what its public constructor
    builds from the same fields, and the dataset-wide invariants hold."""
    assert validate_dataset(out) == []
    for g in out.groups:
        q = g.question
        assert type(q) is Question
        assert Question(q.id, q.origin_id, q.text, q.provenance) == q
        for c in g.candidates:
            assert type(c) is AnswerCandidate
            assert AnswerCandidate(c.id, c.origin_id, c.text, c.label, c.provenance) == c
        ids = [c.id for c in g.candidates]
        assert len(set(ids)) == len(ids)
        assert QuestionGroup(q, g.candidates) == g


@settings(max_examples=100, deadline=None)
@given(
    d=sources(),
    target=st.sampled_from(_LANGS),
    terms=st.lists(st.tuples(*[st.sampled_from(_LANGS)] * 2), min_size=1, max_size=4),
)
def test_algebra_outputs_equal_their_checked_construction(d, target, terms):
    t = transfer(d, MockTranslator(), target)
    # each record's translation is its own text's, whatever the languages
    # around it in the dataset
    for before, after in zip(all_records(d), all_records(t)):
        want = before.text
        if before.language != target:
            want = mock_translate(before.text, before.language, target)
        assert after.text == want
    plan = CompositionExpr(tuple(CompositionTerm(q, c) for q, c in terms))
    for out in (
        t, mix(d, t), mix(t, d), concat_many([d, t, d]), materialize(plan, d, MockTranslator())
    ):
        assert_as_if_constructed(out)


def test_materialize_checks_every_record_it_builds_and_each_chain_once(tmp_path, monkeypatch):
    # the views are memoized, so the composition is all re-keyed copies: each
    # goes through its checked constructor, and each distinct provenance
    # chain is validated once, hop by hop
    path = tmp_path / "source.jsonl"
    save_dataset(make_synthetic_dataset(num_questions=5, cands_per_question=3), path)
    source = load_dataset(path, "test")
    plan = parse_composition("En+EnDe+De+DeEn")
    views = {}
    materialize(plan, source, MockTranslator(), views)
    checked, hops = [], []
    check, validate = dataset._Text.__post_init__, dataset.validate_language

    def counting(self):
        checked.append(self)
        check(self)

    def validating(code):
        hops.append(code)
        return validate(code)

    monkeypatch.setattr(dataset, "_VALID_CHAINS", set())
    monkeypatch.setattr(dataset._Text, "__post_init__", counting)
    monkeypatch.setattr(dataset, "validate_language", validating)
    out = materialize(plan, source, MockTranslator(), views)
    records = all_records(out)
    assert len(records) == 4 * (5 + 15)
    assert [id(r) for r in checked] == [id(r) for r in records]
    assert sorted(hops) == ["de", "en", "en"]
    assert dataset._VALID_CHAINS == {("en",), ("en", "de")}
