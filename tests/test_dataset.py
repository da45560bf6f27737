import hashlib
import json
import re
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlas2 import dataset
from mlas2.dataset import (
    SCORE,
    SPLITS,
    AnswerCandidate,
    Dataset,
    DatasetFormatError,
    Question,
    QuestionGroup,
    dataset_lines,
    filter_answerable,
    fingerprint_dataset,
    jsonl_line,
    load_dataset,
    load_questions,
    read_table,
    save_dataset,
    stats,
    text_lines,
    validate_dataset,
    validate_language,
    write_lines,
)

from conftest import make_candidate, make_dataset, make_group, make_question
from mlas2.candidates import import_annotations, load_corpus, load_gold_labels
from mlas2.cli import _load_rankings
from mlas2.scoring import StaticScorer
from mlas2.servers import load_pair_scores

FIXTURE_LINES = [
    {"kind": "q", "id": "q1", "origin_id": "q1", "text": "what color is the sky", "lang": "en", "prov": ["en"]},
    {"kind": "c", "id": "q1c0", "qid": "q1", "origin_id": "q1c0", "text": "the sky is blue", "label": 1, "lang": "en", "prov": ["en"]},
    {"kind": "c", "id": "q1c1", "qid": "q1", "origin_id": "q1c1", "text": "grass is green", "label": 0, "lang": "en", "prov": ["en"]},
    {"kind": "q", "id": "q2", "origin_id": "q2", "text": "how many legs has a spider", "lang": "en", "prov": ["en"]},
    {"kind": "c", "id": "q2c0", "qid": "q2", "origin_id": "q2c0", "text": "a spider has eight legs", "label": 1, "lang": "en", "prov": ["en"]},
    {"kind": "c", "id": "q2c1", "qid": "q2", "origin_id": "q2c1", "text": "spiders are eight legged", "label": 1, "lang": "en", "prov": ["en"]},
    {"kind": "c", "id": "q2c2", "qid": "q2", "origin_id": "q2c2", "text": "a dog has four legs", "label": 0, "lang": "en", "prov": ["en"]},
]


def write_fixture(path, lines=FIXTURE_LINES):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in lines:
            fh.write(json.dumps(rec) + "\n")


# ---------------------------------------------------------------------------
# record invariants
# ---------------------------------------------------------------------------

def test_language_codes():
    assert validate_language("en") == "en"
    assert validate_language("abcdefgh") == "abcdefgh"
    for bad in ("", "E", "e", "EN", "en1", "abcdefghi", "de-DE", None):
        with pytest.raises(ValueError):
            validate_language(bad)


def test_label_must_be_binary():
    with pytest.raises(ValueError, match="label"):
        make_candidate("c1", "text", 2)
    with pytest.raises(ValueError, match="label"):
        AnswerCandidate("c1", "c1", "text", True, ("en",))


def test_provenance_must_be_nonempty_valid_codes():
    assert Question("q1", "q1", "text", ["de", "en"]).language == "en"
    with pytest.raises(ValueError, match="nonempty"):
        Question("q1", "q1", "text", ())
    with pytest.raises(ValueError, match="language code"):
        AnswerCandidate("c1", "c1", "text", 0, ("en", "DE"))


def accepted_by_the_rule(chain) -> bool:
    """The provenance rule itself, with no memo: a nonempty chain of
    2-8 lowercase ASCII letters per hop."""
    return len(chain) > 0 and all(
        isinstance(hop, str) and re.fullmatch("[a-z]{2,8}", hop) for hop in chain
    )


_HOPS = st.one_of(
    st.sampled_from(["en", "de", "fr"]),
    st.text(st.sampled_from("abDE1-"), max_size=9),
    st.none(),
    st.integers(),
    st.lists(st.sampled_from(["en", "de"]), max_size=2),
)


@settings(max_examples=200, deadline=None)
@given(chain=st.lists(_HOPS, max_size=4), container=st.sampled_from([tuple, list]))
def test_a_chain_is_accepted_exactly_when_the_rule_accepts_it(chain, container):
    # each chain is built twice, so the second build meets the memo warm; an
    # unhashable hop must still give ValueError, never TypeError
    valid = accepted_by_the_rule(chain)
    builds = [
        lambda prov: Question("q", "q", "t", prov),
        lambda prov: AnswerCandidate("c", "c", "t", 0, prov),
    ]
    with mock.patch.object(dataset, "_VALID_CHAINS", set()):
        for build in builds * 2:
            try:
                record = build(container(chain))
            except ValueError:
                assert not valid
            else:
                assert valid
                assert record.provenance == tuple(chain)
                assert type(record.provenance) is tuple
        assert dataset._VALID_CHAINS == ({tuple(chain)} if valid else set())


def test_the_memo_of_valid_chains_stops_growing_at_its_cap():
    codes = [a + b for a in "abcdefghijklmnopqrstuvwxyz" for b in "abcdefghijklmnopqrstuvwxyz"]
    with mock.patch.object(dataset, "_VALID_CHAINS", set()):
        for i in range(dataset._VALID_CHAINS_CAP + 100):
            Question("q", "q", "t", (codes[i % len(codes)], codes[i // len(codes)]))
        assert len(dataset._VALID_CHAINS) == dataset._VALID_CHAINS_CAP
        with pytest.raises(ValueError, match="language code"):
            Question("q", "q", "t", ("en", "DE"))


def test_language_must_match_provenance_tail(tmp_path):
    path = tmp_path / "bad.jsonl"
    for line in (0, 1):  # the question record, then the candidate record
        lines = [dict(rec) for rec in FIXTURE_LINES[:2]]
        lines[line].update(lang="de", prov=["en"])
        write_fixture(path, lines)
        with pytest.raises(DatasetFormatError, match=rf"bad\.jsonl:{line + 1}: .*last provenance hop"):
            load_dataset(path, "train")


def test_group_rejects_duplicate_candidates():
    q = make_question("q1", "question")
    c = make_candidate("c1", "text", 0)
    with pytest.raises(ValueError, match="duplicate"):
        QuestionGroup(q, (c, c))


def test_dataset_rejects_unknown_split():
    with pytest.raises(ValueError, match="split"):
        Dataset("d", "validation", ())


# ---------------------------------------------------------------------------
# load / save
# ---------------------------------------------------------------------------

def test_load_fixture_counts(tmp_path):
    path = tmp_path / "train.jsonl"
    write_fixture(path)
    d = load_dataset(path, "train")
    assert len(d.groups) == 2
    assert d.num_candidates() == 5
    assert d.name == "train"
    assert [c.label for c in d.groups[0].candidates] == [1, 0]
    assert [c.label for c in d.groups[1].candidates] == [1, 1, 0]


def test_load_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    d = load_dataset(path, "test")
    assert d.groups == ()


def test_load_accepts_candidates_before_question(tmp_path):
    lines = [FIXTURE_LINES[1], FIXTURE_LINES[0]]
    path = tmp_path / "interleaved.jsonl"
    write_fixture(path, lines)
    d = load_dataset(path, "train")
    assert len(d.groups) == 1
    assert d.groups[0].candidates[0].id == "q1c0"


def test_load_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"kind":"q","id":"q1"\n')
    with pytest.raises(DatasetFormatError, match=r"bad\.jsonl:1"):
        load_dataset(path, "train")


# each JSONL loader with a valid first record of its own format
LOADERS = {
    "load_dataset": (lambda path: load_dataset(path, "train"), FIXTURE_LINES[0]),
    "load_dataset_candidate": (lambda path: load_dataset(path, "train"), FIXTURE_LINES[1]),
    "load_questions": (load_questions, FIXTURE_LINES[0]),
    "load_corpus": (load_corpus, {"id": "d1", "text": "a b"}),
    "load_gold_labels": (load_gold_labels, {"qid": "q1", "cid": "c1", "label": 1}),
    "import_annotations": (
        lambda path: import_annotations(path, name="x"),
        {"qid": "q1", "cid": "c1", "q": "q", "t": "t", "label": 1},
    ),
    "static_scores": (StaticScorer.from_jsonl, {"qid": "q1", "cid": "c1", "score": 0.5}),
    "load_pair_scores": (load_pair_scores, {"q": "q", "t": "t", "score": 0.5}),
    "load_rankings": (lambda path: _load_rankings(str(path)), {"qid": "q1", "ranking": []}),
}


@pytest.mark.parametrize("bad_line", ["{broken", "[1]"], ids=["invalid-json", "not-object"])
@pytest.mark.parametrize("name", sorted(LOADERS))
def test_every_loader_names_the_bad_line(tmp_path, name, bad_line):
    loader, first = LOADERS[name]
    path = tmp_path / f"{name}.jsonl"
    path.write_text(json.dumps(first) + "\n" + bad_line + "\n")
    with pytest.raises(DatasetFormatError, match=rf"{name}\.jsonl:2: "):
        loader(path)


def wrongly_typed(valid):
    """JSON values of another type than the field's valid value ``valid``: null,
    numbers outside [0, 1], bools, lists of non-strings, objects, and the
    numeric string "0.5" where the valid value is not a string."""
    wrong = (
        st.none()
        | st.integers().filter(lambda n: n not in (0, 1))
        | st.floats().filter(lambda x: not 0 <= x <= 1)
        | st.booleans()
        | st.lists(st.none() | st.integers(), min_size=1, max_size=3)
        | st.dictionaries(st.text(max_size=3), st.integers(), max_size=2)
    )
    return wrong if isinstance(valid, str) else wrong | st.just("0.5")


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_every_loader_rejects_a_wrongly_typed_field(tmp_path_factory, data):
    # never coerced: a null text must not load as "None", nor "0.5" as a score
    name = data.draw(st.sampled_from(sorted(LOADERS)), label="loader")
    loader, valid = LOADERS[name]
    field = data.draw(st.sampled_from(sorted(valid)), label="field")
    value = data.draw(wrongly_typed(valid[field]), label="value")
    path = tmp_path_factory.mktemp("typed") / f"{name}.jsonl"
    path.write_text(json.dumps({**valid, field: value}) + "\n")
    with pytest.raises(DatasetFormatError, match=rf"{name}\.jsonl:1: "):
        loader(path)


def test_read_table_keeps_file_order_and_keys_by_one_field_or_a_pair(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in [
        {"a": "y", "b": "1", "v": 0.5}, {"a": "x", "b": "1", "v": 1}, {"a": "y", "b": "2", "v": 0},
    ]))
    assert list(read_table(path, "t", ("a", "b"), "v", SCORE).items()) == [
        (("y", "1"), 0.5), (("x", "1"), 1.0), (("y", "2"), 0.0),
    ]
    with pytest.raises(DatasetFormatError) as exc:
        read_table(path, "t", ("a",), "v", SCORE)
    assert str(exc.value) == f"{path}:3: duplicate t record for 'y'"
    path.write_text(path.read_text().splitlines(keepends=True)[0] + '{"a": "x", "v": 1}\n')
    assert read_table(path, "t", ("a",), "v", SCORE) == {"y": 0.5, "x": 1.0}


def test_load_rejects_duplicate_question_id(tmp_path):
    path = tmp_path / "dup.jsonl"
    write_fixture(path, [FIXTURE_LINES[0], FIXTURE_LINES[0]])
    with pytest.raises(DatasetFormatError, match="duplicate question id"):
        load_dataset(path, "train")


def test_load_rejects_unknown_question_reference(tmp_path):
    path = tmp_path / "orphan.jsonl"
    write_fixture(path, [FIXTURE_LINES[1]])
    with pytest.raises(DatasetFormatError, match="unknown question"):
        load_dataset(path, "train")


def test_load_rejects_unknown_kind_and_bad_label(tmp_path):
    path = tmp_path / "kind.jsonl"
    write_fixture(path, [{**FIXTURE_LINES[0], "kind": "x"}])
    with pytest.raises(DatasetFormatError, match="unknown record kind"):
        load_dataset(path, "train")
    write_fixture(path, [FIXTURE_LINES[0], {**FIXTURE_LINES[1], "label": 3}])
    with pytest.raises(DatasetFormatError, match="label"):
        load_dataset(path, "train")


def wire_records(d):
    """The wire-format records of a dataset as dicts, question first per
    group: the oracle that the package's record encoder is held to."""
    for group in d.groups:
        q = group.question
        yield {
            "kind": "q", "id": q.id, "origin_id": q.origin_id, "text": q.text,
            "lang": q.language, "prov": list(q.provenance),
        }
        for c in group.candidates:
            yield {
                "kind": "c", "id": c.id, "qid": q.id, "origin_id": c.origin_id, "text": c.text,
                "label": c.label, "lang": c.language, "prov": list(c.provenance),
            }


def test_save_then_load_round_trip(tmp_path, tiny_dataset):
    path = tmp_path / "out.jsonl"
    save_dataset(tiny_dataset, path)
    again = load_dataset(path, tiny_dataset.split, name=tiny_dataset.name)
    assert again == tiny_dataset


def test_save_records_match_modulo_field_order(tmp_path, tiny_dataset):
    path = tmp_path / "out.jsonl"
    save_dataset(tiny_dataset, path)
    written = [json.loads(line) for line in path.read_text().splitlines()]
    assert written == list(wire_records(tiny_dataset))


def test_save_empty_dataset(tmp_path):
    path = tmp_path / "empty.jsonl"
    save_dataset(make_dataset([]), path)
    assert path.read_text() == ""


def test_save_rejects_unlabeled(tmp_path):
    # the question line is written before the unlabeled candidate is met, yet
    # no file is left behind, and an existing one keeps its bytes
    d = make_dataset([make_group("q1", "q", [("t", None)])])
    with pytest.raises(ValueError, match="unlabeled"):
        save_dataset(d, tmp_path / "x.jsonl")
    assert list(tmp_path.iterdir()) == []
    (tmp_path / "x.jsonl").write_bytes(b"old\n")
    with pytest.raises(ValueError, match="unlabeled"):
        save_dataset(d, tmp_path / "x.jsonl")
    assert list(tmp_path.iterdir()) == [tmp_path / "x.jsonl"]
    assert (tmp_path / "x.jsonl").read_bytes() == b"old\n"


def test_writers_of_one_target_keep_their_own_temp_files(tmp_path):
    # both writers used <name>.tmp: the inner one truncated the outer one's
    # temp file and moved it onto the target, so the outer one then wrote the
    # target through its open file and failed to move its temp file
    target = tmp_path / "t.jsonl"

    def outer_lines():
        yield "outer 1\n"
        write_lines(target, ["inner\n"])
        assert target.read_text() == "inner\n"
        yield "outer 2\n"

    write_lines(target, outer_lines())
    assert target.read_text() == "outer 1\nouter 2\n"
    assert list(tmp_path.iterdir()) == [target]
    # the temp file gets the permissions open() gives a new file
    (tmp_path / "ref").write_text("")
    assert target.stat().st_mode == (tmp_path / "ref").stat().st_mode


# ---------------------------------------------------------------------------
# stats / filter / validate
# ---------------------------------------------------------------------------

def test_stats_fixture(tiny_dataset):
    s = stats(tiny_dataset)
    assert (s.num_questions, s.num_correct, s.num_incorrect) == (2, 3, 2)


def test_stats_empty():
    s = stats(make_dataset([]))
    assert (s.num_questions, s.num_correct, s.num_incorrect) == (0, 0, 0)


def test_stats_reference_scale_counts():
    # reference-scale check: 913 questions, 24,558 correct, 69,142 incorrect
    num_q, num_pos, num_neg = 913, 24558, 69142
    per_q_pos, extra_pos = divmod(num_pos, num_q)
    per_q_neg, extra_neg = divmod(num_neg, num_q)
    groups = []
    for i in range(num_q):
        pos = per_q_pos + (1 if i < extra_pos else 0)
        neg = per_q_neg + (1 if i < extra_neg else 0)
        labeled = [("yes", 1)] * pos + [("no", 0)] * neg
        groups.append(make_group(f"q{i}", f"question {i}", labeled))
    s = stats(make_dataset(groups))
    assert (s.num_questions, s.num_correct, s.num_incorrect) == (num_q, num_pos, num_neg)


def test_filter_answerable():
    d = make_dataset(
        [
            make_group("q1", "a", [("x", 0), ("y", 0)]),
            make_group("q2", "b", [("x", 1), ("y", 0)]),
        ]
    )
    kept = filter_answerable(d)
    assert [g.question.id for g in kept.groups] == ["q2"]

    all_positive = make_dataset([make_group("q1", "a", [("x", 1)])])
    assert filter_answerable(all_positive) == all_positive

    none_positive = make_dataset([make_group("q1", "a", [("x", 0)])])
    assert filter_answerable(none_positive).groups == ()


def test_validate_dataset_flags_global_duplicates():
    shared = make_candidate("c1", "text", 0)
    other = make_candidate("c1", "text", 1)
    d = Dataset(
        "d",
        "train",
        (
            QuestionGroup(make_question("q1", "a"), (shared,)),
            QuestionGroup(make_question("q2", "b"), (other,)),
        ),
    )
    violations = validate_dataset(d)
    assert any("duplicate candidate id" in v for v in violations)

    dup_q = Dataset(
        "d",
        "train",
        (
            QuestionGroup(make_question("q1", "a"), ()),
            QuestionGroup(make_question("q1", "b"), ()),
        ),
    )
    assert any("duplicate question id" in v for v in validate_dataset(dup_q))


def test_validate_dataset_clean(tiny_dataset):
    assert validate_dataset(tiny_dataset) == []


def test_fingerprint_changes_with_content(tiny_dataset):
    fp = fingerprint_dataset(tiny_dataset)
    assert fp == fingerprint_dataset(tiny_dataset)
    other = make_dataset([make_group("q1", "different", [("t", 1)])])
    assert fingerprint_dataset(other) != fp


def test_load_questions(tmp_path):
    path = tmp_path / "qs.jsonl"
    write_fixture(path, [FIXTURE_LINES[0], FIXTURE_LINES[3]])
    qs = load_questions(path)
    assert [q.id for q in qs] == ["q1", "q2"]
    write_fixture(path, [FIXTURE_LINES[1]])
    with pytest.raises(DatasetFormatError, match="expected a question record"):
        load_questions(path)


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(st.text(st.sampled_from(["a", "é", " ", "\t", "\n", "\r", "\x0b", "\x1c", "\x85", "\u2028"])))
def test_text_lines_splits_and_numbers_lines_as_text_mode(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("lines") / "t.txt"
    path.write_bytes(text.encode("utf-8"))
    with path.open("r", encoding="utf-8") as fh:
        expected = [(n, line.strip()) for n, line in enumerate(fh, start=1) if line.strip()]
    assert list(text_lines(path)) == expected


@st.composite
def datasets(draw):
    n = draw(st.integers(min_value=0, max_value=5))
    groups = []
    for i in range(n):
        lang = draw(st.sampled_from(["en", "de", "fr"]))
        q = Question(f"q{i}", f"q{i}", draw(st.text(max_size=30)), (lang,))
        m = draw(st.integers(min_value=1, max_value=4))
        cands = tuple(
            AnswerCandidate(
                f"q{i}c{j}",
                f"q{i}c{j}",
                draw(st.text(max_size=40)),
                draw(st.integers(min_value=0, max_value=1)),
                (lang,),
            )
            for j in range(m)
        )
        groups.append(QuestionGroup(q, cands))
    return Dataset(
        draw(st.sampled_from(["D", "En", "some-name"])),
        draw(st.sampled_from(SPLITS)),
        tuple(groups),
    )


@settings(max_examples=100, deadline=None)
@given(datasets())
def test_round_trip_property(tmp_path_factory, d):
    path = tmp_path_factory.mktemp("rt") / "d.jsonl"
    save_dataset(d, path)
    assert load_dataset(path, d.split, name=d.name) == d


@settings(max_examples=50, deadline=None)
@given(datasets())
def test_filter_answerable_idempotent(d):
    once = filter_answerable(d)
    assert filter_answerable(once) == once


@settings(max_examples=50, deadline=None)
@given(datasets())
def test_stats_totals(d):
    s = stats(d)
    assert s.num_correct + s.num_incorrect == d.num_candidates()
    assert s.num_questions == len(d.groups)


# JSON's hard cases: quote, backslash, control characters, DEL, the line
# separators JavaScript rejects, non-BMP characters, and plain ones
_HARD_TEXT = st.text(
    st.one_of(
        st.sampled_from(['"', "\\", "\x00", "\x1f", "\n", "\t", "\x7f", "\u2028", "\u2029",
                         "\U0001f600", "\U0010ffff", "é", "a", "/"]),
        st.characters(blacklist_categories=("Cs",)),
    ),
    max_size=12,
)


@st.composite
def hard_datasets(draw):
    hops = st.lists(st.sampled_from(["en", "de", "fr", "zh"]), min_size=1, max_size=4).map(tuple)
    groups = []
    for qid in draw(st.lists(_HARD_TEXT, max_size=4, unique=True)):
        q = Question(qid, draw(_HARD_TEXT), draw(_HARD_TEXT), draw(hops))
        cands = tuple(
            AnswerCandidate(cid, draw(_HARD_TEXT), draw(_HARD_TEXT), draw(st.sampled_from([0, 1])),
                            draw(hops))
            for cid in draw(st.lists(_HARD_TEXT, max_size=4, unique=True))
        )
        groups.append(QuestionGroup(q, cands))
    return Dataset("D", "test", tuple(groups))


@settings(max_examples=200, deadline=None)
@given(hard_datasets())
def test_record_encoder_equals_json_dumps(tmp_path_factory, d):
    records = list(wire_records(d))
    canonical = [json.dumps(r, ensure_ascii=False, sort_keys=True) + "\n" for r in records]
    assert list(dataset_lines(d, sort_keys=True)) == canonical
    assert list(dataset_lines(d)) == [jsonl_line(r) for r in records]
    # the fingerprint hashes the canonical lines, and a save writes the others
    assert fingerprint_dataset(d) == hashlib.sha256("".join(canonical).encode("utf-8")).hexdigest()
    path = tmp_path_factory.mktemp("enc") / "d.jsonl"
    save_dataset(d, path)
    assert path.read_bytes() == "".join(map(jsonl_line, records)).encode("utf-8")
