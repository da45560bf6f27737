"""Data model and JSONL serialization for answer-sentence-selection datasets.

A dataset groups labeled answer candidates under their questions. Every text
carries the ordered chain of languages it passed through, the last being its
language, so translated, mixed, and concatenated corpora stay traceable to
their original records via ``origin_id``.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import reprlib
import secrets
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple

SPLITS = ("train", "dev", "test")

_LANG_RE = re.compile(r"[a-z]{2,8}")


class DatasetFormatError(ValueError):
    """A dataset file or record violates the JSONL schema."""


def validate_language(code: str) -> str:
    """Check a language code (2-8 lowercase ASCII letters) and return it."""
    if not isinstance(code, str) or not _LANG_RE.fullmatch(code):
        raise ValueError(f"invalid language code {code!r} (want 2-8 lowercase ASCII letters)")
    return code


# The provenance chains found valid so far: records share few chains, so each
# distinct chain is checked once per process. An invalid chain is never added,
# and past the cap no chain is, so no input grows the set without limit.
_VALID_CHAINS: set[tuple[str, ...]] = set()
_VALID_CHAINS_CAP = 1024


class _Text:
    """A text record's provenance: the nonempty chain of languages the text
    passed through. Its last hop is the language the text is in."""

    provenance: tuple[str, ...]

    def __post_init__(self) -> None:
        if type(self.provenance) is not tuple:
            object.__setattr__(self, "provenance", tuple(self.provenance))
        chain = self.provenance
        try:
            if chain in _VALID_CHAINS:
                return
        except TypeError:  # an unhashable hop, which the check below rejects
            pass
        if not chain:
            raise ValueError("provenance chain must be nonempty")
        for hop in chain:
            validate_language(hop)
        if len(_VALID_CHAINS) < _VALID_CHAINS_CAP:
            _VALID_CHAINS.add(chain)

    @property
    def language(self) -> str:
        return self.provenance[-1]


@dataclass(frozen=True)
class Question(_Text):
    id: str
    origin_id: str
    text: str
    provenance: tuple[str, ...]


@dataclass(frozen=True)
class AnswerCandidate(_Text):
    """A candidate sentence for the question of the group that holds it;
    ``label`` is None until annotated."""

    id: str
    origin_id: str
    text: str
    label: int | None
    provenance: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.label is not None and (isinstance(self.label, bool) or self.label not in (0, 1)):
            raise ValueError(f"label must be 0 or 1, got {self.label!r}")
        super().__post_init__()


@dataclass(frozen=True)
class QuestionGroup:
    question: Question
    candidates: tuple[AnswerCandidate, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "candidates", tuple(self.candidates))
        seen: set[str] = set()
        for cand in self.candidates:
            if cand.id in seen:
                raise ValueError(f"duplicate candidate id {cand.id!r} in group {self.question.id!r}")
            seen.add(cand.id)


@dataclass(frozen=True)
class Dataset:
    name: str
    split: str
    groups: tuple[QuestionGroup, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "groups", tuple(self.groups))
        if self.split not in SPLITS:
            raise ValueError(f"split must be one of {SPLITS}, got {self.split!r}")

    def num_candidates(self) -> int:
        return sum(len(g.candidates) for g in self.groups)

    def candidate_texts(self) -> Iterator[str]:
        return (c.text for g in self.groups for c in g.candidates)


@dataclass(frozen=True)
class DatasetStats:
    num_questions: int
    num_correct: int
    num_incorrect: int


def stats(d: Dataset) -> DatasetStats:
    """Count questions and correct/incorrect candidates; rejects unlabeled data."""
    correct = incorrect = 0
    for group in d.groups:
        for cand in group.candidates:
            if cand.label is None:
                raise ValueError(f"candidate {cand.id!r} is unlabeled")
            if cand.label == 1:
                correct += 1
            else:
                incorrect += 1
    return DatasetStats(len(d.groups), correct, incorrect)


def filter_answerable(d: Dataset) -> Dataset:
    """Keep only groups with at least one candidate labeled correct."""
    kept = tuple(g for g in d.groups if any(c.label == 1 for c in g.candidates))
    return Dataset(d.name, d.split, kept)


def validate_dataset(d: Dataset) -> list[str]:
    """Return a list of invariant violations (empty when the dataset is valid).

    Record- and group-level invariants are enforced at construction time, so
    this checks the dataset-wide ones: unique question ids, unique candidate
    ids, and no pending (None) labels.
    """
    violations: list[str] = []
    seen_q: set[str] = set()
    seen_c: set[str] = set()
    for group in d.groups:
        qid = group.question.id
        if qid in seen_q:
            violations.append(f"duplicate question id {qid!r}")
        seen_q.add(qid)
        for cand in group.candidates:
            if cand.id in seen_c:
                violations.append(f"duplicate candidate id {cand.id!r}")
            seen_c.add(cand.id)
            if cand.label is None:
                violations.append(f"candidate {cand.id!r} has no label")
    return violations


# ---------------------------------------------------------------------------
# typed field reader: the package's JSON records and bodies are read through here
# ---------------------------------------------------------------------------

class FieldKind(NamedTuple):
    """A kind of JSON field: ``want`` names it in error messages, and ``test``
    says whether a value is of this kind. Nothing is coerced: ``"0.5"`` is not
    a score, ``true`` is not a label, and ``null`` is not a text."""

    want: str
    test: Callable[[object], bool]


# A JSON escape such as "\ud800" reads as a lone surrogate, which no output can
# encode as UTF-8, so a text must hold none; isascii() is O(1), so an ASCII
# text is not searched.
_SURROGATE = re.compile("[\ud800-\udfff]")
TEXT = FieldKind(
    "a JSON string encodable as UTF-8",
    lambda v: isinstance(v, str) and (v.isascii() or not _SURROGATE.search(v)),
)
TEXTS = FieldKind(
    "a list of strings encodable as UTF-8", lambda v: isinstance(v, list) and all(map(TEXT.test, v))
)
# type(), not isinstance(): json.loads makes exact types, and true/false are
# instances of int, yet neither a label, a count nor a score
LABEL = FieldKind("the integer 0 or 1", lambda v: type(v) is int and v in (0, 1))
INTEGER = FieldKind("a JSON integer", lambda v: type(v) is int)
COUNT = FieldKind("a non-negative JSON integer", lambda v: type(v) is int and v >= 0)
NUMBER = FieldKind("a JSON number", lambda v: type(v) in (int, float))
OPTIONAL_TEXT = FieldKind(
    "a JSON string encodable as UTF-8, or null", lambda v: v is None or TEXT.test(v)
)
# compared before float(), which overflows on a huge JSON integer
SCORE = FieldKind("a JSON number in [0, 1]", lambda v: type(v) in (int, float) and 0 <= v <= 1)


def read_fields(rec: object, where: str, what: str, spec: dict[str, FieldKind]) -> list:
    """The values of the fields that ``spec`` maps to kinds, in ``spec`` order,
    from a parsed JSON object; scores come back as floats and other keys are
    ignored. ``where`` locates the record (``path:line`` for a file) and
    ``what`` names it: a non-object, a missing field or a value of the wrong
    kind raises ``DatasetFormatError("<where>: bad <what> record: ...")``."""
    if not isinstance(rec, dict):
        raise DatasetFormatError(f"{where}: bad {what} record: not a JSON object")
    values = []
    for key, kind in spec.items():
        if key not in rec:
            raise DatasetFormatError(f"{where}: bad {what} record: missing {what} field {key!r}")
        value = rec[key]
        if not kind.test(value):
            raise DatasetFormatError(
                f"{where}: bad {what} record: {key!r} must be {kind.want}, "
                f"got {reprlib.repr(value)}"
            )
        values.append(float(value) if kind is SCORE else value)
    return values


# ---------------------------------------------------------------------------
# JSONL schema
#
# question record:  {"kind":"q","id":...,"origin_id":...,"text":...,"lang":...,"prov":[...]}
# candidate record: {"kind":"c","id":...,"qid":...,"origin_id":...,"text":...,
#                    "label":0|1,"lang":...,"prov":[...]}
# Question records may precede all candidates or be interleaved with them.
# ---------------------------------------------------------------------------

# in the order of the constructors' arguments, "qid" and "lang" aside
_QUESTION = {"id": TEXT, "origin_id": TEXT, "text": TEXT, "lang": TEXT, "prov": TEXTS}
_CANDIDATE = {
    "id": TEXT, "qid": TEXT, "origin_id": TEXT, "text": TEXT, "label": LABEL, "lang": TEXT,
    "prov": TEXTS,
}


def _build(cls: type, where: str, fields: list) -> Question | AnswerCandidate:
    """A record from its read fields: the constructor's arguments, then
    ``lang`` and ``prov``; ``lang`` must be the last hop of ``prov``."""
    *args, lang, prov = fields
    try:
        record = cls(*args, prov)
    except ValueError as exc:
        raise DatasetFormatError(f"{where}: {exc}") from exc
    if lang != record.language:
        raise DatasetFormatError(
            f"{where}: language {lang!r} must equal the last provenance hop {record.language!r}"
        )
    return record


def _parse_question(rec: dict, where: str) -> Question:
    return _build(Question, where, read_fields(rec, where, "question", _QUESTION))


def _parse_candidate(rec: dict, where: str) -> tuple[str, AnswerCandidate]:
    """The id of the question a candidate record names, and the candidate."""
    cid, qid, *fields = read_fields(rec, where, "candidate", _CANDIDATE)
    return qid, _build(AnswerCandidate, where, [cid, *fields])


def text_lines(path: Path) -> Iterator[tuple[int, str | None]]:
    """Yield ``(line number, stripped text)`` for every nonblank line of a UTF-8
    text file; the text is None for a line that is not valid UTF-8. Lines end
    at ``\n``, ``\r\n`` or ``\r``, as in text mode."""
    lineno = 0
    with path.open("rb") as fh:
        for raw in fh:
            for piece in raw.splitlines():
                lineno += 1
                try:
                    line = piece.decode("utf-8").strip()
                except UnicodeDecodeError:
                    yield lineno, None
                    continue
                if line:
                    yield lineno, line


def iter_jsonl(path: str | Path) -> Iterator[tuple[str, dict]]:
    """Yield ``(where, record)`` for every nonblank line of a JSONL file, where
    ``where`` is ``"path:line"``.

    This is the one reader of the package's strict JSONL inputs: a line that is
    not valid UTF-8, not valid JSON (or nests too deeply to parse) or not a
    JSON object raises DatasetFormatError naming it.
    """
    p = Path(path)
    for lineno, line in text_lines(p):
        where = f"{p}:{lineno}"
        if line is None:
            raise DatasetFormatError(f"{where}: invalid UTF-8")
        rec = _parse_json(line, where, DatasetFormatError)
        if not isinstance(rec, dict):
            raise DatasetFormatError(f"{where}: record must be a JSON object")
        yield where, rec


def read_table(
    path: str | Path, what: str, key: tuple[str, ...], value: str, kind: FieldKind
) -> dict:
    """The one reader of keyed JSONL tables: a dict, in file order, from each
    record's ``key`` text fields (their values as a tuple when there are two)
    to its ``value`` field of ``kind``, every record read by ``read_fields`` as
    a ``what`` record. A key is never overwritten: its second record raises
    ``DatasetFormatError("path:line: duplicate <what> record for <key>")``."""
    spec = {**dict.fromkeys(key, TEXT), value: kind}
    table: dict = {}
    for where, rec in iter_jsonl(path):
        *keys, field = read_fields(rec, where, what, spec)
        k = tuple(keys) if len(keys) > 1 else keys[0]
        if k in table:
            raise DatasetFormatError(f"{where}: duplicate {what} record for {k!r}")
        table[k] = field
    return table


def read_json(path: str | Path, error: type[Exception], what: str) -> object:
    """Parse a whole JSON file. A file that is not valid UTF-8, invalid JSON, or
    JSON nested too deeply to parse raises the caller's
    ``error("<path>: bad <what>: invalid ...")``."""
    where = f"{path}: bad {what}"
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{where}: invalid UTF-8") from exc
    return _parse_json(text, where, error)


def _parse_json(text: str, where: str, error: type[Exception]) -> object:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"{where}: invalid JSON: {exc.msg}") from exc
    except RecursionError as exc:
        raise error(f"{where}: invalid JSON: nested too deeply") from exc


def load_dataset(path: str | Path, split: str, name: str | None = None) -> Dataset:
    """Load a JSONL dataset file, preserving record order.

    Raises DatasetFormatError (with the offending line number) on malformed
    lines, duplicate ids, or candidates referencing unknown questions.
    """
    p = Path(path)
    questions: dict[str, Question] = {}
    candidates: dict[str, list[AnswerCandidate]] = {}
    cand_ids: set[str] = set()
    for where, rec in iter_jsonl(p):
        kind = rec.get("kind")
        if kind == "q":
            q = _parse_question(rec, where)
            if q.id in questions:
                raise DatasetFormatError(f"{where}: duplicate question id {q.id!r}")
            questions[q.id] = q
        elif kind == "c":
            qid, c = _parse_candidate(rec, where)
            if c.id in cand_ids:
                raise DatasetFormatError(f"{where}: duplicate candidate id {c.id!r}")
            cand_ids.add(c.id)
            candidates.setdefault(qid, []).append(c)
        else:
            raise DatasetFormatError(f"{where}: unknown record kind {kind!r}")
    for qid in candidates:
        if qid not in questions:
            raise DatasetFormatError(f"{p}: candidate references unknown question id {qid!r}")
    groups = tuple(
        QuestionGroup(q, tuple(candidates.get(qid, []))) for qid, q in questions.items()
    )
    return Dataset(name if name is not None else p.stem, split, groups)


# The one encoder of dataset records: %-templates over json's own string
# escaper, so a line equals json.dumps(record, ensure_ascii=False) plus "\n",
# with sort_keys=True in the canonical form
_SAVED_Q = '{"kind": "q", "id": %s, "origin_id": %s, "text": %s, "lang": %s, "prov": %s}\n'
_SAVED_C = (
    '{"kind": "c", "id": %s, "qid": %s, "origin_id": %s, "text": %s, "label": %d, '
    '"lang": %s, "prov": %s}\n'
)
_CANONICAL_Q = '{"id": %s, "kind": "q", "lang": %s, "origin_id": %s, "prov": %s, "text": %s}\n'
_CANONICAL_C = (
    '{"id": %s, "kind": "c", "label": %d, "lang": %s, "origin_id": %s, "prov": %s, '
    '"qid": %s, "text": %s}\n'
)


def dataset_lines(d: Dataset, sort_keys: bool = False) -> Iterator[str]:
    """The JSONL lines of a dataset, question first per group: the lines
    ``save_dataset`` writes, or with ``sort_keys`` the canonical lines
    ``fingerprint_dataset`` hashes. An unlabeled candidate raises ValueError."""
    enc = json.encoder.encode_basestring
    # records share few provenance chains, so each is encoded once per call
    provs: dict[tuple[str, ...], tuple[str, str]] = {}

    def lang_prov(chain: tuple[str, ...]) -> tuple[str, str]:
        if chain not in provs:
            provs[chain] = (enc(chain[-1]), "[" + ", ".join(map(enc, chain)) + "]")
        return provs[chain]

    for group in d.groups:
        q = group.question
        qid = enc(q.id)
        lang, prov = lang_prov(q.provenance)
        if sort_keys:
            yield _CANONICAL_Q % (qid, lang, enc(q.origin_id), prov, enc(q.text))
        else:
            yield _SAVED_Q % (qid, enc(q.origin_id), enc(q.text), lang, prov)
        for c in group.candidates:
            if c.label is None:
                raise ValueError(f"candidate {c.id!r} is unlabeled; cannot serialize")
            lang, prov = lang_prov(c.provenance)
            if sort_keys:
                yield _CANONICAL_C % (
                    enc(c.id), c.label, lang, enc(c.origin_id), prov, qid, enc(c.text)
                )
            else:
                yield _SAVED_C % (
                    enc(c.id), qid, enc(c.origin_id), enc(c.text), c.label, lang, prov
                )


def jsonl_line(rec: object) -> str:
    return json.dumps(rec, ensure_ascii=False) + "\n"


def check_replaceable(path: str | Path) -> None:
    """Raise OSError unless ``write_lines`` may replace ``path``: an existing
    ``path`` that is not a regular file (a FIFO, a directory, a symlink such
    as ``/dev/stdout``) is left untouched, and a ``path`` whose directory is
    missing cannot be written."""
    p = Path(path)
    if p.is_symlink() or p.exists() and not p.is_file():
        raise OSError(f"{p}: not a regular file, so not replaced")
    if not p.parent.is_dir():
        raise OSError(f"{p}: no directory {p.parent} to write into")


def write_lines(path: str | Path, lines: Iterable[str]) -> None:
    """The one writer of output files, all or nothing: a temp file of its own
    beside ``path``, ``<name>.<16 random hex digits>.tmp``, replaces it once
    every line is written, or is removed on failure, so two writers of one
    target never share a temp file. A ``path`` that ``check_replaceable``
    rejects raises OSError, untouched."""
    p = Path(path)
    check_replaceable(p)
    tmp = p.with_name(f"{p.name}.{secrets.token_hex(8)}.tmp")
    # created exclusively, so no other writer's file is opened (or removed
    # below), with the permissions the umask leaves, as open() gives
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", encoding="utf-8") as fh:
            fh.writelines(lines)
        os.replace(tmp, p)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_dataset(d: Dataset, path: str | Path) -> None:
    """Write a dataset as JSONL; ``load_dataset`` parses it back to an equal value."""
    write_lines(path, dataset_lines(d))


def fingerprint_dataset(d: Dataset) -> str:
    """SHA-256 of the canonical JSONL serialization (detects any content drift)."""
    h = hashlib.sha256()
    # one line per update: buffering lines would only raise peak memory
    for line in dataset_lines(d, sort_keys=True):
        h.update(line.encode("utf-8"))
    return h.hexdigest()


def load_questions(path: str | Path) -> list[Question]:
    """Load a JSONL file of question records only (candidate records rejected)."""
    out: list[Question] = []
    seen: set[str] = set()
    for where, rec in iter_jsonl(path):
        if rec.get("kind") != "q":
            raise DatasetFormatError(f"{where}: expected a question record")
        q = _parse_question(rec, where)
        if q.id in seen:
            raise DatasetFormatError(f"{where}: duplicate question id {q.id!r}")
        seen.add(q.id)
        out.append(q)
    return out
