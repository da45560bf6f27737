"""Exit-code contract under hostile input: every subcommand that reads files
returns 0, 1 or 2 and lets no exception escape, whatever its input files hold:
arbitrary bytes, arbitrary JSON, or a valid file with one field of any type.

Runs offline: every HTTP POST fails to connect and retry back-off is a no-op,
so the http translator and the remote scorer fail fast with typed errors.
"""

import contextlib
import io
import json
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
import requests
from hypothesis import given, settings
from hypothesis import strategies as st

from mlas2.cli import main
from mlas2.experiment import ExperimentConfig, run_experiment
from mlas2.translation import TranslationCache, mock_translate
from test_dataset import FIXTURE_LINES

_CANDIDATES = [rec for rec in FIXTURE_LINES if rec["kind"] == "c"]
_CONFIG = {
    "run_name": "fuzz",
    "pretrained_label": "bert-base-multilingual-cased",
    "source": {"train": "dataset.jsonl", "dev": "dataset.jsonl", "test": "dataset.jsonl"},
    "ft_expr": "En",
    "dev_expr": "En",
    "test_exprs": ["EnDe"],
    "scorer": {"kind": "lexical", "batch_size": 8},
    "translator": {"kind": "mock"},
    "hyperparameters": {"learning_rate": 2e-5, "max_seq_len": 128, "max_iterations": 3},
    "baseline_run": "base",
}

# the valid content of each input file: a list of records for JSONL, one
# JSON value otherwise (the baseline run record is made by valid_inputs)
VALID = {
    "dataset.jsonl": FIXTURE_LINES,
    "dataset2.jsonl": FIXTURE_LINES,
    "cache.jsonl": [
        {"backend": "mock", "src": "en", "tgt": "de", "hash": TranslationCache.text_key(rec["text"]),
         "text": mock_translate(rec["text"], "en", "de")}
        for rec in FIXTURE_LINES
    ],
    "corpus.jsonl": [
        {"id": "d1", "text": "Cats chase mice. Cats sleep."},
        {"id": "d2", "text": "The sun is a star."},
    ],
    "questions.jsonl": [FIXTURE_LINES[0]],
    "tasks.jsonl": [
        {"qid": "q1", "cid": "d1:0", "q": "what do cats chase", "t": "Cats chase mice.", "label": 1},
        {"qid": "q1", "cid": "d1:1", "q": "what do cats chase", "t": "Cats sleep.", "label": 0},
    ],
    "gold.jsonl": [
        {"qid": "q1", "cid": "d1:0", "label": 1},
        {"qid": "q1", "cid": "d1:1", "label": 0},
    ],
    "scores.jsonl": [
        {"qid": rec["qid"], "cid": rec["id"], "score": 0.5 + rec["label"] / 4} for rec in _CANDIDATES
    ],
    "rankings.jsonl": [
        {"qid": qid, "ranking": [[rec["id"], 0.5] for rec in _CANDIDATES if rec["qid"] == qid]}
        for qid in ("q1", "q2")
    ],
    "baseline.json": {"test": "train", "n": 2, "p_at_1": 0.5, "map": 0.75, "mrr": 0.75},
    "config.json": _CONFIG,
    "runs/base.json": None,
}

_OUT = "{tmp}/out.jsonl"
_DEAD = "http://127.0.0.1:9"
# argv of each file-reading subcommand (serve aside), and the files it reads
COMMANDS = {
    "stats": ("dataset stats dataset.jsonl", ["dataset.jsonl"]),
    "validate": ("dataset validate dataset.jsonl", ["dataset.jsonl"]),
    "transfer": (
        f"dataset transfer dataset.jsonl --to de --out {_OUT} --cache cache.jsonl",
        ["dataset.jsonl", "cache.jsonl"],
    ),
    "transfer-http": (
        f"dataset transfer dataset.jsonl --to de --out {_OUT} --cache cache.jsonl "
        f"--translator http --endpoint {_DEAD}/translate",
        ["dataset.jsonl", "cache.jsonl"],
    ),
    "mix": (f"dataset mix dataset.jsonl dataset2.jsonl --out {_OUT}",
            ["dataset.jsonl", "dataset2.jsonl"]),
    "concat": (f"dataset concat dataset.jsonl dataset2.jsonl --out {_OUT}",
               ["dataset.jsonl", "dataset2.jsonl"]),
    "compose": (
        f"dataset compose --expr En+EnDe+De --source dataset.jsonl --out {_OUT} --cache cache.jsonl",
        ["dataset.jsonl", "cache.jsonl"],
    ),
    "candidates-build": (
        f"candidates build --corpus corpus.jsonl --questions questions.jsonl --out {_OUT} "
        "--k-docs 2 --k-sents 3",
        ["corpus.jsonl", "questions.jsonl"],
    ),
    "candidates-annotate": (
        f"candidates annotate --tasks tasks.jsonl --gold gold.jsonl --out {_OUT}",
        ["tasks.jsonl", "gold.jsonl"],
    ),
    "candidates-annotate-labeled": (
        f"candidates annotate --tasks tasks.jsonl --out {_OUT}", ["tasks.jsonl"]
    ),
    "rank-static": ("rank dataset.jsonl --scorer static --scores scores.jsonl",
                    ["dataset.jsonl", "scores.jsonl"]),
    "rank-remote": (f"rank dataset.jsonl --scorer remote --endpoint {_DEAD}/score",
                    ["dataset.jsonl"]),
    "evaluate-rankings": (
        "evaluate dataset.jsonl --rankings rankings.jsonl --baseline baseline.json",
        ["dataset.jsonl", "rankings.jsonl", "baseline.json"],
    ),
    "evaluate-static": ("evaluate dataset.jsonl --scorer static --scores scores.jsonl",
                        ["dataset.jsonl", "scores.jsonl"]),
    "experiment-run": (
        "experiment run --config config.json --results-dir {tmp}/runs",
        ["config.json", "dataset.jsonl", "runs/base.json"],
    ),
}

# lone surrogates (category Cs), such as JSON reads from "\ud800", are texts
# no output can encode
_texts = st.characters() | st.characters(categories=["Cs"])

# object keys of at most 6 characters cannot add a config field the valid
# config leaves out, such as the translator's cache_path, which is written to
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(_texts, max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(_texts, max_size=6), inner, max_size=3),
    max_leaves=8,
)


@pytest.fixture(scope="module", autouse=True)
def offline():
    def refuse(self, url, **kwargs):
        raise requests.ConnectionError(f"no network in this test: {url}")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(requests.Session, "post", refuse)
        mp.setattr("time.sleep", lambda seconds: None)
        yield


@pytest.fixture(scope="module")
def valid_inputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("valid")
    write_inputs(tmp, VALID)
    config = ExperimentConfig.from_json(tmp / "config.json")
    base = run_experiment(replace(config, baseline_run=None))
    return {**VALID, "runs/base.json": base.to_dict()}


def encode(name: str, value) -> bytes:
    if name.endswith(".jsonl"):
        return "".join(json.dumps(rec) + "\n" for rec in value).encode()
    return json.dumps(value).encode()


def write_inputs(tmp: Path, contents: dict) -> None:
    for name, value in contents.items():
        if value is None:
            continue
        path = tmp / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(value if isinstance(value, bytes) else encode(name, value))


def field_paths(value, prefix=()):
    """The path to every dict value and list item nested in ``value``."""
    if isinstance(value, dict):
        items = value.items()
    else:
        items = enumerate(value) if isinstance(value, list) else ()
    for key, inner in items:
        yield prefix + (key,)
        yield from field_paths(inner, prefix + (key,))


def replaced(value, path, new):
    if not path:
        return new
    head, rest = path[0], path[1:]
    if isinstance(value, dict):
        return {**value, head: replaced(value[head], rest, new)}
    return [replaced(v, rest, new) if i == head else v for i, v in enumerate(value)]


@st.composite
def hostile(draw, name: str, valid):
    """The bytes of a hostile version of input file ``name``."""
    mode = draw(st.sampled_from(["bytes", "json", "field"]))
    if mode == "bytes":
        return draw(st.binary(max_size=300))
    if mode == "json":
        if name.endswith(".jsonl"):
            lines = draw(st.lists(json_values, min_size=1, max_size=3))
            return "".join(json.dumps(v) + "\n" for v in lines).encode()
        return json.dumps(draw(json_values)).encode()
    # every field, the config's run_name too: the config takes only a plain
    # file name, so no fuzzed run record lands outside the test's directory
    path = draw(st.sampled_from(list(field_paths(valid))))
    return encode(name, replaced(valid, path, draw(json_values)))


def run_command(command: str, contents: dict) -> tuple[int, str]:
    """Write the input files, run ``command`` in-process on them, and return
    its exit code and stderr. The config names its files relative to itself."""
    template, _ = COMMANDS[command]
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(Path(tmp), contents)
        argv = [
            str(Path(tmp) / arg) if arg in VALID else arg.format(tmp=tmp)
            for arg in template.split()
        ]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    return code, err.getvalue()


@pytest.mark.parametrize("command", COMMANDS)
def test_valid_input_files_exit_0(valid_inputs, command):
    # the fuzz test below starts from these files; the dead endpoints exit 2
    code, err = run_command(command, valid_inputs)
    assert code == (2 if command in ("transfer-http", "rank-remote") else 0), err


@pytest.mark.parametrize("command", COMMANDS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_hostile_input_file_exits_0_1_or_2(valid_inputs, command, data):
    name = data.draw(st.sampled_from(COMMANDS[command][1]), label="file")
    content = data.draw(hostile(name, valid_inputs[name]), label="content")
    code, _ = run_command(command, {**valid_inputs, name: content})
    assert code in (0, 1, 2)
