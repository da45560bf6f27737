import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlas2.translation import (
    CachingTranslator,
    MockTranslator,
    TranslationCache,
    TranslationError,
    TranslationRequest,
    Translator,
    _batches,
    mock_translate,
)


class CountingTranslator(Translator):
    """Wraps a backend, counting batch calls and texts sent."""

    def __init__(self, backend):
        self.backend = backend
        self.batch_calls = 0
        self.texts_sent = 0

    def translate_batch(self, request):
        self.batch_calls += 1
        self.texts_sent += len(request.texts)
        return self.backend.translate_batch(request)


# ---------------------------------------------------------------------------
# mock rule
# ---------------------------------------------------------------------------

def test_mock_translate_rule():
    assert mock_translate("what is x", "en", "de") == "de:what de:is de:x"
    assert mock_translate("de:what de:is", "de", "en") == "what is"
    assert mock_translate("de:a b", "de", "en") == "a en:b"


def test_mock_translate_collapses_whitespace():
    assert mock_translate("  a \t b\nc ", "en", "de") == "de:a de:b de:c"


def test_translate_batch_contract():
    mock = MockTranslator()
    there = TranslationRequest(["hello world"], "en", "de")
    back = TranslationRequest(["de:hello de:world"], "de", "en")
    assert mock.translate_batch(there) == ["de:hello de:world"]
    assert mock.translate_batch(back) == ["hello world"]
    assert mock.translate_batch(TranslationRequest([], "en", "de")) == []


def test_request_rejects_same_language():
    with pytest.raises(ValueError, match="both"):
        TranslationRequest(("x",), "en", "en")


@settings(max_examples=100, deadline=None)
@given(st.text(alphabet="abcdefgh ", max_size=60), st.sampled_from([("en", "de"), ("fr", "it")]))
def test_mock_round_trip(text, langs):
    src, tgt = langs
    there = mock_translate(text, src, tgt)
    back = mock_translate(there, tgt, src)
    assert back == " ".join(text.split())


# ---------------------------------------------------------------------------
# batching
# ---------------------------------------------------------------------------

def test_batches_respect_text_limit():
    batches = list(_batches(["x"] * 120))
    assert [len(b) for b in batches] == [50, 50, 20]


def test_batches_respect_char_limit():
    texts = ["a" * 1500] * 4
    batches = list(_batches(texts))
    assert [len(b) for b in batches] == [2, 2]


def test_oversized_text_travels_alone():
    batches = list(_batches(["a" * 5000, "b"]))
    assert [len(b) for b in batches] == [1, 1]


# ---------------------------------------------------------------------------
# cache
# ---------------------------------------------------------------------------

def test_cache_hit_skips_backend(tmp_path):
    cache = TranslationCache(tmp_path / "cache.jsonl", "mock")
    backend = CountingTranslator(MockTranslator())
    req = TranslationRequest(("hello", "world"), "en", "de")
    translator = CachingTranslator(backend, cache)
    first = translator.translate_batch(req)
    assert backend.batch_calls == 1
    second = translator.translate_batch(req)
    assert second == first
    assert backend.batch_calls == 1


def test_partial_hit_sends_only_misses(tmp_path):
    cache = TranslationCache(tmp_path / "cache.jsonl", "mock")
    backend = CountingTranslator(MockTranslator())
    translator = CachingTranslator(backend, cache)
    translator.translate_batch(TranslationRequest(("one",), "en", "de"))
    translator.translate_batch(TranslationRequest(("one", "two", "three"), "en", "de"))
    assert backend.texts_sent == 3  # 1 + the 2 misses


def test_short_backend_reply_is_an_error_never_truncation(tmp_path):
    class DropsLast(Translator):
        def translate_batch(self, request):
            return MockTranslator().translate_batch(request)[:-1]

    cache = TranslationCache(tmp_path / "cache.jsonl", "mock")
    with pytest.raises(TranslationError, match="1 texts for 2 inputs"):
        CachingTranslator(DropsLast(), cache).translate_batch(
            TranslationRequest(("a", "b"), "en", "de")
        )
    assert len(cache) == 0


def test_cached_matches_uncached_oracle(tmp_path):
    rng = random.Random(42)
    words = ["alpha", "beta", "gamma", "delta", "epsilon"]
    texts = tuple(
        " ".join(rng.choice(words) for _ in range(rng.randint(1, 6))) for _ in range(1000)
    )
    req = TranslationRequest(texts, "en", "de")
    plain = MockTranslator().translate_batch(req)
    cache = TranslationCache(tmp_path / "cache.jsonl", "mock")
    translator = CachingTranslator(MockTranslator(), cache)
    assert translator.translate_batch(req) == plain
    assert translator.translate_batch(req) == plain


def test_cache_survives_reload(tmp_path):
    path = tmp_path / "cache.jsonl"
    CachingTranslator(MockTranslator(), TranslationCache(path, "mock")).translate_batch(
        TranslationRequest(("persist me",), "en", "de")
    )
    reloaded = TranslationCache(path, "mock")
    backend = CountingTranslator(MockTranslator())
    out = CachingTranslator(backend, reloaded).translate_batch(
        TranslationRequest(("persist me",), "en", "de")
    )
    assert out == ["de:persist de:me"]
    assert backend.batch_calls == 0


def test_cache_skips_corrupt_lines(tmp_path):
    path = tmp_path / "cache.jsonl"
    good = {
        "backend": "mock",
        "src": "en",
        "tgt": "de",
        "hash": TranslationCache.text_key("keep"),
        "text": "de:keep",
    }
    path.write_text("not json at all\n" + json.dumps(good) + "\n{\"src\":\"en\"}\n")
    cache = TranslationCache(path, "mock")
    assert cache.get("en", "de", "keep") == "de:keep"
    assert cache.get("en", "de", "missing") is None
    # the corrupt entries behave as misses and get rewritten
    backend = CountingTranslator(MockTranslator())
    CachingTranslator(backend, cache).translate_batch(TranslationRequest(("missing",), "en", "de"))
    assert TranslationCache(path, "mock").get("en", "de", "missing") == "de:missing"


def test_cache_skips_lines_that_are_not_utf8(tmp_path):
    # such a line aborted the run; read with errors="replace" it would serve
    # a mangled translation as a hit
    path = tmp_path / "cache.jsonl"
    line = {"backend": "mock", "src": "en", "tgt": "de"}
    bad = json.dumps({**line, "hash": TranslationCache.text_key("x"), "text": "de:@"})
    good = json.dumps({**line, "hash": TranslationCache.text_key("keep"), "text": "de:keep"})
    path.write_bytes(bad.encode().replace(b"@", b"\xff") + b"\n" + good.encode() + b"\n")
    cache = TranslationCache(path, "mock")
    assert cache.get("en", "de", "x") is None
    assert cache.get("en", "de", "keep") == "de:keep"


@pytest.mark.parametrize("field", ["backend", "src", "tgt", "hash", "text"])
def test_cache_skips_wrongly_typed_lines(tmp_path, field):
    path = tmp_path / "cache.jsonl"
    line = {"backend": "mock", "src": "en", "tgt": "de", "hash": TranslationCache.text_key("x"),
            "text": "de:x"}
    path.write_text(json.dumps({**line, field: None}) + "\n")
    cache = TranslationCache(path, "mock")
    # a null translation must be a miss, never the text "None"
    assert len(cache) == 0 and cache.get("en", "de", "x") is None


def test_cache_skips_a_line_with_a_lone_surrogate(tmp_path):
    # such a text reads from a JSON escape but cannot be written back
    path = tmp_path / "cache.jsonl"
    line = {"backend": "mock", "src": "en", "tgt": "de", "hash": TranslationCache.text_key("x"),
            "text": "de:\ud800"}
    path.write_text(json.dumps(line) + "\n")
    cache = TranslationCache(path, "mock")
    assert len(cache) == 0
    translator = CachingTranslator(MockTranslator(), cache)
    assert translator.translate_batch(TranslationRequest(("x",), "en", "de")) == ["de:x"]


def test_cache_is_content_addressed(tmp_path):
    cache = TranslationCache(tmp_path / "c.jsonl", "mock")
    backend = CountingTranslator(MockTranslator())
    translator = CachingTranslator(backend, cache)
    translator.translate_batch(TranslationRequest(("a", "b"), "en", "de"))
    # same texts, different batch order: all hits
    out = translator.translate_batch(TranslationRequest(("b", "a"), "en", "de"))
    assert out == ["de:b", "de:a"]
    assert backend.batch_calls == 1


def test_cache_serves_only_its_own_backend(tmp_path):
    path = tmp_path / "cache.jsonl"
    request = TranslationRequest(("x",), "en", "de")
    CachingTranslator(MockTranslator(), TranslationCache(path, "mock")).translate_batch(request)
    line = {"src": "en", "tgt": "de", "hash": TranslationCache.text_key("y"), "text": "de:y"}
    with path.open("a") as fh:
        fh.write(json.dumps(line) + "\n")  # written before lines named their backend

    assert TranslationCache(path, "mock").get("en", "de", "x") == "de:x"
    assert TranslationCache(path, "mock").get("en", "de", "y") is None
    other = TranslationCache(path, "http http://127.0.0.1:1/translate")
    assert len(other) == 0
    backend = CountingTranslator(MockTranslator())
    CachingTranslator(backend, other).translate_batch(request)
    assert backend.texts_sent == 1
    # each backend keeps its own entry for the same text
    assert len(TranslationCache(path, "mock")) == 1
    assert len(TranslationCache(path, "http http://127.0.0.1:1/translate")) == 1
