"""Translator backends: a deterministic invertible mock, an HTTP client with
batching and retries, and a persistent content-addressed translation cache.

Wire protocol (HTTP, JSON): POST ``{"src":str,"tgt":str,"texts":[str,...]}``,
response ``{"texts":[str,...]}`` with status 200; anything else is an error.
"""

from __future__ import annotations

import hashlib
import json
import reprlib
from abc import ABC, abstractmethod
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from mlas2.dataset import (
    TEXT,
    TEXTS,
    DatasetFormatError,
    jsonl_line,
    read_fields,
    text_lines,
    validate_language,
)
from mlas2.wire import client_session, post_json


class TranslationError(RuntimeError):
    """A translation backend failed or violated the wire protocol."""


@dataclass(frozen=True)
class TranslationRequest:
    texts: tuple[str, ...]
    src: str
    tgt: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "texts", tuple(self.texts))
        validate_language(self.src)
        validate_language(self.tgt)
        if self.src == self.tgt:
            raise ValueError(f"source and target language are both {self.src!r}")


class Translator(ABC):
    """Translates batches of texts; output order matches input order."""

    @abstractmethod
    def translate_batch(self, request: TranslationRequest) -> list[str]:
        ...


# ---------------------------------------------------------------------------
# deterministic mock
# ---------------------------------------------------------------------------

def mock_translate(text: str, src: str, tgt: str) -> str:
    """Deterministic, invertible stand-in for machine translation.

    Per whitespace token: a ``src:`` prefix is stripped, any other token gains
    a ``tgt:`` prefix. Whitespace collapses to single spaces, so translating
    there and back restores the (normalized) original text.
    """
    src_prefix = src + ":"
    out = []
    for token in text.split():
        if token.startswith(src_prefix):
            out.append(token[len(src_prefix):])
        else:
            out.append(tgt + ":" + token)
    return " ".join(out)


class MockTranslator(Translator):
    def translate_batch(self, request: TranslationRequest) -> list[str]:
        return [mock_translate(t, request.src, request.tgt) for t in request.texts]


# ---------------------------------------------------------------------------
# HTTP client
# ---------------------------------------------------------------------------

MAX_TEXTS_PER_REQUEST = 50
MAX_CHARS_PER_REQUEST = 4000


def _batches(texts: Sequence[str]) -> Iterator[list[str]]:
    """Greedy packing under the two limits above, whichever hits first; an
    oversized single text travels alone."""
    batch: list[str] = []
    chars = 0
    for text in texts:
        full = len(batch) >= MAX_TEXTS_PER_REQUEST
        if batch and (full or chars + len(text) > MAX_CHARS_PER_REQUEST):
            yield batch
            batch, chars = [], 0
        batch.append(text)
        chars += len(text)
    if batch:
        yield batch


class HttpTranslator(Translator):
    """Client for the JSON translation protocol; texts travel in batches packed
    by ``_batches``, and retries and errors follow ``mlas2.wire.post_json``."""

    def __init__(self, endpoint: str, *, session: requests.Session | None = None) -> None:
        self.endpoint = endpoint
        self._session = client_session(endpoint, session)

    def translate_batch(self, request: TranslationRequest) -> list[str]:
        out: list[str] = []
        for batch in _batches(request.texts):
            out.extend(self._send(batch, request.src, request.tgt))
        return out

    def _send(self, batch: list[str], src: str, tgt: str) -> list[str]:
        body = post_json(
            self._session,
            self.endpoint,
            {"src": src, "tgt": tgt, "texts": batch},
            error=TranslationError,
            service="translator",
        )
        texts = body.get("texts")
        if not TEXTS.test(texts):
            raise TranslationError(
                f"translator reply's texts must be {TEXTS.want}, got {reprlib.repr(texts)}"
            )
        if len(texts) != len(batch):
            raise TranslationError(
                f"translator returned {len(texts)} texts for {len(batch)} inputs"
            )
        return texts


# ---------------------------------------------------------------------------
# persistent cache
# ---------------------------------------------------------------------------

class TranslationCache:
    """Append-only JSONL cache of one translation backend, keyed by (src, tgt,
    sha256 of the source text).

    Lines: ``{"backend":str,"src":str,"tgt":str,"hash":str,"text":str}``
    where ``backend`` names the backend that translated (``mock``, or
    ``http`` and its endpoint) and ``text`` is the translation. Lines of
    another backend are not loaded, so one backend's output is never served
    for another. Corrupt lines (not valid UTF-8 or not JSON), and lines with
    a field missing or of the wrong type (such as lines written before the
    ``backend`` field), are skipped on load (treated as misses) and rewritten
    on the next store; duplicate keys resolve last-write-wins.
    """

    def __init__(self, path: str | Path, backend: str) -> None:
        self._path = Path(path)
        # checked before any input is read, so no translation is done for a
        # cache that cannot take it
        if self._path.exists() and not self._path.is_file():
            raise OSError(f"translation cache {self._path}: not a regular file")
        if not self._path.parent.is_dir():
            raise OSError(f"translation cache {self._path}: no directory {self._path.parent}")
        self.backend = backend
        self._entries: dict[tuple[str, str, str], str] = {}
        if self._path.exists():
            for _, line in text_lines(self._path):
                if line is None:
                    continue
                try:
                    line_backend, src, tgt, h, text = read_fields(
                        json.loads(line), str(self._path), "cache",
                        {"backend": TEXT, "src": TEXT, "tgt": TEXT, "hash": TEXT, "text": TEXT},
                    )
                except (json.JSONDecodeError, RecursionError, DatasetFormatError):
                    continue
                if line_backend == backend:
                    self._entries[(src, tgt, h)] = text

    @staticmethod
    def text_key(text: str) -> str:
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, src: str, tgt: str, text: str) -> str | None:
        return self._entries.get((src, tgt, self.text_key(text)))

    def store_many(self, src: str, tgt: str, pairs: Iterable[tuple[str, str]]) -> None:
        """Persist (source text, translation) pairs in one atomic append."""
        lines = []
        for text, translated in pairs:
            h = self.text_key(text)
            self._entries[(src, tgt, h)] = translated
            lines.append(jsonl_line(
                {"backend": self.backend, "src": src, "tgt": tgt, "hash": h, "text": translated}
            ))
        if lines:
            with self._path.open("a", encoding="utf-8") as fh:
                fh.write("".join(lines))


class CachingTranslator(Translator):
    """Wraps any backend with a persistent cache of that backend's output."""

    def __init__(self, backend: Translator, cache: TranslationCache) -> None:
        self._backend = backend
        self._cache = cache

    def translate_batch(self, request: TranslationRequest) -> list[str]:
        """Translate through the cache: hits bypass the backend, misses are
        sent once (deduplicated) and persisted. Output equals an uncached call."""
        src, tgt, cache = request.src, request.tgt, self._cache
        missing = list(dict.fromkeys(t for t in request.texts if cache.get(src, tgt, t) is None))
        if missing:
            translated = self._backend.translate_batch(TranslationRequest(tuple(missing), src, tgt))
            if len(translated) != len(missing):
                raise TranslationError(
                    f"translator returned {len(translated)} texts for {len(missing)} inputs"
                )
            cache.store_many(src, tgt, zip(missing, translated))
        return [cache.get(src, tgt, text) for text in request.texts]
