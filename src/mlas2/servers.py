"""In-repo mock HTTP services implementing the translation and scoring wire
protocols, so end-to-end runs need no external services.

Translator: POST /translate ``{"src","tgt","texts"}`` -> ``{"texts":[...]}``
Scorer:     POST /score ``{"max_seq_len","pairs":[{"q","t"},...]}`` -> ``{"scores":[...]}``
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from mlas2.dataset import DatasetFormatError, iter_jsonl
from mlas2.reranking import IdfTable, LexicalScorer
from mlas2.translation import mock_translate


def load_pair_scores(path: str | Path) -> dict[tuple[str, str], float]:
    """Static score table for the mock scorer: JSONL ``{"q","t","score"}``."""
    table: dict[tuple[str, str], float] = {}
    for where, rec in iter_jsonl(path):
        try:
            table[(str(rec["q"]), str(rec["t"]))] = float(rec["score"])
        except (ValueError, KeyError, TypeError) as exc:
            raise DatasetFormatError(f"{where}: bad pair-score record: {exc}") from exc
    return table


class _CountingServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.request_count = 0
        self._count_lock = threading.Lock()

    def count_request(self) -> None:
        with self._count_lock:
            self.request_count += 1


class _JsonHandler(BaseHTTPRequestHandler):
    def log_message(self, fmt, *args):  # keep test output quiet
        pass

    def _read_json(self) -> dict | None:
        length = int(self.headers.get("Content-Length", 0))
        try:
            body = json.loads(self.rfile.read(length).decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            self._reply(400, {"error": "invalid JSON body"})
            return None
        if not isinstance(body, dict):
            self._reply(400, {"error": "body must be a JSON object"})
            return None
        return body

    def _reply(self, status: int, payload: dict) -> None:
        data = json.dumps(payload, ensure_ascii=False).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)


# ---------------------------------------------------------------------------
# mock translator service
# ---------------------------------------------------------------------------

class _TranslatorHandler(_JsonHandler):
    def do_POST(self) -> None:
        self.server.count_request()
        if self.path != "/translate":
            self._reply(404, {"error": f"unknown path {self.path}"})
            return
        body = self._read_json()
        if body is None:
            return
        src, tgt, texts = body.get("src"), body.get("tgt"), body.get("texts")
        if not isinstance(src, str) or not isinstance(tgt, str) or not isinstance(texts, list):
            self._reply(400, {"error": "expected src, tgt, and texts"})
            return
        if src == tgt:
            self._reply(400, {"error": "src and tgt must differ"})
            return
        self._reply(200, {"texts": [mock_translate(str(t), src, tgt) for t in texts]})


def make_translator_server(port: int = 0, host: str = "127.0.0.1") -> _CountingServer:
    """Mock translation service applying the deterministic token-prefix rule."""
    return _CountingServer((host, port), _TranslatorHandler)


# ---------------------------------------------------------------------------
# mock scorer service
# ---------------------------------------------------------------------------

class _ScorerHandler(_JsonHandler):
    def do_POST(self) -> None:
        self.server.count_request()
        if self.path != "/score":
            self._reply(404, {"error": f"unknown path {self.path}"})
            return
        body = self._read_json()
        if body is None:
            return
        pairs = body.get("pairs")
        if not isinstance(pairs, list) or not all(
            isinstance(p, dict) and "q" in p and "t" in p for p in pairs
        ):
            self._reply(400, {"error": "expected pairs of {q, t}"})
            return
        qt = [(str(p["q"]), str(p["t"])) for p in pairs]
        table = self.server.pair_scores
        if table is not None:
            scores = []
            for key in qt:
                if key not in table:
                    self._reply(400, {"error": f"no score for pair {key!r}"})
                    return
                scores.append(table[key])
        else:
            # zero-config mode: tf-idf over the candidate texts of this request
            scores = LexicalScorer(IdfTable.from_texts(t for _, t in qt)).score_pairs(qt)
        self._reply(200, {"scores": scores})


class _ScorerServer(_CountingServer):
    def __init__(self, *args, pair_scores=None, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.pair_scores = pair_scores


def make_scorer_server(
    port: int = 0,
    host: str = "127.0.0.1",
    *,
    pair_scores: dict[tuple[str, str], float] | None = None,
) -> _ScorerServer:
    """Mock scoring service backed by a static (q, t) score table or, when no
    table is given, by the lexical scorer over each request's candidate texts."""
    return _ScorerServer((host, port), _ScorerHandler, pair_scores=pair_scores)


# how often serve_forever checks for shutdown; shutdown() waits up to this long
_SHUTDOWN_POLL_S = 0.01


def start_in_thread(server: ThreadingHTTPServer) -> threading.Thread:
    """Serve in a daemon thread; callers shut the server down with
    ``server.shutdown()``."""
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": _SHUTDOWN_POLL_S}, daemon=True
    )
    thread.start()
    return thread
