"""In-repo mock HTTP services implementing the translation and scoring wire
protocols, so end-to-end runs need no external services.

Translator: POST /translate ``{"src","tgt","texts"}`` -> ``{"texts":[...]}``
Scorer:     POST /score ``{"max_seq_len","pairs":[{"q","t"},...]}`` -> ``{"scores":[...]}``
Both:       GET /stats -> ``{"requests","errors","busy_s"}``, the POSTs answered so far
"""

from __future__ import annotations

import json
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from mlas2.dataset import SCORE, TEXT, TEXTS, DatasetFormatError, FieldKind, read_fields, read_table
from mlas2.translation import mock_translate


def load_pair_scores(path: str | Path) -> dict[tuple[str, str], float]:
    """Static score table for the mock scorer: JSONL ``{"q","t","score"}``."""
    return read_table(path, "pair-score", ("q", "t"), "score", SCORE)


class _CountingServer(ThreadingHTTPServer):
    """Counts the POSTs it answers: ``request_count`` from the moment each
    arrives, and its non-200 answers and the seconds spent answering it
    before the reply is sent, so ``GET /stats`` sees every POST whose reply
    a client has read. ``server_close`` also closes the kept-alive
    connections still open, so a stopped server answers no one."""

    daemon_threads = True

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.request_count = 0
        self.error_count = 0
        self.busy_s = 0.0
        self._count_lock = threading.Lock()
        self._open: set[socket.socket] = set()

    def process_request(self, request, client_address) -> None:
        with self._count_lock:
            self._open.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        with self._count_lock:
            self._open.discard(request)
        super().shutdown_request(request)

    def server_close(self) -> None:
        super().server_close()
        with self._count_lock:
            connections, self._open = self._open, set()
        for conn in connections:
            try:
                # wakes a handler waiting for its client's next request
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:  # its client has already gone
                pass

    def count_request(self) -> None:
        with self._count_lock:
            self.request_count += 1

    def count_answer(self, status: int, seconds: float) -> None:
        with self._count_lock:
            self.error_count += status != 200
            self.busy_s += seconds

    def stats(self) -> dict:
        with self._count_lock:
            return {
                "requests": self.request_count, "errors": self.error_count, "busy_s": self.busy_s
            }


class _JsonHandler(BaseHTTPRequestHandler):
    """The mock services' one POST path: count the request, check ``path_served``,
    parse a JSON body, and reply with ``answer(body) -> (status, payload)``; a body
    that is not JSON, is nested too deeply to parse, or that ``answer`` cannot
    read (``DatasetFormatError``) gets a 400. ``GET /stats`` answers with the
    server's counts, and is not counted itself.

    Connections are kept alive (HTTP/1.1) after a POST answered 200, the one
    answer sure to have read the whole request body; any other answer closes
    the connection, so no unread body bytes are parsed as the next request.
    A connection that sends nothing for ``timeout`` seconds is closed, so an
    idle client stops holding a handler thread."""

    protocol_version = "HTTP/1.1"
    timeout = 30.0
    # the headers and the body go out in two writes: with Nagle's algorithm
    # the body would wait for the client's delayed ACK of the headers
    disable_nagle_algorithm = True

    def log_message(self, fmt, *args):  # keep test output quiet
        pass

    def do_POST(self) -> None:
        start = time.perf_counter()
        self.server.count_request()
        status, payload = self._route()
        data = json.dumps(payload, ensure_ascii=False).encode("utf-8")
        self.server.count_answer(status, time.perf_counter() - start)
        self._reply(status, data)

    def do_GET(self) -> None:
        if self.path != "/stats":
            status, payload = 404, {"error": f"unknown path {self.path}"}
        else:
            status, payload = 200, self.server.stats()
        self._reply(status, json.dumps(payload).encode("utf-8"))

    def _reply(self, status: int, data: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        if status != 200 or self.command != "POST":
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(data)

    def _route(self) -> tuple[int, dict]:
        if self.path != self.path_served:
            return 404, {"error": f"unknown path {self.path}"}
        try:
            # a negative length would make read() wait for the client to close
            length = max(0, int(self.headers.get("Content-Length", 0)))
            body = json.loads(self.rfile.read(length).decode("utf-8"))
        except (ValueError, UnicodeDecodeError, RecursionError):
            return 400, {"error": "invalid JSON body"}
        try:
            return self.answer(body)
        except DatasetFormatError as exc:
            return 400, {"error": str(exc)}


# ---------------------------------------------------------------------------
# mock translator service
# ---------------------------------------------------------------------------

class _TranslatorHandler(_JsonHandler):
    path_served = "/translate"

    def answer(self, body: object) -> tuple[int, dict]:
        src, tgt, texts = read_fields(
            body, "request", "translation", {"src": TEXT, "tgt": TEXT, "texts": TEXTS}
        )
        if src == tgt:
            return 400, {"error": "src and tgt must differ"}
        return 200, {"texts": [mock_translate(t, src, tgt) for t in texts]}


def make_translator_server(port: int = 0, host: str = "127.0.0.1") -> _CountingServer:
    """Mock translation service applying the deterministic token-prefix rule."""
    return _CountingServer((host, port), _TranslatorHandler)


# ---------------------------------------------------------------------------
# mock scorer service
# ---------------------------------------------------------------------------

# each pair is then read as a {q, t} record of its own
_PAIRS = FieldKind("a list of {q, t} objects", lambda v: isinstance(v, list))


class _ScorerHandler(_JsonHandler):
    path_served = "/score"

    def answer(self, body: object) -> tuple[int, dict]:
        (pairs,) = read_fields(body, "request", "scoring", {"pairs": _PAIRS})
        qt = [
            tuple(read_fields(p, f"pair {i}", "scoring", {"q": TEXT, "t": TEXT}))
            for i, p in enumerate(pairs)
        ]
        table = self.server.pair_scores
        if table is None:
            # zero-config mode: tf-idf over the candidate texts of this request
            from mlas2.reranking import LexicalScorer  # numpy, loaded by this mode only

            scorer = LexicalScorer(t for _, t in qt)
            return 200, {"scores": scorer.score_pairs(qt)}
        missing = next((key for key in qt if key not in table), None)
        if missing is not None:
            return 400, {"error": f"no score for pair {missing!r}"}
        return 200, {"scores": [table[key] for key in qt]}


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
