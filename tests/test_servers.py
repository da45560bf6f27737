import json
import math
import socket
import socketserver
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
import requests
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_dataset, make_group, make_synthetic_dataset, per_pair_lexical_score
from mlas2.experiment import evaluate_dataset
from mlas2.scoring import RemoteScorer, ScoringError, StaticScorer
from mlas2.servers import (
    _CountingServer,
    _JsonHandler,
    _ScorerHandler,
    _ScorerServer,
    _TranslatorHandler,
    load_pair_scores,
    make_scorer_server,
    make_translator_server,
    start_in_thread,
)
from mlas2.translation import (
    CachingTranslator,
    HttpTranslator,
    TranslationCache,
    TranslationError,
    TranslationRequest,
)
from mlas2.wire import ATTEMPTS, client_session


@pytest.fixture
def sleeps(monkeypatch):
    """Record the client's backoff waits instead of sleeping."""
    waits = []
    monkeypatch.setattr("mlas2.wire.time.sleep", waits.append)
    return waits


@pytest.fixture
def translator_server():
    server = make_translator_server()
    start_in_thread(server)
    yield server
    server.shutdown()
    server.server_close()


def scorer_server(**kwargs):
    server = make_scorer_server(**kwargs)
    start_in_thread(server)
    return server


def url(server, path):
    return f"http://127.0.0.1:{server.server_port}{path}"


# ---------------------------------------------------------------------------
# translator service
# ---------------------------------------------------------------------------

def test_http_translator_round_trip(translator_server):
    client = HttpTranslator(url(translator_server, "/translate"))
    out = client.translate_batch(TranslationRequest(["hello world", "again"], "en", "de"))
    assert out == ["de:hello de:world", "de:again"]


def test_http_translator_batches_requests(translator_server, sleeps):
    # at most 50 texts per request
    client = HttpTranslator(url(translator_server, "/translate"))
    before = translator_server.request_count
    texts = [f"text {i}" for i in range(120)]
    out = client.translate_batch(TranslationRequest(texts, "en", "de"))
    assert len(out) == 120
    assert translator_server.request_count - before == 3
    assert sleeps == []


def test_http_translator_respects_char_limit(translator_server, sleeps):
    # at most 4000 characters per request
    client = HttpTranslator(url(translator_server, "/translate"))
    before = translator_server.request_count
    client.translate_batch(TranslationRequest(["a" * 1500] * 4, "en", "de"))
    assert translator_server.request_count - before == 2
    assert sleeps == []


def test_http_translator_4xx_fails_fast(translator_server, sleeps):
    client = HttpTranslator(url(translator_server, "/nowhere"))
    before = translator_server.request_count
    with pytest.raises(TranslationError, match="404"):
        client.translate_batch(TranslationRequest(["x"], "en", "de"))
    assert translator_server.request_count - before == 1
    assert sleeps == []


def test_http_translator_dead_endpoint(sleeps):
    client = HttpTranslator("http://127.0.0.1:1/translate")
    with pytest.raises(TranslationError, match="unreachable"):
        client.translate_batch(TranslationRequest(["x"], "en", "de"))
    assert sleeps == [0.5, 1.0]


@pytest.mark.parametrize("side", ["scorer", "translator"])
def test_scheme_less_endpoint_fails_without_retrying(sleeps, side):
    # no connection adapter serves "localhost:9/...", and no retry can change that
    if side == "scorer":
        with pytest.raises(ScoringError, match="request failed"):
            RemoteScorer("localhost:9/score").score_pairs([("q", "t")])
    else:
        with pytest.raises(TranslationError, match="request failed"):
            HttpTranslator("localhost:9/translate").translate_batch(
                TranslationRequest(["x"], "en", "de")
            )
    assert sleeps == []


class _FlakyHandler(BaseHTTPRequestHandler):
    def log_message(self, fmt, *args):
        pass

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        if self.server.failures_left > 0:
            self.server.failures_left -= 1
            self.send_response(503)
            self.end_headers()
            return
        if "pairs" in body:
            reply = {"scores": [0.5 for _ in body["pairs"]]}
        else:
            reply = {"texts": [f"ok:{t}" for t in body["texts"]]}
        data = json.dumps(reply).encode()
        self.send_response(200)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)


def test_http_translator_retries_5xx(sleeps):
    server = ThreadingHTTPServer(("127.0.0.1", 0), _FlakyHandler)
    server.failures_left = 2
    start_in_thread(server)
    try:
        client = HttpTranslator(f"http://127.0.0.1:{server.server_port}/translate")
        assert client.translate_batch(TranslationRequest(["x"], "en", "de")) == ["ok:x"]
        assert sleeps == [0.5, 1.0]
        server.failures_left = 3  # more failures than attempts
        sleeps.clear()
        with pytest.raises(TranslationError, match="503"):
            client.translate_batch(TranslationRequest(["x"], "en", "de"))
        assert sleeps == [0.5, 1.0]
    finally:
        server.shutdown()
        server.server_close()


def test_remote_scorer_retries_5xx(sleeps):
    server = ThreadingHTTPServer(("127.0.0.1", 0), _FlakyHandler)
    server.failures_left = 2
    start_in_thread(server)
    try:
        scorer = RemoteScorer(f"http://127.0.0.1:{server.server_port}/score")
        assert scorer.score_pairs([("q", "a"), ("q", "b")]) == [0.5, 0.5]
        assert sleeps == [0.5, 1.0]
        server.failures_left = 3  # more failures than attempts
        sleeps.clear()
        with pytest.raises(ScoringError, match="503"):
            scorer.score_pairs([("q", "a")])
        assert sleeps == [0.5, 1.0]
    finally:
        server.shutdown()
        server.server_close()


class _WrongCountHandler(BaseHTTPRequestHandler):
    def log_message(self, fmt, *args):
        pass

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        data = json.dumps({"texts": ["only one"], "scores": [0.5]}).encode()
        self.send_response(200)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)


def test_wrong_count_is_an_error_never_truncation():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _WrongCountHandler)
    start_in_thread(server)
    try:
        endpoint = f"http://127.0.0.1:{server.server_port}/x"
        with pytest.raises(TranslationError, match="1 texts for 2 inputs"):
            HttpTranslator(endpoint).translate_batch(TranslationRequest(["a", "b"], "en", "de"))
        with pytest.raises(ScoringError, match="1 scores for 2 pairs"):
            RemoteScorer(endpoint).score_pairs([("q", "a"), ("q", "b")])
    finally:
        server.shutdown()
        server.server_close()


def test_translator_server_rejects_same_language(translator_server):
    import requests

    resp = requests.post(
        url(translator_server, "/translate"), json={"src": "en", "tgt": "en", "texts": []}
    )
    assert resp.status_code == 400


@pytest.mark.parametrize(
    "body",
    [
        {"src": "en", "tgt": "de", "texts": [None]},
        {"src": "en", "tgt": "de", "texts": ["ok", {"a": 1}]},
        {"src": "en", "tgt": 7, "texts": []},
    ],
    ids=["null-text", "object-text", "number-tgt"],
)
def test_translator_server_wrongly_typed_body_is_400(translator_server, body):
    import requests

    resp = requests.post(url(translator_server, "/translate"), json=body)
    assert resp.status_code == 400
    assert "bad translation record" in resp.json()["error"]


@pytest.mark.parametrize(
    "pairs",
    [[{"q": None, "t": "x"}], [{"q": "a", "t": "b"}, {"q": "a", "t": 1}], ["ab"]],
    ids=["null-question", "number-text", "string-pair"],
)
def test_scorer_server_wrongly_typed_pair_is_400(pairs):
    import requests

    server = scorer_server()
    try:
        resp = requests.post(url(server, "/score"), json={"max_seq_len": 8, "pairs": pairs})
        assert resp.status_code == 400
        assert "bad scoring record" in resp.json()["error"]
    finally:
        server.shutdown()
        server.server_close()


def test_translator_server_answers_a_lone_surrogate_with_400(translator_server, sleeps):
    # the server crashed encoding its reply and dropped the connection, so the
    # client retried and reported "translator unreachable"
    client = HttpTranslator(url(translator_server, "/translate"))
    with pytest.raises(TranslationError, match="translator returned 400: .*encodable as UTF-8"):
        client.translate_batch(TranslationRequest(["ok", "\ud800"], "en", "de"))
    assert sleeps == []


def test_scorer_server_answers_a_lone_surrogate_with_400(sleeps):
    server = scorer_server()
    try:
        with pytest.raises(ScoringError, match="scorer returned 400: .*encodable as UTF-8"):
            RemoteScorer(url(server, "/score")).score_pairs([("q", "\udfff")])
        assert sleeps == []
    finally:
        server.shutdown()
        server.server_close()


@pytest.mark.parametrize(
    "make, path, good, bad",
    [
        (make_translator_server, "/translate",
         {"src": "en", "tgt": "de", "texts": ["a b"]}, {"src": "en", "tgt": "en", "texts": []}),
        (lambda: make_scorer_server(pair_scores={("q", "t"): 0.5}), "/score",
         {"pairs": [{"q": "q", "t": "t"}]}, {"pairs": [{"q": "q", "t": "unknown"}]}),
    ],
    ids=["translator", "scorer"],
)
def test_servers_report_their_posts_on_get_stats(make, path, good, bad):
    import requests

    server = make()
    start_in_thread(server)
    try:
        statuses = [requests.post(url(server, path), json=body).status_code
                    for body in (good, bad, good)]
        assert statuses == [200, 400, 200]
        for _ in range(2):  # a GET is not counted, by /stats or by request_count
            stats = requests.get(url(server, "/stats")).json()
            assert (stats["requests"], stats["errors"]) == (3, 1)
            assert stats["busy_s"] > 0.0
            assert server.request_count == 3
        assert requests.get(url(server, "/nothing")).status_code == 404
    finally:
        server.shutdown()
        server.server_close()


@pytest.mark.parametrize("length", ["abc", "-1"])
def test_server_bad_content_length_is_400(translator_server, length):
    import http.client

    conn = http.client.HTTPConnection("127.0.0.1", translator_server.server_port, timeout=5)
    try:
        conn.putrequest("POST", "/translate")
        conn.putheader("Content-Length", length)
        conn.endheaders(b'{"src": "en", "tgt": "de", "texts": []}')
        assert conn.getresponse().status == 400
    finally:
        conn.close()


# ---------------------------------------------------------------------------
# kept-alive connections and the environment
# ---------------------------------------------------------------------------

def _negative_length(session, server):
    req = session.prepare_request(
        requests.Request("POST", url(server, "/translate"), data=b'{"texts": []}')
    )
    req.headers["Content-Length"] = "-1"
    return session.send(req, timeout=5)


@pytest.mark.parametrize(
    "bad_post, status",
    [
        (lambda session, server: session.post(
            url(server, "/nowhere"), json={"src": "en", "tgt": "de", "texts": ["x"]}, timeout=5
        ), 404),
        (_negative_length, 400),
        (lambda session, server: session.post(
            url(server, "/translate"), data=b'{"texts": [', timeout=5
        ), 400),
    ],
    ids=["wrong-path", "negative-length", "invalid-json"],
)
def test_unread_body_is_never_read_as_the_next_request(translator_server, bad_post, status):
    # under keep-alive, the body of a POST answered before it was read would
    # be parsed as the request line of the next POST on the same connection
    with requests.Session() as session:
        resp = bad_post(session, translator_server)
        assert resp.status_code == status
        assert resp.headers["Connection"] == "close"
        good = session.post(
            url(translator_server, "/translate"),
            json={"src": "en", "tgt": "de", "texts": ["a b"]},
            timeout=5,
        )
        assert good.status_code == 200
        assert good.json() == {"texts": ["de:a de:b"]}


def test_server_close_ends_kept_alive_connections(sleeps):
    server = scorer_server(pair_scores={("q", "t"): 0.5})
    scorer = RemoteScorer(url(server, "/score"))
    assert scorer.score_pairs([("q", "t")]) == [0.5]
    start = time.perf_counter()
    server.shutdown()
    server.server_close()
    assert time.perf_counter() - start < 1.0
    # the stopped server's handler no longer answers on the old connection
    with pytest.raises(ScoringError, match="unreachable"):
        scorer.score_pairs([("q", "t")])
    assert sleeps == [0.5, 1.0]


class _CutShortHandler(socketserver.StreamRequestHandler):
    """Reads one POST of pairs and answers it in raw bytes: while the server
    has ``cuts`` left, a 200 whose body the connection closes halfway
    through; then a whole reply. The server counts the POSTs."""

    def handle(self):
        length = 0
        while (line := self.rfile.readline()) not in (b"\r\n", b""):
            name, _, value = line.decode("latin-1").partition(":")
            if name.lower() == "content-length":
                length = int(value)
        pairs = json.loads(self.rfile.read(length))["pairs"]
        self.server.posts += 1
        data = json.dumps({"scores": [0.5] * len(pairs)}).encode()
        head = f"HTTP/1.1 200 OK\r\nContent-Length: {len(data)}\r\n".encode()
        if self.server.cuts > 0:
            self.server.cuts -= 1
            self.wfile.write(head + b"\r\n" + data[: len(data) // 2])
        else:
            self.wfile.write(head + b"Connection: close\r\n\r\n" + data)


def cutting_server(cuts):
    # an HTTP server class only for its bind and port; the handler speaks raw bytes
    server = ThreadingHTTPServer(("127.0.0.1", 0), _CutShortHandler)
    server.cuts, server.posts = cuts, 0
    start_in_thread(server)
    return server


def test_a_reply_cut_short_is_retried(sleeps):
    # requests raises a body cut short as ChunkedEncodingError, which failed
    # at once as "request failed" instead of being retried
    server = cutting_server(cuts=1)
    try:
        scorer = RemoteScorer(url(server, "/score"))
        assert scorer.score_pairs([("q", "a"), ("q", "b")]) == [0.5, 0.5]
        assert (server.posts, sleeps) == (2, [0.5])
    finally:
        server.shutdown()
        server.server_close()


def test_replies_always_cut_short_give_the_typed_error(sleeps):
    server = cutting_server(cuts=ATTEMPTS)
    try:
        with pytest.raises(ScoringError, match="scorer reply cut short"):
            RemoteScorer(url(server, "/score")).score_pairs([("q", "a")])
        assert (server.posts, sleeps) == (ATTEMPTS, [0.5, 1.0])
    finally:
        server.shutdown()
        server.server_close()


def test_server_closes_an_idle_connection(monkeypatch):
    assert isinstance(_JsonHandler.timeout, float) and _JsonHandler.timeout > 0
    monkeypatch.setattr(_JsonHandler, "timeout", 0.2)
    server = scorer_server(pair_scores={("q", "t"): 0.5})
    try:
        with socket.create_connection(("127.0.0.1", server.server_port), timeout=10) as sock:
            assert sock.recv(1) == b""  # closed by the server, long before 10 s
    finally:
        server.shutdown()
        server.server_close()


def test_a_client_posts_again_after_its_idle_connection_was_closed(monkeypatch, sleeps):
    monkeypatch.setattr(_JsonHandler, "timeout", 0.2)
    server = connection_counting(_ScorerServer, _ScorerHandler, pair_scores={("q", "t"): 0.5})
    try:
        scorer = RemoteScorer(url(server, "/score"))
        assert scorer.score_pairs([("q", "t")]) == [0.5]
        # `sleeps` stands in for time.sleep, so wait on an event instead
        deadline = time.perf_counter() + 10
        while server._open and time.perf_counter() < deadline:
            threading.Event().wait(0.01)
        assert not server._open
        threading.Event().wait(0.05)  # from forgetting the socket to closing it
        assert scorer.score_pairs([("q", "t")]) == [0.5]
        assert (server.request_count, server.connections, sleeps) == (2, 2, [])
    finally:
        server.shutdown()
        server.server_close()


def connection_counting(server_cls, handler, **kwargs):
    """A mock server that also counts the connections it accepts."""

    class Counting(server_cls):
        connections = 0

        def process_request(self, request, client_address):
            self.connections += 1
            super().process_request(request, client_address)

    server = Counting(("127.0.0.1", 0), handler, **kwargs)
    start_in_thread(server)
    return server


@pytest.mark.parametrize("side", ["scorer", "translator"])
def test_one_client_posts_over_one_connection(side):
    if side == "scorer":
        server = connection_counting(_ScorerServer, _ScorerHandler, pair_scores={("q", "t"): 0.5})
        client = RemoteScorer(url(server, "/score"))

        def post():
            return client.score_pairs([("q", "t")]) == [0.5]
    else:
        server = connection_counting(_CountingServer, _TranslatorHandler)
        client = HttpTranslator(url(server, "/translate"))

        def post():
            return client.translate_batch(TranslationRequest(["a"], "en", "de")) == ["de:a"]
    try:
        start = time.perf_counter()
        assert all(post() for _ in range(50))
        elapsed = time.perf_counter() - start
        assert (server.request_count, server.connections) == (50, 1)
        # an exchange stalled by Nagle's algorithm waits out a delayed ACK
        # (~40 ms), so 50 of them would take 2 s or more
        assert elapsed < 1.0
    finally:
        server.shutdown()
        server.server_close()


def test_clients_read_the_proxy_environment_once_each(translator_server, monkeypatch):
    calls = []
    read_proxies = requests.sessions.get_environ_proxies  # the name Session calls

    def counting(endpoint, *args, **kwargs):
        calls.append(endpoint)
        return read_proxies(endpoint, *args, **kwargs)

    monkeypatch.setattr(requests.sessions, "get_environ_proxies", counting)
    server = scorer_server(pair_scores={("q", "t"): 0.5})
    try:
        scorer_url, translator_url = url(server, "/score"), url(translator_server, "/translate")
        scorer, translator = RemoteScorer(scorer_url), HttpTranslator(translator_url)
        for _ in range(5):
            assert scorer.score_pairs([("q", "t")]) == [0.5]
            assert translator.translate_batch(TranslationRequest(["a"], "en", "de")) == ["de:a"]
        assert calls == [scorer_url, translator_url]
    finally:
        server.shutdown()
        server.server_close()


def test_clients_honour_the_proxy_environment(translator_server, monkeypatch, sleeps):
    # the mock translator stands in for the proxy: it answers the proxied
    # request's absolute URL, not its own path, with a 404; a client that
    # ignored the proxy would find nothing listening on port 1
    for name in ("NO_PROXY", "no_proxy", "http_proxy", "REQUEST_METHOD"):
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("HTTP_PROXY", f"http://127.0.0.1:{translator_server.server_port}")
    with pytest.raises(ScoringError, match="scorer returned 404"):
        RemoteScorer("http://127.0.0.1:1/score").score_pairs([("q", "t")])
    assert translator_server.request_count == 1
    assert sleeps == []


def test_client_session_reads_ca_bundle_and_netrc_when_built(tmp_path, monkeypatch):
    netrc = tmp_path / "netrc"
    netrc.write_text("machine scorer.example login user password secret\n")
    monkeypatch.setenv("NETRC", str(netrc))
    monkeypatch.setenv("REQUESTS_CA_BUNDLE", str(tmp_path / "ca.pem"))
    session = client_session("https://scorer.example/score")
    assert (session.auth, session.verify) == (("user", "secret"), str(tmp_path / "ca.pem"))
    assert session.trust_env is False
    given = requests.Session()
    assert client_session("https://scorer.example/score", given) is given
    assert given.trust_env is True


# ---------------------------------------------------------------------------
# scorer service
# ---------------------------------------------------------------------------

def test_remote_scores_pass_through_static_table():
    pairs = [(f"q{i}", f"t{i}") for i in range(6)]
    table = {pair: i / 10 for i, pair in enumerate(pairs)}
    server = scorer_server(pair_scores=table)
    try:
        scorer = RemoteScorer(url(server, "/score"))
        assert scorer.score_pairs(pairs) == [table[p] for p in pairs]
        assert scorer.score_pairs([]) == []
    finally:
        server.shutdown()
        server.server_close()


def test_remote_batching_three_requests_same_result():
    pairs = [(f"question {i}", f"candidate {i}") for i in range(257)]
    table = {pair: (i % 97) / 100 for i, pair in enumerate(pairs)}
    server = scorer_server(pair_scores=table)
    try:
        batched = RemoteScorer(url(server, "/score"), batch_size=128)
        before = server.request_count
        chunked = batched.score_pairs(pairs)
        assert server.request_count - before == 3

        single = RemoteScorer(url(server, "/score"), batch_size=512)
        assert chunked == single.score_pairs(pairs)
        assert chunked == [table[p] for p in pairs]
    finally:
        server.shutdown()
        server.server_close()


def test_evaluate_dataset_sends_one_request_per_batch():
    # the unanswerable group is not in the table: sending it would be a 400
    answerable = make_synthetic_dataset(num_questions=30, cands_per_question=10).groups
    d = make_dataset(answerable + (make_group("qx", "no answer", [("none", 0)]),))
    table = {
        (g.question.text, c.text): (i * 7 % 10) / 10
        for g in answerable
        for i, c in enumerate(g.candidates)
    }
    by_id = {
        (g.question.id, c.id): table[(g.question.text, c.text)]
        for g in answerable
        for c in g.candidates
    }
    server = scorer_server(pair_scores=table)
    try:
        report = evaluate_dataset(d, RemoteScorer(url(server, "/score"), batch_size=64))
        assert server.request_count == math.ceil(300 / 64)
        assert report == evaluate_dataset(d, StaticScorer(by_id))
        assert report.num_excluded == 1
    finally:
        server.shutdown()
        server.server_close()


@pytest.mark.parametrize("batch_size", [0, -1])
def test_remote_scorer_rejects_batch_size_below_1(batch_size):
    # before, -1 returned [] without a request and 0 failed inside range()
    with pytest.raises(ValueError, match="batch_size must be >= 1"):
        RemoteScorer("http://127.0.0.1:1/score", batch_size=batch_size)


def test_scorer_server_scores_depend_on_the_batch_only_in_lexical_mode():
    # lexical mode takes its idf from the request's candidate texts, so a pair
    # scored alone and among others can differ; table mode scores each pair
    # by itself, which is what batching a whole dataset per request needs
    pair = ("blue sky", "the sky is blue")
    others = [("blue sky", "the sun is hot"), ("blue sky", "the cat is here")]
    table = {p: 0.25 * i for i, p in enumerate([pair] + others)}
    for pair_scores in (None, table):
        server = scorer_server(pair_scores=pair_scores)
        try:
            scorer = RemoteScorer(url(server, "/score"))
            alone = scorer.score_pairs([pair])[0]
            among = scorer.score_pairs(others + [pair])[-1]
        finally:
            server.shutdown()
            server.server_close()
        if pair_scores is None:
            assert alone != among
        else:
            assert alone == among == table[pair]


def test_scorer_server_lexical_mode_matches_local():
    server = scorer_server()
    try:
        pairs = [("what do cats chase", "cats chase mice"), ("what do cats chase", "the sun is a star")]
        got = RemoteScorer(url(server, "/score")).score_pairs(pairs)
        texts = [t for _, t in pairs]
        assert got == [min(1.0, per_pair_lexical_score(q, t, texts)) for q, t in pairs]
        assert got[0] > got[1]
    finally:
        server.shutdown()
        server.server_close()


def test_scorer_server_lexical_mode_identical_texts_score_one():
    # unclamped, this self-pair scores 1.0000000000000002 and the client
    # rejects the server's own reply as out of range
    server = scorer_server()
    try:
        assert RemoteScorer(url(server, "/score")).score_pairs([("a b c", "a b c")]) == [1.0]
    finally:
        server.shutdown()
        server.server_close()


def test_scorer_server_unknown_pair_is_non_200():
    server = scorer_server(pair_scores={("q", "known"): 1.0})
    try:
        scorer = RemoteScorer(url(server, "/score"))
        with pytest.raises(ScoringError, match="400"):
            scorer.score_pairs([("q", "unknown")])
    finally:
        server.shutdown()
        server.server_close()


def test_remote_scorer_rejects_out_of_range_scores():
    server = scorer_server(pair_scores={("q", "t"): 1.0})
    try:
        # score 1.0 is fine; fabricate an out-of-range response via a rogue table
        server.pair_scores[("q", "bad")] = 3.5
        scorer = RemoteScorer(url(server, "/score"))
        with pytest.raises(ScoringError, match="outside"):
            scorer.score_pairs([("q", "bad")])
    finally:
        server.shutdown()
        server.server_close()


class _FixedReplySession:
    """Stands in for ``requests.Session``: every POST gets ``status`` with
    ``body``, or a body that is not JSON when ``body`` is ``NOT_JSON``."""

    NOT_JSON = object()

    def __init__(self, body, status=200):
        self.body = body
        self.status = status
        self.posts = 0

    def post(self, *args, **kwargs):
        self.posts += 1
        body, status = self.body, self.status

        class Reply:
            status_code = status
            text = "<html>" if body is _FixedReplySession.NOT_JSON else json.dumps(body)

            def json(self):
                if body is _FixedReplySession.NOT_JSON:
                    raise ValueError("not JSON")
                return body

        return Reply()


@pytest.mark.parametrize(
    "body",
    [
        [0.5],
        "scores",
        {"scores": [None]},
        {"scores": ["x"]},
        {"scores": [[0.5]]},
        {},
        {"scores": ["0.5"]},
        {"scores": [True]},
    ],
)
def test_remote_scorer_malformed_200_is_scoring_error(body):
    scorer = RemoteScorer("http://scorer.invalid/score", session=_FixedReplySession(body))
    with pytest.raises(ScoringError):
        scorer.score_pairs([("q", "t")])


@pytest.mark.parametrize(
    "body",
    [["x"], "texts", {"texts": [None]}, {"texts": [1]}, {"texts": [["x"]]}, {}],
)
def test_http_translator_malformed_200_is_translation_error(body):
    client = HttpTranslator("http://translator.invalid/translate", session=_FixedReplySession(body))
    with pytest.raises(TranslationError):
        client.translate_batch(TranslationRequest(["x"], "en", "de"))


def test_translator_reply_with_a_lone_surrogate_is_translation_error(tmp_path):
    # CachingTranslator raised UnicodeEncodeError appending the text to its
    # cache, with the entry already in the cache's memory
    cache = TranslationCache(tmp_path / "cache.jsonl", "http")
    reply = _FixedReplySession({"texts": ["de:\ud800"]})
    client = CachingTranslator(HttpTranslator("http://translator.invalid/translate", session=reply), cache)
    with pytest.raises(TranslationError, match="must be a list of strings encodable as UTF-8"):
        client.translate_batch(TranslationRequest(["x"], "en", "de"))
    assert len(cache) == 0
    assert not (tmp_path / "cache.jsonl").exists()


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
_replies = st.one_of(
    _json_values,
    st.just(_FixedReplySession.NOT_JSON),
    st.fixed_dictionaries({"scores": st.lists(_json_values, max_size=3)}),
    st.fixed_dictionaries({"texts": st.lists(_json_values, max_size=3)}),
)


@settings(max_examples=50, deadline=None)
@given(
    status=st.sampled_from([200, 201, 302, 400, 404, 422, 500, 502, 503]),
    body=_replies,
    scorer_side=st.booleans(),
)
def test_any_reply_gives_a_valid_result_or_the_typed_error(status, body, scorer_side):
    session = _FixedReplySession(body, status)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("mlas2.wire.time.sleep", lambda seconds: None)
        try:
            if scorer_side:
                scorer = RemoteScorer("http://scorer.invalid/score", session=session)
                out = scorer.score_pairs([("q", "a"), ("q", "b")])
                assert len(out) == 2 and all(type(x) is float and 0.0 <= x <= 1.0 for x in out)
            else:
                client = HttpTranslator("http://translator.invalid/translate", session=session)
                out = client.translate_batch(TranslationRequest(["a", "b"], "en", "de"))
                assert len(out) == 2 and all(type(x) is str for x in out)
            assert status == 200
        except (ScoringError, TranslationError) as exc:
            assert isinstance(exc, ScoringError if scorer_side else TranslationError)
    # 5xx is retried to the attempt limit; everything else is decided by one POST
    assert session.posts == (3 if status >= 500 else 1)


class _DeepReplySession:
    """Every POST gets a 200 whose body is JSON nested too deeply to parse."""

    def post(self, *args, **kwargs):
        resp = requests.models.Response()
        resp.status_code = 200
        resp._content = b"[" * 200_000 + b"]" * 200_000
        return resp


def test_reply_nested_too_deeply_is_the_typed_error():
    # resp.json() raises RecursionError here, which is no ValueError
    scorer = RemoteScorer("http://scorer.invalid/score", session=_DeepReplySession())
    with pytest.raises(ScoringError, match="scorer returned invalid JSON: nested too deeply"):
        scorer.score_pairs([("q", "t")])
    client = HttpTranslator("http://translator.invalid/translate", session=_DeepReplySession())
    with pytest.raises(TranslationError, match="translator returned invalid JSON: nested too deeply"):
        client.translate_batch(TranslationRequest(["x"], "en", "de"))


def test_request_nested_too_deeply_is_400():
    # before, the handler thread died and the client saw a dropped connection
    server = scorer_server()
    try:
        resp = requests.post(url(server, "/score"), data=b"[" * 200_000 + b"]" * 200_000, timeout=10)
        assert resp.status_code == 400
        assert resp.json() == {"error": "invalid JSON body"}
    finally:
        server.shutdown()
        server.server_close()


def test_remote_scorer_dead_endpoint(sleeps):
    with pytest.raises(ScoringError, match="unreachable"):
        RemoteScorer("http://127.0.0.1:1/score").score_pairs([("q", "t")])
    assert sleeps == [0.5, 1.0]


def test_load_pair_scores(tmp_path):
    path = tmp_path / "pairs.jsonl"
    path.write_text('{"q":"a","t":"b","score":0.25}\n')
    assert load_pair_scores(path) == {("a", "b"): 0.25}
    path.write_text('{"q":"a"}\n')
    with pytest.raises(ValueError, match="bad pair-score"):
        load_pair_scores(path)
