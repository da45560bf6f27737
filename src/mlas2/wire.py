"""The one JSON-POST client behind the HTTP translator and the remote scorer.

Policy: up to ``ATTEMPTS`` tries per request. Failures a retry can cure (a
failed connection, including one that ends a reply before its whole body
came, a timeout, a 5xx response) are retried after ``BACKOFF_S`` seconds,
doubling each time. Any other request error (such as an endpoint
without a scheme), any other non-200 status, invalid JSON (including JSON
nested too deeply to parse), or a body that is not a JSON object fails at
once. Every failure is raised as the caller's typed ``error``, with the
``service`` name in its message.

Each client sends through one ``requests.Session`` from ``client_session``,
which keeps its connection alive and reads the environment once.
"""

from __future__ import annotations

import time

ATTEMPTS = 3
BACKOFF_S = 0.5
TIMEOUT_S = 30.0


def client_session(endpoint: str, session: requests.Session | None = None) -> requests.Session:
    """``session`` as given, or a new one for POSTs to ``endpoint``. A new one
    resolves the environment (proxies, ``REQUESTS_CA_BUNDLE`` / ``CURL_CA_BUNDLE``,
    netrc auth) for ``endpoint`` now, with requests' own rules, and then stops
    trusting it, so no POST reads ``os.environ`` again."""
    if session is not None:
        return session
    import requests  # loaded only by a client that sends requests

    session = requests.Session()
    settings = session.merge_environment_settings(endpoint, {}, None, None, None)
    session.proxies = settings["proxies"]
    session.verify = settings["verify"]
    session.auth = requests.utils.get_netrc_auth(endpoint)
    session.trust_env = False
    return session


def post_json(
    session: requests.Session,
    endpoint: str,
    payload: dict,
    *,
    error: type[Exception],
    service: str,
) -> dict:
    """POST ``payload``; return the reply's JSON object or raise ``error``."""
    import requests  # loaded only when a request is sent

    for attempt in range(ATTEMPTS):
        if attempt:
            time.sleep(BACKOFF_S * 2 ** (attempt - 1))
        try:
            resp = session.post(endpoint, json=payload, timeout=TIMEOUT_S)
        except (requests.ConnectionError, requests.Timeout) as exc:
            failure = error(f"{service} unreachable: {exc}")
            continue
        except requests.exceptions.ChunkedEncodingError as exc:
            # requests' name for a reply body cut short, chunked or not
            failure = error(f"{service} reply cut short: {exc}")
            continue
        except requests.RequestException as exc:
            raise error(f"{service} request failed: {exc}") from exc
        if resp.status_code == 200:
            break
        failure = error(f"{service} returned {resp.status_code}: {resp.text[:200]}")
        if resp.status_code < 500:
            raise failure
    else:
        raise failure
    try:
        body = resp.json()
    except ValueError as exc:
        raise error(f"{service} returned invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise error(f"{service} returned invalid JSON: nested too deeply") from exc
    if not isinstance(body, dict):
        raise error(f"{service} returned a JSON {type(body).__name__}, not an object")
    return body
