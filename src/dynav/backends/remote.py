"""HTTP client for a remote decision endpoint.

POSTs the request JSON to the configured ``http://`` or ``https://`` URL and
validates the reply against the wire schema.  A ``RemoteBackend`` keeps one
keep-alive HTTP/1.1 connection (stdlib ``http.client``) and serves one thread.
Transport failures and HTTP 5xx are retried with exponential backoff; schema
problems are never retried because a malformed server will not heal on its
own.  Redirects (3xx) are not followed, and proxy environment variables are
not read.
"""
from __future__ import annotations

import http.client
import json
import logging
import os
import select
import time
from dataclasses import dataclass
from typing import Optional, Tuple
from urllib.parse import urlsplit

from ..errors import RequestTimeout, SchemaViolation, TransportError
from .protocol import DecisionRequest, DecisionResponse, encode_request, parse_response

log = logging.getLogger(__name__)

TOKEN_ENV = "DYNAV_TOKEN"

BACKOFF_BASE_S = 0.25
BACKOFF_FACTOR = 2.0

_SCHEMES = {"http": http.client.HTTPConnection, "https": http.client.HTTPSConnection}


@dataclass(frozen=True)
class BackendConfig:
    endpoint: str
    timeout_ms: int = 10_000
    max_retries: int = 2

    def __post_init__(self):
        if self.timeout_ms <= 0:
            raise ValueError("timeout must be positive")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        url = urlsplit(self.endpoint)
        if url.scheme not in _SCHEMES or not url.hostname:
            raise ValueError(f"endpoint must be an http:// or https:// URL: {self.endpoint!r}")
        url.port  # raises ValueError on a malformed port


def _readable(sock) -> bool:
    if hasattr(select, "poll"):
        poller = select.poll()
        poller.register(sock, select.POLLIN)
        return bool(poller.poll(0))
    return bool(select.select([sock], [], [], 0)[0])


class Connection:
    """One keep-alive connection to ``cfg.endpoint``, for one thread.

    ``timeout_ms`` bounds the connect and each socket read.  The connection
    opens on first use and reopens after the server or a failure closed it.
    """

    def __init__(self, cfg: BackendConfig):
        url = urlsplit(cfg.endpoint)
        cls = _SCHEMES[url.scheme]
        self._path = (url.path or "/") + (f"?{url.query}" if url.query else "")
        self._http = cls(url.hostname, url.port or cls.default_port,
                         timeout=cfg.timeout_ms / 1000.0)

    def post(self, body: bytes, headers: dict) -> Tuple[int, bytes]:
        """POST ``body``; returns the reply's status and body."""
        conn = self._http
        if conn.sock is not None and _readable(conn.sock):
            # an idle connection has nothing to read unless the server hung up
            conn.close()
        try:
            conn.request("POST", self._path, body, headers)
            resp = conn.getresponse()
            return resp.status, resp.read()
        except BaseException:
            # a reply still on its way must not be read as the next request's
            conn.close()
            raise

    def close(self) -> None:
        self._http.close()


def _exchange(cfg: BackendConfig, conn, req: DecisionRequest, body: bytes,
              sleep) -> DecisionResponse:
    """POST an encoded request, with retries on transient failures."""
    headers = {"Content-Type": "application/json"}
    token = os.environ.get(TOKEN_ENV)
    if token:
        headers["Authorization"] = f"Bearer {token}"
    attempts = cfg.max_retries + 1
    last_exc: Exception = TransportError("no attempt made")
    for attempt in range(attempts):
        if attempt:
            sleep(BACKOFF_BASE_S * BACKOFF_FACTOR ** (attempt - 1))
        try:
            status, data = conn.post(body, headers)
        except TimeoutError:
            last_exc = RequestTimeout(f"no answer within {cfg.timeout_ms} ms")
            log.warning("attempt %d/%d timed out", attempt + 1, attempts)
            continue
        except (OSError, http.client.HTTPException) as e:
            last_exc = TransportError(str(e) or type(e).__name__)
            log.warning("attempt %d/%d failed: %s", attempt + 1, attempts, e)
            continue
        if 500 <= status < 600:
            last_exc = TransportError(f"server error {status}")
            log.warning("attempt %d/%d got HTTP %d", attempt + 1, attempts, status)
            continue
        if status != 200:
            raise SchemaViolation(f"unexpected HTTP status {status}")
        try:
            payload = json.loads(data)
        except (ValueError, RecursionError) as e:
            raise SchemaViolation(f"response body is not JSON: {e}") from e
        return parse_response(payload, req)
    raise last_exc


def remote_call(cfg: BackendConfig, req: DecisionRequest, conn: Optional[Connection] = None,
                sleep=time.sleep) -> DecisionResponse:
    """One logical decision call, with retries on transient failures.

    ``conn`` is any object with ``Connection.post``; without one, the call
    opens and closes its own connection.  Raises RequestTimeout /
    TransportError after ``max_retries`` extra attempts, or SchemaViolation
    without retrying on a request that cannot be encoded or a malformed or
    mismatched response (including HTTP 3xx and 4xx).
    """
    body = encode_request(req)
    if conn is not None:
        return _exchange(cfg, conn, req, body, sleep)
    conn = Connection(cfg)
    try:
        return _exchange(cfg, conn, req, body, sleep)
    finally:
        conn.close()


class RemoteBackend:
    """Decision backend bound to a remote endpoint over one keep-alive
    connection.

    Serves one thread: ``dynav run`` builds one backend per episode, and the
    benchmark's pool one per thread.  It keeps the last encoded rays, so the
    filter, score and stop requests of a step encode the observation once.
    """

    def __init__(self, cfg: BackendConfig):
        self.cfg = cfg
        self._conn = Connection(cfg)
        self._memo: list = [None, ""]

    def decide(self, req: DecisionRequest) -> DecisionResponse:
        return _exchange(self.cfg, self._conn, req, encode_request(req, self._memo),
                         time.sleep)

    def close(self):
        self._conn.close()
