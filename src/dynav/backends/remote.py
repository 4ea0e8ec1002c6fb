"""HTTP client for a remote decision endpoint.

POSTs the request JSON to the configured URL and validates the reply against
the wire schema.  Transport failures and HTTP 5xx are retried with exponential
backoff; schema problems are never retried because a malformed server will not
heal on its own.
"""
from __future__ import annotations

import logging
import os
import time
from dataclasses import dataclass
from typing import Optional

import requests

from ..errors import RequestTimeout, SchemaViolation, TransportError
from .protocol import DecisionRequest, DecisionResponse, parse_response

log = logging.getLogger(__name__)

TOKEN_ENV = "DYNAV_TOKEN"

BACKOFF_BASE_S = 0.25
BACKOFF_FACTOR = 2.0


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


def remote_call(cfg: BackendConfig, req: DecisionRequest,
                session: Optional[requests.Session] = None,
                sleep=time.sleep) -> DecisionResponse:
    """One logical decision call, with retries on transient failures.

    Raises RequestTimeout / TransportError after ``max_retries`` extra
    attempts, or SchemaViolation immediately on a malformed or mismatched
    response (including HTTP 4xx).
    """
    http = session or requests
    headers = {"Content-Type": "application/json"}
    token = os.environ.get(TOKEN_ENV)
    if token:
        headers["Authorization"] = f"Bearer {token}"
    body = req.to_dict()
    timeout_s = cfg.timeout_ms / 1000.0
    attempts = cfg.max_retries + 1
    last_exc: Exception = TransportError("no attempt made")
    for attempt in range(attempts):
        if attempt:
            sleep(BACKOFF_BASE_S * BACKOFF_FACTOR ** (attempt - 1))
        try:
            resp = http.post(cfg.endpoint, json=body, headers=headers, timeout=timeout_s)
        except requests.Timeout as e:
            last_exc = RequestTimeout(f"no answer within {cfg.timeout_ms} ms")
            log.warning("attempt %d/%d timed out", attempt + 1, attempts)
            continue
        except requests.RequestException as e:
            last_exc = TransportError(str(e))
            log.warning("attempt %d/%d failed: %s", attempt + 1, attempts, e)
            continue
        if 500 <= resp.status_code < 600:
            last_exc = TransportError(f"server error {resp.status_code}")
            log.warning("attempt %d/%d got HTTP %d", attempt + 1, attempts, resp.status_code)
            continue
        if resp.status_code != 200:
            raise SchemaViolation(f"unexpected HTTP status {resp.status_code}")
        try:
            payload = resp.json()
        except ValueError as e:
            raise SchemaViolation(f"response body is not JSON: {e}") from e
        return parse_response(payload, req)
    raise last_exc


class RemoteBackend:
    """Decision backend bound to a remote endpoint; reuses one HTTP session."""

    def __init__(self, cfg: BackendConfig):
        self.cfg = cfg
        self._session = requests.Session()

    def decide(self, req: DecisionRequest) -> DecisionResponse:
        return remote_call(self.cfg, req, session=self._session)

    def close(self):
        self._session.close()
