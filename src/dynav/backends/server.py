"""The decision server: answers POST /decide over keep-alive HTTP/1.1.

Each request object goes through one answer function, which gives the HTTP
status and body.  Without a script it is the oracle of the default
``RunConfig``: ``DecisionRequest.from_dict``, ``OracleBackend.decide``, then
``DecisionResponse.to_dict``.  With one it is the script's canned response
table keyed by ``(kind, step)``; an entry with ``step: null`` acts as a
wildcard for its kind.  Entries may delay before answering, return
arbitrary HTTP statuses or raw bodies, or expand ``scores_all`` into a score
for every candidate in the request, which keeps canned scripts valid while
candidate ids vary; those scores cover any ids the body removes too, and
the policy ignores them.  A body that no answer can use (SchemaViolation)
gets HTTP 400 with a JSON error, and the connection stays open; so does a
request without a readable Content-Length, after which the server hangs up.
"""
from __future__ import annotations

import json
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional, Tuple

from ..config import RunConfig
from ..errors import BindFailure, SchemaViolation, check_finite, check_integer, check_type
from .oracle import OracleBackend
from .protocol import PROTOCOL_VERSION, DecisionRequest

_WILD = None

# how often serve_forever looks for a shutdown request; the default 0.5 s
# makes every stop() wait most of that
POLL_INTERVAL_S = 0.05


def _error(message: str) -> bytes:
    return json.dumps({"error": message}).encode()


class _Script:
    def __init__(self, entries: List[dict]):
        """Index the entries; one of the wrong shape raises SchemaViolation."""
        self.exact: Dict[Tuple[str, int], dict] = {}
        self.wild: Dict[str, dict] = {}
        for e in check_type(entries, list, "a server script"):
            check_type(e, dict, "a script entry")
            kind = check_type(e.get("kind"), str, "script entry kind")
            check_type(e.get("body", {}), dict, "script entry body")
            check_type(e.get("raw_body", ""), str, "script entry raw_body")
            check_integer(e.get("status", 200), "script entry status")
            check_finite(e.get("delay_ms", 0), "script entry delay_ms")
            check_finite(e.get("scores_all", 0), "script entry scores_all")
            step = e.get("step", _WILD)
            if step is _WILD:
                self.wild[kind] = e
            else:
                self.exact[(kind, check_integer(step, "script entry step"))] = e

    def answer(self, req: dict) -> Tuple[int, bytes]:
        kind = check_type(req.get("kind", ""), str, "request kind")
        step = check_integer(req.get("step", -1), "request step")
        entry = self.exact.get((kind, step)) or self.wild.get(kind)
        if entry is None:
            return 404, _error(f"no scripted response to {kind!r} at step {step}")
        delay = entry.get("delay_ms", 0)
        if delay:
            # not time.sleep, which a test may patch to skip the client's backoff
            threading.Event().wait(delay / 1000.0)
        if "raw_body" in entry:
            return entry.get("status", 200), entry["raw_body"].encode()
        payload = dict(entry.get("body", {}))
        payload.setdefault("version", PROTOCOL_VERSION)
        payload.setdefault("kind", kind)
        if "scores_all" in entry:
            candidates = check_type(req.get("candidates", []), list, "request candidates")
            payload["scores"] = [{"id": check_type(c, dict, "a request candidate").get("id"),
                                  "s": entry["scores_all"]} for c in candidates]
        return entry.get("status", 200), json.dumps(payload).encode()


def _oracle_answer(oracle: OracleBackend):
    def answer(req: dict) -> Tuple[int, bytes]:
        return 200, json.dumps(oracle.decide(DecisionRequest.from_dict(req)).to_dict()).encode()
    return answer


class DecisionServer:
    """Threaded decision server on 127.0.0.1; answers from ``script`` if one
    is given, else with the oracle.  With ``record`` it keeps every request
    object it receives in ``requests``."""

    def __init__(self, port: int = 0, script: Optional[List[dict]] = None,
                 record: bool = True):
        answer = (_oracle_answer(OracleBackend.from_config(RunConfig())) if script is None
                  else _Script(script).answer)
        self.requests: List[dict] = []
        lock = threading.Lock()

        def reply(raw: bytes) -> Tuple[int, bytes]:
            try:
                req = json.loads(raw)
            except (ValueError, RecursionError) as e:  # not UTF-8 or JSON, too deep
                return 400, _error(f"the request body is not JSON: {e}")
            if record:
                with lock:
                    self.requests.append(req)
            try:
                return answer(check_type(req, dict, "a request"))
            except SchemaViolation as e:
                return 400, _error(str(e))

        class Handler(BaseHTTPRequestHandler):
            # keep-alive, like a real decision server; headers and body go out
            # in two writes, so without TCP_NODELAY the body waits for the
            # client's delayed ACK
            protocol_version = "HTTP/1.1"
            disable_nagle_algorithm = True

            def log_message(self, *args):  # no line per request
                pass

            def do_POST(self):
                length = self.headers.get("Content-Length", "0")
                if length.isascii() and length.isdigit():
                    status, body = reply(self.rfile.read(int(length)))
                else:  # where the body ends is unknown: answer, then hang up
                    status, body = 400, _error(f"bad Content-Length: {length!r:.40}")
                    self.close_connection = True
                self.send_response(status)
                if self.close_connection:
                    self.send_header("Connection", "close")
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

        class Server(ThreadingHTTPServer):
            def handle_error(self, request, client_address):
                # clients hanging up mid-response (timeout tests) are expected
                if not isinstance(sys.exc_info()[1], (BrokenPipeError, ConnectionResetError)):
                    super().handle_error(request, client_address)

        try:
            self._httpd = Server(("127.0.0.1", port), Handler)
        except OSError as e:
            raise BindFailure(f"cannot bind the decision server on port {port}: {e}") from e
        self.port = self._httpd.server_address[1]
        self._thread: Optional[threading.Thread] = None

    @property
    def endpoint(self) -> str:
        return f"http://127.0.0.1:{self.port}/decide"

    def serve_forever(self) -> None:
        """Serve in the calling thread until it is interrupted."""
        self._httpd.serve_forever(POLL_INTERVAL_S)

    def start(self) -> "DecisionServer":
        """Serve in a daemon thread."""
        self._thread = threading.Thread(target=self.serve_forever, daemon=True)
        self._thread.start()
        return self

    def stop(self):
        if self._thread is not None:
            self._httpd.shutdown()
        self._httpd.server_close()

    def __enter__(self) -> "DecisionServer":
        return self.start()

    def __exit__(self, *exc):
        self.stop()
