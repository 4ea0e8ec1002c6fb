"""Scriptable HTTP stub implementing the decision protocol for tests.

The stub answers POST /decide from a canned response table keyed by
``(kind, step)``; an entry with ``step: null`` acts as a wildcard for its
kind.  Entries may delay before answering, return arbitrary HTTP statuses or
raw bodies, or expand ``scores_all`` into a score for every candidate in the
request, which keeps canned scripts valid while candidate ids vary; those
scores cover any ids the body removes too, and the policy ignores them.  The stub
speaks keep-alive HTTP/1.1.
"""
from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional, Tuple

from ..errors import BindFailure, check_finite, check_integer, check_type
from .protocol import PROTOCOL_VERSION

_WILD = None

# how often serve_forever looks for a shutdown request; the default 0.5 s
# makes every stop() wait most of that
POLL_INTERVAL_S = 0.05


class _Script:
    def __init__(self, entries: List[dict]):
        """Index the entries; one of the wrong shape raises SchemaViolation."""
        self.exact: Dict[Tuple[str, int], dict] = {}
        self.wild: Dict[str, dict] = {}
        for e in check_type(entries, list, "a stub script"):
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

    def lookup(self, kind: str, step: int) -> Optional[dict]:
        return self.exact.get((kind, step)) or self.wild.get(kind)


class StubServer:
    """Threaded stub server; records every request it receives."""

    def __init__(self, port: int = 0, script: Optional[List[dict]] = None):
        self._script = _Script([] if script is None else script)
        self.requests: List[dict] = []
        self._lock = threading.Lock()
        outer = self

        class Handler(BaseHTTPRequestHandler):
            # keep-alive, like a real decision server; headers and body go out
            # in two writes, so without TCP_NODELAY the body waits for the
            # client's delayed ACK
            protocol_version = "HTTP/1.1"
            disable_nagle_algorithm = True

            def log_message(self, *args):  # keep test output clean
                pass

            def do_POST(self):
                length = int(self.headers.get("Content-Length", 0))
                raw = self.rfile.read(length)
                try:
                    req = json.loads(raw)
                except ValueError:
                    self.send_error(400)
                    return
                with outer._lock:
                    outer.requests.append(req)
                entry = outer._script.lookup(req.get("kind", ""), int(req.get("step", -1)))
                if entry is None:
                    self.send_error(404, "no scripted response")
                    return
                delay = entry.get("delay_ms", 0)
                if delay:
                    # not time.sleep, which a test may patch to skip the
                    # client's backoff
                    threading.Event().wait(delay / 1000.0)
                status = entry.get("status", 200)
                if "raw_body" in entry:
                    body = entry["raw_body"].encode()
                else:
                    payload = dict(entry.get("body", {}))
                    payload.setdefault("version", PROTOCOL_VERSION)
                    payload.setdefault("kind", req.get("kind"))
                    if "scores_all" in entry:
                        payload["scores"] = [
                            {"id": c["id"], "s": entry["scores_all"]}
                            for c in req.get("candidates", [])
                        ]
                    body = json.dumps(payload).encode()
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

        class Server(ThreadingHTTPServer):
            def handle_error(self, request, client_address):
                # clients hanging up mid-response (timeout tests) are expected
                import sys
                exc = sys.exc_info()[1]
                if not isinstance(exc, (BrokenPipeError, ConnectionResetError)):
                    super().handle_error(request, client_address)

        try:
            self._httpd = Server(("127.0.0.1", port), Handler)
        except OSError as e:
            raise BindFailure(f"cannot bind stub server on port {port}: {e}") from e
        self.port = self._httpd.server_address[1]
        self._thread = threading.Thread(target=self._httpd.serve_forever,
                                        args=(POLL_INTERVAL_S,), daemon=True)

    @property
    def endpoint(self) -> str:
        return f"http://127.0.0.1:{self.port}/decide"

    def start(self) -> "StubServer":
        self._thread.start()
        return self

    def stop(self):
        self._httpd.shutdown()
        self._httpd.server_close()

    def __enter__(self) -> "StubServer":
        return self.start()

    def __exit__(self, *exc):
        self.stop()

