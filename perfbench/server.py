"""Decision server for the remote workload.

Answers ``POST /decide`` with ``DecisionRequest.from_dict``, then
``OracleBackend.decide``, then ``DecisionResponse.to_dict``, over keep-alive
HTTP/1.1 on 127.0.0.1.  ``GET /stats`` returns cumulative per-kind counters:
requests, seconds in ``decide`` and seconds handling the request from its
first byte read to its last byte written.  Prints
``port <n>`` once it listens.

    PYTHONPATH=src python3 perfbench/server.py
"""
from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from time import perf_counter

from dynav.backends import OracleBackend
from dynav.backends.protocol import KINDS, DecisionRequest
from dynav.config import RunConfig


def make_server() -> ThreadingHTTPServer:
    cfg = RunConfig()
    oracle = OracleBackend(hazard_clearance=cfg.hazard_clearance_m,
                           success_threshold=cfg.success_threshold_m, r_scale=cfg.d_max)
    stats = {k: {"requests": 0, "decide_s": 0.0, "handle_s": 0.0}
             for k in KINDS}
    lock = threading.Lock()

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        # headers and body go out in two writes; without TCP_NODELAY the body
        # waits for the client's delayed ACK
        disable_nagle_algorithm = True

        def log_message(self, *args):
            pass

        def _reply(self, status: int, body: bytes) -> None:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def do_GET(self):
            if self.path != "/stats":
                self._reply(404, b"{}")
                return
            with lock:
                body = json.dumps(stats).encode()
            self._reply(200, body)

        def do_POST(self):
            t0 = perf_counter()
            raw = self.rfile.read(int(self.headers.get("Content-Length", 0)))
            req = DecisionRequest.from_dict(json.loads(raw))
            t1 = perf_counter()
            resp = oracle.decide(req)
            t2 = perf_counter()
            self._reply(200, json.dumps(resp.to_dict()).encode())
            t3 = perf_counter()
            with lock:
                s = stats[req.kind]
                s["requests"] += 1
                s["decide_s"] += t2 - t1
                s["handle_s"] += t3 - t0

    return ThreadingHTTPServer(("127.0.0.1", 0), Handler)


def main() -> None:
    server = make_server()
    print(f"port {server.server_address[1]}", flush=True)
    server.serve_forever()


if __name__ == "__main__":
    main()
