"""HTTP client for a remote decision endpoint.

POSTs each request as JSON of the wire protocol's ``PROTOCOL_VERSION``,
whose observation carries the step's rays as columns, bearings and distances
packed, plus one table of the distinct hits (docs/protocol.md), to the
configured ``http://`` or ``https://`` URL, and validates the reply
against the wire schema.  A step waits on exactly one round trip: a score
request, whose reply removes or nudges candidates, rates the survivors and
rates stop confidence together (a step without candidates sends one
stop_check instead).  A reply of any other version is refused.

A ``RemoteBackend`` serves one thread over one keep-alive HTTP/1.1
connection: a socket it owns, with ``TCP_NODELAY``.  Each request goes out
in one write, and replies are read through one buffered reader kept for the
connection's life, framed as RFC 9112 says: by ``Content-Length``, by
``chunked`` transfer coding, or to the end of the stream.  ``https`` wraps
the socket in TLS with the default context, which checks the certificate
and the host name.  Transport failures, malformed replies and HTTP 5xx are
retried with exponential backoff; schema problems are never retried because
a malformed server will not heal on its own.  Redirects (3xx) are not
followed, and proxy environment variables are not read.
"""
from __future__ import annotations

import json
import logging
import os
import select
import socket
import threading
import time
from dataclasses import dataclass
from typing import Dict, Tuple
from urllib.parse import SplitResult, urlsplit

from ..errors import RequestTimeout, SchemaViolation, TransportError
from .protocol import DecisionRequest, DecisionResponse, encode_request, parse_response

log = logging.getLogger(__name__)

TOKEN_ENV = "DYNAV_TOKEN"

BACKOFF_BASE_S = 0.25
BACKOFF_FACTOR = 2.0

_DEFAULT_PORTS = {"http": 80, "https": 443}

# the bounds http.client puts on a reply's head: the bytes of one line, and
# the lines of a header (or trailer) section
MAX_LINE = 65536
MAX_HEADERS = 100

_HEX_DIGITS = b"0123456789abcdefABCDEF"


@dataclass(frozen=True)
class BackendConfig:
    endpoint: str
    timeout_ms: int = 10_000
    max_retries: int = 2

    def __post_init__(self):
        # the socket refuses a timeout above threading.TIMEOUT_MAX seconds
        if not 0 < self.timeout_ms <= threading.TIMEOUT_MAX * 1000:
            raise ValueError(f"timeout_ms must lie in (0, {threading.TIMEOUT_MAX * 1000:.0f}]")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        url = urlsplit(self.endpoint)
        if url.scheme not in _DEFAULT_PORTS or not url.hostname:
            raise ValueError(f"endpoint must be an http:// or https:// URL: {self.endpoint!r}")
        url.port  # raises ValueError on a malformed port
        if not all(" " < c < "\x7f" for c in _target(url)):
            raise ValueError("endpoint path and query must be printable ASCII without spaces: "
                             f"{self.endpoint!r}")


def _target(url: SplitResult) -> str:
    """The request target: the URL's path and query."""
    return (url.path or "/") + (f"?{url.query}" if url.query else "")


def _request_head(url: SplitResult) -> bytes:
    """The request line and the header fields every request carries, as
    http.client writes them: ``Host`` (an IPv6 address in brackets, the port
    only when it is not the scheme's default) and ``Accept-Encoding:
    identity``."""
    try:
        host = url.hostname.encode("ascii")
    except UnicodeEncodeError:
        host = url.hostname.encode("idna")
    if b":" in host:
        host = b"[" + host + b"]"
    if url.port is not None and url.port != _DEFAULT_PORTS[url.scheme]:
        host += b":%d" % url.port
    return (b"POST %s HTTP/1.1\r\nHost: %s\r\nAccept-Encoding: identity\r\n"
            % (_target(url).encode("ascii"), host))


def _header_fields(headers: Dict[str, str]) -> bytes:
    """``headers`` as header lines; a line break in a name or value, which
    would end the header early, raises ValueError."""
    lines = []
    for name, value in headers.items():
        line = f"{name}: {value}"
        if "\r" in line or "\n" in line:
            raise ValueError(f"header holds a line break: {line!r:.60}")
        lines.append(line + "\r\n")
    return "".join(lines).encode("latin-1")


class BadReply(Exception):
    """A reply that breaks HTTP/1.1 framing or the bounds on its head."""


class Connection:
    """One keep-alive connection to ``cfg.endpoint``, for one thread.

    ``timeout_ms`` bounds the connect and each socket read.  The connection
    opens on first use and reopens after the server or a failure closed it;
    ``reconnects`` counts the openings after the first.
    """

    def __init__(self, cfg: BackendConfig):
        url = urlsplit(cfg.endpoint)
        self._address = (url.hostname, url.port or _DEFAULT_PORTS[url.scheme])
        self._tls = url.scheme == "https"
        self._tls_context = None
        self._timeout = cfg.timeout_ms / 1000.0
        self._head = _request_head(url)
        self._sock = self._rfile = self._poll = None
        self._opened = False
        self.reconnects = 0

    def post(self, body: bytes, headers: Dict[str, str]) -> Tuple[int, bytes]:
        """POST ``body`` with ``headers`` (besides Host, Accept-Encoding and
        Content-Length); returns the reply's status and body.  A reply that
        breaks its framing raises BadReply."""
        if self._sock is not None and self._readable():
            # an idle connection has nothing to read unless the server hung up
            self.close()
        try:
            if self._sock is None:
                self._connect()
            self._sock.sendall(b"".join((self._head, _header_fields(headers),
                                         b"Content-Length: %d\r\n\r\n" % len(body), body)))
            return self._reply()
        except BaseException:
            # a reply still on its way must not be read as the next request's
            self.close()
            raise

    def close(self) -> None:
        if self._sock is not None:
            self._rfile.close()
            self._sock.close()
            self._sock = self._rfile = self._poll = None

    def _connect(self) -> None:
        sock = socket.create_connection(self._address, self._timeout)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if self._tls:
                if self._tls_context is None:
                    import ssl  # only an https endpoint pays for the import

                    self._tls_context = ssl.create_default_context()
                    self._tls_context.set_alpn_protocols(["http/1.1"])
                sock = self._tls_context.wrap_socket(sock, server_hostname=self._address[0])
        except BaseException:
            sock.close()
            raise
        self._sock = sock
        self._rfile = sock.makefile("rb")
        if hasattr(select, "poll"):  # not on Windows
            self._poll = select.poll()
            self._poll.register(sock, select.POLLIN)
        if self._opened:
            self.reconnects += 1
        self._opened = True

    def _readable(self) -> bool:
        if self._poll is not None:
            return bool(self._poll.poll(0))
        return bool(select.select([self._sock], [], [], 0)[0])

    def _reply(self) -> Tuple[int, bytes]:
        """The status and body of the next final reply; 1xx replies are
        skipped.  Closes the connection when the reply says so, is HTTP/1.0
        or runs to the end of the stream, or when bytes past it arrived."""
        status = 100
        while status < 200:
            line = self._line()
            version, _, rest = line.partition(b" ")
            code = rest[:3]
            if not (version.startswith(b"HTTP/1.") and code.isdigit() and code >= b"100"
                    and rest[3:4] in (b" ", b"\r", b"\n")):
                raise BadReply(f"not an HTTP/1.x status line: {line[:60]!r}")
            status = int(code)
            fields = self._fields()
        options = fields.get(b"connection", b"").lower().split(b",")
        close = version == b"HTTP/1.0" or b"close" in map(bytes.strip, options)
        coding = fields.get(b"transfer-encoding")
        length = fields.get(b"content-length")
        if status in (204, 304):
            body = b""
        elif coding is not None:
            if coding.lower() != b"chunked":
                raise BadReply(f"unsupported transfer coding: {coding[:60]!r}")
            body = self._chunked()
        elif length is not None:
            if not (length.isdigit() and len(length) <= 18):
                raise BadReply(f"bad Content-Length: {length[:60]!r}")
            body = self._exactly(int(length))
        else:
            body = self._rfile.read()
            close = True
        if close or self._unread():
            self.close()
        return status, body

    def _line(self) -> bytes:
        line = self._rfile.readline(MAX_LINE + 1)
        if len(line) > MAX_LINE:
            raise BadReply(f"a reply line is longer than {MAX_LINE} bytes")
        if line[-1:] != b"\n":
            raise BadReply("the connection closed mid-reply" if line
                           else "the connection closed without a reply")
        return line

    def _fields(self) -> Dict[bytes, bytes]:
        """A header or trailer section, up to its blank line: the field
        values by lower-cased name, repeated fields joined by commas."""
        fields: Dict[bytes, bytes] = {}
        for _ in range(MAX_HEADERS + 1):
            line = self._line()
            if line in (b"\r\n", b"\n"):
                return fields
            name, colon, value = line.partition(b":")
            if not colon:
                raise BadReply(f"a header line without a colon: {line[:60]!r}")
            name, value = name.lower(), value.strip()
            fields[name] = fields[name] + b", " + value if name in fields else value
        raise BadReply(f"more than {MAX_HEADERS} header lines")

    def _exactly(self, n: int) -> bytes:
        data = self._rfile.read(n)
        if len(data) < n:
            raise BadReply(f"the reply body ends after {len(data)} of {n} bytes")
        return data

    def _chunked(self) -> bytes:
        """A chunked body (RFC 9112 section 7.1); chunk extensions and the
        trailer section are read and dropped."""
        chunks = []
        while True:
            size = self._line().split(b";", 1)[0].strip()
            if not size or len(size) > 16 or size.strip(_HEX_DIGITS):
                raise BadReply(f"bad chunk size: {size[:60]!r}")
            n = int(size, 16)
            if not n:
                break
            chunks.append(self._exactly(n))
            if self._rfile.read(2) != b"\r\n":
                raise BadReply("a chunk does not end in CRLF")
        self._fields()
        return b"".join(chunks)

    def _unread(self) -> bool:
        """Whether bytes past the reply have arrived, found without waiting
        for any."""
        self._sock.settimeout(0.0)
        try:
            return bool(self._rfile.peek(1))
        except OSError:  # TLS says "nothing to read" with SSLWantReadError
            return False
        finally:
            self._sock.settimeout(self._timeout)


class RemoteBackend:
    """Decision backend bound to a remote endpoint over one keep-alive
    connection.

    Serves one thread: ``dynav run`` builds one backend per episode, and the
    benchmark's pool one per thread.  It holds no encoding state: ``decide``
    encodes its request once and sends the same body on every attempt.
    ``requests`` counts the HTTP requests sent, ``retries`` those after a
    decision's first attempt, and ``reconnects`` the connections opened
    after the first.
    """

    def __init__(self, cfg: BackendConfig):
        self.cfg = cfg
        self._conn = Connection(cfg)
        self.requests = 0
        self.retries = 0

    @property
    def reconnects(self) -> int:
        return self._conn.reconnects

    def decide(self, req: DecisionRequest) -> DecisionResponse:
        """One logical decision call, with retries on transient failures.

        Raises RequestTimeout / TransportError after ``max_retries`` extra
        attempts, or SchemaViolation without retrying on a request that cannot
        be encoded or a malformed or mismatched response (including HTTP 3xx
        and 4xx).
        """
        cfg = self.cfg
        body = encode_request(req)
        headers = {"Content-Type": "application/json"}
        token = os.environ.get(TOKEN_ENV)
        if token:
            headers["Authorization"] = f"Bearer {token}"
        attempts = cfg.max_retries + 1
        last_exc: Exception = TransportError("no attempt made")
        for attempt in range(attempts):
            if attempt:
                self.retries += 1
                time.sleep(BACKOFF_BASE_S * BACKOFF_FACTOR ** (attempt - 1))
            self.requests += 1
            try:
                status, data = self._conn.post(body, headers)
            except TimeoutError:
                last_exc = RequestTimeout(f"no answer within {cfg.timeout_ms} ms")
                log.warning("attempt %d/%d timed out", attempt + 1, attempts)
                continue
            except (OSError, BadReply) as e:
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

    def close(self):
        self._conn.close()
