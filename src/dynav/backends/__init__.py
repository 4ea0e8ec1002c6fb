"""Decision backends: wire protocol, deterministic oracle, HTTP client.

The decision server lives in ``dynav.backends.server``; it is not
re-exported, so importing the package does not load ``http.server``.
"""
from .oracle import OracleBackend
from .protocol import (DecisionRequest, DecisionResponse, MemoryOp, RequestContext,
                       PROTOCOL_VERSION, parse_response)
from .remote import BackendConfig, RemoteBackend

__all__ = [
    "BackendConfig", "DecisionRequest", "DecisionResponse", "MemoryOp",
    "OracleBackend", "PROTOCOL_VERSION", "RemoteBackend", "RequestContext",
    "parse_response",
]
