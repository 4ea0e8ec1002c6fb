"""Decision backends: wire protocol, deterministic oracle, HTTP client, stub."""
from .oracle import OracleBackend
from .protocol import (DecisionRequest, DecisionResponse, MemoryOp, RequestContext,
                       PROTOCOL_VERSION, parse_response)
from .remote import BackendConfig, RemoteBackend
from .stub import StubServer

__all__ = [
    "BackendConfig", "DecisionRequest", "DecisionResponse", "MemoryOp",
    "OracleBackend", "PROTOCOL_VERSION", "RemoteBackend", "RequestContext",
    "StubServer", "parse_response",
]
