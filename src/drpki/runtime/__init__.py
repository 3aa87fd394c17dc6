"""Five-party node runtime: transport, sessions, orchestration, signing service."""

from .transport import (
    FRAME_OVERHEAD,
    InProcessHub,
    SessionMessage,
    TcpNodeTransport,
    TransportError,
    decode_frame,
    encode_frame,
)
from .session import PartySession, SessionAbort
from .node import (
    ConsentPolicy,
    InterventionTicket,
    LocalCluster,
    PartyNode,
    SignOutcome,
    SignRequest,
    verify_audit_completeness,
)

__all__ = [
    "FRAME_OVERHEAD",
    "InProcessHub",
    "SessionMessage",
    "TcpNodeTransport",
    "TransportError",
    "decode_frame",
    "encode_frame",
    "PartySession",
    "SessionAbort",
    "ConsentPolicy",
    "InterventionTicket",
    "LocalCluster",
    "PartyNode",
    "SignOutcome",
    "SignRequest",
    "verify_audit_completeness",
]
