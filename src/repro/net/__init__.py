"""Message-passing network substrate: envelopes, timing models,
scheduling adversaries, and the router."""

from .adversary import (
    Adversary,
    CertificateWithholdingAdversary,
    EdgeDelayAdversary,
    FirstWindowAdversary,
    HOLD,
    KindDelayAdversary,
    NullAdversary,
    PredicateDelayAdversary,
)
from .message import Envelope, MsgKind
from .network import Network, NetworkStats
from .timing import Asynchronous, PartialSynchrony, Synchronous, TimingModel

__all__ = [
    "Adversary",
    "Asynchronous",
    "CertificateWithholdingAdversary",
    "EdgeDelayAdversary",
    "Envelope",
    "FirstWindowAdversary",
    "HOLD",
    "KindDelayAdversary",
    "MsgKind",
    "Network",
    "NetworkStats",
    "NullAdversary",
    "PartialSynchrony",
    "PredicateDelayAdversary",
    "Synchronous",
    "TimingModel",
]
