"""Certificates: χ, commit/abort decisions, and quorum certificates.

The paper's protocols revolve around three certificate families:

* :class:`PaymentCertificate` — χ, signed by Bob, stating that Alice's
  obligation to pay him has been met (Definition 1).
* :class:`DecisionCertificate` — χc (commit) or χa (abort), issued by a
  transaction manager in the weak-liveness protocol (Definition 2).
  Property CC demands that χc and χa are never both issued.
* :class:`QuorumCertificate` — a decision backed by ≥ ``threshold``
  distinct valid notary signatures, the committee realisation of the
  transaction manager.

All certificates are signed over canonical encodings; holders can be
handed around freely and verified by anyone with the key ring.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, List, Optional, Sequence

from ..errors import CryptoError
from .keys import Identity, KeyRing
from .signatures import Signature, SignedFields


class Decision(str, Enum):
    """Transaction-manager decision values."""

    COMMIT = "commit"
    ABORT = "abort"


@dataclass(frozen=True)
class PaymentCertificate(SignedFields):
    """χ — Bob's signed statement that his payment obligation is met.

    Attributes
    ----------
    payment_id:
        Identifier of the payment session this certificate belongs to.
    issuer:
        Name of the signer (Bob in honest runs).
    signature:
        Signature over ``(payment_id, issuer)``.
    """

    payment_id: str
    issuer: str
    signature: Signature

    def signing_fields(self) -> Dict[str, Any]:
        return {"type": "chi", "payment_id": self.payment_id, "issuer": self.issuer}

    @classmethod
    def issue(cls, identity: Identity, payment_id: str) -> "PaymentCertificate":
        """Create χ signed by ``identity``."""
        return cls._issue(identity, payment_id=payment_id, issuer=identity.name)

    def valid(self, keyring: KeyRing, expected_issuer: Optional[str] = None) -> bool:
        """Verify the signature (and, optionally, the issuer's name).

        The signature's signer must equal the claimed issuer — without
        this check a Byzantine party could sign, with *her own* key, a
        body claiming Bob issued it, and the tag would still verify.
        """
        if expected_issuer is not None and self.issuer != expected_issuer:
            return False
        return self._verify(keyring, self.issuer)


@dataclass(frozen=True)
class DecisionCertificate(SignedFields):
    """χc / χa — a single-signer transaction-manager decision."""

    payment_id: str
    decision: Decision
    issuer: str
    signature: Signature

    def signing_fields(self) -> Dict[str, Any]:
        return {
            "type": "decision",
            "payment_id": self.payment_id,
            "decision": self.decision.value,
            "issuer": self.issuer,
        }

    @classmethod
    def issue(
        cls, identity: Identity, payment_id: str, decision: Decision
    ) -> "DecisionCertificate":
        """Create a decision certificate signed by ``identity``."""
        return cls._issue(
            identity, payment_id=payment_id, decision=decision, issuer=identity.name
        )

    def valid(self, keyring: KeyRing, expected_issuer: Optional[str] = None) -> bool:
        """Verify the signature (and, optionally, the issuer's name)."""
        if expected_issuer is not None and self.issuer != expected_issuer:
            return False
        return self._verify(keyring, self.issuer)

    @property
    def is_commit(self) -> bool:
        return self.decision is Decision.COMMIT


@dataclass(frozen=True)
class Vote(SignedFields):
    """One notary's signed vote for a decision."""

    payment_id: str
    decision: Decision
    notary: str
    signature: Signature

    def signing_fields(self) -> Dict[str, Any]:
        return {
            "type": "vote",
            "payment_id": self.payment_id,
            "decision": self.decision.value,
            "notary": self.notary,
        }

    @classmethod
    def cast(cls, identity: Identity, payment_id: str, decision: Decision) -> "Vote":
        """Create a vote signed by the notary ``identity``."""
        return cls._issue(
            identity, payment_id=payment_id, decision=decision, notary=identity.name
        )

    def valid(self, keyring: KeyRing) -> bool:
        return self._verify(keyring, self.notary)


@dataclass(frozen=True)
class QuorumCertificate:
    """A decision backed by a quorum of notary votes.

    Validity requires ≥ ``threshold`` votes that (a) verify, (b) are by
    *distinct* notaries drawn from the known committee, and (c) agree
    with the certificate's payment id and decision.
    """

    payment_id: str
    decision: Decision
    votes: Sequence[Vote] = field(default_factory=tuple)

    def signing_fields(self) -> Dict[str, Any]:
        return {
            "type": "quorum",
            "payment_id": self.payment_id,
            "decision": self.decision.value,
            "voters": sorted(v.notary for v in self.votes),
        }

    def supporting_notaries(self, keyring: KeyRing, committee: Sequence[str]) -> List[str]:
        """Distinct committee members with valid, matching votes."""
        members = set(committee)
        seen: List[str] = []
        for vote in self.votes:
            if vote.notary in seen or vote.notary not in members:
                continue
            if vote.payment_id != self.payment_id or vote.decision != self.decision:
                continue
            if vote.valid(keyring):
                seen.append(vote.notary)
        return seen

    def valid(
        self, keyring: KeyRing, committee: Sequence[str], threshold: int
    ) -> bool:
        """Whether the certificate carries a valid quorum."""
        if threshold <= 0:
            raise CryptoError("quorum threshold must be positive")
        return len(self.supporting_notaries(keyring, committee)) >= threshold

    @property
    def is_commit(self) -> bool:
        return self.decision is Decision.COMMIT


#: Union type used in payloads: either a single-signer or quorum decision.
AnyDecisionCertificate = (DecisionCertificate, QuorumCertificate)


__all__ = [
    "AnyDecisionCertificate",
    "Decision",
    "DecisionCertificate",
    "PaymentCertificate",
    "QuorumCertificate",
    "Vote",
]
