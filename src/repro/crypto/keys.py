"""Identities and key material (simulated).

Real deployments use asymmetric signatures; for a deterministic,
dependency-free simulation we use HMAC with per-identity secrets held in
a :class:`KeyRing`.  The security property we need for the Byzantine
model — *a process can only produce signatures attributable to
identities whose secret it holds* — is enforced structurally: signing
requires the :class:`Identity` object (which carries the secret), and
honest infrastructure never hands one identity's object to another
participant.  Verification needs only the public registry.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, Iterable, List, Set, Tuple

from ..errors import CryptoError


@lru_cache(maxsize=1024)
def _derive_secret(name: str, domain: str) -> bytes:
    """Deterministic per-identity secret (simulation only).

    Pure in its arguments (no seed involvement), so the derivation is
    memoized: campaigns re-create the same few identities for every
    trial.
    """
    return hashlib.blake2b(
        f"repro-keyring:{domain}:{name}".encode("utf-8"), digest_size=32
    ).digest()


@dataclass(frozen=True)
class Identity:
    """A named signer.  Possession of the object = ability to sign."""

    name: str
    secret: bytes = field(repr=False)

    def __post_init__(self) -> None:
        if not self.name:
            raise CryptoError("identity name must be non-empty")
        if len(self.secret) < 16:
            raise CryptoError("identity secret too short")


class KeyRing:
    """Registry of identities for one simulated world.

    Parameters
    ----------
    domain:
        Namespace string; two key rings with different domains produce
        incompatible signatures, preventing cross-simulation replay in
        tests.
    """

    def __init__(self, domain: str = "default") -> None:
        self.domain = domain
        self._identities: Dict[str, Identity] = {}
        #: ``(signer, tag, payload bytes)`` of every successful check.
        self._verified: Set[Tuple[str, bytes, bytes]] = set()

    def create(self, name: str) -> Identity:
        """Create (or return the existing) identity for ``name``."""
        existing = self._identities.get(name)
        if existing is not None:
            return existing
        identity = Identity(name=name, secret=_derive_secret(name, self.domain))
        self._identities[name] = identity
        return identity

    def create_all(self, names: Iterable[str]) -> List[Identity]:
        """Create identities for several names."""
        return [self.create(name) for name in names]

    def check(self, signer: str, tag: bytes, encoded: bytes) -> bool:
        """Whether ``tag`` is ``signer``'s HMAC over ``encoded``.

        The verifier's half of :func:`~repro.crypto.signatures.verify`.
        A successful check is remembered, so repeating it costs a set
        lookup.  That is sound because a name's secret never changes
        within a ring, and the memo belongs to this ring alone.  A
        failed check (unknown signer, wrong tag) is not remembered.
        """
        key = (signer, tag, encoded)
        if key in self._verified:
            return True
        identity = self._identities.get(signer)
        if identity is None or not hmac.compare_digest(
            hmac.digest(identity.secret, encoded, "sha256"), tag
        ):
            return False
        self._verified.add(key)
        return True

    def names(self) -> List[str]:
        """Sorted registered identity names."""
        return sorted(self._identities)


__all__ = ["Identity", "KeyRing"]
