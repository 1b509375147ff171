"""Signing and verification over canonical payload encodings.

A :class:`Signature` binds an identity name to a *canonical encoding* of
a payload.  Canonicalisation walks plain Python structures (dict, list,
tuple, str, int, float, bool, None, bytes) and any object exposing
``signing_fields() -> dict``; the encoding is stable across runs and
platforms so signatures are reproducible.

Signed objects encode their payload once in their life.  The frozen
certificate, vote and promise classes (:class:`SignedFields`) and
:class:`SignedClaim`, whose body is frozen, hand :func:`sign` and
:func:`verify` a :class:`Payload` built from their immutable fields;
the first call that needs its bytes encodes it and later calls reuse
them.  :func:`verify` checks through
:meth:`~repro.crypto.keys.KeyRing.check`, which remembers each
successful ``(signer, tag, bytes)`` check, so a receiver re-checking a
claim already checked in the same world pays a set lookup, not an
HMAC.  Failed checks are never remembered.
"""

from __future__ import annotations

import hmac
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Dict, Optional

from ..errors import CryptoError, SignatureError
from .keys import Identity, KeyRing


def canonical_encode(payload: Any) -> bytes:
    """Deterministically encode ``payload`` for signing.

    Raises
    ------
    CryptoError
        If the payload contains an unsupported type.
    """
    out = bytearray()
    _encode_into(payload, out)
    return bytes(out)


class Payload:
    """A payload that is canonically encoded at most once.

    :func:`sign` and :func:`verify` accept a ``Payload`` wherever they
    accept a plain payload and sign the same bytes; the first of them
    to need the bytes encodes ``value``, later calls reuse them.  The
    caller promises that ``value`` is never mutated.
    """

    __slots__ = ("value", "_encoded")

    def __init__(self, value: Any) -> None:
        self.value = value
        self._encoded: Optional[bytes] = None

    def encoded(self) -> bytes:
        data = self._encoded
        if data is None:
            data = self._encoded = canonical_encode(self.value)
        return data


def _encode_into(value: Any, out: bytearray) -> None:
    # Exact-class dispatch first (ordered by observed frequency in
    # protocol payloads); subclasses — IntEnum values, str subclasses,
    # ``signing_fields`` objects — fall through to the isinstance chain
    # in :func:`_encode_other`, which preserves the original dispatch
    # order and therefore the canonical byte encoding.
    cls = value.__class__
    if cls is str:
        raw = value.encode("utf-8")
        out += b"S%d:" % len(raw)
        out += raw
        out += b";"
    elif cls is int:
        out += b"I%d;" % value
    elif cls is dict:
        keys = sorted(value, key=str)
        out += b"D%d:" % len(keys)
        for key in keys:
            _encode_into(str(key), out)
            _encode_into(value[key], out)
        out += b";"
    elif cls is list or cls is tuple:
        out += b"L%d:" % len(value)
        for item in value:
            _encode_into(item, out)
        out += b";"
    elif cls is float:
        out += b"F" + value.hex().encode() + b";"
    elif cls is bool:
        out += b"B1;" if value else b"B0;"
    elif value is None:
        out += b"N;"
    elif cls is bytes:
        out += b"Y%d:" % len(value)
        out += value
        out += b";"
    else:
        _encode_other(value, out)


def _encode_other(value: Any, out: bytearray) -> None:
    """Subclass / protocol fallback, in the canonical dispatch order."""
    if isinstance(value, bool):
        out += b"B1;" if value else b"B0;"
    elif isinstance(value, int):
        out += b"I%d;" % int(value)
    elif isinstance(value, float):
        out += b"F" + float(value).hex().encode() + b";"
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out += b"S%d:" % len(raw)
        out += raw
        out += b";"
    elif isinstance(value, bytes):
        out += b"Y%d:" % len(value)
        out += value
        out += b";"
    elif isinstance(value, (list, tuple)):
        out += b"L%d:" % len(value)
        for item in value:
            _encode_into(item, out)
        out += b";"
    elif isinstance(value, dict):
        keys = sorted(value, key=str)
        out += b"D%d:" % len(keys)
        for key in keys:
            _encode_into(str(key), out)
            _encode_into(value[key], out)
        out += b";"
    elif hasattr(value, "signing_fields"):
        fields = value.signing_fields()
        out += f"O{type(value).__name__}:".encode()
        _encode_into(fields, out)
        out += b";"
    else:
        raise CryptoError(f"cannot canonically encode {type(value).__name__}")


@dataclass(frozen=True)
class Signature:
    """An HMAC tag binding ``signer`` to a payload digest."""

    signer: str
    tag: bytes

    def __post_init__(self) -> None:
        if len(self.tag) != 32:
            raise CryptoError("signature tag must be 32 bytes")


def sign(identity: Identity, payload: Any) -> Signature:
    """Sign ``payload`` (plain or a :class:`Payload`) as ``identity``.

    Signing requires the identity object (and thus its secret) — this is
    the structural unforgeability guarantee.
    """
    encoded = (
        payload.encoded() if payload.__class__ is Payload else canonical_encode(payload)
    )
    tag = hmac.digest(identity.secret, encoded, "sha256")
    return Signature(signer=identity.name, tag=tag)


def verify(keyring: KeyRing, signature: Signature, payload: Any) -> bool:
    """Check ``signature`` over ``payload`` (plain or a :class:`Payload`).

    Returns ``False`` for unknown signers or non-matching tags (never
    raises for a *failed* check; raises only for malformed inputs).
    """
    encoded = (
        payload.encoded() if payload.__class__ is Payload else canonical_encode(payload)
    )
    return keyring.check(signature.signer, signature.tag, encoded)


def require_valid(keyring: KeyRing, signature: Signature, payload: Any) -> None:
    """Verify or raise :class:`SignatureError`."""
    if not verify(keyring, signature, payload):
        raise SignatureError(
            f"invalid signature claimed by {signature.signer!r}"
        )


class SignedFields:
    """Base of the frozen signed objects: χ, decisions, votes, promises.

    A subclass is a frozen dataclass with a ``signature`` field whose
    signed payload is ``signing_fields()``.  Its fields never change,
    so :attr:`signing_payload` is built once and encoded at most once.
    """

    def signing_fields(self) -> Dict[str, Any]:
        raise NotImplementedError

    @cached_property
    def signing_payload(self) -> Payload:
        """``signing_fields()`` as a :class:`Payload`."""
        return Payload(self.signing_fields())

    @classmethod
    def _issue(cls, identity: Identity, **fields: Any) -> Any:
        """An instance of ``fields`` signed by ``identity``."""
        issued = cls(**fields, signature=None)
        signature = sign(identity, issued.signing_payload)
        object.__setattr__(issued, "signature", signature)
        return issued

    def _verify(self, keyring: KeyRing, signer: str) -> bool:
        """Whether ``signer`` signed this object's payload."""
        return self.signature.signer == signer and verify(
            keyring, self.signature, self.signing_payload
        )


class FrozenBody(dict):
    """A read-only claim body: a ``dict`` whose mutators raise.

    It encodes, compares, prints and serialises exactly like the
    ``dict`` it copies, so a claim's signed bytes cannot go stale.
    """

    __slots__ = ()

    def _read_only(self, *args: Any, **kwargs: Any) -> None:
        raise TypeError("a signed claim body is read-only")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only

    def __reduce__(self) -> Any:
        return (FrozenBody, (dict(self),))


@dataclass(frozen=True)
class SignedClaim(SignedFields):
    """A generic signed statement (dict body + signature).

    Used for the weak-liveness protocol's control plane: escrows sign
    "escrowed" reports, Bob signs his commit request, customers sign
    abort requests — so notaries can verify the provenance of protocol
    inputs (external validity of the consensus).  The body is frozen
    on construction; it is the signed payload.
    """

    body: "dict"
    signature: Signature

    def __post_init__(self) -> None:
        if self.body.__class__ is not FrozenBody:
            object.__setattr__(self, "body", FrozenBody(self.body))

    def signing_fields(self) -> Dict[str, Any]:
        return self.body

    @classmethod
    def make(cls, identity: Identity, **body: Any) -> "SignedClaim":
        """Sign a claim; the signer name is embedded into the body."""
        body["signer"] = identity.name
        return cls._issue(identity, body=FrozenBody(body))

    @property
    def signer(self) -> str:
        return str(self.body.get("signer", ""))

    def valid(self, keyring: KeyRing, expected_signer: Optional[str] = None) -> bool:
        """Verify the claim (optionally pinning the signer)."""
        if expected_signer is not None and self.signer != expected_signer:
            return False
        return self._verify(keyring, self.signer)

    def get(self, key: str, default: Any = None) -> Any:
        return self.body.get(key, default)


__all__ = [
    "FrozenBody",
    "Payload",
    "Signature",
    "SignedClaim",
    "SignedFields",
    "canonical_encode",
    "require_valid",
    "sign",
    "verify",
]
