"""Standard contracts: transaction manager, certified broadcast.

Two contracts cover the paper's on-chain needs:

* :class:`TransactionManagerContract` — the Definition 2 transaction
  manager as a smart contract.  Certificate consistency (CC) holds *by
  construction*: the decision field is written once, and block execution
  is serial.
* :class:`CertifiedBroadcastContract` — an append-only publication log
  modelling the "certified blockchain" of Herlihy–Liskov–Shrira: anyone
  can publish a record and later prove publication (the chain's receipt
  acts as the certificate).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Set, Union

from ..errors import ContractError
from ..crypto.certificates import Decision
from .blockchain import CallContext, Contract


class TransactionManagerContract(Contract):
    """On-chain transaction manager for the weak-liveness protocol.

    State machine::

        OPEN ──(all escrows reported + commit requested)──▶ COMMIT
        OPEN ──(abort requested)───────────────────────────▶ ABORT

    The first satisfied rule wins; afterwards the decision is frozen.
    ``escrowed`` reports are only accepted from the registered escrows;
    ``request_commit`` only from the registered beneficiaries (Bob on a
    path, every sink on a payment DAG — ``beneficiary`` accepts one
    name or a sequence) — matching the paper, where the commit
    certificate is what *Alice* uses as proof that the recipients have
    been paid, so each of them must have asked.

    Methods
    -------
    ``escrowed(escrow)``, ``request_commit()``, ``request_abort()``,
    ``status()``.
    """

    def __init__(
        self,
        address: str,
        payment_id: str,
        escrows: List[str],
        beneficiary: Union[str, Sequence[str]],
    ) -> None:
        super().__init__(address)
        if not escrows:
            raise ContractError("transaction manager needs at least one escrow")
        self.payment_id = payment_id
        self.escrows = list(escrows)
        self.beneficiaries = (
            [beneficiary] if isinstance(beneficiary, str) else list(beneficiary)
        )
        self.reported: Set[str] = set()
        self.commit_requests: Set[str] = set()
        self.decision: Optional[Decision] = None
        self.decided_at_height: Optional[int] = None

    def call(self, ctx: CallContext, method: str, args: Dict[str, Any]) -> Any:
        if method == "escrowed":
            return self._escrowed(ctx)
        if method == "request_commit":
            return self._request_commit(ctx)
        if method == "request_abort":
            return self._request_abort(ctx)
        if method == "status":
            return self._status()
        raise ContractError(f"{self.address}: unknown method {method!r}")

    def _escrowed(self, ctx: CallContext) -> Dict[str, Any]:
        if ctx.sender not in self.escrows:
            raise ContractError(f"{ctx.sender!r} is not a registered escrow")
        self.reported.add(ctx.sender)
        self._maybe_decide(ctx)
        return self._status()

    def _request_commit(self, ctx: CallContext) -> Dict[str, Any]:
        if ctx.sender not in self.beneficiaries:
            raise ContractError(
                f"only {self.beneficiaries!r} may request commit, "
                f"not {ctx.sender!r}"
            )
        self.commit_requests.add(ctx.sender)
        self._maybe_decide(ctx)
        return self._status()

    def _request_abort(self, ctx: CallContext) -> Dict[str, Any]:
        if self.decision is None:
            self.decision = Decision.ABORT
            self.decided_at_height = ctx.block_height
        return self._status()

    def _maybe_decide(self, ctx: CallContext) -> None:
        if self.decision is None and len(self.commit_requests) == len(
            self.beneficiaries
        ) and len(self.reported) == len(self.escrows):
            self.decision = Decision.COMMIT
            self.decided_at_height = ctx.block_height

    def _status(self) -> Dict[str, Any]:
        return {
            "payment_id": self.payment_id,
            "decision": self.decision.value if self.decision else None,
            "reported": sorted(self.reported),
            "commit_requested": len(self.commit_requests)
            == len(self.beneficiaries),
        }


@dataclass(frozen=True)
class PublicationRecord:
    """Proof that a payload was published at a given height."""

    index: int
    height: int
    publisher: str
    payload: Any


class CertifiedBroadcastContract(Contract):
    """Append-only publication log with retrievable records.

    The "certified blockchain" abstraction of Herlihy–Liskov–Shrira: a
    chain whose entries come with transferable proofs of publication.
    Here the proof is the :class:`PublicationRecord` (backed by the
    chain's deterministic execution); readers can fetch the whole log.
    """

    def __init__(self, address: str) -> None:
        super().__init__(address)
        self.log: List[PublicationRecord] = []

    def call(self, ctx: CallContext, method: str, args: Dict[str, Any]) -> Any:
        if method == "publish":
            record = PublicationRecord(
                index=len(self.log),
                height=ctx.block_height,
                publisher=ctx.sender,
                payload=args.get("payload"),
            )
            self.log.append(record)
            return record
        if method == "read":
            since = int(args.get("since", 0))
            return list(self.log[since:])
        raise ContractError(f"{self.address}: unknown method {method!r}")


__all__ = [
    "CertifiedBroadcastContract",
    "PublicationRecord",
    "TransactionManagerContract",
]
