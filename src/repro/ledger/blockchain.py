"""A minimal blockchain: blocks, transactions, contracts, finality.

The weak-liveness protocol's transaction manager "can be a smart
contract running on a permissionless blockchain shared by every
customer" (paper §3).  :class:`SimpleChain` supplies that substrate:

* block times lie on a fixed schedule, one every ``block_interval``
  time units, but only blocks that carry a transaction are produced —
  an empty block is just a height, so an idle chain costs no events;
* submitted transactions enter the next block (bounded mempool delay);
* a transaction's effects are *final* once ``confirmations`` further
  blocks exist; observers are notified at finality, not at inclusion —
  modelling the reorg-safety waiting period of real chains;
* contracts are deterministic state machines executed in block order,
  with access to the chain's own :class:`~repro.ledger.ledger.Ledger`.

The chain is also a :class:`~repro.sim.process.Process`, so remote
participants can interact with it through the network (submission via
``CONTROL`` envelopes), while co-located participants may call
:meth:`SimpleChain.submit` directly — both paths serialise through the
mempool.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..errors import BlockchainError, ContractError
from ..net.message import Envelope, MsgKind
from ..sim.kernel import Simulator
from ..sim.process import Process
from ..sim.trace import TraceKind
from .ledger import Ledger

_TX_SEQ = itertools.count()


@dataclass(frozen=True)
class Transaction:
    """A contract invocation waiting for inclusion."""

    tx_id: int
    sender: str
    contract: str
    method: str
    args: Dict[str, Any]
    submitted_at: float


@dataclass
class Receipt:
    """Execution outcome of one transaction."""

    tx: Transaction
    block_height: int
    executed_at: float
    final_at: float
    ok: bool
    result: Any = None
    error: str = ""


@dataclass(frozen=True)
class CallContext:
    """Environment visible to a contract during execution."""

    chain: "SimpleChain"
    sender: str
    block_height: int
    block_time: float


class Contract:
    """Base class for on-chain state machines.

    Subclasses implement :meth:`call`; any :class:`ContractError` raised
    marks the transaction failed without aborting the block.
    """

    def __init__(self, address: str) -> None:
        if not address:
            raise ContractError("contract address must be non-empty")
        self.address = address

    def call(self, ctx: CallContext, method: str, args: Dict[str, Any]) -> Any:
        raise ContractError(f"{self.address}: unknown method {method!r}")


class SimpleChain(Process):
    """A block-producing process hosting contracts and a ledger.

    Blocks sit on a fixed schedule — the first ``block_interval`` after
    :meth:`start`, each later one the previous plus ``block_interval``
    — but a block is produced only when a transaction waits for it: the
    ``produce`` timer is armed when the mempool goes from empty to
    non-empty, and is not re-armed.  :attr:`height` counts the empty
    block times arithmetically.

    At exactly a block time ``T`` the order of an always-ticking chain
    holds: block ``T`` is produced at TIMER priority, so a remote
    submission (a network delivery, at DELIVERY priority) joins block
    ``T``, while a direct :meth:`submit` at ``T`` (e.g. after
    ``sim.run(until=T)``) joins the next block.

    Parameters
    ----------
    sim:
        Owning simulator.
    name:
        Chain name (network address and trace actor).
    block_interval:
        Global-time spacing between blocks.
    confirmations:
        Number of follow-up blocks required for finality.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        block_interval: float = 1.0,
        confirmations: int = 1,
    ) -> None:
        super().__init__(sim, name)
        if block_interval <= 0:
            raise BlockchainError("block_interval must be > 0")
        if confirmations < 0:
            raise BlockchainError("confirmations must be >= 0")
        self.block_interval = float(block_interval)
        self.confirmations = int(confirmations)
        self.ledger = Ledger(name=f"{name}.ledger", sim=sim)
        self.receipts: Dict[int, Receipt] = {}
        self._mempool: List[Transaction] = []
        self._contracts: Dict[str, Contract] = {}
        self._finality_subs: List[Callable[[Receipt], None]] = []
        self._started = False
        # The next block on the schedule not yet produced: its time
        # (infinite until start) and its height.
        self._tick_at = math.inf
        self._tick_height = 0

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Fix the block schedule; the first block is one interval away."""
        if not self._started:
            self._started = True
            self._tick_at = self.sim.now + self.block_interval
            if self._mempool:
                self.set_timer_at("produce", self._tick_at)

    def on_timer(self, timer_id: str) -> None:
        if timer_id == "produce":
            self._produce_block()

    # -- contracts ------------------------------------------------------------

    def deploy(self, contract: Contract) -> Contract:
        """Install a contract at its address."""
        if contract.address in self._contracts:
            raise BlockchainError(f"address {contract.address!r} already in use")
        self._contracts[contract.address] = contract
        return contract

    def contract(self, address: str) -> Contract:
        """Look up a deployed contract."""
        try:
            return self._contracts[address]
        except KeyError:
            raise BlockchainError(f"no contract at {address!r}") from None

    # -- submission -------------------------------------------------------------

    def submit(
        self,
        sender: str,
        contract: str,
        method: str,
        args: Optional[Dict[str, Any]] = None,
        *,
        delivered: bool = False,
    ) -> Transaction:
        """Queue a transaction for the next block (direct local access).

        ``delivered`` marks a submission arriving as a network delivery
        (:meth:`handle_message`): at exactly a block time it joins that
        block rather than the next (see the class docstring).
        """
        if contract not in self._contracts:
            raise BlockchainError(f"no contract at {contract!r}")
        now = self.sim.now
        tx = Transaction(
            tx_id=next(_TX_SEQ),
            sender=sender,
            contract=contract,
            method=method,
            args=dict(args or {}),
            submitted_at=now,
        )
        mempool = self._mempool
        mempool.append(tx)
        if len(mempool) == 1 and self._started:
            self._tick_at, self._tick_height = self._next_block(
                now, passed_at_now=not delivered
            )
            self.set_timer_at("produce", self._tick_at)
        return tx

    def handle_message(self, message: Envelope) -> None:
        """Remote submission: CONTROL envelopes carrying tx descriptors.

        Any participant can send one, so a malformed descriptor — no
        contract or method name, a contract that is not deployed, or
        ``args`` that is not a dict — is dropped with a NOTE instead of
        raising out of the simulation.
        """
        if message.kind is not MsgKind.CONTROL:
            return
        payload = message.payload
        if not isinstance(payload, dict) or payload.get("op") != "submit_tx":
            return
        contract = payload.get("contract")
        method = payload.get("method")
        args = payload.get("args", {})
        if not (
            isinstance(contract, str)
            and contract in self._contracts
            and isinstance(method, str)
            and isinstance(args, dict)
        ):
            self.note("malformed submit_tx dropped", sender=message.sender)
            return
        self.submit(
            sender=message.sender,
            contract=contract,
            method=method,
            args=args,
            delivered=True,
        )

    # -- finality notifications -----------------------------------------------------

    def subscribe_finality(self, callback: Callable[[Receipt], None]) -> None:
        """Invoke ``callback(receipt)`` when a transaction finalises."""
        self._finality_subs.append(callback)

    # -- block production ----------------------------------------------------------

    def _produce_block(self) -> None:
        sim = self.sim
        now = sim.now
        height = self._tick_height
        self._tick_height = height + 1
        self._tick_at = now + self.block_interval
        txs = tuple(self._mempool)
        self._mempool.clear()
        sim.trace.record(
            now, TraceKind.STATE, self.name, state="block", height=height, txs=len(txs)
        )
        final_at = now + self.confirmations * self.block_interval
        for tx in txs:
            receipt = Receipt(
                tx=tx, block_height=height, executed_at=now, final_at=final_at, ok=True
            )
            ctx = CallContext(
                chain=self, sender=tx.sender, block_height=height, block_time=now
            )
            try:
                receipt.result = self._contracts[tx.contract].call(
                    ctx, tx.method, tx.args
                )
            except ContractError as exc:
                receipt.ok = False
                receipt.error = str(exc)
            self.receipts[tx.tx_id] = receipt
            for callback in list(self._finality_subs):
                sim.schedule_at(
                    final_at,
                    callback,
                    receipt,
                    label=f"{self.name}.finality.tx{tx.tx_id}",
                )

    # -- queries -------------------------------------------------------------------

    def _next_block(self, now: float, passed_at_now: bool) -> Tuple[float, int]:
        """Time and height of the first block not yet passed at ``now``.

        Skips the empty block times since the last block produced, one
        float addition each, exactly as a ticking chain's timer did.
        ``passed_at_now`` says whether a block due exactly at ``now``
        counts as passed.
        """
        tick = self._tick_at
        height = self._tick_height
        while tick < now or (passed_at_now and tick == now):
            tick += self.block_interval
            height += 1
        return tick, height

    @property
    def height(self) -> int:
        """Number of block times passed (blocks produced or empty)."""
        return self._next_block(self.sim.now, passed_at_now=True)[1]

    def finalized_height(self) -> int:
        """Highest block height whose contents are final."""
        return max(-1, self.height - 1 - self.confirmations)

    def time_to_finality(self) -> float:
        """Worst-case delay from submission to finality.

        mempool wait (≤ 1 interval) + ``confirmations`` intervals.
        """
        return (1 + self.confirmations) * self.block_interval


__all__ = [
    "CallContext",
    "Contract",
    "Receipt",
    "SimpleChain",
    "Transaction",
]
