"""The ledger: one escrow's book of accounts and escrow locks.

Each escrow ``e_i`` (bank or blockchain) maintains a :class:`Ledger`.
Value can be transferred *only between customers of the same escrow*
(paper §2) — mechanically, between accounts of the same ledger.  The
escrow's conditional custody ("place value in escrow, then complete or
return it") is an :class:`EscrowLock` state machine::

    HELD ──release──▶ RELEASED   (value to the beneficiary)
      └────refund───▶ REFUNDED   (value back to the depositor)

Escrow custody is *reservation-backed*: a deposit reserves the value on
the depositor's account (:meth:`~repro.ledger.account.Account.reserve`),
a release settles the reservation and credits the beneficiary, and a
refund releases the reservation back to the depositor.  Because settle
and release both fail when the reserved column cannot cover them, a
lock can never pay out twice — double-spending a reserve is
structurally impossible, not merely audited after the fact.

Escrow security (property ES) is the conservation invariant audited by
:meth:`Ledger.audit`: minted value always equals account balances plus
held locks, *and* every held lock is exactly backed by its depositor's
reservation — the escrow can never end up out of pocket, no matter what
sequence of operations the participants attempt.

For invariant harnesses (the workload stress tests), a ledger accepts
an ``observer`` callback invoked after every mutating operation, so
conservation can be checked at every ledger step rather than only at
the end of a run.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import EscrowStateError, LedgerError, UnknownAccount
from ..sim.kernel import Simulator
from ..sim.trace import TraceKind
from .account import Account
from .asset import Amount


class LockState(str, Enum):
    """Life-cycle of escrowed value."""

    HELD = "held"
    RELEASED = "released"
    REFUNDED = "refunded"


_LOCK_SEQ = itertools.count()


@dataclass
class EscrowLock:
    """Value held by the escrow pending a completion decision."""

    lock_id: str
    depositor: str
    beneficiary: str
    amount: Amount
    state: LockState = LockState.HELD
    created_at: float = 0.0
    resolved_at: Optional[float] = None

    @property
    def held(self) -> bool:
        return self.state is LockState.HELD


class Ledger:
    """Book of accounts for one escrow.

    Parameters
    ----------
    name:
        The owning escrow's name (used in traces).
    sim:
        Optional simulator for trace integration; ledgers also work
        standalone (unit tests, deals substrate).
    """

    def __init__(self, name: str, sim: Optional[Simulator] = None) -> None:
        self.name = name
        self.sim = sim
        self._accounts: Dict[str, Account] = {}
        self._locks: Dict[str, EscrowLock] = {}
        self._minted: Dict[str, int] = {}
        #: Optional ``observer(ledger, op)`` called after every mutating
        #: operation (mint / transfer / escrow transition) — the hook
        #: invariant harnesses use to audit conservation at every step.
        self.observer: Optional[Callable[["Ledger", str], None]] = None

    # -- arena lifecycle ----------------------------------------------------

    def reset(self, sim: Optional[Simulator] = None) -> None:
        """Return the ledger to a freshly constructed state (same name).

        The arena lifecycle: one ledger shell serves many trials.
        Accounts, locks, mint totals, and the observer hook are all
        dropped; ``sim`` (when given) rebinds trace integration —
        callers reusing the ledger on an in-place-reset simulator can
        omit it.
        """
        if sim is not None:
            self.sim = sim
        self._accounts.clear()
        self._locks.clear()
        self._minted.clear()
        self.observer = None

    # -- time / trace helpers ---------------------------------------------

    def _now(self) -> float:
        return self.sim.now if self.sim is not None else 0.0

    def _trace(self, kind: TraceKind, **data: object) -> None:
        sim = self.sim
        if sim is None:
            return
        # Reduced-mode recorders filter every ledger kind; checking the
        # keep set first skips the record call on the campaign hot path.
        trace = sim.trace
        keep = trace._keep
        if keep is None or kind in keep:
            trace.record(sim.now, kind, self.name, **data)

    def _notify(self, op: str) -> None:
        observer = self.observer
        if observer is not None:
            observer(self, op)

    # -- accounts -----------------------------------------------------------

    def open_account(self, owner: str) -> Account:
        """Create (or return) the account for ``owner``."""
        existing = self._accounts.get(owner)
        if existing is not None:
            return existing
        account = Account(owner)
        self._accounts[owner] = account
        return account

    def account(self, owner: str) -> Account:
        """Look up an existing account."""
        try:
            return self._accounts[owner]
        except KeyError:
            raise UnknownAccount(f"no account {owner!r} at {self.name!r}") from None

    def has_account(self, owner: str) -> bool:
        return owner in self._accounts

    def balance(self, owner: str, asset: str) -> Amount:
        """Balance shorthand."""
        return self.account(owner).balance(asset)

    def mint(self, owner: str, amt: Amount) -> None:
        """Create new value in ``owner``'s account (scenario setup only)."""
        if amt.units < 0:
            raise LedgerError("cannot mint a negative amount")
        self.open_account(owner).credit(amt)
        self._minted[amt.asset] = self._minted.get(amt.asset, 0) + amt.units
        self._notify("mint")

    # -- direct transfers ----------------------------------------------------

    def transfer(self, frm: str, to: str, amt: Amount, reason: str = "") -> None:
        """Move value between two accounts of this ledger atomically."""
        src = self.account(frm)
        dst = self.account(to)
        src.debit(amt)  # raises InsufficientFunds before any credit
        dst.credit(amt)
        self._trace(
            TraceKind.TRANSFER,
            frm=frm,
            to=to,
            asset=amt.asset,
            units=amt.units,
            reason=reason,
        )
        self._notify("transfer")

    # -- escrow locks ----------------------------------------------------------

    def escrow_deposit(
        self,
        depositor: str,
        beneficiary: str,
        amt: Amount,
        lock_id: Optional[str] = None,
    ) -> EscrowLock:
        """Move value from ``depositor`` into escrow custody.

        The value is *reserved* on the depositor's account (a bounded
        balance: the reserve fails exactly when a plain debit would),
        so the held lock is backed by the reservation until released or
        refunded.  Returns the lock; raises :class:`InsufficientFunds`
        (account unchanged) if the depositor cannot cover ``amt``.
        """
        if not amt.is_positive:
            raise LedgerError(f"escrow deposit must be positive, got {amt!r}")
        self.account(beneficiary)  # beneficiary must exist up front
        self.account(depositor).reserve(amt)
        lid = lock_id if lock_id is not None else f"{self.name}/lock{next(_LOCK_SEQ)}"
        if lid in self._locks:
            # Restore funds before failing: deposits are atomic.
            self.account(depositor).release(amt)
            raise EscrowStateError(f"duplicate lock id {lid!r}")
        lock = EscrowLock(
            lock_id=lid,
            depositor=depositor,
            beneficiary=beneficiary,
            amount=amt,
            created_at=self._now(),
        )
        self._locks[lid] = lock
        self._trace(
            TraceKind.ESCROW_DEPOSIT,
            lock_id=lid,
            depositor=depositor,
            beneficiary=beneficiary,
            asset=amt.asset,
            units=amt.units,
        )
        self._notify("escrow_deposit")
        return lock

    def lock(self, lock_id: str) -> EscrowLock:
        """Look up a lock by id."""
        try:
            return self._locks[lock_id]
        except KeyError:
            raise EscrowStateError(f"unknown lock {lock_id!r} at {self.name!r}") from None

    def escrow_release(self, lock_id: str) -> EscrowLock:
        """Complete the transfer: locked value goes to the beneficiary."""
        lock = self.lock(lock_id)
        if not lock.held:
            raise EscrowStateError(
                f"lock {lock_id!r} already {lock.state.value}; cannot release"
            )
        # Settle the depositor's reservation first: if this lock's
        # backing was somehow already spent, the settle raises and the
        # lock stays HELD — the double-spend never reaches the books.
        self.account(lock.depositor).settle(lock.amount)
        lock.state = LockState.RELEASED
        lock.resolved_at = self._now()
        self.account(lock.beneficiary).credit(lock.amount)
        self._trace(
            TraceKind.ESCROW_RELEASE,
            lock_id=lock_id,
            beneficiary=lock.beneficiary,
            asset=lock.amount.asset,
            units=lock.amount.units,
        )
        self._notify("escrow_release")
        return lock

    def escrow_refund(self, lock_id: str) -> EscrowLock:
        """Return the locked value to the depositor."""
        lock = self.lock(lock_id)
        if not lock.held:
            raise EscrowStateError(
                f"lock {lock_id!r} already {lock.state.value}; cannot refund"
            )
        # Releasing the reservation both restores the depositor's
        # available balance and retires the lock's backing atomically.
        self.account(lock.depositor).release(lock.amount)
        lock.state = LockState.REFUNDED
        lock.resolved_at = self._now()
        self._trace(
            TraceKind.ESCROW_REFUND,
            lock_id=lock_id,
            depositor=lock.depositor,
            asset=lock.amount.asset,
            units=lock.amount.units,
        )
        self._notify("escrow_refund")
        return lock

    def locks(self, state: Optional[LockState] = None) -> List[EscrowLock]:
        """All locks, optionally filtered by state, in creation order."""
        out = list(self._locks.values())
        if state is not None:
            out = [l for l in out if l.state is state]
        return out

    # -- auditing ----------------------------------------------------------------

    def audit(self) -> Dict[str, bool]:
        """Conservation check per asset: minted == accounts + held locks,
        and every held lock exactly backed by its depositor's reserve.

        This is escrow security (ES) in executable form: if it holds at
        the end of a run, the escrow has not lost (or fabricated) value
        — and no reservation was double-spent along the way.  The
        backing check is per account, stronger than comparing total
        reserves with total locks: a reserve leaked from one depositor
        to another would cancel out in the totals.  One pass over the
        accounts and locks serves every asset.
        """
        # asset -> accounts + held locks - minted: 0 when conserved
        surplus = {asset: -units for asset, units in self._minted.items()}
        # (account owner, asset) -> reserved - held locks it deposited
        unbacked: Dict[Tuple[str, str], int] = {}
        for owner, acct in self._accounts.items():
            for asset, units in acct.snapshot().items():
                surplus[asset] = surplus.get(asset, 0) + units
            for asset, units in acct.reserved_snapshot().items():
                surplus.setdefault(asset, 0)
                unbacked[owner, asset] = units
        for lock in self._locks.values():
            asset, units = lock.amount.asset, lock.amount.units
            surplus.setdefault(asset, 0)
            if lock.held:
                surplus[asset] += units
                if lock.depositor in self._accounts:
                    key = (lock.depositor, asset)
                    unbacked[key] = unbacked.get(key, 0) - units
        leaky = {asset for (_, asset), units in unbacked.items() if units}
        return {
            asset: surplus[asset] == 0 and asset not in leaky
            for asset in sorted(surplus)
        }

    def audit_ok(self) -> bool:
        """Whether conservation holds for every asset."""
        return all(self.audit().values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Ledger({self.name!r}, accounts={sorted(self._accounts)})"


__all__ = ["EscrowLock", "Ledger", "LockState"]
