"""Value substrate: assets, accounts, escrow ledgers, blockchains,
and standard contracts."""

from .account import Account
from .asset import Amount, amount
from .blockchain import CallContext, Contract, Receipt, SimpleChain, Transaction
from .contracts import (
    CertifiedBroadcastContract,
    PublicationRecord,
    TransactionManagerContract,
)
from .ledger import EscrowLock, Ledger, LockState

__all__ = [
    "Account",
    "Amount",
    "CallContext",
    "CertifiedBroadcastContract",
    "Contract",
    "EscrowLock",
    "Ledger",
    "LockState",
    "PublicationRecord",
    "Receipt",
    "SimpleChain",
    "Transaction",
    "TransactionManagerContract",
    "amount",
]
