"""Transaction-manager backends for the weak-liveness protocol.

The paper (§3) names three realisations of the transaction manager:

* "a single external party trusted by all" — :class:`TrustedPartyBackend`;
* "a smart contract running on a permissionless blockchain shared by
  every customer" — :class:`ContractBackend` (a real
  :class:`~repro.ledger.blockchain.SimpleChain` hosting the
  :class:`~repro.ledger.contracts.TransactionManagerContract`);
* "a collection of notaries ... of which less than one-third is assumed
  to be unreliable", running partially synchronous consensus —
  :class:`CommitteeBackend` over :mod:`repro.consensus`.

A backend provides three things to protocol participants:

* ``report(process, kind, claim)`` — route a signed report/request;
* ``make_listener()`` — a per-participant decision detector turning
  inbound envelopes into verified decisions;
* ``build(protocol)`` — create whatever infrastructure it needs.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Union

from ...consensus.committee import PaymentNotary, QuorumAssembler
from ...consensus.dls import NotaryBehavior
from ...crypto.certificates import Decision, DecisionCertificate
from ...crypto.signatures import SignedClaim
from ...errors import ProtocolError
from ...ledger.blockchain import Receipt, SimpleChain
from ...ledger.contracts import TransactionManagerContract
from ...net.message import Envelope, MsgKind
from ...sim.process import Process
from ...sim.trace import TraceKind


@dataclass(frozen=True)
class VerifiedDecision:
    """A decision whose certificate has been verified by the receiver."""

    decision: Decision
    certificate: Any


class DecisionListener(ABC):
    """Per-participant decision detector."""

    @abstractmethod
    def extract(self, envelope: Envelope) -> Optional[VerifiedDecision]:
        """Return a verified decision if ``envelope`` completes one."""


class TMBackend(ABC):
    """Common backend interface."""

    @abstractmethod
    def build(self, protocol: Any) -> None:
        """Create infrastructure processes (called during protocol build)."""

    @abstractmethod
    def report(self, process: Process, kind: MsgKind, claim: SignedClaim) -> None:
        """Send a signed report/request to the TM."""

    @abstractmethod
    def make_listener(self) -> DecisionListener:
        """A fresh decision listener for one participant."""

    def requery(self, process: Process) -> None:
        """Ask the TM to re-serve an already-rendered decision.

        Decision broadcasts are one-shot, so a participant that crashed
        across the broadcast misses it forever; a restored in-doubt
        escrow calls this to hear the verdict again.  The default is a
        no-op (the committee backend does not support requery — a
        documented recovery limitation); point backends override it.
        """


# ---------------------------------------------------------------------------
# Trusted single party
# ---------------------------------------------------------------------------


def as_beneficiaries(beneficiary: Union[str, Sequence[str]]) -> List[str]:
    """Normalise a TM beneficiary spec to a list of sink names.

    On the Figure-1 path the beneficiary is one customer (Bob); on a
    payment DAG the TM must hear a commit request from *every* sink
    before the whole-graph COMMIT can be justified.
    """
    if isinstance(beneficiary, str):
        return [beneficiary]
    return list(beneficiary)


class TrustedPartyProcess(Process):
    """The single-party TM: first satisfied rule wins, decided once.

    One decision covers the whole payment graph: COMMIT needs every
    escrow's deposit report *and* a commit request from every sink
    (``beneficiary`` accepts one name or a sequence); the first abort
    request wins regardless.

    ``equivocate=True`` models a *Byzantine* TM that sends commit
    certificates to half the participants and abort certificates to the
    rest — the attack that motivates the notary committee (E5 shows CC
    breaking under it).
    """

    def __init__(
        self,
        sim: Any,
        name: str,
        network: Any,
        keyring: Any,
        identity: Any,
        payment_id: str,
        escrows: List[str],
        beneficiary: Union[str, Sequence[str]],
        participants: List[str],
        equivocate: bool = False,
    ) -> None:
        super().__init__(sim, name)
        self.network = network
        self.keyring = keyring
        self.identity = identity
        self.payment_id = payment_id
        self.escrows = list(escrows)
        self.beneficiaries = as_beneficiaries(beneficiary)
        self.participants = list(participants)
        self.equivocate = equivocate
        self.reported: set = set()
        self.commit_requested: set = set()
        self.decision: Optional[Decision] = None

    def handle_message(self, message: Envelope) -> None:
        if message.kind is MsgKind.CONTROL:
            payload = message.payload
            if (
                isinstance(payload, dict)
                and payload.get("op") == "decision_query"
            ):
                self._reserve(message.sender)
            return
        claim = message.payload
        if not isinstance(claim, SignedClaim):
            return
        if not claim.valid(self.keyring, expected_signer=message.sender):
            return
        if claim.get("payment_id") != self.payment_id:
            return
        if message.kind is MsgKind.ESCROWED and message.sender in self.escrows:
            self.reported.add(message.sender)
        elif (
            message.kind is MsgKind.COMMIT_REQUEST
            and message.sender in self.beneficiaries
        ):
            self.commit_requested.add(message.sender)
        elif message.kind is MsgKind.ABORT_REQUEST:
            if self.decision is None:
                self._decide(Decision.ABORT)
            return
        if (
            self.decision is None
            and len(self.commit_requested) == len(self.beneficiaries)
            and len(self.reported) == len(self.escrows)
        ):
            self._decide(Decision.COMMIT)

    def _reserve(self, requester: str) -> None:
        """Re-issue the decision certificate to one recovered party."""
        if self.decision is None:
            return
        cert = DecisionCertificate.issue(
            self.identity, self.payment_id, self.decision
        )
        self.network.send(self, requester, MsgKind.DECISION, cert)

    def _decide(self, decision: Decision) -> None:
        self.decision = decision
        if self.equivocate:
            # Byzantine: issue BOTH certificates, split the audience.
            for value in (Decision.COMMIT, Decision.ABORT):
                cert = DecisionCertificate.issue(self.identity, self.payment_id, value)
                self.sim.trace.record(
                    self.sim.now, TraceKind.CERT_ISSUED, self.name, cert=value.value
                )
            half = len(self.participants) // 2
            for idx, participant in enumerate(self.participants):
                value = Decision.COMMIT if idx < half else Decision.ABORT
                cert = DecisionCertificate.issue(self.identity, self.payment_id, value)
                self.network.send(self, participant, MsgKind.DECISION, cert)
            return
        cert = DecisionCertificate.issue(self.identity, self.payment_id, decision)
        self.sim.trace.record(
            self.sim.now, TraceKind.CERT_ISSUED, self.name, cert=decision.value
        )
        for participant in self.participants:
            self.network.send(self, participant, MsgKind.DECISION, cert)


class _SingleIssuerListener(DecisionListener):
    def __init__(self, keyring: Any, issuer: str, payment_id: str) -> None:
        self.keyring = keyring
        self.issuer = issuer
        self.payment_id = payment_id

    def extract(self, envelope: Envelope) -> Optional[VerifiedDecision]:
        if envelope.kind is not MsgKind.DECISION:
            return None
        cert = envelope.payload
        if not isinstance(cert, DecisionCertificate):
            return None
        if cert.payment_id != self.payment_id:
            return None
        if not cert.valid(self.keyring, expected_issuer=self.issuer):
            return None
        return VerifiedDecision(decision=cert.decision, certificate=cert)


class TrustedPartyBackend(TMBackend):
    """TM as a single trusted process named ``tm``."""

    def __init__(self, equivocate: bool = False) -> None:
        self.equivocate = equivocate
        self.tm_name = "tm"
        self._keyring: Any = None
        self._payment_id: str = ""

    def build(self, protocol: Any) -> None:
        env = protocol.env
        topo = env.topology
        self._keyring = env.keyring
        self._payment_id = topo.payment_id
        process = TrustedPartyProcess(
            sim=env.sim,
            name=self.tm_name,
            network=env.network,
            keyring=env.keyring,
            identity=env.identity_of(self.tm_name),
            payment_id=topo.payment_id,
            escrows=topo.escrows(),
            beneficiary=topo.sinks(),
            participants=topo.participants(),
            equivocate=self.equivocate,
        )
        protocol.add_infrastructure(process)

    def report(self, process: Process, kind: MsgKind, claim: SignedClaim) -> None:
        process.network.send(process, self.tm_name, kind, claim)  # type: ignore[attr-defined]

    def make_listener(self) -> DecisionListener:
        return _SingleIssuerListener(self._keyring, self.tm_name, self._payment_id)

    def requery(self, process: Process) -> None:
        process.network.send(  # type: ignore[attr-defined]
            process, self.tm_name, MsgKind.CONTROL, {"op": "decision_query"}
        )


# ---------------------------------------------------------------------------
# Smart contract on a shared blockchain
# ---------------------------------------------------------------------------


class ContractTMAgent(Process):
    """Chain-local observer that broadcasts finalised decisions.

    The trust is in the chain (deterministic public execution); the
    agent merely converts the contract's finalised decision into a
    signed certificate participants can hold, exactly like a light
    client exporting a state proof.
    """

    def __init__(
        self,
        sim: Any,
        name: str,
        network: Any,
        chain: SimpleChain,
        contract_address: str,
        identity: Any,
        payment_id: str,
        participants: List[str],
    ) -> None:
        super().__init__(sim, name)
        self.network = network
        self.chain = chain
        self.contract_address = contract_address
        self.identity = identity
        self.payment_id = payment_id
        self.participants = list(participants)
        self.broadcasted = False
        chain.subscribe_finality(self._on_finality)

    def handle_message(self, message: Envelope) -> None:
        # Recovery requery: once the finalised decision has been
        # broadcast, re-serve it to any restored participant that asks.
        payload = message.payload
        if (
            message.kind is MsgKind.CONTROL
            and isinstance(payload, dict)
            and payload.get("op") == "decision_query"
            and self.broadcasted
        ):
            contract = self.chain.contract(self.contract_address)
            assert isinstance(contract, TransactionManagerContract)
            cert = DecisionCertificate.issue(
                self.identity, self.payment_id, contract.decision
            )
            self.network.send(self, message.sender, MsgKind.DECISION, cert)

    def _on_finality(self, receipt: Receipt) -> None:
        if self.broadcasted or receipt.tx.contract != self.contract_address:
            return
        contract = self.chain.contract(self.contract_address)
        assert isinstance(contract, TransactionManagerContract)
        if contract.decision is None:
            return
        # Only broadcast once the *deciding* transaction is final:
        if (
            contract.decided_at_height is None
            or receipt.block_height < contract.decided_at_height
        ):
            return
        self.broadcasted = True
        decision = contract.decision
        cert = DecisionCertificate.issue(self.identity, self.payment_id, decision)
        self.sim.trace.record(
            self.sim.now, TraceKind.CERT_ISSUED, self.name, cert=decision.value
        )
        for participant in self.participants:
            self.network.send(self, participant, MsgKind.DECISION, cert)


class ContractBackend(TMBackend):
    """TM as a smart contract on a :class:`SimpleChain`.

    Participants submit their reports as transactions (CONTROL
    envelopes); decisions become visible at transaction *finality*, so
    the decision latency includes mempool wait + confirmations — the
    realistic cost of this realisation, visible in experiment E5.
    """

    def __init__(self, block_interval: float = 1.0, confirmations: int = 2) -> None:
        self.block_interval = block_interval
        self.confirmations = confirmations
        self.chain_name = "tmchain"
        self.agent_name = "tmagent"
        self.contract_address = "tm"
        self._keyring: Any = None
        self._payment_id: str = ""

    def build(self, protocol: Any) -> None:
        env = protocol.env
        topo = env.topology
        self._keyring = env.keyring
        self._payment_id = topo.payment_id
        chain = SimpleChain(
            env.sim,
            self.chain_name,
            block_interval=self.block_interval,
            confirmations=self.confirmations,
        )
        chain.deploy(
            TransactionManagerContract(
                address=self.contract_address,
                payment_id=topo.payment_id,
                escrows=topo.escrows(),
                beneficiary=topo.sinks(),
            )
        )
        agent = ContractTMAgent(
            sim=env.sim,
            name=self.agent_name,
            network=env.network,
            chain=chain,
            contract_address=self.contract_address,
            identity=env.identity_of(self.agent_name),
            payment_id=topo.payment_id,
            participants=topo.participants(),
        )
        protocol.add_infrastructure(chain)
        protocol.add_infrastructure(agent)

    _METHODS = {
        MsgKind.ESCROWED: "escrowed",
        MsgKind.COMMIT_REQUEST: "request_commit",
        MsgKind.ABORT_REQUEST: "request_abort",
    }

    def report(self, process: Process, kind: MsgKind, claim: SignedClaim) -> None:
        method = self._METHODS.get(kind)
        if method is None:
            raise ProtocolError(f"contract TM cannot route {kind!r}")
        process.network.send(  # type: ignore[attr-defined]
            process,
            self.chain_name,
            MsgKind.CONTROL,
            {
                "op": "submit_tx",
                "contract": self.contract_address,
                "method": method,
                "args": {},
            },
        )

    def make_listener(self) -> DecisionListener:
        return _SingleIssuerListener(self._keyring, self.agent_name, self._payment_id)

    def requery(self, process: Process) -> None:
        process.network.send(  # type: ignore[attr-defined]
            process, self.agent_name, MsgKind.CONTROL, {"op": "decision_query"}
        )


# ---------------------------------------------------------------------------
# Notary committee
# ---------------------------------------------------------------------------


class _QuorumListener(DecisionListener):
    def __init__(self, keyring: Any, committee: List[str], threshold: int) -> None:
        self.assembler = QuorumAssembler(keyring, committee, threshold)

    def extract(self, envelope: Envelope) -> Optional[VerifiedDecision]:
        cert = self.assembler.add_envelope(envelope)
        if cert is None:
            return None
        return VerifiedDecision(decision=cert.decision, certificate=cert)


class CommitteeBackend(TMBackend):
    """TM as ``n_notaries`` notaries running partially synchronous
    consensus; decisions are quorum certificates of ``2f+1`` votes.

    ``byzantine`` maps notary *index* to a
    :class:`~repro.consensus.dls.NotaryBehavior`.
    """

    def __init__(
        self,
        n_notaries: int = 4,
        f: Optional[int] = None,
        round_duration: float = 10.0,
        byzantine: Optional[Dict[int, NotaryBehavior]] = None,
    ) -> None:
        if n_notaries < 1:
            raise ProtocolError("need at least one notary")
        self.n_notaries = n_notaries
        self.f = f if f is not None else max(0, (n_notaries - 1) // 3)
        self.round_duration = round_duration
        self.byzantine = dict(byzantine or {})
        self.committee = [f"notary{i}" for i in range(n_notaries)]
        self._keyring: Any = None

    @property
    def threshold(self) -> int:
        return 2 * self.f + 1

    def build(self, protocol: Any) -> None:
        env = protocol.env
        topo = env.topology
        self._keyring = env.keyring
        for i, name in enumerate(self.committee):
            notary = PaymentNotary(
                env.sim,
                name,
                env.network,
                env.keyring,
                env.identity_of(name),
                committee=self.committee,
                f=self.f,
                payment_id=topo.payment_id,
                subscribers=topo.participants(),
                clock=env.clock_of(name),
                round_duration=self.round_duration,
                behavior=self.byzantine.get(i),
                escrows=topo.escrows(),
                beneficiary=topo.sinks(),
            )
            protocol.add_infrastructure(notary)

    def report(self, process: Process, kind: MsgKind, claim: SignedClaim) -> None:
        for name in self.committee:
            process.network.send(process, name, kind, claim)  # type: ignore[attr-defined]

    def make_listener(self) -> DecisionListener:
        return _QuorumListener(self._keyring, self.committee, self.threshold)


def make_backend(spec: Any) -> TMBackend:
    """Resolve a backend from an option value.

    Accepts a ready :class:`TMBackend`, or one of the strings
    ``"trusted"``, ``"contract"``, ``"committee"`` (with defaults), or a
    pair ``(name, kwargs)`` — as a tuple, or as the 2-item list that
    JSON options (``--set``, persisted records) carry.
    """
    if isinstance(spec, TMBackend):
        return spec
    if isinstance(spec, (tuple, list)) and len(spec) == 2:
        name, kwargs = spec
    else:
        name, kwargs = str(spec), {}
    if name == "trusted":
        return TrustedPartyBackend(**kwargs)
    if name == "contract":
        return ContractBackend(**kwargs)
    if name == "committee":
        return CommitteeBackend(**kwargs)
    raise ProtocolError(f"unknown TM backend {name!r}")


__all__ = [
    "CommitteeBackend",
    "ContractBackend",
    "ContractTMAgent",
    "DecisionListener",
    "TMBackend",
    "TrustedPartyBackend",
    "TrustedPartyProcess",
    "VerifiedDecision",
    "make_backend",
]
