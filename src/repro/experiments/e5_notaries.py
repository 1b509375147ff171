"""E5 — transaction-manager realisations and their fault tolerance.

Part A compares the three TM realisations the paper proposes (trusted
party / smart contract / notary committee) on the same payment: all
commit; they differ in decision latency and message cost.

Part B probes certificate consistency (CC):

* a *Byzantine trusted party* that equivocates (commit certs to half
  the participants, abort to the rest) breaks CC outright — single
  points of trust are fragile;
* a notary committee sized for ``f = 1`` (N = 4, quorum 2f+1 = 3) keeps
  CC under an orchestrated split-vote attack with 1 traitor, and loses
  it with 2 — exactly the < N/3 bound the paper imports from DLS.

The four payment rows (the three backends and the equivocating trusted
party) are campaign trials (``scenario_trial``) on ``linear-2`` with
the opt-in ``decision_time`` column, tabled by one ``analyze`` query
grouped by ``configuration``.  The split attack runs the consensus
layer directly and keeps its own trial, :func:`attack_trial`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from ..analysis.query import analyze_store
from ..analysis.store import RecordStore
from ..consensus.dls import Notary, NotaryBehavior
from ..crypto.certificates import Decision
from ..crypto.keys import KeyRing
from ..net.network import Network
from ..net.timing import PartialSynchrony
from ..runtime import SweepResult, SweepSpec, resolve_executor
from ..runtime.tables import ExperimentResult
from ..scenarios.spec import TRIAL_REF
from ..sim.kernel import Simulator

N_ESCROWS = 2

BACKENDS = [
    ("trusted", "trusted party"),
    (("contract", {"block_interval": 1.0, "confirmations": 2}), "smart contract"),
    (("committee", {"n_notaries": 4, "round_duration": 5.0}), "committee N=4"),
]

#: A Byzantine trusted party: commit certificates to half the
#: participants, abort certificates to the rest.
EQUIVOCATING = ("trusted", {"equivocate": True})

#: The attacker picks its schedule: best of this many seeds per row.
ATTACK_SEEDS = 4


def _committee_split_attack(
    n_notaries: int, f_actual: int, seed: int
) -> Tuple[set, bool]:
    """Run the orchestrated split-vote attack at the consensus level.

    Honest notaries receive conflicting (but individually justified)
    inputs; ``f_actual`` traitors equivocate as leader and double-vote;
    the pre-GST network adversary *partitions the echoes* so that
    notary2 sees only commit endorsements and notary3 only abort
    endorsements until GST.  Returns (decisions reached by honest
    notaries, conflicting-QCs possible from the union of all signed
    votes).
    """
    from ..consensus.messages import ConsensusMsg, Phase
    from ..net.adversary import HOLD, PredicateDelayAdversary

    def partition(envelope) -> bool:
        msg = envelope.payload
        if not isinstance(msg, ConsensusMsg) or msg.phase not in (
            Phase.ECHO,
            Phase.DECIDE,
        ):
            return False
        return (
            envelope.recipient == "notary2" and msg.value is Decision.ABORT
        ) or (
            envelope.recipient == "notary3" and msg.value is Decision.COMMIT
        )

    sim = Simulator(seed=seed)
    network = Network(
        sim,
        PartialSynchrony(gst=60.0, delta=0.5),
        adversary=PredicateDelayAdversary(partition, delay=HOLD),
    )
    keyring = KeyRing(domain="e5")
    committee = [f"notary{i}" for i in range(n_notaries)]
    f_assumed = (n_notaries - 1) // 3
    threshold = 2 * f_assumed + 1
    notaries: List[Notary] = []
    for i, name in enumerate(committee):
        behavior = (
            NotaryBehavior(equivocate_leader=True, double_vote=True)
            if i < f_actual
            else None
        )
        notary = Notary(
            sim,
            name,
            network,
            keyring,
            keyring.create(name),
            committee=committee,
            f=f_assumed,
            payment_id="e5",
            round_duration=5.0,
            behavior=behavior,
        )
        network.register(notary)
        notaries.append(notary)
    evidence = {"commit_requested": True, "abort_requested": True}
    for i, notary in enumerate(notaries):
        value = Decision.COMMIT if i % 2 == 0 else Decision.ABORT
        sim.schedule(0.0, notary.submit_preference, value, evidence)
    sim.run(until=5_000.0, max_events=200_000)
    honest_decisions = {
        n.decided.value
        for i, n in enumerate(notaries)
        if i >= f_actual and n.decided is not None
    }
    # Union of every signed vote in existence — what an attacker could
    # hand to different participants:
    votes: Dict[Decision, set] = {Decision.COMMIT: set(), Decision.ABORT: set()}
    for notary in notaries:
        for value in (Decision.COMMIT, Decision.ABORT):
            votes[value] |= set(notary._decides[value])
    conflicting = (
        len(votes[Decision.COMMIT]) >= threshold
        and len(votes[Decision.ABORT]) >= threshold
    )
    return honest_decisions, conflicting


def attack_trial(spec) -> Dict[str, Any]:
    """One split-vote attack run (see :func:`_committee_split_attack`)."""
    decisions, conflicting = _committee_split_attack(
        spec.opt("n_notaries"), spec.opt("f_actual"), spec.seed
    )
    return {"decisions": sorted(decisions), "conflicting": conflicting}


def build_sweep(quick: bool = True, seed: int = 0) -> SweepSpec:
    sweep = SweepSpec(sweep_id="E5")
    payments = [(("backend", label), label, tm) for tm, label in BACKENDS]
    payments.append(
        (("equivocating",), "trusted party, equivocating", EQUIVOCATING)
    )
    for coords, label, tm in payments:
        sweep.add(
            TRIAL_REF,
            seed,
            coords,
            configuration=label,
            topology=f"linear-{N_ESCROWS}",
            protocol="weak",
            timing=("synchronous", {"delta": 1.0}),
            adversary="none",
            horizon=100_000.0,
            extra_columns=["decision_time"],
            protocol_options={
                "tm": tm,
                "patience_setup": 10_000.0,
                "patience_decision": 10_000.0,
            },
        )
    fs = [0, 1, 2] if quick else [0, 1, 2, 3]
    for f_actual in fs:
        for s in range(ATTACK_SEEDS):
            sweep.add(
                attack_trial,
                seed,
                ("attack", f_actual, s),
                f_actual=f_actual,
                n_notaries=4,
                s=s,
            )
    return sweep


def aggregate(sweep: SweepResult) -> ExperimentResult:
    sweep.raise_any()
    result = analyze_store(
        RecordStore.from_records(
            [r for r in sweep.records if r.spec.fn == TRIAL_REF], sweep.sweep_id
        ),
        group_by=("configuration",),
        metrics=(
            "committed", "aborted", "success", "def2_ok", "violated",
            "decision_time", "mean_msgs",
        ),
    )
    result.title = (
        "transaction-manager realisations (trusted / contract / committee)"
    )
    result.claim = (
        "All three TM realisations implement Definition 2; the trusted "
        "party is a single point of failure for CC, while the notary "
        "committee preserves CC exactly for f < N/3 traitors."
    )
    for f_actual in sweep.distinct("f_actual"):
        if f_actual is None:
            continue
        best_decisions: set = set()
        best_conflict = False
        # The attacker gets its pick of schedules: the first conflicting
        # seed wins outright, otherwise decisions accumulate.
        for record in sweep.select(f_actual=f_actual):
            best_decisions |= set(record["decisions"])
            if record["conflicting"]:
                best_decisions = set(record["decisions"])
                best_conflict = True
                break
        result.add_row(
            configuration=f"committee N=4, traitors={f_actual} (split attack)",
            committed=float("commit" in best_decisions),
            aborted=float("abort" in best_decisions),
            success="-",
            def2_ok="-",
            violated="CC" if best_conflict else "-",
            decision_time="-",
            mean_msgs="-",
        )
    result.note(
        "committee rows run the consensus layer directly under an "
        "orchestrated split of honest preferences; there, committed/"
        "aborted say which decisions the attacker's best schedule "
        "reached, and CC is violated iff two conflicting quorum "
        "certificates can be assembled from all votes."
    )
    return result


def run(quick: bool = True, seed: int = 0, executor=None) -> ExperimentResult:
    return aggregate(resolve_executor(executor).run(build_sweep(quick, seed)))


__all__ = ["aggregate", "attack_trial", "build_sweep", "run"]
