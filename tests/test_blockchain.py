"""Unit tests: the blockchain substrate and standard contracts."""

import random

import pytest

from repro.crypto.certificates import Decision
from repro.errors import BlockchainError, ContractError
from repro.ledger.blockchain import SimpleChain
from repro.ledger.contracts import (
    CertifiedBroadcastContract,
    TransactionManagerContract,
)
from repro.net.message import Envelope, MsgKind
from repro.runtime.spec import TrialSpec
from repro.scenarios.spec import ScenarioSpec
from repro.scenarios.trial import scenario_trial
from repro.sim.events import EventPriority
from repro.sim.kernel import Simulator
from repro.workload.runner import run_workload_cell


def _chain(block_interval=1.0, confirmations=1, seed=0):
    sim = Simulator(seed=seed)
    chain = SimpleChain(sim, "chain", block_interval=block_interval, confirmations=confirmations)
    chain.start()
    return sim, chain


class TestChain:
    def test_blocks_produced_on_schedule(self):
        sim, chain = _chain()
        sim.run(until=5.5)
        assert chain.height == 5

    def test_tx_included_in_next_block(self):
        sim, chain = _chain()
        chain.deploy(CertifiedBroadcastContract("log"))
        tx = chain.submit("alice", "log", "publish", {"payload": 1})
        sim.run(until=1.5)
        receipt = chain.receipts[tx.tx_id]
        assert receipt.ok and receipt.block_height == 0

    def test_finality_notification_delayed_by_confirmations(self):
        sim, chain = _chain(confirmations=3)
        chain.deploy(CertifiedBroadcastContract("log"))
        seen = []
        chain.subscribe_finality(lambda r: seen.append((r.tx.tx_id, sim.now)))
        chain.submit("alice", "log", "publish", {"payload": 1})
        sim.run(until=10.0)
        assert seen and seen[0][1] == pytest.approx(4.0)  # block@1 + 3 conf

    def test_failed_tx_reported_not_fatal(self):
        sim, chain = _chain()
        chain.deploy(CertifiedBroadcastContract("log"))
        tx = chain.submit("alice", "log", "no_such_method", {})
        sim.run(until=1.5)
        receipt = chain.receipts[tx.tx_id]
        assert not receipt.ok and "unknown method" in receipt.error

    def test_submit_to_unknown_contract_rejected(self):
        sim, chain = _chain()
        with pytest.raises(BlockchainError):
            chain.submit("alice", "nope", "m", {})

    def test_duplicate_deploy_rejected(self):
        sim, chain = _chain()
        chain.deploy(CertifiedBroadcastContract("log"))
        with pytest.raises(BlockchainError):
            chain.deploy(CertifiedBroadcastContract("log"))

    def test_time_to_finality(self):
        sim, chain = _chain(block_interval=2.0, confirmations=3)
        assert chain.time_to_finality() == 8.0

    def test_invalid_parameters(self):
        sim = Simulator()
        with pytest.raises(BlockchainError):
            SimpleChain(sim, "c", block_interval=0.0)
        with pytest.raises(BlockchainError):
            SimpleChain(sim, "c", confirmations=-1)

    def test_idle_chain_schedules_nothing(self):
        sim, chain = _chain()
        sim.run(until=1000.0)
        assert sim.executed_events == 0
        assert chain.height == 1000 and chain.finalized_height() == 998

    def test_one_event_per_produced_block(self):
        sim, chain = _chain()
        chain.deploy(CertifiedBroadcastContract("log"))
        sim.run(until=50.5)
        for _ in range(3):
            chain.submit("alice", "log", "publish", {"payload": 1})
        tx = chain.submit("alice", "log", "publish", {"payload": 2})
        sim.run(until=100.0)
        assert sim.executed_events == 1
        assert chain.receipts[tx.tx_id].block_height == 50

    @pytest.mark.parametrize(
        "payload",
        [
            {"op": "submit_tx", "contract": "nope", "method": "publish"},
            {"op": "submit_tx", "method": "publish"},
            {"op": "submit_tx", "contract": "log"},
            {"op": "submit_tx", "contract": ["log"], "method": "publish"},
            {"op": "submit_tx", "contract": "log", "method": "publish", "args": [1, 2, 3]},
        ],
    )
    def test_malformed_remote_submission_is_dropped(self, payload):
        sim, chain = _chain()
        chain.deploy(CertifiedBroadcastContract("log"))
        chain.handle_message(Envelope("mallory", "chain", MsgKind.CONTROL, payload))
        good = {"op": "submit_tx", "contract": "log", "method": "publish",
                "args": {"payload": "ok"}}
        chain.handle_message(Envelope("alice", "chain", MsgKind.CONTROL, good))
        sim.run(until=2.0)
        assert [r.payload for r in chain.contract("log").log] == ["ok"]
        assert [r.tx.sender for r in chain.receipts.values()] == ["alice"]


class TestTransactionManagerContract:
    def _tm(self):
        sim, chain = _chain()
        tm = TransactionManagerContract("tm", "p", escrows=["e0", "e1"], beneficiary="bob")
        chain.deploy(tm)
        return sim, chain, tm

    def test_commit_after_all_reports_and_request(self):
        sim, chain, tm = self._tm()
        chain.submit("e0", "tm", "escrowed", {})
        chain.submit("e1", "tm", "escrowed", {})
        chain.submit("bob", "tm", "request_commit", {})
        sim.run(until=2.0)
        assert tm.decision is Decision.COMMIT

    def test_commit_blocked_until_all_report(self):
        sim, chain, tm = self._tm()
        chain.submit("e0", "tm", "escrowed", {})
        chain.submit("bob", "tm", "request_commit", {})
        sim.run(until=2.0)
        assert tm.decision is None

    def test_abort_wins_when_first(self):
        sim, chain, tm = self._tm()
        chain.submit("anyone", "tm", "request_abort", {})
        sim.run(until=2.0)
        chain.submit("e0", "tm", "escrowed", {})
        chain.submit("e1", "tm", "escrowed", {})
        chain.submit("bob", "tm", "request_commit", {})
        sim.run(until=4.0)
        assert tm.decision is Decision.ABORT  # frozen

    def test_only_registered_escrows_may_report(self):
        sim, chain, tm = self._tm()
        tx = chain.submit("intruder", "tm", "escrowed", {})
        sim.run(until=2.0)
        assert not chain.receipts[tx.tx_id].ok
        assert tm.reported == set()

    def test_only_beneficiary_may_request_commit(self):
        sim, chain, tm = self._tm()
        tx = chain.submit("eve", "tm", "request_commit", {})
        sim.run(until=2.0)
        assert not chain.receipts[tx.tx_id].ok

    def test_decision_is_single_assignment(self):
        sim, chain, tm = self._tm()
        chain.submit("x", "tm", "request_abort", {})
        chain.submit("y", "tm", "request_abort", {})
        sim.run(until=2.0)
        assert tm.decision is Decision.ABORT  # no error, still abort

    def test_commit_frozen_against_later_abort(self):
        sim, chain, tm = self._tm()
        chain.submit("e0", "tm", "escrowed", {})
        chain.submit("e1", "tm", "escrowed", {})
        chain.submit("bob", "tm", "request_commit", {})
        sim.run(until=2.0)
        tx = chain.submit("alice", "tm", "request_abort", {})
        sim.run(until=4.0)
        assert tm.decision is Decision.COMMIT
        assert tm.decided_at_height == 0
        assert chain.receipts[tx.tx_id].result["decision"] == Decision.COMMIT.value

    def test_commit_needs_every_beneficiary(self):
        sim, chain = _chain()
        tm = chain.deploy(TransactionManagerContract(
            "tm", "p", escrows=["e0"], beneficiary=["bob", "carol"]))
        chain.submit("e0", "tm", "escrowed", {})
        chain.submit("bob", "tm", "request_commit", {})
        sim.run(until=2.0)
        assert tm.decision is None
        chain.submit("carol", "tm", "request_commit", {})
        sim.run(until=3.0)
        assert tm.decision is Decision.COMMIT

    def test_status_reports_progress(self):
        sim, chain, tm = self._tm()
        chain.submit("e1", "tm", "escrowed", {})
        tx = chain.submit("anyone", "tm", "status", {})
        sim.run(until=2.0)
        assert chain.receipts[tx.tx_id].result == {
            "payment_id": "p",
            "decision": None,
            "reported": ["e1"],
            "commit_requested": False,
        }

    def test_needs_an_escrow(self):
        with pytest.raises(ContractError):
            TransactionManagerContract("tm", "p", escrows=[], beneficiary="bob")


class TestCertifiedBroadcast:
    def test_publish_and_read(self):
        sim, chain = _chain()
        chain.deploy(CertifiedBroadcastContract("log"))
        chain.submit("a", "log", "publish", {"payload": "r1"})
        chain.submit("b", "log", "publish", {"payload": "r2"})
        sim.run(until=1.5)
        log = chain.contract("log").log
        assert [r.payload for r in log] == ["r1", "r2"]
        assert [r.publisher for r in log] == ["a", "b"]
        assert log[0].index == 0 and log[1].index == 1

    def test_order_is_submission_order_within_block(self):
        sim, chain = _chain()
        chain.deploy(CertifiedBroadcastContract("log"))
        for i in range(5):
            chain.submit("a", "log", "publish", {"payload": i})
        sim.run(until=1.5)
        assert [r.payload for r in chain.contract("log").log] == list(range(5))

    def test_read_since_returns_the_suffix(self):
        sim, chain = _chain()
        chain.deploy(CertifiedBroadcastContract("log"))
        chain.submit("a", "log", "publish", {"payload": "r1"})
        sim.run(until=1.5)
        chain.submit("b", "log", "publish", {"payload": "r2"})
        sim.run(until=2.5)
        tx = chain.submit("c", "log", "read", {"since": 1})
        sim.run(until=3.5)
        records = chain.receipts[tx.tx_id].result
        assert [(r.index, r.height, r.payload) for r in records] == [(1, 1, "r2")]


# -- lazy block production against the always-ticking reference ----------


class EagerChain(SimpleChain):
    """Reference: the always-ticking chain, which re-arms ``produce``
    every interval whether or not a transaction waits."""

    def start(self):
        # The chain never counts as started, so submit() arms nothing:
        # the ticking timer alone picks transactions up.
        self.set_timer("produce", self.block_interval)

    def on_timer(self, timer_id):
        self._produce_block()
        self.set_timer("produce", self.block_interval)

    @property
    def height(self):
        return self._tick_height  # blocks produced, empty ones included


def _block_times(start, interval, count):
    """The first ``count`` block times, by the chain's own additions."""
    times, tick = [], start
    for _ in range(count):
        tick += interval
        times.append(tick)
    return times


def _schedule(seed, interval):
    """A randomised submission and sampling schedule, chain-independent."""
    rng = random.Random(seed)
    start = round(rng.uniform(0.05, 3.0), 3) + 0.0001  # not a multiple of 0.1
    blocks = _block_times(start, interval, 400)
    span = blocks[-1]
    delivered = sorted(
        [rng.uniform(0.0, span) for _ in range(40)]
        + rng.sample(blocks[:-5], 15)
        + [start]
    )
    at_blocks = rng.sample(blocks[:-5], 10)
    stops = sorted([rng.uniform(start, span) for _ in range(20)] + at_blocks)
    # Direct submissions follow every stop at a block time, and a few others.
    direct = set(at_blocks) | set(stops[::3])
    return start, delivered, stops, direct, span


def _drive(chain_cls, seed, interval, confirmations):
    sim = Simulator(seed=seed)
    chain = chain_cls(sim, "chain", block_interval=interval, confirmations=confirmations)
    chain.deploy(CertifiedBroadcastContract("log"))
    finality = []
    chain.subscribe_finality(lambda r: finality.append((r.tx.args, sim.now)))
    start, delivered, stops, direct, span = _schedule(seed, interval)
    txs = [chain.submit("early", "log", "publish", {"payload": "before-start"})]
    sim.schedule_at(start, chain.start)
    for k, at in enumerate(delivered):
        # Every fourth submission calls an unknown method: a failed receipt.
        method = "publish" if k % 4 else "no_such_method"
        payload = {"op": "submit_tx", "contract": "log", "method": method,
                   "args": {"payload": k}}
        sim.schedule_at(
            at,
            chain.handle_message,
            Envelope(f"p{k}", "chain", MsgKind.CONTROL, payload),
            priority=int(EventPriority.DELIVERY),
        )
    heights = []
    for k, stop in enumerate(stops):
        sim.run(until=stop)
        heights.append((sim.now, chain.height, chain.finalized_height()))
        if stop in direct:
            txs.append(chain.submit("direct", "log", "publish", {"payload": -k}))
    sim.run(until=span + (confirmations + 2) * interval)
    receipts = sorted(
        (r.tx.sender, r.tx.args["payload"], r.block_height, r.executed_at,
         r.final_at, r.ok)
        for r in chain.receipts.values()
    )
    assert len(receipts) == len(delivered) + len(txs)
    return receipts, finality, heights


class TestLazyMatchesEagerChain:
    @pytest.mark.parametrize("interval", [1.0, 0.1])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_same_blocks_finality_and_heights(self, seed, interval):
        confirmations = 1 + seed % 3
        lazy = _drive(SimpleChain, seed, interval, confirmations)
        eager = _drive(EagerChain, seed, interval, confirmations)
        assert lazy == eager

    def test_direct_submit_at_a_block_time_joins_the_next_block(self):
        for cls in (SimpleChain, EagerChain):
            sim = Simulator()
            chain = cls(sim, "chain")
            chain.deploy(CertifiedBroadcastContract("log"))
            chain.start()
            sim.run(until=2.0)
            tx = chain.submit("alice", "log", "publish", {"payload": 1})
            sim.run(until=5.0)
            assert chain.receipts[tx.tx_id].block_height == 2, cls

    def test_delivered_submit_at_a_block_time_joins_that_block(self):
        for cls in (SimpleChain, EagerChain):
            sim = Simulator()
            chain = cls(sim, "chain")
            chain.deploy(CertifiedBroadcastContract("log"))
            chain.start()
            payload = {"op": "submit_tx", "contract": "log", "method": "publish"}
            sim.schedule_at(
                2.0,
                chain.handle_message,
                Envelope("alice", "chain", MsgKind.CONTROL, payload),
                priority=int(EventPriority.DELIVERY),
            )
            sim.run(until=5.0)
            (receipt,) = chain.receipts.values()
            assert receipt.block_height == 1 and receipt.executed_at == 2.0, cls


# -- counter pins: chain cost follows transactions, not elapsed time ------


def _certified_cell_events(count):
    return run_workload_cell(
        protocol="certified", count=count, load=0.02, arrivals="uniform",
        topology_mix=(("linear-3", 1.0),), liquidity=1_000_000,
    )["kernel_events"]


def test_certified_workload_events_grow_linearly():
    # A finished payment's chain must not keep costing events while
    # later payments run on the shared kernel.
    assert _certified_cell_events(72) <= 2.2 * _certified_cell_events(36)


@pytest.mark.parametrize("topology", ["linear-3", "tree-2", "fan-in-3"])
def test_certified_async_trial_events_track_messages(topology):
    spec = ScenarioSpec(
        protocol="certified", timing="async", adversary="delayer", topology=topology
    ).validate()
    record = scenario_trial(
        TrialSpec(
            fn="repro.scenarios.trial:scenario_trial",
            seed=1,
            coords=spec.coords() + (0,),
            options=spec.options(),
        )
    )
    assert record["events"] <= 2 * record["messages"]
