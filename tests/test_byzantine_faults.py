"""Tests: the Byzantine behaviour registry and crash-stop behaviour."""

import pytest

from repro.byzantine.behaviors import SPEC_TRANSFORMS, apply_behavior, register_behavior
from repro.core.session import PaymentSession
from repro.core.topology import PaymentTopology
from repro.errors import ProtocolError
from repro.net.timing import Synchronous
from repro.properties import check_definition1
from repro.protocols.timebounded import bob_spec
from repro.sim.trace import TraceKind


class TestCrashBehavior:
    def test_crashed_participant_mid_protocol_is_safe(self):
        """Crash Chloe mid-run: money must still be conserved and the
        conditional guarantees must stay clean."""
        topo = PaymentTopology.linear(3, payment_id="crash-mid")
        session = PaymentSession(topo, "timebounded", Synchronous(1.0), seed=5,
                                 byzantine={"c1": "crash_immediately"})
        outcome = session.run()
        assert all(outcome.ledger_audits.values())
        assert check_definition1(outcome).all_ok

    def _run(self, byzantine):
        topo = PaymentTopology.linear(2, payment_id="crash-bob")
        return PaymentSession(topo, "timebounded", Synchronous(1.0), seed=3,
                              byzantine=byzantine).run()

    def _bob_events(self, outcome, kind):
        return [e for e in outcome.trace.events(kind=kind) if e.actor == "c2"]

    def test_crash_immediately_halts_at_time_zero(self):
        outcome = self._run({"c2": "crash_immediately"})
        assert outcome.termination_times["c2"] == 0.0
        assert not self._bob_events(outcome, TraceKind.SEND)
        assert not self._bob_events(outcome, TraceKind.CERT_ISSUED)
        assert all(outcome.ledger_audits.values())
        assert check_definition1(outcome).all_ok

    def test_crash_at_state_halts_on_entering_it(self):
        outcome = self._run({"c2": ("crash_at_state", {"state": "issue_chi"})})
        entered = [e for e in self._bob_events(outcome, TraceKind.STATE)
                   if e.get("state") == "issue_chi"]
        assert len(entered) == 1
        assert outcome.termination_times["c2"] == entered[0].time > 0.0
        assert not self._bob_events(outcome, TraceKind.SEND)
        assert not self._bob_events(outcome, TraceKind.CERT_ISSUED)
        assert all(outcome.ledger_audits.values())
        assert check_definition1(outcome).all_ok

    def test_crash_at_final_state_changes_nothing(self):
        honest = self._run({})
        crashed = self._run({"c2": ("crash_at_state", {"state": "done_paid"})})
        assert not crashed.honest["c2"]
        assert crashed.messages_sent == honest.messages_sent
        assert crashed.termination_times == honest.termination_times
        assert crashed.final_balances == honest.final_balances


class TestBehaviorRegistry:
    def test_known_behaviors_present(self):
        for name in (
            "crash_immediately",
            "bob_never_signs",
            "connector_withholds_chi",
            "customer_never_pays",
            "escrow_no_refund",
            "escrow_early_timeout",
            "escrow_steal_deposit",
            "forge_certificate",
            "mute_sends",
        ):
            assert name in SPEC_TRANSFORMS

    def test_unknown_behavior_rejected(self):
        spec = bob_spec("bob", "e0")
        with pytest.raises(ProtocolError):
            apply_behavior(spec, "no_such_attack", {})

    def test_callable_behavior_applied(self):
        spec = bob_spec("bob", "e0")
        called = {}

        def custom(s, ctx):
            called["yes"] = True
            return s

        apply_behavior(spec, custom, {})
        assert called.get("yes")

    def test_parametrized_behavior_tuple(self):
        spec = __import__(
            "repro.protocols.timebounded.escrow", fromlist=["escrow_spec"]
        ).escrow_spec("e0", "c0", "c1")
        out = apply_behavior(spec, ("escrow_early_timeout", {"factor": 0.5}), {})
        timeout = out.states["await_certificate"].timeouts[0]
        assert "0.5" in timeout.label

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ProtocolError):
            register_behavior("crash_immediately")(lambda s, c: s)

    def test_crash_at_unknown_state_rejected(self):
        spec = bob_spec("bob", "e0")
        with pytest.raises(ProtocolError):
            apply_behavior(spec, ("crash_at_state", {"state": "ghost"}), {})
