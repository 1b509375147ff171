"""Tests: the bounded explorer and the experiment harness."""

import pytest

from repro.core.topology import PaymentTopology
from repro.experiments import EXPERIMENTS, ExperimentResult, render_table
from repro.experiments.harness import fraction, mean, seeds_for
from repro.errors import ExperimentError
from repro.net.message import Envelope, MsgKind
from repro.net.timing import Synchronous
from repro.properties import check_definition1
from repro.verification import ScriptedDelayAdversary, explore, explore_payment


class TestScriptedAdversary:
    def _env(self, kind=MsgKind.MONEY):
        return Envelope(sender="a", recipient="b", kind=kind)

    def test_script_replayed_then_default(self):
        adv = ScriptedDelayAdversary([1, 0], [0.0, 5.0])
        assert adv.propose_delay(self._env(), 0.0) == 5.0
        assert adv.propose_delay(self._env(), 0.0) == 0.0
        assert adv.propose_delay(self._env(), 0.0) == 0.0  # beyond script
        assert adv.decisions == [1, 0, 0]

    def test_non_decision_kinds_untouched(self):
        adv = ScriptedDelayAdversary([], [0.0, 5.0])
        assert adv.propose_delay(self._env(MsgKind.GUARANTEE), 0.0) is None
        assert adv.decisions == []


class TestExplore:
    def test_enumerates_full_tree(self):
        """A synthetic runner with exactly 3 decision points and 2
        choices must be explored in 2^3 = 8 paths."""
        def run_once(adversary):
            for _ in range(3):
                adversary.propose_delay(
                    Envelope(sender="a", recipient="b", kind=MsgKind.MONEY), 0.0
                )
            return list(adversary.decisions)

        seen = []
        report = explore(
            lambda adv: seen.append(run_once(adv)) or seen[-1],
            check=lambda result: [],
            choices=[0.0, 1.0],
        )
        assert report.paths == 8
        assert len({tuple(s) for s in seen}) == 8

    def test_detects_injected_violation(self):
        def run_once(adversary):
            decisions = []
            for _ in range(2):
                adversary.propose_delay(
                    Envelope(sender="a", recipient="b", kind=MsgKind.MONEY), 0.0
                )
            return list(adversary.decisions)

        report = explore(
            run_once,
            check=lambda decisions: ["bad"] if decisions == [1, 1] else [],
            choices=[0.0, 1.0],
        )
        assert report.paths == 4
        assert len(report.violations) == 1
        assert report.violations[0][0] == [1, 1]

    def test_truncation_flag(self):
        def run_once(adversary):
            for _ in range(10):
                adversary.propose_delay(
                    Envelope(sender="a", recipient="b", kind=MsgKind.MONEY), 0.0
                )
            return None

        report = explore(run_once, lambda r: [], [0.0, 1.0], max_paths=5)
        assert report.truncated
        assert not report.all_ok

    def test_explore_payment_n1_all_clean(self):
        report = explore_payment(
            topology_factory=lambda: PaymentTopology.linear(1),
            protocol="timebounded",
            timing_factory=lambda: Synchronous(1.0),
            check=lambda o: [repr(v) for v in check_definition1(o).violations()],
            choices=[0.0, 1.0],
            max_paths=500,
        )
        assert report.all_ok
        assert report.paths == 2 ** report.decision_points_max


class TestHarness:
    def test_experiment_result_rows(self):
        result = ExperimentResult(
            exp_id="T", title="t", claim="c", columns=["a", "b"]
        )
        result.add_row(a=1, b=2)
        assert result.column("a") == [1]
        assert result.find_rows(a=1)[0]["b"] == 2
        with pytest.raises(ExperimentError):
            result.add_row(a=1)  # missing column
        with pytest.raises(ExperimentError):
            result.add_row(a=1, b=2, c=3)  # unknown column
        assert len(result.rows) == 1  # rejected rows are not recorded

    def test_render_table_contains_everything(self):
        result = ExperimentResult(
            exp_id="T", title="title-x", claim="claim-y", columns=["col"]
        )
        result.add_row(col=True)
        result.note("note-z")
        text = render_table(result)
        assert "title-x" in text and "claim-y" in text
        assert "yes" in text and "note-z" in text

    def test_helpers(self):
        assert fraction([True, False]) == 0.5
        assert fraction([]) == 0.0
        assert mean([1.0, 3.0]) == 2.0
        assert len(seeds_for(True, quick_count=3)) == 3
        assert len(seeds_for(False, full_count=7)) == 7


class TestExperimentClaims:
    """Each experiment's headline claim, asserted on quick runs.

    These double as end-to-end integration tests of the whole stack.
    """

    def test_e1_theorem1_reproduced(self):
        result = EXPERIMENTS["E1"](quick=True)
        assert all(v == 1.0 for v in result.column("bob_paid"))
        assert all(v == 1.0 for v in result.column("def1_ok"))
        for row in result.rows:
            assert row["max_term_time"] <= row["bound"]

    def test_e2_naive_breaks_tuned_does_not(self):
        result = EXPERIMENTS["E2"](quick=True)
        tuned = result.find_rows(calculus="tuned")
        naive = result.find_rows(calculus="naive")
        assert all(r["violations"] == 0.0 for r in tuned)
        drifting = [r for r in naive if r["rho"] >= 0.005]
        assert drifting and all(r["violations"] > 0.0 for r in drifting)
        zero_drift = [r for r in naive if r["rho"] == 0.0]
        assert all(r["violations"] == 0.0 for r in zero_drift)

    def test_e3_every_family_member_defeated(self):
        result = EXPERIMENTS["E3"](quick=True)
        timebounded_rows = [
            r for r in result.rows if r["protocol"].startswith("timebounded")
        ]
        assert timebounded_rows
        assert all(not r["def_ok"] for r in timebounded_rows)
        weak_rows = result.find_rows(protocol="weak (Def 2)")
        assert weak_rows and all(r["def_ok"] for r in weak_rows)

    def test_e4_safety_always_liveness_iff_patient(self):
        result = EXPERIMENTS["E4"](quick=True)
        assert all(r["safety_ok"] == 1.0 for r in result.rows)
        honest = result.find_rows(scenario="honest")
        assert any(r["committed"] == 1.0 for r in honest)  # patient rows
        assert any(r["committed"] == 0.0 for r in honest)  # impatient rows

    def test_e5_cc_threshold(self):
        result = EXPERIMENTS["E5"](quick=True)
        equiv = [r for r in result.rows if "equivocating" in r["configuration"]]
        assert equiv and not equiv[0]["cc_ok"]
        t1 = [r for r in result.rows if "traitors=1" in r["configuration"]]
        t2 = [r for r in result.rows if "traitors=2" in r["configuration"]]
        assert t1[0]["cc_ok"] and not t2[0]["cc_ok"]

    def test_e6_deal_property_matrix(self):
        result = EXPERIMENTS["E6"](quick=True)
        sync_rows = result.find_rows(
            protocol="timelock", timing="synchronous", graph="cycle-3"
        )
        assert sync_rows[0]["strong_liveness"] == 1.0
        broken = result.find_rows(
            protocol="timelock", timing="partial-synchrony", graph="cycle-3"
        )
        assert broken[0]["safety"] is False
        certified = result.find_rows(protocol="certified", graph="cycle-3")
        assert all(r["safety"] for r in certified)
        assert any(not r["strong_liveness"] for r in certified)

    def test_e7_linear_message_growth(self):
        result = EXPERIMENTS["E7"](quick=True)
        ns = result.column("n")
        msgs = result.column("messages")
        # messages = 6n exactly for the honest time-bounded protocol:
        assert all(m == 6 * n for n, m in zip(ns, msgs))

    def test_e8_zero_violations(self):
        result = EXPERIMENTS["E8"](quick=True)
        assert all(v == 0 for v in result.column("violations"))
        assert all(p >= 2 for p in result.column("paths"))

    def test_e9_margin_ablation(self):
        result = EXPERIMENTS["E9"](quick=True)
        # The happy path is unaffected by the margin ...
        assert all(r["honest_ok"] == 1.0 for r in result.rows)
        # ... while refund latency and the a-priori bound both grow with it.
        refunds = result.column("refund_end")
        assert len(refunds) >= 2
        assert all(a < b for a, b in zip(refunds, refunds[1:]))
        bounds = result.column("term_bound")
        assert all(a < b for a, b in zip(bounds, bounds[1:]))

    def test_cli_runs_selected_experiment(self, capsys):
        from repro.cli import main

        assert main(["E7"]) == 0
        out = capsys.readouterr().out
        assert "E7" in out and "messages" in out

    def test_cli_list(self, capsys):
        from repro.cli import main

        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "E1" in out
        # --list prints each experiment's one-line claim, not the module
        # filename:
        assert "Theorem 1" in out
        assert "e1_synchrony" not in out

    def test_cli_rejects_unknown(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["E99"])

    def test_cli_output_file(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "report.md"
        assert main(["E7", "--output", str(out)]) == 0
        text = out.read_text()
        assert "E7" in text and "messages" in text
        capsys.readouterr()
