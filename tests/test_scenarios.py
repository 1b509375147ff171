"""Tests: the scenario-matrix campaign subsystem."""

from dataclasses import replace

import pytest

from repro.errors import ScenarioError
from repro.experiments import render_table
from repro.runtime import ParallelExecutor, SerialExecutor, TrialSpec, run_trial
from repro.scenarios import (
    CampaignSpec,
    ScenarioSpec,
    aggregate_campaign,
    available_adversaries,
    available_protocols,
    available_timings,
    build_topology,
    make_adversary,
    protocol_defaults,
    run_campaign,
    timing_descriptor,
)
from repro.scenarios.spec import TRIAL_REF
from repro.scenarios.trial import EXTRA_COLUMNS, scenario_trial


class TestRegistry:
    def test_all_payment_protocols_registered(self):
        assert available_protocols() == ["certified", "htlc", "timebounded", "weak"]

    def test_timing_names_resolve_to_models(self):
        from repro.net.timing import build_timing

        for name in available_timings():
            model = build_timing(timing_descriptor(name))
            assert hasattr(model, "delivery_time")

    def test_sync_tight_delivers_exactly_at_the_bound(self):
        """'every delay is exactly Δ=1' must be literally true — the
        docstring is what --list-axes and the docs advertise."""
        from repro.net.timing import build_timing
        from repro.sim.rng import RngRegistry

        model = build_timing(timing_descriptor("sync-tight"))
        rng = RngRegistry(0).stream("t")
        samples = {model.sample_delay(None, 0.0, rng) for _ in range(20)}
        assert samples == {1.0}

    def test_adversary_names_resolve(self):
        assert make_adversary("none") is None
        topology = build_topology("linear-3")
        for name in available_adversaries():
            if name != "none":
                adversary = make_adversary(name, topology)
                assert hasattr(adversary, "propose_delay")

    def test_adversary_factories_return_fresh_instances(self):
        # Stateful adversaries must never be shared between trials.
        assert make_adversary("cert-holder") is not make_adversary("cert-holder")

    def test_targeted_adversaries_know_their_edges(self):
        topology = build_topology("linear-4")
        bob_edge = make_adversary("bob-edge", topology)
        assert bob_edge.edges == {("e3", "c4"), ("c4", "e3")}
        alice_edge = make_adversary("alice-edge")
        assert alice_edge.edges == {("c0", "e0"), ("e0", "c0")}

    def test_bob_edge_requires_topology(self):
        with pytest.raises(ScenarioError):
            make_adversary("bob-edge")

    def test_topology_patterns(self):
        assert build_topology("linear-5").n_escrows == 5
        multi = build_topology("multiasset-3")
        assert len({amt.asset for amt in multi.amounts}) == 3

    def test_geom_topology_has_nonlinear_fee_ladder(self):
        geom = build_topology("geom-3")
        units = [amt.units for amt in geom.amounts]
        assert units == [225, 150, 100]  # x1.5 compounding toward Alice
        steps = [a - b for a, b in zip(units, units[1:])]
        assert steps[0] != steps[1]  # non-linear: unequal commissions

    def test_patience_ignores_jitter_fraction(self):
        """Synchronous jitter is a fraction of the delay window, never
        an addend: the worst-case delay is delta itself, so patience
        105 > 10*delta=100 counts as patient whatever the jitter."""
        from repro.verification.properties import patience_is_sufficient

        options = {"patience_setup": 105.0, "patience_decision": 105.0}
        assert patience_is_sufficient(
            ("synchronous", {"delta": 10.0, "jitter": 1.0}), options
        )
        assert not patience_is_sufficient(
            ("synchronous", {"delta": 11.0}), options
        )
        assert not patience_is_sufficient(("asynchronous", {}), options)

    def test_every_protocol_has_a_definition_profile(self):
        """A protocol registered without a checking profile would pass
        validation and then fail inside every campaign trial."""
        from repro.verification.properties import DEFINITION_PROFILES

        assert set(DEFINITION_PROFILES) == set(available_protocols())

    def test_definition_profile_cert_kinds_reach_cs1(self):
        """The profile's alice_cert_kinds must actually drive CS1 for
        both definitions — not just the Definition 1 branch."""
        from repro.core.problem import PropertyId
        from repro.core.session import PaymentSession
        from repro.net.timing import Synchronous
        from repro.properties import Status, check_definition2

        outcome = PaymentSession(
            build_topology("linear-2"),
            "weak",
            Synchronous(1.0),
            protocol_options=dict(protocol_defaults("weak").options),
        ).run()
        assert outcome.bob_paid  # committed run: Alice paid, holds χc
        default = check_definition2(outcome)
        assert default.status_of(PropertyId.CS1) is Status.HOLDS
        # With a certificate kind nobody issues, CS1 must flip.
        skewed = check_definition2(outcome, cert_kinds=("nonexistent",))
        assert skewed.status_of(PropertyId.CS1) is Status.VIOLATED

    def test_axis_descriptions_cover_every_registered_name(self):
        from repro.scenarios import axis_descriptions

        described = axis_descriptions()
        assert sorted(described["protocols"]) == available_protocols()
        assert sorted(described["timings"]) == available_timings()
        assert sorted(described["adversaries"]) == available_adversaries()
        for entries in described.values():
            assert all(doc for doc in entries.values()), entries

    def test_unknown_names_raise_scenario_error(self):
        with pytest.raises(ScenarioError):
            timing_descriptor("warp")
        with pytest.raises(ScenarioError):
            make_adversary("mallory")
        with pytest.raises(ScenarioError):
            protocol_defaults("lightning")
        with pytest.raises(ScenarioError):
            build_topology("ring-3")
        with pytest.raises(ScenarioError):
            build_topology("linear-zero")
        with pytest.raises(ScenarioError):
            build_topology("linear-0")


class TestScenarioSpec:
    def test_options_merge_protocol_defaults(self):
        spec = ScenarioSpec(
            protocol="weak",
            timing="sync",
            protocol_options={"patience_setup": 9.0},
        )
        options = spec.options()
        assert options["protocol_options"]["patience_setup"] == 9.0
        assert options["protocol_options"]["tm"] == "trusted"
        assert options["timing"] == ("synchronous", {"delta": 1.0})

    def test_label(self):
        spec = ScenarioSpec(protocol="htlc", timing="async")
        assert spec.label == "htlc/async/none/linear-3"

    def test_validate_rejects_bad_axes(self):
        with pytest.raises(ScenarioError):
            ScenarioSpec(protocol="htlc", timing="warp").validate()
        with pytest.raises(ScenarioError):
            ScenarioSpec(protocol="htlc", timing="sync", rho=-0.1).validate()
        with pytest.raises(ScenarioError):
            ScenarioSpec(protocol="htlc", timing="sync", horizon=0.0).validate()


class TestCampaignCompile:
    def test_cross_product_order_and_size(self):
        campaign = CampaignSpec(
            protocols=["htlc", "weak"],
            timings=["sync", "partial"],
            adversaries=["none"],
            topologies=["linear-1"],
            trials=2,
        )
        sweep = campaign.compile()
        assert len(sweep) == len(campaign) == 8
        assert sweep.trials[0].coords == ("htlc", "sync", "none", "linear-1", 0)
        assert sweep.trials[-1].coords == ("weak", "partial", "none", "linear-1", 1)
        assert all(t.fn == TRIAL_REF for t in sweep)

    def test_seeds_collision_free_across_cells(self):
        campaign = CampaignSpec(
            protocols=["htlc", "timebounded", "weak", "certified"],
            timings=["sync", "partial", "async"],
            adversaries=["none", "delayer"],
            topologies=["linear-1", "linear-3"],
            trials=3,
        )
        seeds = [t.seed for t in campaign.compile()]
        assert len(seeds) == len(set(seeds)) == 144

    def test_cell_seeds_stable_under_other_axis_changes(self):
        """Adding axis values must not reshuffle existing cells' seeds."""
        small = CampaignSpec(protocols=["htlc"], timings=["sync"], trials=2)
        large = CampaignSpec(
            protocols=["htlc", "weak"], timings=["sync", "async"], trials=2
        )
        small_seeds = {t.coords: t.seed for t in small.compile()}
        large_seeds = {t.coords: t.seed for t in large.compile()}
        for coords, seed in small_seeds.items():
            assert large_seeds[coords] == seed

    def test_empty_axis_rejected(self):
        with pytest.raises(ScenarioError):
            CampaignSpec(protocols=[], timings=["sync"])
        with pytest.raises(ScenarioError):
            CampaignSpec(protocols=["htlc"], timings=["sync"], trials=0)

    def test_duplicate_axis_values_rejected(self):
        """A repeated axis value would rerun identical seeds and pass
        the duplicates off as additional Monte-Carlo evidence."""
        with pytest.raises(ScenarioError):
            CampaignSpec(protocols=["htlc", "htlc"], timings=["sync"])
        with pytest.raises(ScenarioError):
            CampaignSpec(
                protocols=["htlc"], timings=["sync"], adversaries=["none", "none"]
            )

    def test_one_shot_iterable_axes_are_normalised(self):
        """Generator axis values must survive validation AND compile."""
        campaign = CampaignSpec(
            protocols=iter(["htlc"]), timings=(t for t in ["sync"]), trials=2
        )
        assert len(campaign) == 2
        assert len(campaign.compile()) == 2

    def test_validation_is_cheap_for_huge_topologies(self):
        """Compile-time validation must not build the topologies."""
        campaign = CampaignSpec(
            protocols=["htlc"], timings=["sync"], topologies=["linear-1000000"]
        )
        assert len(campaign.compile()) == 3  # instant: names only

    def test_compile_fails_fast_on_unknown_axis_value(self):
        campaign = CampaignSpec(protocols=["htlc"], timings=["warp"])
        with pytest.raises(ScenarioError):
            campaign.compile()


class TestScenarioTrial:
    @pytest.mark.parametrize("protocol", ["htlc", "timebounded", "weak", "certified"])
    def test_each_protocol_completes_under_synchrony(self, protocol):
        campaign = CampaignSpec(
            protocols=[protocol],
            timings=["sync"],
            topologies=["linear-2"],
            trials=1,
        )
        record = run_trial(campaign.compile().trials[0])
        assert record.ok, record.error
        assert record["bob_paid"] and record["all_terminated"]
        assert record["ledgers_ok"]
        assert record["latency"] > 0.0
        # Under synchrony with an honest network, every protocol's own
        # definition holds; the other definition's column is None.
        checked = record["def1_ok"] if record["definition"] == 1 else record["def2_ok"]
        unchecked = record["def2_ok"] if record["definition"] == 1 else record["def1_ok"]
        assert checked is True and unchecked is None
        assert record["violated_properties"] == []

    def test_cert_holder_defeats_timebounded_under_partial_synchrony(self):
        campaign = CampaignSpec(
            protocols=["timebounded"],
            timings=["partial-late"],
            adversaries=["cert-holder"],
            topologies=["linear-2"],
            trials=1,
        )
        record = run_trial(campaign.compile().trials[0])
        assert record.ok, record.error
        assert not record["bob_paid"]
        # The cell where the guarantee breaks is exactly where the
        # property column must say so.
        assert record["definition"] == 1 and record["def1_ok"] is False

    def test_latency_honest_when_horizon_binds(self):
        """A never-settling run reports the horizon, not the last event."""
        campaign = CampaignSpec(
            protocols=["htlc"],
            timings=["async"],
            adversaries=["delayer"],
            topologies=["linear-2"],
            trials=1,
            horizon=777.0,
        )
        record = run_trial(campaign.compile().trials[0])
        assert record.ok, record.error
        # Premise: the delayer stretches every async message to the
        # model maximum (500), so this run cannot settle by t=777.  If
        # a registry change ever breaks this, re-pin the cell.
        assert not record["all_terminated"]
        assert record["latency"] == 777.0


class TestTrialOptions:
    """The opt-in ``fast_clocks`` and ``extra_columns`` trial options."""

    NAIVE = {
        "epsilon": 0.05,
        "rho": 0.02,
        "drift_tuned": False,
        "margin": 0.025,
        "processing_floor": 0.05,
    }
    TIMING = ("synchronous", {"delta": 1.0, "min_delay": 1.0})

    def _spec(self, **options):
        return TrialSpec(
            fn=TRIAL_REF,
            coords=("opt", 0),
            seed=7,
            options={
                "topology": "linear-4",
                "protocol": "timebounded",
                "timing": self.TIMING,
                "adversary": "none",
                "protocol_options": self.NAIVE,
                **options,
            },
        )

    def test_fast_clock_breaks_the_naive_calculus(self):
        assert scenario_trial(self._spec(fast_clocks={"e1": 0.02}))["def1_ok"] is False
        assert scenario_trial(self._spec())["def1_ok"] is True

    def test_fast_clocks_equal_a_direct_pinned_session(self):
        from repro.clocks import extremal_clock
        from repro.core.session import PaymentSession
        from repro.core.topology import PaymentTopology
        from repro.net.timing import build_timing
        from repro.verification.properties import property_columns

        record = scenario_trial(self._spec(fast_clocks={"e1": 0.02}))
        outcome = PaymentSession(
            PaymentTopology.linear(4, payment_id="opt-0"),
            "timebounded",
            build_timing(self.TIMING),
            seed=7,
            clocks={"e1": extremal_clock(0.02, fast=True)},
            protocol_options=self.NAIVE,
        ).run()
        direct = {
            "bob_paid": outcome.bob_paid,
            "latency": outcome.end_time,
            "messages": outcome.messages_sent,
            "events": outcome.events_executed,
            **property_columns(outcome, "timebounded", self.TIMING, self.NAIVE),
        }
        assert {key: record[key] for key in direct} == direct

    def test_unknown_extra_column_rejected(self):
        with pytest.raises(ScenarioError, match="no_such_column"):
            scenario_trial(self._spec(extra_columns=["no_such_column"]))

    def test_default_record_has_no_extra_columns(self):
        record = scenario_trial(self._spec())
        assert not set(EXTRA_COLUMNS) & set(record)

    def test_extra_columns_are_added_on_request(self):
        record = scenario_trial(
            self._spec(
                fast_clocks={"e1": 0.02},
                extra_columns=["connector_harmed", "decision_time"],
            )
        )
        assert record["connector_harmed"] is True
        # The time-bounded protocol issues no commit/abort certificate.
        assert record["decision_time"] is None

    def test_undecided_record_round_trips_to_analyze(self, tmp_path):
        from repro.analysis.query import analyze_store
        from repro.analysis.store import RecordStore
        from repro.experiments import e5_notaries
        from repro.runtime.persist import RecordWriter

        trusted = run_trial(e5_notaries.build_sweep(quick=True).trials[0])
        assert trusted.ok, trusted.error
        undecided = replace(
            trusted,
            spec=replace(
                trusted.spec,
                options={**trusted.spec.options, "configuration": "undecided"},
            ),
            values={**trusted.values, "decision_time": None},
        )
        with RecordWriter(tmp_path, sweep_id="E5") as writer:
            writer.write(trusted)
            writer.write(undecided)
        result = analyze_store(
            RecordStore.load(tmp_path),
            group_by=("configuration",),
            metrics=("runs", "decision_time"),
        )
        assert [(r["configuration"], r["runs"]) for r in result.rows] == [
            ("trusted party", 1),
            ("undecided", 1),
        ]
        assert result.rows[0]["decision_time"] == trusted["decision_time"] > 0.0
        assert result.rows[1]["decision_time"] == "-"


class TestCampaignAggregation:
    def _campaign(self):
        return CampaignSpec(
            protocols=["htlc", "weak"],
            timings=["sync", "partial"],
            adversaries=["none"],
            topologies=["linear-1", "linear-2"],
            trials=2,
        )

    def test_rows_grouped_by_protocol_timing_adversary(self):
        result = run_campaign(self._campaign())
        keys = [(r["protocol"], r["timing"], r["adversary"]) for r in result.rows]
        # Topologies pool inside a group: 2 topologies x 2 trials = 4 runs.
        assert keys == [
            ("htlc", "sync", "none"),
            ("htlc", "partial", "none"),
            ("weak", "sync", "none"),
            ("weak", "partial", "none"),
        ]
        assert all(r["runs"] == 4 for r in result.rows)

    def test_serial_parallel_byte_parity(self):
        sweep = self._campaign().compile()
        serial = SerialExecutor().run(sweep)
        parallel = ParallelExecutor(jobs=2).run(sweep)
        assert [r.values for r in serial] == [r.values for r in parallel]
        assert [r.spec for r in serial] == [r.spec for r in parallel]
        assert render_table(aggregate_campaign(serial)) == render_table(
            aggregate_campaign(parallel)
        )

    def test_definition_columns_fraction_or_dash(self):
        """Each row reports its own definition's check fraction; the
        other definition renders '-' (not checked ≠ checked-and-failed)."""
        result = run_campaign(self._campaign())
        for row in result.rows:
            if row["protocol"] == "htlc":
                assert isinstance(row["def1_ok"], float)
                assert row["def2_ok"] == "-"
            else:  # weak
                assert row["def1_ok"] == "-"
                assert isinstance(row["def2_ok"], float)
        # Synchrony, honest network: the guarantees hold outright.
        for row in result.rows:
            if row["timing"] == "sync":
                checked = row["def1_ok"] if row["protocol"] == "htlc" else row["def2_ok"]
                assert checked == 1.0
                assert row["success"] == 1.0

    def test_run_campaign_accepts_jobs_int(self):
        a = run_campaign(self._campaign(), executor=2)
        b = run_campaign(self._campaign())
        assert render_table(a) == render_table(b)


class TestCampaignCli:
    def test_campaign_subcommand(self, capsys):
        from repro.cli import main

        code = main(
            [
                "campaign",
                "--protocols", "htlc,weak",
                "--timing", "sync",
                "--adversaries", "none",
                "--trials", "2",
                "--jobs", "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "scenario-matrix campaign" in out
        assert "htlc" in out and "weak" in out and "jobs=2" in out

    def test_output_artifact_identical_across_jobs(self, tmp_path, capsys):
        from repro.cli import main

        args = [
            "campaign",
            "--protocols", "weak",
            "--timing", "sync,partial",
            "--trials", "2",
        ]
        serial, parallel = tmp_path / "serial.txt", tmp_path / "parallel.txt"
        assert main(args + ["--output", str(serial)]) == 0
        assert main(args + ["--jobs", "2", "--output", str(parallel)]) == 0
        capsys.readouterr()
        assert serial.read_bytes() == parallel.read_bytes()

    def test_list_axes(self, capsys):
        from repro.cli import main

        assert main(["campaign", "--list-axes"]) == 0
        out = capsys.readouterr().out
        assert "timebounded" in out and "linear-N" in out

    def test_unknown_axis_value_is_a_usage_error(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["campaign", "--timing", "warp"])
        assert "unknown timing model" in capsys.readouterr().err
