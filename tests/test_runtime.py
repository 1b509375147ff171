"""Tests: the sweep-execution runtime (specs, executors, aggregation)."""

import pytest

from repro.errors import ExperimentError
from repro.experiments import SWEEPS, render_table
from repro.experiments import e1_synchrony, e2_drift, e4_weak
from repro.runtime import (
    ParallelExecutor,
    SerialExecutor,
    SweepSpec,
    TrialError,
    TrialSpec,
    default_jobs,
    derive_seed,
    resolve_executor,
    resolve_trial_fn,
    run_sweep,
    run_trial,
    trial_ref,
)
from repro.runtime.testing import echo_trial, failing_trial


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(0, "E1", 2, 3) == derive_seed(0, "E1", 2, 3)

    def test_distinct_coordinates_distinct_seeds(self):
        seeds = {
            derive_seed(master, exp, n, s)
            for master in (0, 1)
            for exp in ("E1", "E2")
            for n in range(20)
            for s in range(50)
        }
        assert len(seeds) == 2 * 2 * 20 * 50

    def test_no_adjacent_master_aliasing(self):
        """The old ``seed * 1000 + s`` mixing let master seed 0 with
        trial 1000 collide with master seed 1 trial 0; the hash must
        not."""
        assert derive_seed(0, "E1", 1000) != derive_seed(1, "E1", 0)
        assert derive_seed(0, "E1", 1, 0) != derive_seed(0, "E1", 0, 1)

    def test_type_sensitive(self):
        assert derive_seed(0, "1") != derive_seed(0, 1)
        assert derive_seed(0, 1.0) != derive_seed(0, 1)

    def test_all_experiment_sweeps_collision_free(self):
        """Regression for the seed-collision hazard: across every
        experiment's quick AND full sweep, under two master seeds, no
        two trials ever share a derived seed."""
        seen = {}
        for master in (0, 1):
            for exp_id, build in sorted(SWEEPS.items()):
                for quick in (True, False):
                    for spec in build(quick=quick, seed=master):
                        key = (master, exp_id, quick, spec.coords)
                        prior = seen.setdefault(spec.seed, key)
                        # Same (sweep, coords) legitimately reappears in
                        # quick vs full; different coords must not.
                        assert prior[:2] + (prior[3],) == (
                            master,
                            exp_id,
                            spec.coords,
                        ), f"seed collision: {prior} vs {key}"


class TestSpecs:
    def test_grid_product_and_coords(self):
        sweep = SweepSpec.grid(
            "G", echo_trial, 7, axes={"a": [1, 2], "b": ["x", "y", "z"]}
        )
        assert len(sweep) == 6
        assert sweep.trials[0].coords == (1, "x")
        assert sweep.trials[-1].coords == (2, "z")
        assert sweep.trials[0].options == {"a": 1, "b": "x"}
        assert len({s.seed for s in sweep}) == 6

    def test_grid_common_options(self):
        sweep = SweepSpec.grid(
            "G", echo_trial, 0, axes={"a": [1]}, protocol="weak"
        )
        assert sweep.trials[0].opt("protocol") == "weak"

    def test_trial_ref_roundtrip(self):
        ref = trial_ref(echo_trial)
        assert ref == "repro.runtime.testing:echo_trial"
        assert resolve_trial_fn(ref) is echo_trial

    def test_trial_ref_rejects_locals(self):
        def local_fn(spec):  # pragma: no cover - never called
            return {}

        with pytest.raises(ExperimentError):
            trial_ref(local_fn)

    def test_resolve_rejects_malformed(self):
        with pytest.raises(ExperimentError):
            resolve_trial_fn("no-colon")


class TestExecutors:
    def _sweep(self, n=6):
        return SweepSpec.grid(
            "T", echo_trial, 3, axes={"i": list(range(n))}, tag="v"
        )

    def test_serial_runs_in_order(self):
        result = SerialExecutor().run(self._sweep())
        assert result.ok
        assert result.column("i") == list(range(6))
        assert [r.spec.seed for r in result] == [r["seed"] for r in result]

    def test_parallel_matches_serial(self):
        sweep = self._sweep(8)
        serial = SerialExecutor().run(sweep)
        parallel = ParallelExecutor(jobs=3).run(sweep)
        assert [r.values for r in parallel] == [r.values for r in serial]
        assert [r.spec for r in parallel] == [r.spec for r in serial]
        assert parallel.jobs == 3

    def test_parallel_single_job_falls_back_inline(self):
        result = ParallelExecutor(jobs=1).run(self._sweep(3))
        assert result.ok and len(result) == 3

    def test_parallel_pool_reused_across_sweeps_and_shutdown(self):
        with ParallelExecutor(jobs=2) as ex:
            ex.run(self._sweep(4))
            pool = ex._pool
            assert pool is not None
            ex.run(self._sweep(4))
            assert ex._pool is pool  # same pool, no restart
        assert ex._pool is None  # context exit released it
        # shutdown is idempotent and the executor stays usable:
        ex.shutdown()
        assert ex.run(self._sweep(4)).ok

    def test_parallel_rejects_bad_jobs(self):
        with pytest.raises(ExperimentError):
            ParallelExecutor(jobs=0)

    @pytest.mark.parametrize("make", [SerialExecutor, lambda: ParallelExecutor(jobs=2)])
    def test_raising_trial_is_captured(self, make):
        sweep = SweepSpec(sweep_id="F")
        sweep.add(failing_trial, 0, ("good",), ok=True)
        sweep.add(failing_trial, 0, ("bad",), ok=False)
        result = make().run(sweep)
        assert not result.ok
        assert result.records[0].ok and result.records[0]["survived"]
        bad = result.records[1]
        assert "ValueError" in bad.error and "told to fail" in bad.error
        with pytest.raises(TrialError):
            bad["survived"]
        with pytest.raises(TrialError):
            result.raise_any()

    def test_run_trial_rejects_non_dict_return(self):
        record = run_trial(
            TrialSpec(fn="repro.runtime.testing:scalar_trial", coords=("x",))
        )
        assert not record.ok and "expected a dict" in record.error

    def test_sweep_result_select_distinct(self):
        result = run_sweep(
            SweepSpec.grid("S", echo_trial, 0, axes={"a": [1, 2], "s": [0, 1]})
        )
        assert len(result.select(a=2)) == 2
        assert result.distinct("a") == [1, 2]
        assert result.trial_wall_seconds() >= 0.0


class TestResolveExecutor:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert isinstance(resolve_executor(), SerialExecutor)

    def test_int_means_parallel(self):
        ex = resolve_executor(4)
        assert isinstance(ex, ParallelExecutor) and ex.jobs == 4

    def test_executor_passthrough(self):
        ex = SerialExecutor()
        assert resolve_executor(ex) is ex

    def test_env_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert default_jobs() == 3
        ex = resolve_executor()
        assert isinstance(ex, ParallelExecutor) and ex.jobs == 3

    def test_env_variable_garbage_means_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        assert default_jobs() == 1

    def test_rejects_bad_values(self):
        with pytest.raises(ExperimentError):
            resolve_executor(0)
        with pytest.raises(ExperimentError):
            resolve_executor("six")


class TestExperimentParity:
    """Serial and parallel executors must be indistinguishable."""

    @pytest.mark.parametrize("module", [e1_synchrony, e2_drift, e4_weak])
    def test_serial_parallel_sweep_results_identical(self, module):
        sweep = module.build_sweep(quick=True, seed=0)
        serial = SerialExecutor().run(sweep)
        parallel = ParallelExecutor(jobs=2).run(sweep)
        assert [r.values for r in serial] == [r.values for r in parallel]
        assert [r.spec for r in serial] == [r.spec for r in parallel]
        assert render_table(module.aggregate(serial)) == render_table(
            module.aggregate(parallel)
        )

    def test_run_accepts_jobs_int(self):
        a = e1_synchrony.run(quick=True, seed=0, executor=2)
        b = e1_synchrony.run(quick=True, seed=0)
        assert render_table(a) == render_table(b)


class TestCliJobs:
    def test_jobs_flag(self, capsys):
        from repro.cli import main

        assert main(["E7", "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "jobs=2" in out and "messages" in out

    def test_jobs_env(self, capsys, monkeypatch):
        from repro.cli import main

        monkeypatch.setenv("REPRO_JOBS", "2")
        assert main(["E7"]) == 0
        assert "jobs=2" in capsys.readouterr().out

    def test_jobs_rejects_zero(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["E7", "--jobs", "0"])
