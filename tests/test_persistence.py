"""Tests: sweep-record persistence (JSONL/CSV) and campaign reload."""

import csv
import json

import pytest

from repro.errors import PersistenceError
from repro.runtime import (
    RecordWriter,
    SerialExecutor,
    TrialRecord,
    TrialSpec,
    load_sweep_result,
    record_from_dict,
    record_to_dict,
    write_sweep_result,
)
from repro.runtime.persist import (
    MANIFEST_JSON,
    RECORDS_CSV,
    RECORDS_JSONL,
    flatten_record,
)
from repro.scenarios import (
    CampaignSpec,
    aggregate_campaign,
    load_campaign,
    run_campaign,
)
from repro.scenarios.spec import TRIAL_REF
from repro.experiments import render_table


def _record(**values):
    spec = TrialSpec(
        fn="repro.scenarios.trial:scenario_trial",
        coords=("htlc", "sync", "none", "linear-2", 0),
        seed=1234567890123,
        options={"protocol": "htlc", "rho": 0.25, "flags": [1, 2]},
    )
    return TrialRecord(spec=spec, values=values, wall_seconds=0.125)


class TestRecordRoundTrip:
    def test_dict_round_trip_preserves_spec_and_values(self):
        record = _record(bob_paid=True, latency=6.75, note=None)
        clone = record_from_dict(json.loads(json.dumps(record_to_dict(record))))
        assert clone.spec.fn == record.spec.fn
        assert clone.spec.coords == record.spec.coords  # tuple restored
        assert clone.spec.seed == record.spec.seed
        assert clone.values == record.values
        assert clone.wall_seconds == record.wall_seconds
        assert clone.ok

    def test_error_records_survive(self):
        spec = TrialSpec(fn="m:f", coords=("x",), seed=1)
        record = TrialRecord(spec=spec, error="Traceback ...", wall_seconds=0.5)
        clone = record_from_dict(record_to_dict(record))
        assert not clone.ok and clone.error == "Traceback ..."

    def test_malformed_dict_raises_persistence_error(self):
        with pytest.raises(PersistenceError):
            record_from_dict({"fn": "m:f"})

    def test_flatten_embeds_non_scalars_as_json(self):
        flat = flatten_record(_record(bob_paid=True))
        assert flat["protocol"] == "htlc"  # scalar option: as-is
        assert json.loads(flat["flags"]) == [1, 2]  # list option: JSON cell
        assert flat["bob_paid"] is True
        assert flat["error"] == ""

    def test_flatten_prefixes_reserved_column_collisions(self):
        """A value/option named like a writer-owned column (seed,
        wall_seconds, error) must be prefixed, not overwritten."""
        spec = TrialSpec(
            fn="m:f", coords=("a",), seed=42, options={"error": "opt"}
        )
        record = TrialRecord(
            spec=spec, values={"error": 0.02, "seed": 7}, wall_seconds=1.5
        )
        flat = flatten_record(record)
        assert flat["seed"] == 42  # the spec seed, untouched
        assert flat["option_error"] == "opt"
        assert flat["value_error"] == 0.02
        assert flat["value_seed"] == 7
        assert flat["wall_seconds"] == 1.5 and flat["error"] == ""


class TestWriterAndLoader:
    def _sweep_result(self):
        campaign = CampaignSpec(
            protocols=["htlc", "weak"],
            timings=["sync"],
            topologies=["linear-1"],
            trials=2,
        )
        return SerialExecutor().run(campaign.compile())

    def test_written_directory_reloads_equivalently(self, tmp_path):
        result = self._sweep_result()
        write_sweep_result(result, tmp_path / "out")
        reloaded = load_sweep_result(tmp_path / "out")
        assert reloaded.sweep_id == result.sweep_id
        assert len(reloaded) == len(result)
        assert [r.values for r in reloaded] == [r.values for r in result]
        assert [r.spec.coords for r in reloaded] == [
            r.spec.coords for r in result
        ]

    def test_csv_has_header_plus_row_per_record(self, tmp_path):
        result = self._sweep_result()
        out = write_sweep_result(result, tmp_path / "out")
        with (out / RECORDS_CSV).open(newline="") as handle:
            rows = list(csv.reader(handle))
        assert len(rows) == len(result) + 1
        assert "bob_paid" in rows[0] and "def1_ok" in rows[0]

    def test_manifest_records_schema_and_count(self, tmp_path):
        result = self._sweep_result()
        out = write_sweep_result(result, tmp_path / "out")
        manifest = json.loads((out / MANIFEST_JSON).read_text())
        assert manifest["schema"] == 1
        assert manifest["records"] == len(result)
        assert manifest["sweep_id"] == result.sweep_id

    def test_streaming_sink_equals_post_hoc_write(self, tmp_path):
        """executor.run(sink=writer.write) must persist exactly what a
        post-hoc write of the returned result would."""
        campaign = CampaignSpec(
            protocols=["htlc"], timings=["sync"], topologies=["linear-1"], trials=2
        )
        sweep = campaign.compile()
        streamed = tmp_path / "streamed"
        with RecordWriter(streamed, sweep_id=sweep.sweep_id) as writer:
            result = SerialExecutor().run(sweep, sink=writer.write)
            writer.close(wall_seconds=result.wall_seconds, jobs=1)
        post_hoc = write_sweep_result(result, tmp_path / "posthoc")
        assert (streamed / RECORDS_JSONL).read_text() == (
            post_hoc / RECORDS_JSONL
        ).read_text()

    def test_loader_rejects_non_directory(self, tmp_path):
        with pytest.raises(PersistenceError):
            load_sweep_result(tmp_path / "missing")

    def test_loader_rejects_truncated_records(self, tmp_path):
        out = write_sweep_result(self._sweep_result(), tmp_path / "out")
        lines = (out / RECORDS_JSONL).read_text().splitlines()
        (out / RECORDS_JSONL).write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(PersistenceError, match="manifest promises"):
            load_sweep_result(out)

    def test_loader_rejects_foreign_schema(self, tmp_path):
        out = write_sweep_result(self._sweep_result(), tmp_path / "out")
        manifest = json.loads((out / MANIFEST_JSON).read_text())
        manifest["schema"] = 99
        (out / MANIFEST_JSON).write_text(json.dumps(manifest))
        with pytest.raises(PersistenceError, match="schema"):
            load_sweep_result(out)

    def test_closed_writer_refuses_writes(self, tmp_path):
        writer = RecordWriter(tmp_path / "out")
        writer.close()
        with pytest.raises(PersistenceError):
            writer.write(_record(x=1))

    def test_interrupted_write_leaves_no_manifest(self, tmp_path):
        """A with-block that exits on an exception must not leave a
        manifest: the loader has to reject the partial directory, not
        pass it off as a complete campaign."""
        out = tmp_path / "out"
        with pytest.raises(KeyboardInterrupt):
            with RecordWriter(out, sweep_id="camp") as writer:
                writer.write(_record(bob_paid=True))
                raise KeyboardInterrupt
        assert not (out / MANIFEST_JSON).exists()
        assert (out / RECORDS_JSONL).exists()  # partial data kept
        with pytest.raises(PersistenceError, match="not a persisted"):
            load_sweep_result(out)

    def test_reused_out_dir_drops_stale_manifest_on_abort(self, tmp_path):
        """Re-running --out into a completed directory and aborting must
        not leave the *old* manifest vouching for the new records."""
        out = tmp_path / "out"
        write_sweep_result(self._sweep_result(), out)  # completed run
        with pytest.raises(KeyboardInterrupt):
            with RecordWriter(out, sweep_id="rerun") as writer:
                writer.write(_record(bob_paid=True))
                raise KeyboardInterrupt
        assert not (out / MANIFEST_JSON).exists()
        with pytest.raises(PersistenceError, match="not a persisted"):
            load_sweep_result(out)

    def test_value_columns_survive_long_leading_failure_streak(
        self, tmp_path
    ):
        """However many error records precede the first success, the
        CSV header must still carry the value columns — an error-row
        header would silently drop every later result cell."""
        n_failures = 1500
        with RecordWriter(tmp_path / "out") as writer:
            for i in range(n_failures):
                writer.write(
                    TrialRecord(
                        spec=TrialSpec(fn="m:f", coords=(i,), seed=i),
                        error="boom",
                    )
                )
            writer.write(_record(bob_paid=True, latency=1.5))
        with (tmp_path / "out" / RECORDS_CSV).open(newline="") as handle:
            rows = list(csv.reader(handle))
        assert len(rows) == n_failures + 2  # header + every record once
        assert "bob_paid" in rows[0] and "latency" in rows[0]

    def test_csv_header_survives_leading_error_record(self, tmp_path):
        """An errored first trial must not truncate the CSV header:
        value columns come from the first successful record, with the
        earlier rows buffered and back-filled."""
        error_record = TrialRecord(
            spec=TrialSpec(fn="m:f", coords=("a",), seed=1, options={"p": "x"}),
            error="Traceback ...",
        )
        with RecordWriter(tmp_path / "out") as writer:
            writer.write(error_record)
            writer.write(_record(bob_paid=True, latency=2.5))
        with (tmp_path / "out" / RECORDS_CSV).open(newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert "bob_paid" in rows[0] and "latency" in rows[0]
        assert rows[0]["error"].startswith("Traceback")
        assert rows[1]["bob_paid"] == "True" and rows[1]["latency"] == "2.5"


class TestCampaignReaggregation:
    def _campaign(self):
        return CampaignSpec(
            protocols=["htlc", "weak"],
            timings=["sync", "partial"],
            adversaries=["none", "bob-edge"],
            topologies=["linear-2"],
            trials=2,
        )

    def test_reload_renders_byte_identical_table(self, tmp_path):
        sweep_result = SerialExecutor().run(self._campaign().compile())
        live = render_table(aggregate_campaign(sweep_result))
        write_sweep_result(sweep_result, tmp_path / "out")
        records = load_sweep_result(tmp_path / "out")
        assert [r.values for r in records] == [r.values for r in sweep_result]
        reloaded = render_table(load_campaign(tmp_path / "out"))
        assert reloaded == live

    def test_cli_out_then_from_is_byte_identical(self, tmp_path, capsys):
        """The acceptance path: --out writes records (parallel, --jobs 2),
        --from reproduces the aggregate table byte-identically."""
        from repro.cli import main

        out_dir = tmp_path / "records"
        live, reloaded = tmp_path / "live.txt", tmp_path / "reloaded.txt"
        args = [
            "campaign",
            "--protocols", "weak,htlc",
            "--timing", "sync",
            "--adversaries", "none,alice-edge",
            "--trials", "2",
        ]
        assert main(args + ["--jobs", "2", "--out", str(out_dir),
                            "--output", str(live)]) == 0
        assert main(["campaign", "--from", str(out_dir),
                     "--output", str(reloaded)]) == 0
        capsys.readouterr()
        assert live.read_bytes() == reloaded.read_bytes()
        # And the persisted records are --jobs-independent (modulo the
        # per-trial wall clock): a serial rerun writes the same data.
        serial_dir = tmp_path / "serial"
        assert main(args + ["--jobs", "1", "--out", str(serial_dir)]) == 0
        capsys.readouterr()

        def _data(path):
            lines = (path / RECORDS_JSONL).read_text().splitlines()
            rows = [json.loads(line) for line in lines]
            for row in rows:
                row.pop("wall_seconds")
            return rows

        assert _data(out_dir) == _data(serial_dir)

    def test_cli_from_rejects_out(self, tmp_path, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["campaign", "--from", str(tmp_path), "--out", str(tmp_path)])
        capsys.readouterr()

    def test_cli_from_rejects_matrix_flags(self, tmp_path, capsys):
        """--from runs no trials, so explicitly passed matrix flags
        (--trials 50, --protocols ...) must error, not be silently
        ignored while a stale table prints."""
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["campaign", "--from", str(tmp_path), "--trials", "50"])
        err = capsys.readouterr().err
        assert "runs no trials" in err and "--trials" in err

    @pytest.mark.parametrize("extra", [["--trial", "9"], ["-j4"], ["--seed=1"]])
    def test_cli_from_flag_conflict_catches_every_spelling(
        self, tmp_path, capsys, extra
    ):
        """Abbreviations (--trial), attached shorts (-j4), and =-forms
        must hit the same conflict guard as the canonical spelling."""
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["campaign", "--from", str(tmp_path)] + extra)
        assert "runs no trials" in capsys.readouterr().err

    def test_cli_from_rejects_foreign_sweep_directory(self, tmp_path, capsys):
        """A valid persisted sweep that is not a campaign must be
        refused cleanly, not crash on a missing campaign column."""
        from repro.cli import main
        from repro.runtime import SweepResult

        foreign = SweepResult(
            sweep_id="e1",
            records=[
                TrialRecord(
                    spec=TrialSpec(fn="repro.experiments.e1_synchrony:trial",
                                   coords=(1,), seed=1),
                    values={"x": 1.0},
                )
            ],
        )
        write_sweep_result(foreign, tmp_path / "out")
        with pytest.raises(SystemExit):
            main(["campaign", "--from", str(tmp_path / "out")])
        assert "not campaign trials" in capsys.readouterr().err

    def test_cli_from_missing_dir_is_usage_error(self, tmp_path, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["campaign", "--from", str(tmp_path / "nope")])
        assert "not a persisted sweep directory" in capsys.readouterr().err

    def test_cli_from_directory_with_failed_trials_is_usage_error(
        self, tmp_path, capsys
    ):
        """Error records persist fine but cannot aggregate; --from must
        report that as a usage error, not a raw TrialError traceback."""
        from repro.cli import main
        from repro.runtime import SweepResult

        bad = SweepResult(
            sweep_id="camp",
            records=[
                TrialRecord(
                    spec=TrialSpec(fn=TRIAL_REF, coords=("a",), seed=1),
                    error="boom",
                )
            ],
        )
        write_sweep_result(bad, tmp_path / "out")
        with pytest.raises(SystemExit):
            main(["campaign", "--from", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert "trials of sweep" in err
        assert "--skip-errors" in err  # the recovery path is named

    def test_skip_errors_reports_dropped_counts_per_cell(self, tmp_path):
        """--from --skip-errors must charge each failed trial to the
        cell that lost it (the 'dropped' column), not only to a table
        footnote — a row's shrunken denominator has to be visible in
        the row itself."""
        from repro.runtime import SerialExecutor

        result = SerialExecutor().run(
            CampaignSpec(
                protocols=["htlc", "weak"], timings=["sync"],
                topologies=["linear-1"], trials=2,
            ).compile()
        )
        # Fail one htlc trial in place: same spec (so it stays in the
        # htlc/sync/none cell), values replaced by a captured error.
        victim = next(
            i for i, r in enumerate(result.records)
            if r.spec.options["protocol"] == "htlc"
        )
        result.records[victim] = TrialRecord(
            spec=result.records[victim].spec, error="Traceback ..."
        )
        write_sweep_result(result, tmp_path / "out")
        table = load_campaign(tmp_path / "out", skip_errors=True)
        (htlc_row,) = [r for r in table.rows if r["protocol"] == "htlc"]
        (weak_row,) = [r for r in table.rows if r["protocol"] == "weak"]
        assert htlc_row["runs"] == 1 and htlc_row["dropped"] == 1
        assert weak_row["runs"] == 2 and weak_row["dropped"] == 0
        assert any("dropped" in note for note in table.notes)

    def test_skip_errors_keeps_fully_failed_cell_visible(self, tmp_path):
        """A cell whose every trial failed must still render a row
        (runs=0, stats '-') instead of silently vanishing from the
        table."""
        from repro.runtime import SerialExecutor

        result = SerialExecutor().run(
            CampaignSpec(
                protocols=["htlc", "weak"], timings=["sync"],
                topologies=["linear-1"], trials=2,
            ).compile()
        )
        for i, record in enumerate(result.records):
            if record.spec.options["protocol"] == "htlc":
                result.records[i] = TrialRecord(
                    spec=record.spec, error="boom"
                )
        write_sweep_result(result, tmp_path / "out")
        table = load_campaign(tmp_path / "out", skip_errors=True)
        (htlc_row,) = [r for r in table.rows if r["protocol"] == "htlc"]
        assert htlc_row["runs"] == 0 and htlc_row["dropped"] == 2
        assert htlc_row["bob_paid"] == "-"
        assert htlc_row["mean_latency"] == "-"
        (weak_row,) = [r for r in table.rows if r["protocol"] == "weak"]
        assert weak_row["runs"] == 2 and weak_row["dropped"] == 0

    def test_skip_errors_salvages_directory_with_failed_trials(
        self, tmp_path, capsys
    ):
        """--skip-errors aggregates the surviving records of a persisted
        run instead of refusing forever."""
        from repro.cli import main

        good = SerialExecutor().run(
            CampaignSpec(
                protocols=["htlc"], timings=["sync"],
                topologies=["linear-1"], trials=2,
            ).compile()
        )
        good.records.append(
            TrialRecord(
                spec=TrialSpec(fn=TRIAL_REF, coords=("bad",), seed=9),
                error="boom",
            )
        )
        write_sweep_result(good, tmp_path / "out")
        assert main(["campaign", "--from", str(tmp_path / "out"),
                     "--skip-errors"]) == 0
        out = capsys.readouterr().out
        assert "1/3 trials failed and were skipped" in out
        assert "htlc" in out

    def test_skip_errors_still_fails_when_nothing_survived(
        self, tmp_path, capsys
    ):
        """A fully-failed campaign must not exit 0 with an empty table
        even under --skip-errors."""
        from repro.cli import main
        from repro.runtime import SweepResult

        all_bad = SweepResult(
            sweep_id="camp",
            records=[
                TrialRecord(
                    spec=TrialSpec(fn=TRIAL_REF, coords=(i,), seed=i),
                    error="boom",
                )
                for i in range(2)
            ],
        )
        write_sweep_result(all_bad, tmp_path / "out")
        with pytest.raises(SystemExit):
            main(["campaign", "--from", str(tmp_path / "out"), "--skip-errors"])
        err = capsys.readouterr().err
        assert "trials of sweep" in err
        # The hint must not suggest the flag the user already passed.
        assert "no trials survived" in err and "add --skip-errors" not in err

    def test_cli_from_empty_directory_is_usage_error(self, tmp_path, capsys):
        """Zero persisted records must not aggregate to an empty table
        with exit code 0."""
        from repro.cli import main
        from repro.runtime import SweepResult

        write_sweep_result(SweepResult(sweep_id="camp"), tmp_path / "out")
        with pytest.raises(SystemExit):
            main(["campaign", "--from", str(tmp_path / "out")])
        assert "no records to aggregate" in capsys.readouterr().err

    def test_cli_out_onto_existing_file_is_usage_error(self, tmp_path, capsys):
        from repro.cli import main

        blocker = tmp_path / "afile"
        blocker.write_text("in the way")
        with pytest.raises(SystemExit):
            main(["campaign", "--protocols", "htlc", "--timing", "sync",
                  "--trials", "1", "--out", str(blocker)])
        assert "cannot write records" in capsys.readouterr().err

    def test_live_run_with_failed_trials_hints_at_recovery(
        self, tmp_path, capsys, monkeypatch
    ):
        """A live campaign whose aggregation hits failed trials must
        point at --skip-errors (and the preserved --out records), not
        dump a raw traceback."""
        import repro.scenarios.cli as cli_mod
        from repro.runtime import TrialError

        def explode(sweep_result, skip_errors=False, skipped=()):
            raise TrialError("1/4 trials of sweep 'campaign' failed")

        monkeypatch.setattr(cli_mod, "aggregate_campaign", explode)
        with pytest.raises(SystemExit):
            cli_mod.campaign_main(
                ["--protocols", "htlc", "--timing", "sync", "--trials", "1",
                 "--out", str(tmp_path / "keep")]
            )
        err = capsys.readouterr().err
        assert "--skip-errors" in err
        assert str(tmp_path / "keep") in err
