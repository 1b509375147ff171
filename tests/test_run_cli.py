"""Tests: the run-and-persist front end shared by campaign and workload.

Pins the workload CLI end to end (fresh run, ``--resume`` growth,
``--output``, ``--assert-monotone``), the usage errors and manifest
keys both subcommands share, and the import layering that keeps the
experiment modules out of the campaign/analyze/workload stack.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.runtime.persist import MANIFEST_JSON, RECORDS_JSONL

SRC = Path(__file__).resolve().parents[1] / "src"

#: A small workload: at load 1.0 some, not all, payments lack liquidity.
WORKLOAD = [
    "workload", "--protocols", "htlc", "--payments", "12",
    "--liquidity", "250",
]


class TestWorkloadCli:
    def test_resume_grows_to_the_one_shot_bytes(self, tmp_path, capsys):
        grown, fresh = tmp_path / "grown", tmp_path / "fresh"
        table_file = tmp_path / "table.txt"
        assert main(WORKLOAD + ["--loads", "0.02", "--out", str(grown)]) == 0
        capsys.readouterr()
        assert main(
            WORKLOAD
            + ["--loads", "0.02,1.0", "--out", str(grown), "--resume",
               "--output", str(table_file), "--assert-monotone"]
        ) == 0
        printed = capsys.readouterr().out
        assert "1 cells run, 1 reused" in printed
        assert main(
            WORKLOAD + ["--loads", "0.02,1.0", "--out", str(fresh)]
        ) == 0
        capsys.readouterr()
        assert (grown / RECORDS_JSONL).read_bytes() == (
            fresh / RECORDS_JSONL
        ).read_bytes()
        # The --output artifact is exactly the printed table.
        table = table_file.read_text(encoding="utf-8")
        assert table.startswith("protocol")
        assert printed.startswith(table)
        assert " 0.667 " in table  # load 1.0: 8 of 12 payments refused
        assert "liquidity-failure rate is monotone" in printed

    def test_zero_chunksize_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(WORKLOAD + ["--loads", "0.02", "--jobs", "2",
                             "--chunksize", "0"])
        assert exc.value.code == 2
        assert "--chunksize" in capsys.readouterr().err

    def test_manifest_records_chunksize_and_overrides(self, tmp_path, capsys):
        out = tmp_path / "wl"
        assert main(
            WORKLOAD
            + ["--loads", "0.02,1.0", "--jobs", "2", "--set",
               "htlc.delta=1.0", "--out", str(out)]
        ) == 0
        capsys.readouterr()
        manifest = json.loads((out / MANIFEST_JSON).read_text())
        assert manifest["chunksize"] >= 1
        assert manifest["option_overrides"] == {"htlc": {"delta": 1.0}}
        assert manifest["kind"] == "workload"
        assert manifest["payments_per_cell"] == 12


class TestCampaignCli:
    def test_resumed_table_equals_its_reload(self, tmp_path, capsys):
        """A grown directory's live table lists groups in on-disk order,
        exactly as --from renders it."""
        out = tmp_path / "grid"
        live, reloaded = tmp_path / "live.txt", tmp_path / "reloaded.txt"
        base = ["campaign", "--protocols", "htlc,weak", "--timing", "sync",
                "--topologies", "linear-2", "--trials", "2", "--out", str(out)]
        assert main(base + ["--adversaries", "none"]) == 0
        assert main(base + ["--adversaries", "none,bob-edge", "--resume",
                            "--output", str(live)]) == 0
        assert main(["campaign", "--from", str(out),
                     "--output", str(reloaded)]) == 0
        capsys.readouterr()
        assert live.read_bytes() == reloaded.read_bytes()
        rows = [line.split("|")[0:3] for line in live.read_text().splitlines()
                if line.startswith(("htlc", "weak"))]
        assert [[c.strip() for c in row] for row in rows] == [
            ["htlc", "sync", "none"], ["weak", "sync", "none"],
            ["htlc", "sync", "bob-edge"], ["weak", "sync", "bob-edge"],
        ]


class TestSharedUsageErrors:
    @pytest.mark.parametrize("command", ["campaign", "workload"])
    def test_resume_needs_out(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--resume"])
        assert exc.value.code == 2
        assert "needs --out" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["campaign", "workload"])
    def test_zero_jobs(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--jobs", "0"])
        assert exc.value.code == 2
        assert "--jobs must be >= 1" in capsys.readouterr().err


def test_run_stack_does_not_load_the_experiments():
    """Campaign, analyze and workload sit below the E1-E9 modules."""
    code = (
        "import sys, repro.scenarios, repro.analysis, repro.workload\n"
        "loaded = sorted(m for m in sys.modules\n"
        "                if m.startswith('repro.experiments.e'))\n"
        "print(','.join(loaded))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert done.stdout.strip() == ""
