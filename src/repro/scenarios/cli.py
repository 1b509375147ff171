"""``python -m repro campaign`` — run a declarative scenario matrix.

Usage::

    python -m repro campaign --protocols htlc,timebounded,weak \
        --timing sync,partial,async --adversaries none,delayer --trials 5
    python -m repro campaign --topologies linear-1,geom-5 --jobs 4
    python -m repro campaign --trials 20 --jobs 4 --out runs/big
    python -m repro campaign --from runs/big          # reload, no re-run
    python -m repro campaign --out runs/big --resume \
        --adversaries none,delayer,bob-edge           # grow the matrix
    python -m repro campaign --list-axes

Axis values are comma-separated registry names (see ``--list-axes``);
the cross-product of all axes times ``--trials`` Monte-Carlo
repetitions compiles to one sweep on the runtime, so ``--jobs N`` fans
trials out over a process pool and still renders a byte-identical
table.

``--out DIR`` streams every per-trial record to ``DIR/records.jsonl``
(+ a flat ``records.csv`` and a manifest) as the executor yields it;
``--from DIR`` reloads such a directory and reaggregates without
re-running anything — the table is byte-identical to the original
run's, so downstream analysis scales to matrix sizes where re-running
is not an option.

``--out DIR --resume`` makes campaigns *incremental*: the requested
cell cross-product is diffed against the records already persisted in
``DIR`` (cells are content-addressed by their grid coordinates — the
``derive_seed`` machinery makes a cell's seed a pure function of
them), only the missing cells execute, and their records append to
the same JSONL with the existing bytes untouched and the manifest's
``revision`` bumped.  Grow a matrix axis-by-axis across invocations;
an interrupted run resumes from its last complete record.  Slice the
result with ``python -m repro analyze DIR``.
"""

from __future__ import annotations

import argparse
from typing import List, Optional

from ..errors import PersistenceError, ScenarioError
from ..runtime import TrialError
from ..runtime.cli import (
    add_run_flags,
    check_run_flags,
    collect_overrides,
    csv_floats,
    csv_list,
    print_report,
    run_sweep_to,
    scan_resume,
)
from .campaign import (
    aggregate_campaign,
    diff_campaign,
    load_campaign,
    render_table,
)
from .registry import available_protocols, axis_descriptions
from .spec import CampaignSpec


def _trial_error_hint(skip_errors: bool, out_dir: Optional[str]) -> str:
    """The one recovery message both aggregation failure paths print."""
    hint = (
        "no trials survived to aggregate"
        if skip_errors
        else "use --skip-errors to aggregate the surviving trials"
    )
    if out_dir:
        hint += f"; the records are preserved in {out_dir}"
    return hint


def _print_axes() -> None:
    """One block per axis, names with their registry descriptions."""
    for axis, entries in axis_descriptions().items():
        print(f"{axis}:")
        width = max(len(name) for name in entries)
        for name, doc in entries.items():
            print(f"  {name.ljust(width)}  {doc}")
    print("(topology patterns resolve for any N >= 1, e.g. linear-7)")


def build_parser() -> argparse.ArgumentParser:
    """The campaign argument parser (walked by tools/check_docs.py)."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments campaign",
        description="Run a protocol x timing x adversary x topology matrix.",
    )
    # Matrix flags keep None as their parse-time default so an
    # explicitly passed value — under any argparse spelling, including
    # prefix abbreviations and -j4 — is distinguishable from "not
    # given"; the real defaults are filled in by campaign_main, after
    # the --from conflict check.
    parser.add_argument(
        "--protocols",
        type=csv_list,
        default=None,
        metavar="P1,P2",
        help=f"protocol axis (default: {','.join(available_protocols())})",
    )
    parser.add_argument(
        "--timing",
        "--timings",
        dest="timings",
        type=csv_list,
        default=None,
        metavar="T1,T2",
        help="timing-model axis (default: sync,partial,async)",
    )
    parser.add_argument(
        "--adversaries",
        type=csv_list,
        default=None,
        metavar="A1,A2",
        help="adversary axis (default: none)",
    )
    parser.add_argument(
        "--topologies",
        type=csv_list,
        default=None,
        metavar="G1,G2",
        help="topology axis (default: linear-3)",
    )
    parser.add_argument(
        "--trials", type=int, default=None, metavar="K",
        help="Monte-Carlo repetitions per matrix cell (default: 3)",
    )
    parser.add_argument(
        "--rho", type=csv_floats, default=None, metavar="R1,R2",
        help=(
            "clock-drift axis: one or more bounds (e.g. 0.0,0.1); the "
            "values enter the cell coordinates, so drift sweeps like "
            "any other axis (default: scalar 0 outside the grid)"
        ),
    )
    parser.add_argument(
        "--horizon", type=csv_floats, default=None, metavar="H1,H2",
        help=(
            "horizon axis: one or more global-time backstops (e.g. "
            "50,100); values enter the cell coordinates (default: "
            "per-protocol campaign defaults)"
        ),
    )
    add_run_flags(
        parser,
        unit="trial",
        out_help=(
            "stream per-trial records to DIR (records.jsonl + records.csv "
            "+ manifest.json), reloadable with --from"
        ),
        resume_help=(
            "with --out DIR: diff the requested matrix against the "
            "records already in DIR, run only the missing cells, and "
            "append them (existing records stay byte-identical; also "
            "repairs an interrupted --out run)"
        ),
    )
    parser.add_argument(
        "--from",
        dest="from_dir",
        metavar="DIR",
        default=None,
        help=(
            "reaggregate a --out directory instead of running trials "
            "(matrix flags conflict and are rejected; the table is "
            "byte-identical to the original run's)"
        ),
    )
    parser.add_argument(
        "--skip-errors",
        action="store_true",
        help=(
            "aggregate over successful trials when some failed (noted "
            "in the table) instead of aborting — the recovery path for "
            "an expensive --from directory"
        ),
    )
    parser.add_argument(
        "--list-axes",
        action="store_true",
        help="list registered axis values with descriptions and exit",
    )
    return parser


def _reaggregate(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    """``--from DIR``: render a persisted campaign, running nothing."""
    # Silently ignoring --trials/--protocols/... here would let a
    # stale table masquerade as the re-run the flags asked for.
    # Checked on the parsed namespace, so every argparse spelling
    # (abbreviations, -j4, --flag=value) is caught.
    conflicting = [
        flag
        for flag, value in (
            ("--protocols", args.protocols),
            ("--timing", args.timings),
            ("--adversaries", args.adversaries),
            ("--topologies", args.topologies),
            ("--trials", args.trials),
            ("--seed", args.seed),
            ("--rho", args.rho),
            ("--horizon", args.horizon),
            ("--set", args.overrides),
            ("--jobs", args.jobs),
            ("--chunksize", args.chunksize),
            ("--out", args.out),
            ("--resume", args.resume or None),
        )
        if value is not None
    ]
    if conflicting:
        parser.error(
            "--from reaggregates existing records and runs no "
            f"trials; drop {', '.join(conflicting)}"
        )
    try:
        result = load_campaign(args.from_dir, skip_errors=args.skip_errors)
    except TrialError as exc:
        # The persisted run had failed trials — loadable, but not
        # aggregatable without dropping them (and with nothing
        # left to drop to, not aggregatable at all).
        parser.error(f"{exc}\n({_trial_error_hint(args.skip_errors, None)})")
    except (PersistenceError, ScenarioError) as exc:
        parser.error(str(exc))
    print_report(
        render_table(result),
        f"(reaggregated {args.from_dir}, no trials re-run)",
        args,
    )
    return 0


def campaign_main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_axes:
        _print_axes()
        return 0
    if args.from_dir is not None:
        return _reaggregate(parser, args)

    jobs = check_run_flags(parser, args)
    # Only protocols/timings have CLI-level defaults; every other
    # matrix default lives once, on the CampaignSpec dataclass —
    # omitted flags simply aren't passed.
    matrix = {
        "protocols": args.protocols if args.protocols is not None
        else available_protocols(),
        "timings": args.timings if args.timings is not None
        else ["sync", "partial", "async"],
    }
    for field in ("adversaries", "topologies", "trials", "seed"):
        value = getattr(args, field)
        if value is not None:
            matrix[field] = value
    # rho/horizon arrive as value lists and become grid axes (their
    # values join the cell coordinates); omitting the flag keeps the
    # historical scalar behaviour — and the historical seeds.
    if args.rho is not None:
        matrix["rhos"] = args.rho
    if args.horizon is not None:
        matrix["horizons"] = args.horizon
    overrides = collect_overrides(args.overrides)
    if overrides:
        matrix["overrides"] = overrides

    try:
        campaign = CampaignSpec(**matrix)
        sweep = campaign.compile()
    except ScenarioError as exc:
        parser.error(str(exc))

    # --resume: diff the compiled matrix against what DIR already
    # holds; only the missing cells run, everything persisted is
    # reused (and kept byte-identical on disk).
    scan = None
    to_run = sweep
    if args.resume:
        scan, diff = scan_resume(
            parser, args.out, lambda records: diff_campaign(sweep, records)
        )
        to_run = diff.missing

    sweep_result, written = run_sweep_to(
        parser, args, jobs, sweep.sweep_id, to_run, resume_from=scan
    )
    if scan is not None:
        # Aggregate exactly what the directory now holds: persisted
        # records first (their on-disk order), new ones appended.
        sweep_result.records[:0] = scan.records
    try:
        result = aggregate_campaign(
            sweep_result,
            skip_errors=args.skip_errors,
            skipped=campaign.unsupported_cells(),
        )
    except TrialError as exc:
        parser.error(
            f"{exc}\n({_trial_error_hint(args.skip_errors, args.out)})"
        )
    if scan is not None:
        footer = (
            f"({len(to_run)} new trials run, {len(scan.records)} reused "
            f"from {args.out}, in {sweep_result.wall_seconds:.1f}s, "
            f"jobs={jobs})"
        )
    else:
        footer = (
            f"({len(sweep)} trials over {len(sweep) // campaign.trials} "
            f"cells in {sweep_result.wall_seconds:.1f}s, jobs={jobs})"
        )
    print_report(render_table(result), footer, args, written)
    return 0


__all__ = ["build_parser", "campaign_main"]
