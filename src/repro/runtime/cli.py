"""Command-line plumbing shared by ``repro campaign`` and ``repro workload``.

Both subcommands parse the same run flags, run a compiled sweep on an
executor, stream its records to an ``--out`` directory (growing one
with ``--resume``) under one manifest, and print a table (also to
``--output``).  All of that lives here.  What differs stays with the
caller: how a resume diffs the request against persisted records, and
how records reduce to a table.  ``repro analyze`` and the experiment
CLI write their ``--output`` files through :func:`write_output` too.
"""

from __future__ import annotations

import argparse
import json
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from ..errors import PersistenceError, ScenarioError
from .aggregate import SweepResult, TrialRecord
from .executor import default_jobs, resolve_executor
from .persist import RecordWriter, ScanResult, scan_records
from .spec import SweepSpec


def csv_list(value: str) -> List[str]:
    """Split a comma-separated list, dropping empty entries."""
    return [item.strip() for item in value.split(",") if item.strip()]


def csv_floats(value: str) -> List[float]:
    """A comma-separated list of floats (``0.0,0.1``)."""
    try:
        return [float(item) for item in csv_list(value)]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {value!r}"
        ) from None


def parse_set(value: str) -> Tuple[str, str, Any]:
    """Parse one ``--set protocol.option=value`` assignment.

    The value is read as JSON when possible (``30`` → int, ``true`` →
    bool, ``[1,2]`` → list) and kept as a string otherwise, so option
    types round-trip through the persisted records unchanged.
    """
    assignment, sep, raw = value.partition("=")
    target, dot, option = assignment.partition(".")
    if not sep or not dot or not target or not option:
        raise argparse.ArgumentTypeError(
            f"expected protocol.option=value, got {value!r}"
        )
    try:
        parsed: Any = json.loads(raw)
    except json.JSONDecodeError:
        parsed = raw
    return target, option, parsed


def collect_overrides(
    assignments: Optional[List[Tuple[str, str, Any]]]
) -> Dict[str, Dict[str, Any]]:
    """Fold repeated ``--set`` flags into {protocol: {option: value}}."""
    overrides: Dict[str, Dict[str, Any]] = {}
    for protocol, option, value in assignments or []:
        overrides.setdefault(protocol, {})[option] = value
    return overrides


def add_run_flags(
    parser: argparse.ArgumentParser, unit: str, out_help: str, resume_help: str
) -> None:
    """``--seed``, ``--set``, ``--jobs``/``-j``, ``--chunksize``,
    ``--out``, ``--resume`` and ``--output``.

    ``unit`` names what one executor task runs (``trial``, ``cell``).
    Every flag parses to ``None`` (``False`` for ``--resume``) when
    not given, so a caller can tell an explicit value from a default.
    """
    parser.add_argument(
        "--seed", type=int, default=None, help="master seed (default: 0)"
    )
    parser.add_argument(
        "--set",
        dest="overrides",
        type=parse_set,
        action="append",
        default=None,
        metavar="PROTO.OPT=VAL",
        help=(
            "per-cell protocol-option override, repeatable (e.g. --set "
            "weak.patience_setup=30); recorded in every affected "
            "record's options and in the --out manifest, so --resume's "
            "option-mismatch check covers it"
        ),
    )
    parser.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=None,
        metavar="N",
        help=(
            f"worker processes over {unit}s (default: $REPRO_JOBS or 1; "
            "the table and the records are byte-identical whatever N)"
        ),
    )
    parser.add_argument(
        "--chunksize",
        type=int,
        default=None,
        metavar="C",
        help=(
            f"{unit}s per worker batch for parallel runs (default: "
            "$REPRO_CHUNKSIZE, else ~4 batches per worker); the chosen "
            "value is recorded in the --out manifest; ignored when "
            "running serially"
        ),
    )
    parser.add_argument("--out", metavar="DIR", default=None, help=out_help)
    parser.add_argument("--resume", action="store_true", help=resume_help)
    parser.add_argument(
        "--output",
        metavar="FILE",
        default=None,
        help="also write the rendered table to FILE",
    )


def check_run_flags(
    parser: argparse.ArgumentParser, args: argparse.Namespace
) -> int:
    """Validate the run flags; return the job count to run with."""
    jobs = args.jobs if args.jobs is not None else default_jobs()
    if jobs < 1:
        parser.error(f"--jobs must be >= 1, got {jobs}")
    if args.chunksize is not None and args.chunksize < 1:
        parser.error(f"--chunksize must be >= 1, got {args.chunksize}")
    if args.resume and not args.out:
        parser.error("--resume grows a persisted directory and needs --out DIR")
    return jobs


def scan_resume(
    parser: argparse.ArgumentParser,
    out_dir: str,
    diff: Callable[[List[TrialRecord]], Any],
) -> Tuple[ScanResult, Any]:
    """Scan ``out_dir`` and diff its records with the caller's policy."""
    try:
        scan = scan_records(out_dir)
        return scan, diff(scan.records)
    except (PersistenceError, ScenarioError) as exc:
        parser.error(str(exc))


def run_sweep_to(
    parser: argparse.ArgumentParser,
    args: argparse.Namespace,
    jobs: int,
    sweep_id: str,
    to_run: SweepSpec,
    resume_from: Optional[ScanResult] = None,
    expand: Optional[Callable[[TrialRecord], Iterable[TrialRecord]]] = None,
    extra: Optional[Dict[str, Any]] = None,
) -> Tuple[SweepResult, Optional[int]]:
    """Run ``to_run``; with ``--out``, stream its records to disk.

    Each executor record is written as it arrives, or, given
    ``expand``, the records it expands to.  On success the writer's
    manifest carries ``jobs``, the ``chunksize`` the pool used (if
    any), the ``--set`` overrides (if any) and ``extra``.  Returns the
    executor's result and the directory's record count (``None``
    without ``--out``).
    """
    with resolve_executor(jobs=jobs, chunksize=args.chunksize) as executor:
        if not args.out:
            return executor.run(to_run), None
        try:
            writer = RecordWriter(
                args.out, sweep_id=sweep_id, resume_from=resume_from
            )
        except OSError as exc:
            parser.error(f"cannot write records to {args.out}: {exc}")
        except PersistenceError as exc:
            parser.error(str(exc))

        def sink(record: TrialRecord) -> None:
            for item in expand(record) if expand else (record,):
                writer.write(item)

        # The writer holds at most the error rows seen before the first
        # success (see RecordWriter), never the sweep.
        with writer:
            result = executor.run(to_run, sink=sink)
            manifest: Dict[str, Any] = {}
            overrides = collect_overrides(args.overrides)
            if overrides:
                manifest["option_overrides"] = overrides
            # The chunksize the pool actually used (None for serial or
            # single-task runs): part of the run's provenance, like jobs.
            chunksize = getattr(executor, "last_chunksize", None)
            if chunksize is not None:
                manifest["chunksize"] = chunksize
            manifest.update(extra or {})
            writer.close(
                wall_seconds=result.wall_seconds, jobs=jobs, extra=manifest
            )
        return result, writer.count


def write_output(text: str, path: str) -> None:
    """Write a rendered report to the ``--output`` file."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text + "\n")
    print(f"wrote {path}")


def print_report(
    table: str, footer: str, args: argparse.Namespace, written: Optional[int] = None
) -> None:
    """Print a run's table and footer, then write ``--output``.

    Only the table reaches the file: it stays byte-identical across
    ``--jobs`` values and between a run and its ``--from`` reload,
    which the footer's wall clock and job count would not.
    """
    print(table)
    print(footer)
    if written is not None:
        print(f"wrote {written} records to {args.out}")
    if args.output:
        write_output(table, args.output)


def cli_flags(parser: argparse.ArgumentParser) -> List[str]:
    """Every long option ``parser`` accepts (for the docs check)."""
    flags = {opt for action in parser._actions for opt in action.option_strings}
    return sorted(f for f in flags if f.startswith("--") and f != "--help")


__all__ = [
    "add_run_flags",
    "check_run_flags",
    "cli_flags",
    "collect_overrides",
    "csv_floats",
    "csv_list",
    "parse_set",
    "print_report",
    "run_sweep_to",
    "scan_resume",
    "write_output",
]
