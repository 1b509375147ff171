"""The sweep-execution runtime.

The layers, assembled bottom-up:

* :mod:`~repro.runtime.spec` — declarative :class:`TrialSpec` /
  :class:`SweepSpec` descriptions of Monte-Carlo sweeps, with
  collision-free per-trial seeds via :func:`derive_seed`;
* :mod:`~repro.runtime.executor` — pluggable :class:`Executor`
  strategies (:class:`SerialExecutor`, process-pool
  :class:`ParallelExecutor`) that run a sweep and always return
  records in spec order, keeping parallel runs byte-identical to
  serial ones;
* :mod:`~repro.runtime.aggregate` — :class:`TrialRecord` /
  :class:`SweepResult` containers the experiments reduce into their
  result tables;
* :mod:`~repro.runtime.persist` — streamed JSONL/CSV persistence for
  trial records (:class:`RecordWriter` as an executor ``sink``) and
  :func:`load_sweep_result` to reload and re-aggregate without
  re-running any trial;
* :mod:`~repro.runtime.tables` — the :class:`ExperimentResult` table
  every sweep reduces into, and its fixed-width renderer;
* :mod:`~repro.runtime.cli` — the run flags and run-to-directory loop
  the ``campaign`` and ``workload`` subcommands share, and the
  ``--output`` writer every subcommand and the experiment CLI use.

Every experiment module in :mod:`repro.experiments` is a thin
``build_sweep`` + ``aggregate`` pair on top of this package; E1, E3,
E4, E7 and E9 point their trials at the campaign trial and aggregate
through an ``analyze`` query, the others bring a trial function of
their own.  The CLI's ``--jobs`` flag and the ``REPRO_JOBS``
environment variable choose the executor.
"""

from .aggregate import SweepResult, TrialError, TrialRecord
from .executor import (
    Executor,
    JOBS_ENV_VAR,
    ParallelExecutor,
    SerialExecutor,
    default_jobs,
    resolve_executor,
    run_sweep,
    run_trial,
)
from .persist import (
    RecordWriter,
    ScanResult,
    iter_records,
    load_sweep_result,
    read_manifest,
    record_from_dict,
    record_to_dict,
    scan_records,
    write_sweep_result,
)
from .spec import SweepSpec, TrialSpec, derive_seed, resolve_trial_fn, trial_ref

__all__ = [
    "Executor",
    "JOBS_ENV_VAR",
    "ParallelExecutor",
    "RecordWriter",
    "ScanResult",
    "SerialExecutor",
    "SweepResult",
    "SweepSpec",
    "TrialError",
    "TrialRecord",
    "TrialSpec",
    "default_jobs",
    "derive_seed",
    "iter_records",
    "load_sweep_result",
    "read_manifest",
    "record_from_dict",
    "record_to_dict",
    "resolve_executor",
    "resolve_trial_fn",
    "run_sweep",
    "run_trial",
    "scan_records",
    "trial_ref",
    "write_sweep_result",
]
