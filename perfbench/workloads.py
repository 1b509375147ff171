"""The benchmark's four workloads, each a batch run in one process.

Every workload is split into *rounds*; round ``r`` is a pure function
of the benchmark seed and ``r`` (the program only ever sees the specs
generated here).  A timed run repeats rounds 0, 1, 2, ... until its
time is up; a traced run repeats round 0.  Each operation is timed in
process CPU time by :class:`Meter`, and its output is checked; a check
that fails counts the operation as failed.

* ``campaign`` — the ``campaign --out`` path: the full 144-cell
  scenario matrix through ``SerialExecutor.imap``, each record
  streamed into a ``RecordWriter``.  One operation is one trial.
* ``workload-sparse`` / ``workload-contended`` — ``run_workload_cell``
  for each protocol.  One operation is one round of four cells; its
  work units are their payments (refused payments included).
* ``analyze`` — one analyze command per operation over two campaign
  directories persisted during set-up.

Why each workload exists, and which layer metric should move on it,
is written down in ``perfbench/README.md``.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import statistics
import time
import traceback
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import repro.analysis as analysis
import repro.workload as workload
from repro.runtime import RecordWriter, SerialExecutor
from repro.scenarios import CampaignSpec

from calibrate import REFERENCE_SECONDS, reference_seconds

PROTOCOLS = ("htlc", "timebounded", "weak", "certified")
TIMINGS = ("sync", "partial", "async")
ADVERSARIES = ("none", "delayer", "bob-edge", "crash-restart")
TOPOLOGIES = ("linear-3", "tree-2", "fan-in-3")

#: CPU seconds of operations between two reference runs (each ~0.04 s).
CALIBRATE_EVERY = 0.25

#: Record columns that count kernel work rather than state an answer;
#: they stay out of the output digest so a change that only saves
#: events still computes "the same answers".
INTERNAL_COLUMNS = frozenset({"events", "kernel_events", "audited_ops"})


def bench_seed(*parts: Any) -> int:
    """A 63-bit seed derived from the benchmark seed and a path of labels."""
    digest = hashlib.blake2b(repr(parts).encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") >> 1


def campaign_spec(seed: int, trials: int) -> CampaignSpec:
    """The paper's scenario matrix: 4 x 3 x 4 x 3 = 144 cells."""
    return CampaignSpec(
        protocols=PROTOCOLS,
        timings=TIMINGS,
        adversaries=ADVERSARIES,
        topologies=TOPOLOGIES,
        trials=trials,
        seed=seed,
    )


class Meter:
    """Times operations and counts the ones that fail.

    ``units_by_op`` maps each operation index to its work units, which
    the traced run needs to turn span totals into per-op figures.
    After :meth:`finish`, ``samples`` holds one CPU-ms-per-work-unit
    value per successful operation and ``cpu_seconds`` their total.

    With ``calibrate`` set, the meter runs the reference workload of
    :mod:`calibrate` whenever ``CALIBRATE_EVERY`` CPU seconds of
    operations have passed, and :meth:`finish` multiplies each
    operation's time by ``REFERENCE_SECONDS`` over the median of the
    two reference times before it and the two after it.  The median
    keeps one reference run that was itself interrupted from rescaling
    its neighbours.
    """

    def __init__(self, tracer: Any = None, traced: bool = False,
                 calibrate: bool = False) -> None:
        self.tracer = tracer
        self.traced = traced
        self.calibrate = calibrate
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.units = 0
        self.units_by_op: Dict[int, int] = {}
        self.inflight_peak = 0
        self.raw_cpu_seconds = 0.0
        self.cpu_seconds = 0.0
        self.samples: List[float] = []
        self.references: List[float] = []
        # (CPU seconds, work units, references taken before it) per op.
        self._timed: List[Tuple[float, int, int]] = []
        self._since_reference = 0.0
        if calibrate:
            self.references.append(reference_seconds())

    def measure(self, fn: Callable[[], Any], units: int) -> Any:
        """Run ``fn()`` as one operation of ``units`` work units.

        Returns its result, or ``None`` when it raised (the operation
        is then counted as failed and contributes no sample).
        """
        op = self.attempted
        self.attempted += 1
        span = self.tracer.begin_op(op, self.traced) if self.tracer else None
        t0 = time.process_time()
        try:
            result = fn()
        except Exception:
            result = None
            self.fail(traceback.format_exc())
        dt = time.process_time() - t0
        if span is not None:
            self.tracer.end_op(span)
        if result is not None:
            self.units += units
            self.units_by_op[op] = units
            self.raw_cpu_seconds += dt
            self._timed.append((dt, units, len(self.references)))
            self._since_reference += dt
            if self.calibrate and self._since_reference >= CALIBRATE_EVERY:
                self.references.append(reference_seconds())
                self._since_reference = 0.0
        return result

    def finish(self) -> None:
        """Scale the operation times into ``samples`` and ``cpu_seconds``."""
        if self.calibrate and self._since_reference:
            self.references.append(reference_seconds())
        refs = self.references
        for dt, units, taken in self._timed:
            scale = 1.0
            if self.calibrate:
                scale = REFERENCE_SECONDS / statistics.median(
                    refs[max(0, taken - 2):taken + 2]
                )
            self.samples.append(dt * scale * 1e3 / units)
            self.cpu_seconds += dt * scale

    def fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append(problem)

    def check(self, problem: Optional[str]) -> None:
        """Count the last operation as failed when its check found a problem."""
        if problem is not None:
            self.fail(problem)


def _digest(digest: Optional[Any], payload: Any) -> None:
    if digest is not None:
        digest.update(json.dumps(payload, sort_keys=True, default=str).encode())
        digest.update(b"\n")


def _answer(values: Dict[str, Any]) -> Dict[str, Any]:
    return {k: v for k, v in values.items() if k not in INTERNAL_COLUMNS}


# -- campaign -------------------------------------------------------------------


def check_campaign_record(record: Any) -> Optional[str]:
    """Output check for one campaign record (None when it holds).

    Theorem 1: ``def1_ok`` holds for ``timebounded`` under ``sync``
    without a crash.  Theorem 3: ``def2_ok`` holds for ``weak`` and
    ``certified`` in every cell.
    """
    coords = record.spec.coords
    if not record.ok:
        return f"trial {coords} raised:\n{record.error}"
    values, options = record.values, record.spec.options
    if values["ledgers_ok"] is not True:
        return f"trial {coords}: ledger audit failed"
    if (
        options["protocol"] == "timebounded"
        and options["timing_name"] == "sync"
        and options["adversary"] in ("none", "delayer", "bob-edge")
        and values["def1_ok"] != 1
    ):
        return f"trial {coords}: Theorem 1 violated (def1_ok={values['def1_ok']})"
    if options["protocol"] in ("weak", "certified") and values["def2_ok"] != 1:
        return f"trial {coords}: Theorem 3 violated (def2_ok={values['def2_ok']})"
    return None


def persist_campaign(executor: Any, sweep: Any, out_dir: Path, meter: Meter,
                     digest: Any = None) -> List[Any]:
    """The ``campaign --out`` path; one measured operation per trial."""
    writer = RecordWriter(out_dir, sweep_id=sweep.sweep_id)
    records = []
    stream = executor.imap(sweep.trials)

    def trial() -> Any:
        record = next(stream)
        writer.write(record)
        return record

    t0 = time.perf_counter()
    for _ in sweep.trials:
        record = meter.measure(trial, 1)
        if record is None:
            continue
        meter.check(check_campaign_record(record))
        _digest(digest, [list(record.spec.coords), _answer(record.values)])
        records.append(record)
    writer.close(wall_seconds=time.perf_counter() - t0)
    return records


class Campaign:
    """Rounds of the full scenario matrix, one trial per cell."""

    name = "campaign"
    unit = "trials"

    def __init__(self, seed: int, scratch: Path) -> None:
        self.seed = seed
        self.scratch = scratch
        self.executor = SerialExecutor()

    def setup(self) -> None:
        # The warm pass builds every (protocol, topology) arena and
        # template cache, so round 0 is timed like every later round.
        self.run_round("warm", Meter())

    def run_round(self, r: Any, meter: Meter, digest: Any = None) -> None:
        sweep = campaign_spec(bench_seed(self.seed, self.name, r), trials=1).compile()
        out = self.scratch / f"{self.name}-{r}"
        persist_campaign(self.executor, sweep, out, meter, digest)
        shutil.rmtree(out)


# -- concurrent workloads --------------------------------------------------------


def inflight_peak(payments: Sequence[Dict[str, Any]]) -> int:
    """Most payments in flight at once, from ``arrival_time`` + ``latency``."""
    edges: List[Tuple[float, int]] = []
    for p in payments:
        if not p["liquidity_failed"]:
            edges.append((p["arrival_time"], 1))
            edges.append((p["arrival_time"] + p["latency"], -1))
    edges.sort()  # at equal times the -1 (a finish) sorts first
    peak = level = 0
    for _, step in edges:
        level += step
        peak = max(peak, level)
    return peak


class CellWorkload:
    """Rounds of one ``run_workload_cell`` per protocol.

    One operation is a whole round, the four cells back to back: a
    single cell's cost depends mostly on its protocol, so per-cell
    samples would cluster by protocol and their median would jump
    between clusters.  The round's work units are its payments.
    """

    unit = "payments"

    def __init__(self, name: str, seed: int, params: Dict[str, Any],
                 refusals_allowed: bool) -> None:
        self.name = name
        self.seed = seed
        self.params = params
        self.refusals_allowed = refusals_allowed

    def setup(self) -> None:
        # Small warm cells build the template caches before the first
        # timed round.
        self.run_round("warm", Meter(), count=4)

    def run_round(self, r: Any, meter: Meter, digest: Any = None,
                  count: Optional[int] = None) -> None:
        params = dict(self.params, count=count or self.params["count"])
        cells = [
            dict(params, protocol=protocol, seed=bench_seed(self.seed, self.name, r, protocol))
            for protocol in PROTOCOLS
        ]
        results = meter.measure(
            lambda: [workload.run_workload_cell(**cell) for cell in cells],
            params["count"] * len(cells),
        )
        if results is None:
            return
        problems = [self.check(result, params["count"]) for result in results]
        meter.check(next((p for p in problems if p is not None), None))
        for cell, result in zip(cells, results):
            meter.inflight_peak = max(meter.inflight_peak, inflight_peak(result["payments"]))
            summary = _answer({k: v for k, v in result.items() if k != "payments"})
            _digest(digest, [cell["protocol"], summary,
                             [_answer(p) for p in result["payments"]]])

    def check(self, result: Dict[str, Any], count: int) -> Optional[str]:
        payments = result["payments"]
        if len(payments) != count or any(p is None for p in payments):
            return f"{len(payments)} results for {count} payments"
        if result["conserved"] is not True:
            return "liquidity substrate not conserved"
        if result["in_flight_at_end"] != 0:
            return f"{result['in_flight_at_end']} payments in flight at the end"
        if not self.refusals_allowed and result["liquidity_failures"]:
            return f"{result['liquidity_failures']} payments refused despite ample liquidity"
        if any(p["ledgers_ok"] is not True for p in payments):
            return "a payment's ledger audit failed"
        return None


def workload_sparse(seed: int, scratch: Path) -> CellWorkload:
    # Liquidity far above what 36 in-flight linear-3 grants can hold,
    # so no payment is ever refused.
    return CellWorkload(
        "workload-sparse", seed,
        dict(count=36, load=0.02, arrivals="uniform",
             topology_mix=(("linear-3", 1.0),), liquidity=1_000_000),
        refusals_allowed=False,
    )


def workload_contended(seed: int, scratch: Path) -> CellWorkload:
    return CellWorkload(
        "workload-contended", seed,
        dict(count=50, load=2.0, arrivals="poisson",
             topology_mix=(("linear-3", 2.0), ("tree-2", 1.0), ("fan-in-3", 1.0)),
             liquidity=2000),
        refusals_allowed=True,
    )


# -- analyze -----------------------------------------------------------------------

#: Groupable campaign axes (``timing`` is the analyze alias of ``timing_name``).
GROUP_AXES = {"protocol": PROTOCOLS, "timing": TIMINGS,
              "adversary": ADVERSARIES, "topology": TOPOLOGIES}
COLUMN_OF = {"timing": "timing_name"}

#: Deterministic analyze metrics and the record column each one reads
#: (``mean_wall_seconds`` is left out: it reads measured time).
METRIC_COLUMNS = {
    "success": "bob_paid", "committed": "committed", "aborted": "aborted",
    "terminated": "all_terminated", "def1_ok": "def1_ok", "def2_ok": "def2_ok",
    "mean_latency": "latency", "p50_latency": "latency",
    "p90_latency": "latency", "p99_latency": "latency",
    "max_latency": "latency", "mean_msgs": "messages",
}

#: Trials per cell of each persisted directory: 144 x 4 = 576 rows.
ANALYZE_TRIALS = 4
COMMANDS_PER_ROUND = 10


def make_command(rng: random.Random) -> Dict[str, Any]:
    """One analyze command: full/projected analyze, or a diff."""
    kind = rng.choices(("full", "projected", "diff"), weights=(2, 2, 1))[0]
    group_by = rng.sample(sorted(GROUP_AXES), rng.randint(1, 3))
    where = {}
    if rng.random() < 0.5:
        column = rng.choice([c for c in sorted(GROUP_AXES) if c not in group_by])
        where[column] = rng.choice(GROUP_AXES[column])
    metrics = ["runs"] + rng.sample(sorted(METRIC_COLUMNS), rng.randint(1, 5))
    return {
        "kind": kind,
        "source": rng.choice("AB"),
        "against": rng.choice("AB"),
        "group_by": group_by,
        "where": where,
        "metrics": metrics,
    }


class Analyze:
    """Rounds of analyze commands over two persisted campaign directories."""

    name = "analyze"
    unit = "commands"

    def __init__(self, seed: int, scratch: Path) -> None:
        self.seed = seed
        self.scratch = scratch
        self.dirs: Dict[str, Path] = {}
        self.rows: Dict[str, List[Dict[str, Any]]] = {}

    def setup(self) -> None:
        executor = SerialExecutor()
        for side in "AB":
            sweep = campaign_spec(
                bench_seed(self.seed, self.name, side), trials=ANALYZE_TRIALS
            ).compile()
            meter = Meter()
            out = self.dirs[side] = self.scratch / f"{self.name}-{side}"
            records = persist_campaign(executor, sweep, out, meter)
            if meter.failed:
                raise RuntimeError(
                    f"set-up campaign {side} failed:\n{meter.problems[0]}"
                )
            self.rows[side] = [
                {axis: r.spec.options[COLUMN_OF.get(axis, axis)] for axis in GROUP_AXES}
                for r in records
            ]
        self.run_round("warm", Meter())

    def run_round(self, r: Any, meter: Meter, digest: Any = None) -> None:
        rng = random.Random(bench_seed(self.seed, self.name, r))
        for _ in range(COMMANDS_PER_ROUND):
            command = make_command(rng)
            table = meter.measure(lambda: self.execute(command), 1)
            if table is None:
                continue
            meter.check(self.check(command, table))
            _digest(digest, [command, table.rows])

    def execute(self, command: Dict[str, Any]) -> Any:
        query = dict(group_by=command["group_by"], where=command["where"],
                     metrics=command["metrics"])
        store = analysis.RecordStore
        source = self.dirs[command["source"]]
        if command["kind"] == "diff":
            return analysis.diff_stores(
                store.load(source), store.load(self.dirs[command["against"]]), **query
            )
        columns = None
        if command["kind"] == "projected":
            needed = list(command["group_by"]) + list(command["where"])
            needed += [METRIC_COLUMNS[m] for m in command["metrics"] if m != "runs"]
            columns = sorted({COLUMN_OF.get(c, c) for c in needed})
        return analysis.analyze_store(store.load(source, columns=columns), **query)

    def expected_runs(self, side: str, command: Dict[str, Any]) -> Dict[tuple, int]:
        """Per-group trial counts, counted directly over the records."""
        counts: Dict[tuple, int] = {}
        for row in self.rows[side]:
            if all(row[c] == v for c, v in command["where"].items()):
                key = tuple(row[g] for g in command["group_by"])
                counts[key] = counts.get(key, 0) + 1
        return counts

    def check(self, command: Dict[str, Any], table: Any) -> Optional[str]:
        group_by = command["group_by"]
        keyed = {tuple(row[g] for g in group_by): row for row in table.rows}
        if command["kind"] != "diff":
            runs = {key: row["runs"] for key, row in keyed.items()}
            if runs != self.expected_runs(command["source"], command):
                return f"group counts differ from a direct count for {command}"
            return None
        if set(keyed) != set(self.expected_runs(command["source"], command)):
            return f"diff groups differ from the directory's groups for {command}"
        for row in table.rows:
            if row["status"] != "both" or row["runs"] != 0:
                return f"diff of two equal-shaped matrices flags {row}"
            if command["source"] == command["against"] and any(
                isinstance(row[m], (int, float)) and row[m] != 0
                for m in command["metrics"]
            ):
                return f"self-diff has a non-zero delta: {row}"
        return None


WORKLOADS: Dict[str, Callable[[int, Path], Any]] = {
    "campaign": Campaign,
    "workload-sparse": workload_sparse,
    "workload-contended": workload_contended,
    "analyze": Analyze,
}
