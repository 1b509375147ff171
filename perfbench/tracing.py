"""In-memory span tracing around the program's public layer entry points.

The program has no tracing of its own, so the traced run wraps the
public calls into each layer from here: class methods are swapped on
their class, module-level functions are swapped in every ``repro``
module that holds them (callers that did ``from x import f`` keep a
reference of their own).  :meth:`Tracer.install` puts the wrappers in,
:meth:`Tracer.uninstall` restores the originals, so the untraced
passes of a traced run execute exactly the code the timed runs do.

A span is ``[id, parent id, name, op, start ns, end ns, outermost,
value]``.  ``op`` is the benchmark operation the span belongs to,
``outermost`` says no span of the same layer group encloses it (so a
nested ``analyze_store`` inside ``diff_stores`` is not counted twice),
and ``value`` carries the count recorded at that boundary: kernel
events executed by ``Simulator.run``, rows returned by
``RecordStore.load``, and the verdict of ``LiquiditySubstrate.admit``.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (module, class or None, attribute, span name, layer group, value hook).
#: A value hook is ``(pre(args) -> token, post(args, result, token) -> int)``.
_EVENTS = (
    lambda args: args[0].executed_events,
    lambda args, result, pre: args[0].executed_events - pre,
)
_ROWS = (lambda args: None, lambda args, result, pre: len(result))
_VERDICT = (lambda args: None, lambda args, result, pre: int(bool(result)))

_LEDGER = ("repro.ledger.ledger", "Ledger")
_CHAIN = ("repro.ledger.blockchain", "SimpleChain")
_SESSION = ("repro.core.session", "PaymentSession")
_SIGNATURES = ("repro.crypto.signatures", None)
_QUERY = ("repro.analysis.query", None)

TARGETS: Tuple[Tuple[str, Optional[str], str, str, str, Any], ...] = (
    ("repro.sim.kernel", "Simulator", "run", "sim.run", "sim", _EVENTS),
    ("repro.net.network", "Network", "send", "net.send", "net", None),
    (*_SIGNATURES, "sign", "crypto.sign", "crypto", None),
    (*_SIGNATURES, "verify", "crypto.verify", "crypto", None),
    (*_LEDGER, "escrow_deposit", "ledger.escrow_deposit", "ledger.escrow", None),
    (*_LEDGER, "escrow_release", "ledger.escrow_release", "ledger.escrow", None),
    (*_LEDGER, "escrow_refund", "ledger.escrow_refund", "ledger.escrow", None),
    (*_CHAIN, "on_timer", "ledger.block_tick", "ledger.chain", None),
    (*_CHAIN, "submit", "ledger.submit", "ledger.chain", None),
    (*_SESSION, "launch", "core.launch", "core.launch", None),
    (*_SESSION, "collect", "core.collect", "core.collect", None),
    ("repro.verification.properties", None, "property_columns",
     "verification.check", "verification", None),
    ("repro.runtime.persist", "RecordWriter", "write",
     "runtime.write", "runtime.write", None),
    ("repro.analysis.store", "RecordStore", "load",
     "runtime.load", "runtime.load", _ROWS),
    (*_QUERY, "analyze_store", "analysis.analyze_store", "analysis", None),
    (*_QUERY, "diff_stores", "analysis.diff_stores", "analysis", None),
    ("repro.workload.substrate", "LiquiditySubstrate", "admit",
     "workload.admit", "workload.admit", _VERDICT),
)

#: The benchmark's own per-operation span; the root of every other span.
OP_SPAN = "bench.op"

# Span field indices.
SID, PARENT, NAME, OP, START, END, OUTER, VALUE = range(8)


class Tracer:
    """Span recorder; spans stay in memory until :meth:`write`."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.op = -1
        self._stack: List[int] = [0]
        self._active: Dict[str, int] = defaultdict(int)
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- the benchmark's own operation spans -------------------------------

    def begin_op(self, op: int, traced: bool) -> list:
        """Open the root span of operation ``op`` (value: traced flag)."""
        self.op = op
        span = [len(self.spans) + 1, 0, OP_SPAN, op, 0, 0, True, int(traced)]
        self.spans.append(span)
        self._stack.append(span[SID])
        span[START] = time.perf_counter_ns()
        return span

    def end_op(self, span: list) -> None:
        span[END] = time.perf_counter_ns()
        self._stack.pop()

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, fn: Callable, name: str, group: str, hook: Any) -> Callable:
        spans, stack, active = self.spans, self._stack, self._active
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            outer = active[group] == 0
            active[group] += 1
            span = [len(spans) + 1, stack[-1], name, tracer.op, 0, 0, outer, 0]
            spans.append(span)
            stack.append(span[SID])
            try:
                if hook is None:
                    span[START] = clock()
                    return fn(*args, **kwargs)
                pre = hook[0](args)
                span[START] = clock()
                result = fn(*args, **kwargs)
                span[END] = clock()
                span[VALUE] = hook[1](args, result, pre)
                return result
            finally:
                if not span[END]:
                    span[END] = clock()
                stack.pop()
                active[group] -= 1

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        """Swap every target for its tracing wrapper."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for module_name, class_name, attr, name, group, hook in TARGETS:
            module = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(module, class_name)
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapper: Any = classmethod(self._wrap(raw.__func__, name, group, hook))
                else:
                    wrapper = self._wrap(raw, name, group, hook)
                self._patches.append((owner, attr, raw))
                setattr(owner, attr, wrapper)
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, name, group, hook)
            for holder in list(sys.modules.values()):
                holder_name = getattr(holder, "__name__", "") or ""
                if holder_name.split(".")[0] != "repro":
                    continue
                if getattr(holder, attr, None) is original:
                    self._patches.append((holder, attr, original))
                    setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every original (reverse order of installation)."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output -----------------------------------------------------------------

    def write(self, path) -> None:
        """Write the spans as CSV: id,parent,name,op,start_ns,end_ns,outer,value."""
        t0 = self.spans[0][START] if self.spans else 0
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("id,parent,name,op,start_ns,end_ns,outer,value\n")
            for s in self.spans:
                handle.write(
                    f"{s[SID]},{s[PARENT]},{s[NAME]},{s[OP]},{s[START] - t0},"
                    f"{s[END] - t0},{int(s[OUTER])},{s[VALUE]}\n"
                )


def layer_metrics(
    spans: List[list], units_by_op: Dict[int, int], extra: Dict[str, float]
) -> Dict[str, float]:
    """Per-layer metrics from the spans of the *traced* operations.

    ``units_by_op`` maps each operation that completed to its work
    units (1 per trial or analyze command, the payments of a workload
    round); "per op" metrics divide by the traced operations' sum.  Times are
    span wall time in ms; ``sim.run_self_ms_per_op`` is ``Simulator.run``
    minus the time its direct child spans cover.
    """
    traced_ops = {
        s[OP] for s in spans if s[NAME] == OP_SPAN and s[VALUE] == 1
    }
    units = sum(units_by_op.get(op, 0) for op in traced_ops) or 1
    count: Dict[str, int] = defaultdict(int)
    total_ns: Dict[str, int] = defaultdict(int)  # outermost per group
    value: Dict[str, int] = defaultdict(int)
    child_ns: Dict[int, int] = defaultdict(int)
    for s in spans:
        if s[OP] not in traced_ops or s[NAME] == OP_SPAN:
            continue
        duration = s[END] - s[START]
        count[s[NAME]] += 1
        value[s[NAME]] += s[VALUE]
        child_ns[s[PARENT]] += duration
        if s[OUTER]:
            total_ns[s[NAME]] += duration
    sim_self_ns = sum(
        (s[END] - s[START]) - child_ns[s[SID]]
        for s in spans
        if s[NAME] == "sim.run" and s[OP] in traced_ops
    )

    def ms(*names: str) -> float:
        return sum(total_ns[n] for n in names) / 1e6

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    ticks = count["ledger.block_tick"]
    writes = count["runtime.write"]
    rows = value["runtime.load"]
    metrics = {
        "sim.events_per_op": value["sim.run"] / units,
        "sim.run_self_ms_per_op": sim_self_ns / 1e6 / units,
        "ledger.block_ticks_per_op": ticks / units,
        "ledger.txs_per_block": ratio(count["ledger.submit"], ticks),
        "ledger.chain_ms_per_op": ms("ledger.block_tick", "ledger.submit") / units,
        "ledger.escrow_ops_per_op": (
            count["ledger.escrow_deposit"]
            + count["ledger.escrow_release"]
            + count["ledger.escrow_refund"]
        ) / units,
        "net.sends_per_op": count["net.send"] / units,
        "net.send_ms_per_op": ms("net.send") / units,
        "crypto.sign_per_op": count["crypto.sign"] / units,
        "crypto.verify_per_op": count["crypto.verify"] / units,
        "crypto.ms_per_op": ms("crypto.sign", "crypto.verify") / units,
        "core.launch_ms_per_op": ms("core.launch") / units,
        "core.collect_ms_per_op": ms("core.collect") / units,
        "verification.check_ms_per_op": ms("verification.check") / units,
        "runtime.write_ms_per_record": ratio(ms("runtime.write"), writes),
        "runtime.load_ms_per_krow": ratio(ms("runtime.load"), rows / 1000),
        "analysis.query_ms_per_cmd": (
            ms("analysis.analyze_store", "analysis.diff_stores") / units
        ),
        "workload.admit_ok_frac": ratio(
            value["workload.admit"], count["workload.admit"]
        ),
    }
    op_ns = {True: 0, False: 0}
    for s in spans:
        if s[NAME] == OP_SPAN:
            op_ns[s[VALUE] == 1] += s[END] - s[START]
    metrics["trace.overhead_frac"] = ratio(op_ns[True], op_ns[False]) - 1.0
    metrics.update(extra)
    return metrics


#: Unit of every metric :func:`layer_metrics` returns.
UNITS = {
    "sim.events_per_op": "count",
    "sim.run_self_ms_per_op": "ms",
    "ledger.block_ticks_per_op": "count",
    "ledger.txs_per_block": "ratio",
    "ledger.chain_ms_per_op": "ms",
    "ledger.escrow_ops_per_op": "count",
    "net.sends_per_op": "count",
    "net.send_ms_per_op": "ms",
    "crypto.sign_per_op": "count",
    "crypto.verify_per_op": "count",
    "crypto.ms_per_op": "ms",
    "core.launch_ms_per_op": "ms",
    "core.collect_ms_per_op": "ms",
    "verification.check_ms_per_op": "ms",
    "runtime.write_ms_per_record": "ms",
    "runtime.load_ms_per_krow": "ms",
    "analysis.query_ms_per_cmd": "ms",
    "workload.admit_ok_frac": "frac",
    "workload.inflight_peak": "count",
    "trace.overhead_frac": "frac",
}
