"""Columnar record store: persisted trial records as typed columns.

Per-trial analytics ask column-shaped questions — "latency of every
run where ``topology=geom-4``", "distinct protocols" — against
directories holding thousands to millions of
:class:`~repro.runtime.aggregate.TrialRecord` rows.  Keeping those
records as a list of dicts makes every such question a full scan over
Python objects; this module instead transposes them **once** into a
:class:`RecordStore` of named :class:`Column` arrays:

* scalar spec options (``protocol``, ``topology``, ``rho``, ...) and
  scalar trial values (``bob_paid``, ``latency``, ...) each become one
  column; non-scalar ones become one column of compact JSON strings;
* uniformly-typed numeric columns compact into ``array.array`` typed
  arrays (``'d'`` for floats, ``'q'`` for ints) — one machine word per
  cell instead of one boxed object;
* bookkeeping rides along as the ``seed``, ``wall_seconds``, ``ok``,
  and ``error`` columns, so failed trials stay visible (and countable)
  without poisoning the value columns, which hold ``None`` for them.

One column builder does the transpose, fed ``(seed, options, values,
error, wall_seconds)`` rows either straight from the JSON dicts of a
persisted directory (:meth:`RecordStore.load`) or from in-memory
records (:meth:`RecordStore.from_records`), so both give the same
store.  It moves runs of same-shaped rows into the columns a batch at
a time, resolves column names once per batch, and JSON-encodes
each distinct non-scalar cell once.

The query layer (:mod:`repro.analysis.query`) works on row-index
subsets of a store, so filtering and grouping never copy column data.

>>> store = RecordStore.load(out_dir)            # a --out directory
>>> store.column("protocol")[:2]
['htlc', 'htlc']
>>> store.distinct("timing_name")
['sync', 'partial']
"""

from __future__ import annotations

import json
from array import array
from operator import itemgetter
from pathlib import Path
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..errors import PersistenceError
from ..runtime.aggregate import TrialRecord
from ..runtime.persist import (
    _RESERVED_COLUMNS,
    column_names,
    iter_record_dicts,
    read_manifest,
    scan_records,
)

#: Columns the store itself owns: the CSV writer's reserved names
#: (shared with persist.flatten_record through persist.column_names, so
#: option/value keys collide and prefix identically in both views) plus
#: ``ok``, which only the store materialises as a column.
_STORE_RESERVED = _RESERVED_COLUMNS + ("ok",)


#: The fields of a persisted record dict that the column builder reads.
_ROW_FIELDS = itemgetter("seed", "options", "values", "error", "wall_seconds")

#: A row's key shape: its option keys and its value keys, in order.
Shape = Tuple[tuple, tuple]

#: Cells of these types are stored as-is; any other cell is embedded
#: as compact JSON.  ``_SCALAR_TYPES`` is the exact-type fast path,
#: ``_SCALARS`` the ``isinstance`` rule it stands for (``bool`` is an
#: ``int``, and a ``float`` subclass is a float cell too).
_SCALARS = (str, int, float, type(None))
_SCALAR_TYPES = frozenset((str, int, float, bool, type(None)))

#: Most rows one batch of the column builder holds (see _build).
_BATCH_ROWS = 1024


class _ColumnBuilder:
    """Batches of same-shape rows in, column lists out.

    :meth:`add` transposes a batch with ``zip`` in one go: column names
    are resolved once per batch, not per cell, and a batch column is
    scanned for non-scalar cells once.  Each distinct non-scalar cell is
    JSON-encoded once per build, through a memo keyed on ``repr``, not
    on ``==``: ``[1]``, ``[1.0]`` and ``[True]`` are equal but encode
    differently, while equal ``repr`` means equal JSON for plain data.
    """

    def __init__(self, columns: Optional[Sequence[str]]) -> None:
        self.wanted = None if columns is None else set(columns)
        self.cells: Dict[str, List[Any]] = {}  # kept columns, first-seen
        self.offered: Dict[str, None] = {}  # every projectable column
        self.count = 0
        self._encoded: Dict[str, str] = {}

    def add(self, shape: Shape, batch: List[tuple]) -> None:
        """Append rows whose option then value cells follow ``shape``."""
        cells, count = self.cells, self.count
        names = column_names(*shape, _STORE_RESERVED)
        for name, column in zip(names, zip(*batch)):
            self.offered[name] = None
            if self.wanted is not None and name not in self.wanted:
                continue
            data = cells.get(name)
            if data is None:
                data = cells[name] = [None] * count
            if not _SCALAR_TYPES.issuperset(map(type, column)):
                column = [self._cell(value) for value in column]
            data.extend(column)
        self.count = count = count + len(batch)
        for data in cells.values():  # pad the columns this shape lacks
            if len(data) < count:
                data.extend([None] * (count - len(data)))

    def _cell(self, value: Any) -> Any:
        if isinstance(value, _SCALARS):
            return value
        key = repr(value)
        text = self._encoded.get(key)
        if text is None:
            text = self._encoded[key] = json.dumps(value)
        return text


#: Column kinds by the one type a column's non-``None`` cells share.
_KINDS = {float: "float", int: "int", bool: "bool", str: "str"}

#: ``array.array`` typecodes of the kinds stored as typed arrays.
_TYPECODES = {"float": "d", "int": "q"}


class Column:
    """One named, typed column of a :class:`RecordStore`.

    ``kind`` is ``"float"`` / ``"int"`` / ``"bool"`` / ``"str"`` for
    columns whose non-``None`` values share one type, ``"object"``
    for mixed columns — a column's type is a fact about its data, not
    a schema declaration.  ``None`` cells (a failed trial's value
    columns) do not change a column's kind, so ``--where`` keeps
    parsing literals against the real value type; they do force
    list-backed storage, since typed ``array.array`` data (used for
    gap-free ``float``/``int`` columns) cannot hold ``None``.
    """

    __slots__ = ("name", "kind", "data")

    def __init__(self, name: str, values: Sequence[Any]) -> None:
        self.name = name
        types = set(map(type, values))
        gapped = type(None) in types
        types.discard(type(None))
        only = types.pop() if len(types) == 1 else None
        self.kind = _KINDS.get(only, "object")
        typecode = None if gapped else _TYPECODES.get(self.kind)
        self.data: Sequence[Any] = (
            array(typecode, values) if typecode else list(values)
        )

    def __len__(self) -> int:
        return len(self.data)

    def __getitem__(self, index: int) -> Any:
        return self.data[index]

    def __iter__(self):
        return iter(self.data)

    def take(self, indices: Iterable[int]) -> List[Any]:
        """The column's values at ``indices``, in that order."""
        data = self.data
        return [data[i] for i in indices]

    def parse(self, text: str) -> Any:
        """Parse a CLI literal into this column's value type.

        ``--where rho=0.25`` arrives as the string ``"0.25"``; matching
        it against a float column requires the float.  Unparseable
        literals raise ``ValueError`` with the expectation named.
        """
        if self.kind == "float":
            return float(text)
        if self.kind == "int":
            return int(text)
        if self.kind == "bool":
            lowered = text.strip().lower()
            if lowered in ("true", "yes", "1"):
                return True
            if lowered in ("false", "no", "0"):
                return False
            raise ValueError(f"expected a boolean, got {text!r}")
        return text

    def __repr__(self) -> str:
        return f"Column({self.name!r}, kind={self.kind!r}, n={len(self)})"


class RecordStore:
    """Trial records transposed into named columns, rows addressable.

    Build one with :meth:`from_records` (any in-memory record list) or
    :meth:`load` (a persisted ``--out`` directory).  Row order is the
    records' order — for a persisted campaign that is spec order, which
    is what lets aggregates over a store match the campaign table.
    """

    def __init__(
        self,
        columns: Dict[str, Column],
        length: int,
        sweep_id: str = "sweep",
        source: Optional[str] = None,
    ) -> None:
        self.columns = columns
        self.length = length
        self.sweep_id = sweep_id
        self.source = source

    @classmethod
    def from_records(
        cls,
        records: Iterable[TrialRecord],
        sweep_id: str = "sweep",
        source: Optional[str] = None,
        columns: Optional[Sequence[str]] = None,
    ) -> "RecordStore":
        """Transpose in-memory records into columns.

        Feeds each record's ``(seed, options, values, error,
        wall_seconds)`` to the same column builder that :meth:`load`
        feeds straight from decoded JSON, so a store built here equals
        the store loaded from the records' persisted directory — same
        columns, order, kinds and cells.  Missing cells become
        ``None``; non-scalar options/values (timing descriptors,
        option dicts) are embedded as compact JSON strings, mirroring
        the CSV view; every failed trial contributes ``None`` to each
        value column and its traceback to the ``error`` column.

        ``records`` may be any iterable; the transpose is one pass.
        ``columns`` projects the store onto just those option/value
        columns; the bookkeeping columns (``seed``, ``wall_seconds``,
        ``ok``, ``error``) always materialise, and a requested column
        no record carries raises, naming what the records offered.
        """
        rows = (
            (r.spec.seed, r.spec.options, r.values, r.error, r.wall_seconds)
            for r in records
        )
        return cls._build(rows, sweep_id, source, columns)

    @classmethod
    def load(
        cls,
        in_dir: Union[str, Path],
        partial: bool = False,
        columns: Optional[Sequence[str]] = None,
    ) -> "RecordStore":
        """Load a persisted sweep directory into a store.

        By default the directory must be complete (manifest present and
        consistent — exactly :func:`~repro.runtime.persist.load_sweep_result`'s
        contract).  Its lines stream through
        :func:`~repro.runtime.persist.iter_record_dicts` into the
        column builder as decoded dicts: no per-row spec or record
        object is built, and only the columns ever hold the whole
        directory.  ``partial=True`` instead salvages whatever
        complete records ``records.jsonl`` holds, manifest or not —
        the read-only lens on an interrupted campaign — and builds the
        same columns through :meth:`from_records`.  ``columns``
        projects the store (see :meth:`from_records`): a large
        directory queried for two columns pays for two columns.
        """
        in_dir = Path(in_dir)
        if partial:
            scan = scan_records(in_dir)
            if not scan.records:
                raise PersistenceError(
                    f"{in_dir} holds no loadable records"
                )
            return cls.from_records(
                scan.records,
                sweep_id=scan.sweep_id,
                source=str(in_dir),
                columns=columns,
            )
        manifest = read_manifest(in_dir)
        return cls._build(
            map(_ROW_FIELDS, iter_record_dicts(in_dir)),
            manifest.get("sweep_id", "sweep"),
            str(in_dir),
            columns,
        )

    @classmethod
    def _build(
        cls,
        rows: Iterable[tuple],
        sweep_id: str,
        source: Optional[str],
        columns: Optional[Sequence[str]],
    ) -> "RecordStore":
        """The one transpose behind :meth:`from_records` and :meth:`load`.

        ``rows`` are ``(seed, options, values, error, wall_seconds)``
        tuples.  Runs of consecutive rows with one key shape go to a
        :class:`_ColumnBuilder` in batches of at most ``_BATCH_ROWS``,
        so a streamed directory never holds more than one batch of row
        tuples besides its columns.
        """
        builder = _ColumnBuilder(columns)
        seeds: List[Any] = []
        walls: List[float] = []
        errors: List[Optional[str]] = []
        shape: Optional[Shape] = None
        batch: List[tuple] = []
        for seed, options, values, error, wall_seconds in rows:
            row_shape = (tuple(options), tuple(values))
            if row_shape != shape or len(batch) >= _BATCH_ROWS:
                if batch:
                    builder.add(shape, batch)
                shape, batch = row_shape, []
            batch.append((*options.values(), *values.values()))
            seeds.append(seed)
            walls.append(float(wall_seconds))
            errors.append(error)
        if batch:
            builder.add(shape, batch)
        if builder.wanted is not None:
            missing = sorted(builder.wanted - builder.cells.keys())
            if missing:
                raise PersistenceError(
                    f"no such column(s) {', '.join(missing)} in "
                    f"{source or 'records'}; available: "
                    f"{', '.join(builder.offered)}"
                )
        store_columns = {
            name: Column(name, data) for name, data in builder.cells.items()
        }
        store_columns["seed"] = Column("seed", seeds)
        store_columns["wall_seconds"] = Column("wall_seconds", walls)
        store_columns["ok"] = Column("ok", [error is None for error in errors])
        store_columns["error"] = Column("error", errors)
        return cls(store_columns, len(seeds), sweep_id=sweep_id, source=source)

    def __len__(self) -> int:
        return self.length

    def column_names(self) -> List[str]:
        return list(self.columns)

    def column(self, name: str) -> Column:
        try:
            return self.columns[name]
        except KeyError:
            raise KeyError(
                f"no column {name!r}; available: {', '.join(self.columns)}"
            ) from None

    def row(self, index: int) -> Dict[str, Any]:
        """One record's cells as a dict (debugging / JSON export)."""
        return {name: col[index] for name, col in self.columns.items()}

    def distinct(self, name: str) -> List[Any]:
        """Ordered distinct values of a column (first-seen order).

        Every cell is a hashable scalar or a JSON string, so one pass
        through a dict keeps this linear in the row count.
        """
        return list(dict.fromkeys(self.column(name)))

    def where(
        self, match: Dict[str, Any], indices: Optional[Sequence[int]] = None
    ) -> List[int]:
        """Row indices whose cells equal every ``match`` entry.

        ``indices`` restricts the scan to a prior subset, so filters
        compose without copying any column data.
        """
        rows: Iterable[int] = (
            range(self.length) if indices is None else indices
        )
        for name, wanted in match.items():
            column = self.column(name)
            rows = [i for i in rows if column[i] == wanted]
        return list(rows)

    def ok_indices(self, indices: Optional[Sequence[int]] = None) -> List[int]:
        """The subset of ``indices`` (default: all rows) that succeeded."""
        ok = self.columns["ok"]
        rows = range(self.length) if indices is None else indices
        return [i for i in rows if ok[i]]

    def __repr__(self) -> str:
        return (
            f"RecordStore(sweep_id={self.sweep_id!r}, rows={self.length}, "
            f"columns={len(self.columns)})"
        )


__all__ = ["Column", "RecordStore"]
