"""Span recording around the calls into each layer, from outside.

:class:`Tracer` wraps named public functions of the program (module
functions or class methods) for the duration of a ``with`` block.  A
wrapper records one span ``{name, start, end, parent}`` per call; the
spans live in flat arrays while the run lasts and are written out when
it ends.  Nothing inside the program is touched besides the attribute
swap: no profiler, tracer or INT clock is attached, so the traced run
executes the same code path as the untraced one.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from arith import self_times

#: (import path of module, attribute path inside it, span name, size
#: extractor).  The size is the number of packets a data-plane call
#: carried (0 where it does not apply).
TARGETS: Sequence[Tuple[str, str, str, Optional[Callable]]] = (
    ("repro.dp.columnar", "try_run_batch", "dp.columnar",
     lambda args, kwargs: len(args[1])),
    ("repro.dp.core", "IpsaCore.process", "dp.scalar", None),
    ("repro.dp.core", "DataplaneCore.compile_shadow",
     "dp.plan.compile_shadow", None),
    ("repro.tables.table", "Table.lookup_batch", "tables.lookup_batch", None),
    ("repro.tables.table", "Table.lookup", "tables.lookup", None),
    ("repro.tables.table", "Table.prepare_batch", "tables.prepare_batch", None),
    ("repro.runtime.table_api", "TableApi.install", "tables.write", None),
    ("repro.runtime.table_api", "TableApi.remove", "tables.write", None),
    ("repro.runtime.fabric", "Fabric.send_many", "runtime.fabric.walk",
     lambda args, kwargs: len(args[2])),
    ("repro.runtime.fabric", "Fabric.send", "runtime.fabric.walk",
     lambda args, kwargs: 1),
    ("repro.runtime.fabric", "Fabric.send_batch", "runtime.fabric.walk",
     lambda args, kwargs: len(args[1])),
    ("repro.runtime.fabric", "Fabric.staged_rollout",
     "runtime.fabric.rollout", None),
    ("repro.ipsa.switch", "IpsaSwitch.inject", "frontdoor",
     lambda args, kwargs: 1),
    ("repro.ipsa.switch", "IpsaSwitch.inject_batch", "frontdoor",
     lambda args, kwargs: len(args[1])),
    ("repro.runtime.controller", "compile_update", "compiler.compile_update",
     None),
    ("repro.analysis.update_safety", "lint_update", "analysis.lint", None),
    ("repro.analysis.linter", "lint_design", "analysis.lint", None),
    ("repro.analysis.verify", "verify_txn", "analysis.verify", None),
    ("repro.runtime.txn", "IpsaUpdateTransaction.prepare",
     "runtime.txn.prepare", None),
    ("repro.runtime.txn", "IpsaUpdateTransaction.validate",
     "runtime.txn.validate", None),
    ("repro.runtime.txn", "IpsaUpdateTransaction.commit",
     "runtime.txn.commit", None),
    ("repro.runtime.controller", "Controller.rollback",
     "runtime.controller.rollback", None),
    ("repro.runtime.controller", "StagedUpdate.commit",
     "runtime.controller.commit", None),
)


class Spans:
    """Flat, append-only span storage (one thread, properly nested)."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.size = array("i")
        self._stack: List[int] = []
        #: ``UpdateStats.stall_seconds`` of every committed update.
        self.stalls: List[float] = []

    def __len__(self) -> int:
        return len(self.name)

    def open(self, name: str, size: int = 0) -> int:
        name_id = self._ids.get(name)
        if name_id is None:
            name_id = self._ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.size.append(size)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError("span stack out of order")

    def name_of(self, index: int) -> str:
        return self.names[self.name[index]]

    def self_times(self) -> List[float]:
        return self_times(list(zip(self.start, self.end, self.parent)))

    def write(self, path: str) -> None:
        """One tab-separated line per span: name, start and end in ns
        relative to the first span, parent index, size."""
        origin = self.start[0] if len(self) else 0.0
        with open(path, "w") as handle:
            handle.write("name\tstart_ns\tend_ns\tparent\tsize\n")
            for i in range(len(self)):
                handle.write(
                    f"{self.name_of(i)}\t{(self.start[i] - origin) * 1e9:.0f}\t"
                    f"{(self.end[i] - origin) * 1e9:.0f}\t{self.parent[i]}\t"
                    f"{self.size[i]}\n"
                )


def _resolve(module_path: str, attr_path: str):
    owner = importlib.import_module(module_path)
    *outer, attr = attr_path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Install span wrappers on :data:`TARGETS`; restore on exit.

    A target missing from the program (renamed or removed by a later
    change) is reported on stderr and skipped: its layer reads 0.
    """

    def __init__(self, spans: Spans) -> None:
        self.spans = spans
        self._saved: List[Tuple[object, str, object, bool]] = []
        self.missing: List[str] = []

    def _wrap(self, fn, name: str, size_of) -> Callable:
        spans = self.spans

        if name == "runtime.controller.commit":
            @functools.wraps(fn)
            def commit_wrapper(*args, **kwargs):
                index = spans.open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    spans.close(index)
                spans.stalls.append(result[1].stall_seconds)
                return result
            return commit_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = spans.open(name, size_of(args, kwargs) if size_of else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                spans.close(index)
        return wrapper

    def __enter__(self) -> "Tracer":
        for module_path, attr_path, name, size_of in TARGETS:
            try:
                owner, attr = _resolve(module_path, attr_path)
                raw = inspect.getattr_static(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_path}.{attr_path}")
                continue
            if not inspect.isfunction(raw):
                self.missing.append(f"{module_path}.{attr_path}")
                continue
            # An inherited method is restored by deleting the override.
            own = not isinstance(owner, type) or attr in vars(owner)
            self._saved.append((owner, attr, raw, own))
            setattr(owner, attr, self._wrap(raw, name, size_of))
        if self.missing:
            print(
                "perfbench: not traced (missing in program): "
                + ", ".join(self.missing),
                file=sys.stderr,
            )
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, raw, own in reversed(self._saved):
            if own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)
        self._saved.clear()
