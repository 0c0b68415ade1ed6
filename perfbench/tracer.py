"""Span recorder for the traced benchmark pass.

Spans are recorded from the benchmark's side: each public layer function
listed in ``LAYERS`` is replaced, for the duration of a ``Tracer`` context,
by a wrapper that records a span and the function's work counters.  Several
modules import these functions by name (``structure`` and ``oracles`` bind
``representation_profile``, ``density`` binds ``sample_set``), so the
wrapper is installed at every module attribute that holds the original
function, not only in the defining module.  ``cli`` reaches the library
through module attributes and so sees the wrappers too.

Each span knows its parent.  Spans opened on a worker thread (the
``--jobs`` thread pools) have no open span of their own thread; their parent
is the innermost open span of the thread that runs the command, which is
blocked in the pool at that moment.  Each span records its wall interval
and the CPU time of its own thread; ``self_s`` is computed from the CPU
times (see ``Tracer.self_times``).  Spans are kept in memory and written
out by the caller when the run ends.
"""

from __future__ import annotations

import importlib
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

PACKAGE = "powersidon"


def _kth_root(n: int, k: int) -> int:
    return importlib.import_module(f"{PACKAGE}.powersums").integer_kth_root(n, k)


def _profile_counters(res, n_range, h, domain, **_) -> dict[str, int]:
    # Computed, not measured: the uint64 cell updates and the two sum
    # tables of the dense DP, from its arguments.
    n_hi = n_range[1]
    if hasattr(domain, "values"):
        values = [v for v in domain.values if v <= n_hi]
    else:
        values = [r**domain.k for r in range(1, _kth_root(n_hi, domain.k) + 1)]
    return {
        "cells": 2 * h * (len(values) * (n_hi + 1) - sum(values)),
        "table_bytes": 2 * (h + 1) * (n_hi + 1) * 8,
    }


def _sample_counters(res, model, x_max, **_) -> dict[str, int]:
    return {"candidates": _kth_root(x_max, model.k), "kept": len(res)}


def _expected_count_counters(res, model, x, **_) -> dict[str, int]:
    return {"terms": _kth_root(x, model.k)}


def _packing_counters(res, *_, **__) -> dict[str, int]:
    return {"exact": int(res.exact), "capped": int(res.capped)}


def _sunflower_counters(res, H, r, *, exhaustive_limit=None) -> dict[str, int]:
    # A None answer is only re-verified exhaustively for small collections;
    # above the limit it is an unverified "none found".  Every caller passes
    # a list, so H can be read again here.
    if res is not None:
        return {"unverified_none": 0}
    if exhaustive_limit is None:
        exhaustive_limit = importlib.import_module(f"{PACKAGE}.structure").SUNFLOWER_EXHAUSTIVE_LIMIT
    distinct = {frozenset(int(e) for e in s) for s in H}
    return {"unverified_none": int(len(distinct) > exhaustive_limit)}


#: module -> public function -> work counters computed from (result, *args).
LAYERS: dict[str, dict[str, Callable[..., dict[str, int]] | None]] = {
    "powersums": {
        "representation_profile": _profile_counters,
        "enumerate_representations": lambda res, *_, **__: {"reps": len(res)},
        "read_power_set": None,
        "write_power_set": None,
    },
    "randomsets": {
        "sample_set": _sample_counters,
        "expected_count": _expected_count_counters,
        "expected_representation_count": None,
    },
    "structure": {
        "max_disjoint_representations": _packing_counters,
        "boundedness_scan": None,
        "find_delta_system": _sunflower_counters,
        "verify_bhg": None,
        "greedy_bounded_subset": lambda res, *_, **__: {
            "candidates": len(res.decisions),
            "accepted": len(res.power_set),
        },
    },
    "density": {
        "concentration_trial": lambda res, model, x, seeds, **_: {"trials": len(seeds)},
        "fit_density_exponent": None,
    },
    "oracles": {
        "taxicab_scan": None,
        "hypothesis_k_scan": None,
        "divisor_bound_scan": None,
        "divisor_bound_check": None,
    },
}

#: Modules whose attributes may bind a layer function.
BINDING_MODULES = ("", ".powersums", ".randomsets", ".structure", ".density", ".oracles", ".cli")


@dataclass
class Span:
    name: str
    command: str
    parent: int | None
    thread: int
    start: float
    thread_start: float
    end: float = 0.0
    thread_cpu: float = 0.0  # CPU time of the span's own thread
    cpu: float = 0.0  # process CPU time, all threads; cli.* spans only
    counters: dict[str, int] = field(default_factory=dict)


class Tracer:
    """Records spans while active; ``with tracer:`` installs the wrappers."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._command_stack: list[int] | None = None
        self._command = ""
        self._restore: list[tuple[Any, str, Any]] = []

    # -- span bookkeeping -------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> tuple[list[int], int]:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._command_stack:
            parent = self._command_stack[-1]
        else:
            parent = None
        with self._lock:
            index = len(self.spans)
            span = Span(name, self._command, parent, threading.get_ident(), time.perf_counter(), time.thread_time())
            self.spans.append(span)
        stack.append(index)
        return stack, index

    def _close(self, stack: list[int], index: int) -> None:
        span = self.spans[index]
        span.thread_cpu = time.thread_time() - span.thread_start
        span.end = time.perf_counter()
        stack.pop()

    def command(self, subcommand: str, run: Callable[[], int]) -> int:
        """Run one CLI command under a ``cli.<subcommand>`` span."""
        self._command = subcommand
        stack, index = self._open(f"cli.{subcommand}")
        self._command_stack = stack
        cpu0 = time.process_time()
        try:
            return run()
        finally:
            self.spans[index].cpu = time.process_time() - cpu0
            self._close(stack, index)
            self._command_stack = None
            self._command = ""

    def _wrap(self, name: str, fn: Callable, counters: Callable | None) -> Callable:
        def traced(*args, **kwargs):
            stack, index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(stack, index)
            if counters is not None:
                self.spans[index].counters = counters(result, *args, **kwargs)
            return result

        return traced

    # -- installation -----------------------------------------------------

    def __enter__(self) -> "Tracer":
        modules = [importlib.import_module(PACKAGE + suffix) for suffix in BINDING_MODULES]
        for module_name, functions in LAYERS.items():
            home = importlib.import_module(f"{PACKAGE}.{module_name}")
            for fn_name, counters in functions.items():
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{module_name}.{fn_name}", original, counters)
                for module in modules:
                    if getattr(module, fn_name, None) is original:
                        self._restore.append((module, fn_name, original))
                        setattr(module, fn_name, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for module, fn_name, original in reversed(self._restore):
            setattr(module, fn_name, original)
        self._restore.clear()

    # -- analysis ---------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's own-thread CPU time minus that of its direct
        children on the same thread.

        CPU time, not wall time: a span on a ``--jobs`` worker thread spends
        part of its wall time waiting for the GIL while the other worker
        runs, so wall times would count that second twice and would change
        with ``--jobs`` at equal work.  Children on other threads are not
        subtracted, since the parent's thread waits in the pool meanwhile
        and spends no CPU.
        """
        out = [span.thread_cpu for span in self.spans]
        for span in self.spans:
            if span.parent is not None and self.spans[span.parent].thread == span.thread:
                out[span.parent] -= span.thread_cpu
        return out

    def to_records(self) -> list[dict[str, Any]]:
        selfs = self.self_times()
        return [
            {
                "id": i,
                "name": s.name,
                "command": s.command,
                "parent": s.parent,
                "start": s.start,
                "end": s.end,
                "thread_cpu_s": s.thread_cpu,
                "self_s": selfs[i],
                **({"cpu_s": s.cpu} if s.name.startswith("cli.") else {}),
                **s.counters,
            }
            for i, s in enumerate(self.spans)
        ]
