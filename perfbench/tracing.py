"""Spans recorded from outside the program, by wrapping layer functions.

A :class:`Tracer` hands out wrappers that time each call and keep a
per-thread stack of open spans, so every span knows its parent and its
self time (its duration minus the time its direct children took).  Spans
are aggregated per name as they close -- count, total, self and an
optional amount such as bytes -- so a long run holds a few rows per
thread rather than millions of span records.  Spans do not link across
threads: a reply handled on a server thread is not tied to the client
call that caused it.

:class:`Patches` installs the wrappers.  Several modules import layer
functions by value (``from repro.network.codec import encode_message``),
so patching only the defining module would leave those callers unwrapped
and silently measure nothing; :meth:`Patches.wrap` therefore replaces the
function in every loaded module that holds it, and :meth:`Patches.restore`
puts every original back.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from types import ModuleType
from typing import Callable

#: Row fields, per span name: calls, total ns, self ns, amount.
COUNT, TOTAL_NS, SELF_NS, AMOUNT = range(4)


class Tracer:
    """Per-thread span stacks and per-name aggregates."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[tuple[int, dict[str, list[int]]]] = []

    def _enter_thread(self) -> list[int]:
        local = self._local
        local.stack = []
        local.rows = {}
        with self._lock:
            self._threads.append((threading.get_ident(), local.rows))
        return local.stack

    def wrap(
        self,
        span: str,
        fn: Callable,
        amount: Callable[[tuple, object], int] | None = None,
    ) -> Callable:
        """A wrapper recording each call of *fn* as span *span*.

        *amount*, given ``(args, result)``, returns a number added to the
        span's amount field (bytes encoded, cache hits, frames).
        """
        local = self._local
        clock = time.perf_counter_ns
        enter = self._enter_thread

        def traced(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = enter()
            stack.append(0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                row = local.rows.get(span)
                if row is None:
                    row = local.rows[span] = [0, 0, 0, 0]
                row[COUNT] += 1
                row[TOTAL_NS] += elapsed
                row[SELF_NS] += elapsed - children
            if amount is not None:
                row[AMOUNT] += amount(args, result)
            return result

        return functools.update_wrapper(traced, fn)

    def rows(self, threads: set[int] | None = None) -> dict[str, list[int]]:
        """Aggregates summed over all threads, or only those in *threads*."""
        with self._lock:
            tables = list(self._threads)
        out: dict[str, list[int]] = {}
        for ident, table in tables:
            if threads is not None and ident not in threads:
                continue
            for span, row in list(table.items()):
                acc = out.setdefault(span, [0, 0, 0, 0])
                for i in range(4):
                    acc[i] += row[i]
        return out


class Patches:
    """Installed wrappers, each with every site that held the original."""

    def __init__(self, module_prefix: str = "repro") -> None:
        self.module_prefix = module_prefix
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, owner: object, attr: str, make: Callable[[Callable], Callable]) -> int:
        """Replace ``owner.attr`` by ``make(original)`` and return the sites.

        When *owner* is a module, every loaded module under
        :attr:`module_prefix` holding the same function object under any
        name is patched too.  A class attribute is patched on the class,
        which every instance and subclass looks it up through.
        """
        original = getattr(owner, attr)
        wrapped = make(original)
        sites = [(owner, attr)]
        if isinstance(owner, ModuleType):
            prefix = self.module_prefix
            for module in list(sys.modules.values()):
                name = getattr(module, "__name__", "") or ""
                if module is owner or not (
                    name == prefix or name.startswith(prefix + ".")
                ):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        sites.append((module, key))
        for site, key in sites:
            self._undo.append((site, key, original))
            setattr(site, key, wrapped)
        return len(sites)

    def restore(self) -> None:
        """Put every original back, newest patch first."""
        while self._undo:
            site, key, original = self._undo.pop()
            setattr(site, key, original)
