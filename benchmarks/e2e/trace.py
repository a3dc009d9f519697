"""Driver-side tracing and process accounting for the benchmark.

A :class:`Tracer` records a span at every call the benchmark makes into
a layer: name, start, end, parent, and the id of the root span (the
micro-batch or query window) it belongs to. Spans stay in memory; the
first ``keep`` are written out when the workload ends, and every span
feeds a ``(count, total, self)`` aggregate per name, where self time is
the span's duration minus the part its child spans cover.

The bolts and the store clients they own are timed by
``topology.BoltProbe`` instead, because on the process substrate they
run in a worker process.
"""

from __future__ import annotations

import os
import time


class _NoSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False


_NO_SPAN = _NoSpan()


class _Span:
    __slots__ = ("tracer", "name", "ident", "start", "children")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tracer = self.tracer
        self.ident = tracer._next_id
        tracer._next_id += 1
        self.children = 0.0
        tracer._stack.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info):
        end = time.perf_counter()
        tracer = self.tracer
        stack = tracer._stack
        stack.pop()
        duration = end - self.start
        parent = stack[-1] if stack else None
        if parent is not None:
            parent.children += duration
        total = tracer.totals.get(self.name)
        if total is None:
            total = tracer.totals[self.name] = [0, 0.0, 0.0]
        total[0] += 1
        total[1] += duration
        total[2] += duration - self.children
        if len(tracer.spans) < tracer.keep:
            tracer.spans.append(
                (
                    self.ident,
                    parent.ident if parent is not None else None,
                    stack[0].ident if stack else self.ident,
                    self.name,
                    self.start,
                    end,
                )
            )
        return False


class Tracer:
    """Nested wall-clock spans of one driver thread."""

    def __init__(self, keep: int = 20_000):
        self.enabled = False
        self.keep = keep
        self.totals: dict[str, list] = {}
        self.spans: list[tuple] = []
        self._stack: list[_Span] = []
        self._next_id = 0

    def span(self, name: str):
        return _Span(self, name) if self.enabled else _NO_SPAN

    def wrap(self, name: str, fn):
        """``fn`` timed as a span called ``name`` while tracing is on."""

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            with _Span(self, name):
                return fn(*args, **kwargs)

        return traced

    def total(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[1]

    def self_time(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[2]

    def mean_us(self, name: str) -> float:
        count, total, __ = self.totals.get(name, (0, 0.0, 0.0))
        return 1e6 * total / count if count else 0.0

    def dump(self) -> dict:
        return {
            "fields": ["id", "parent", "root", "name", "start", "end"],
            "spans": self.spans,
            "totals": {
                name: {"count": c, "total_s": t, "self_s": s}
                for name, (c, t, s) in sorted(self.totals.items())
            },
        }


class Traced:
    """Proxy for ``target`` whose named methods run as spans.

    ``names`` maps a method name to its span name; every other attribute
    passes through, so the proxy can stand wherever the target is
    duck-typed (a ``TDStoreClient`` under an engine, an engine under a
    ``ServingLayer``, a ``Consumer`` under a spout).
    """

    def __init__(self, target, tracer: Tracer, names: "dict[str, str]"):
        self._target = target
        for method, span_name in names.items():
            setattr(self, method, tracer.wrap(span_name, getattr(target, method)))

    def __getattr__(self, name: str):
        return getattr(self._target, name)


# -- /proc accounting ------------------------------------------------------


def stat_fields(pid: int) -> "list[str] | None":
    """Fields of ``/proc/<pid>/stat`` from the state on: ``[0]`` state,
    ``[1]`` parent, ``[3]`` session."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            text = handle.read()
    except OSError:
        return None
    # the command name may hold spaces and parentheses: split after it
    return text[text.rindex(")") + 2 :].split()


def child_pids(pid: int) -> "list[int]":
    """Live direct children of ``pid`` (workers, hosts, resource tracker)."""
    found = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = stat_fields(int(entry))
            if fields is not None and int(fields[1]) == pid:
                found.append(int(entry))
    return sorted(found)


def cpu_seconds(pid: int) -> float:
    """CPU time the threads of ``pid`` have used so far, from their
    ``schedstat`` (nanoseconds on a CPU: a cycle is too short for the
    10 ms ticks of ``stat``)."""
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return 0.0
    total = 0
    for task in tasks:
        try:
            with open(f"/proc/{pid}/task/{task}/schedstat") as handle:
                total += int(handle.read().split()[0])
        except (OSError, IndexError, ValueError):
            pass  # the thread ended between the listing and the read
    return total / 1e9


def peak_rss_mb(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def calibration_ms() -> float:
    """A fixed pure-python loop: the witness for host-speed drift."""
    start = time.perf_counter()
    acc = 0
    for value in range(300_000):
        acc += value * value % 7
    return 1e3 * (time.perf_counter() - start)
