"""Shared machinery of the benchmark: spans, statistics, environment.

Nothing here imports the program at module level, so ``run.py`` can set
the BLAS thread count before NumPy is first imported.

Tracing follows one rule: spans are recorded only by the benchmark's own
wrappers around public calls of the program (``Tracer.patch``), kept in
memory, and written once when the run ends. A span is
``(name, start, end, parent, ident)``: ``parent`` indexes the enclosing
span of the same thread (-1 for none) and ``ident`` names the unit of work
it belongs to (the request, evaluation, batch or epoch). A layer's self
time is its span time minus the time of its child spans.
"""

from __future__ import annotations

import functools
import json
import os
import platform
import threading
import time
from collections import Counter
from contextlib import contextmanager, nullcontext
from pathlib import Path

now = time.perf_counter

_MISSING = object()


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.ident = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple] = []

    def _stack(self) -> list[tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> str | None:
        """Name of the innermost open span of this thread."""
        stack = self._stack()
        return stack[-1][1] if stack else None

    @contextmanager
    def span(self, name: str, ident=None):
        stack = self._stack()
        parent = stack[-1][0] if stack else -1
        with self._lock:
            index = len(self.spans)
            self.spans.append(None)
        stack.append((index, name))
        start = now()
        try:
            yield
        finally:
            end = now()
            stack.pop()
            self.spans[index] = (name, start, end, parent,
                                 self.ident if ident is None else ident)

    def record(self, name: str, start: float, end: float, ident,
               parent: int = -1) -> int:
        """Append a finished span (times taken by the caller)."""
        with self._lock:
            self.spans.append((name, start, end, parent, ident))
            return len(self.spans) - 1

    def add_spans(self, spans, ident) -> None:
        """Graft spans recorded by another process under the open span."""
        stack = self._stack()
        parent = stack[-1][0] if stack else -1
        with self._lock:
            base = len(self.spans)
            for name, start, end, p, _ in spans:
                self.spans.append((name, start, end,
                                   parent if p < 0 else base + p, ident))

    def patch(self, owner, attr: str, name, *, count=None,
              after=None) -> None:
        """Wrap ``owner.attr`` so each call records a span ``name``.

        ``name`` is a string or ``fn(args, kwargs)`` returning the span
        name for that call, ``None`` for no span. ``count`` is
        ``(counter_name, fn(args, kwargs, result))``; ``after(args,
        kwargs)`` runs once the call returned.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            if label is None:
                result = original(*args, **kwargs)
            else:
                with tracer.span(label):
                    result = original(*args, **kwargs)
            if count is not None:
                tracer.counts[count[0]] += count[1](args, kwargs, result)
            if after is not None:
                after(args, kwargs)
            return result

        saved = owner.__dict__.get(attr, _MISSING) \
            if isinstance(owner, type) else original
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, saved))

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, saved = self._patches.pop()
            if saved is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, saved)

    def aggregate(self, first: int = 0) -> dict[str, dict]:
        """Per span name: calls, total seconds and self seconds."""
        spans = self.spans[first:]
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= first:
                child[parent - first] += end - start
        out: dict[str, dict] = {}
        for i, (name, start, end, _, _) in enumerate(spans):
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                          "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child[i]
        return out

    def dump(self, path: Path, extra: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**extra, "fields": ["name", "start", "end",
                                           "parent", "id"],
                       "spans": self.spans,
                       "counts": dict(self.counts)}, fh)


def unit_span(tracer: Tracer | None, name: str):
    """The root span of a traced unit; nothing when untraced."""
    return tracer.span(f"{name}.unit") if tracer is not None \
        else nullcontext()


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (the definition the serving layer uses)."""
    from repro.serve.loadgen import nearest_rank_percentile
    return nearest_rank_percentile(sorted(values), q)


def median(values) -> float:
    return percentile(values, 50.0)


# ----------------------------------------------------------------------
# Memory and environment
# ----------------------------------------------------------------------
def _status_kb(pid: int, key: str) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith(key + ":"):
                    return int(line.split()[1])
    except (OSError, ValueError):
        pass
    return 0


def _descendants(root: int) -> list[int]:
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as fh:
                stat = fh.read()
        except OSError:
            continue
        ppid = int(stat[stat.rindex(")") + 2:].split()[1])
        children.setdefault(ppid, []).append(int(entry))
    out, todo = [], [root]
    while todo:
        for pid in children.get(todo.pop(), []):
            out.append(pid)
            todo.append(pid)
    return out


def cpu_seconds(pids) -> float:
    """User plus system CPU seconds consumed so far by ``pids``."""
    total = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
                stat = fh.read()
        except OSError:
            continue
        fields = stat[stat.rindex(")") + 2:].split()
        total += int(fields[11]) + int(fields[12])
    return total / os.sysconf("SC_CLK_TCK")


def program_pids(include_self: bool = True) -> list[int]:
    """This process (unless excluded) and its live descendants."""
    me = os.getpid()
    return ([me] if include_self else []) + _descendants(me)


def peak_rss_mb() -> float:
    """Summed peak RSS of this process and its live descendants."""
    me = os.getpid()
    kb = _status_kb(me, "VmHWM")
    if kb == 0:  # no /proc: this process only
        import resource
        kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return kb / 1024.0
    return sum(_status_kb(pid, "VmHWM")
               for pid in [me] + _descendants(me)) / 1024.0


def environment(seed: int) -> dict:
    """What a result must state to be compared with another."""
    import numpy as np
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except Exception:  # older NumPy: no dict mode
        pass
    return {"seed": seed, "nproc": os.cpu_count(), "cpu": cpu,
            "blas": blas,
            "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
            "python": platform.python_version(),
            "numpy": np.__version__}
