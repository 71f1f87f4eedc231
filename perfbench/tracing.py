"""In-memory span tracer for the benchmark's traced runs.

A span is ``(id, parent, name, start, end, request id, attrs)``.  The
tracer records spans around calls into the layers' public functions —
``ExecutionPlan.execute``, every ``PlanOp.apply``, the registered
``GemmKernel.run`` instances, ``formats.packed.pack``,
``runtime.ops.pack_cols``, ``FleetServer.submit`` and
``FleetClient.infer`` — by wrapping them from outside; the workloads
add spans around the calls they make themselves (``Module.backward``,
``SGD.step``, ``run_network``).  Nothing inside ``src/`` changes.

Fleet workers are forked from the benchmark process, so they inherit
the wrappers: after the fork a worker starts an empty span list and
writes it to ``out_dir`` when it exits.  The benchmark process writes
its own spans from :meth:`Tracer.dump`; :func:`load_spans` reads every
file back.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import multiprocessing.util
import os
import threading
import time
from pathlib import Path


class Tracer:
    """Collects spans in memory; ``enabled`` toggles recording at run time."""

    def __init__(self, out_dir: Path):
        self.out_dir = Path(out_dir)
        self.enabled = True
        self.spans: list[tuple] = []
        #: ``id(plan) -> model name`` for ``plan.execute`` spans; plans
        #: without a label (the ones fleet workers rebuild) take
        #: ``default_label``.
        self.labels: dict[int, str] = {}
        self.default_label = ""
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._counters_at_fork: dict[str, int] | None = None
        multiprocessing.util.register_after_fork(self, Tracer._after_fork)

    # -- recording -------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, attrs=None, rid=None):
        """Record the enclosed block as a span (nothing when disabled).

        ``rid`` defaults to the request id set by :meth:`request`.
        """
        if not self.enabled:
            yield
            return
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            stack.pop()
            if rid is None:
                rid = getattr(self._local, "rid", None)
            self.spans.append((sid, parent, name, t0, t1, rid, attrs))

    def call(self, name: str, fn, args=(), kwargs=None, attrs=None):
        """Run ``fn(*args, **kwargs)`` inside a span."""
        with self.span(name, attrs):
            return fn(*args, **(kwargs or {}))

    def add(self, name: str, start: float, end: float, rid=None, attrs=None) -> None:
        """Record a span whose ends were timed elsewhere (a request's life)."""
        if self.enabled:
            self.spans.append((next(self._ids), None, name, start, end, rid, attrs))

    @contextlib.contextmanager
    def request(self, rid):
        """Tag spans opened on this thread with request id ``rid``."""
        self._local.rid = rid
        try:
            yield
        finally:
            self._local.rid = None

    # -- wrapping the layers ---------------------------------------------

    @staticmethod
    def _patch(owner, attr: str, wrapper) -> None:
        setattr(owner, attr, wrapper(getattr(owner, attr)))

    def install(self) -> None:
        """Wrap the layers' public entry points for the rest of the process."""
        from repro.core import gemm, kernels
        from repro.formats import packed
        from repro.runtime import fleet, frontend, ops, plan

        tracer = self

        def execute(orig):
            def wrapped(self, x, total_batch=None):
                label = tracer.labels.get(id(self), tracer.default_label)
                return tracer.call(
                    "plan.execute", orig, (self, x, total_batch),
                    attrs={"model": label, "samples": len(x)},
                )
            return wrapped

        def apply(orig):
            def wrapped(self, x, ctx):
                return tracer.call("op.apply", orig, (self, x, ctx), attrs={"op": self.name})
            return wrapped

        def kernel_run(orig, name):
            def wrapped(pa, pb, config, k_chunk):
                m, k = pa.shape
                macs = m * k * pb.shape[1]
                return tracer.call(
                    "kernel.run", orig, (pa, pb, config, k_chunk),
                    attrs={"kernel": name, "macs": macs},
                )
            return wrapped

        def pack(orig):
            def wrapped(values, fmt):
                size = getattr(values, "size", 0)
                return tracer.call("packed.pack", orig, (values, fmt), attrs={"elements": int(size)})
            return wrapped

        def named(span_name):
            def wrap(orig):
                def wrapped(*args, **kwargs):
                    return tracer.call(span_name, orig, args, kwargs)
                return wrapped
            return wrap

        self._patch(plan.ExecutionPlan, "execute", execute)
        for cls in _subclasses(ops.PlanOp):
            if "apply" in cls.__dict__:
                self._patch(cls, "apply", apply)
        for name in kernels.kernel_names():
            kernel = kernels.get_kernel(name)
            self._patch(kernel, "run", lambda orig, name=name: kernel_run(orig, name))
        for module in (packed, ops, gemm):
            self._patch(module, "pack", pack)
        self._patch(ops, "pack_cols", named("ops.pack_cols"))
        self._patch(fleet.FleetServer, "submit", named("fleet.submit"))
        self._patch(frontend.FleetClient, "infer", named("frontend.infer"))

    # -- output ----------------------------------------------------------

    def _after_fork(self) -> None:
        # Runs in a freshly forked fleet worker: start empty, remember
        # the table-cache counters, and write the spans at worker exit.
        from repro.core.kernels import table_cache_counters

        self.spans = []
        self._local = threading.local()
        self._counters_at_fork = table_cache_counters()
        multiprocessing.util.Finalize(self, self.dump, exitpriority=10)

    def dump(self) -> None:
        """Write this process's spans as JSON lines (workers add their table-cache misses)."""
        from repro.core.kernels import table_cache_counters

        self.out_dir.mkdir(parents=True, exist_ok=True)
        pid = os.getpid()
        path = self.out_dir / f"spans-{pid}.jsonl"
        with open(path, "w") as fh:
            if self._counters_at_fork is not None:  # a worker: its whole life is steady state
                misses = table_cache_counters()["misses"] - self._counters_at_fork["misses"]
                fh.write(json.dumps({"pid": pid, "name": "process", "table_misses": misses}) + "\n")
            for sid, parent, name, t0, t1, rid, attrs in self.spans:
                row = {"pid": pid, "id": sid, "parent": parent, "name": name,
                       "start": t0, "end": t1, "rid": rid}
                if attrs:
                    row.update(attrs)
                fh.write(json.dumps(row) + "\n")


def _subclasses(cls) -> list[type]:
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out


def load_spans(out_dir: Path) -> list[dict]:
    """Every span written under ``out_dir`` (all processes), with ``dur`` in seconds."""
    rows = []
    for path in sorted(Path(out_dir).glob("spans-*.jsonl")):
        with open(path) as fh:
            rows.extend(json.loads(line) for line in fh if line.strip())
    for row in rows:
        if "start" in row:
            row["dur"] = row["end"] - row["start"]
    return rows
