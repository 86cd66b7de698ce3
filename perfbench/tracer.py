"""Outside-in layer tracer for the benchmark's ``--trace 1`` runs.

The layers are the ``repro.*`` subpackages named in :data:`LAYERS`.  The
tracer wraps every public callable of a layer (the names in the
package's ``__all__`` that the layer itself defines; for classes, their
public methods, properties, ``__init__`` and ``__call__``) and rebinds
every reference to the original that any loaded ``repro`` module holds,
so calls made through names imported before installation are seen too.
Nothing under ``src/`` changes and ``REPRO_TRACE`` stays off.

A span is recorded only when the caller's module belongs to a different
layer (or to no layer at all, such as the benchmark itself).  Calls
within one layer pass straight through, so a layer's time includes the
numpy/scipy work it does and every private helper it calls.  Spans live
in memory as tuples and are written out once, when the run ends.

Besides spans, the tracer keeps:

* *meters* — count and time of selected functions on every call, within
  a layer too (``condest_1``, truncated-chain solves, journal records,
  store reads and writes), and a count of ``os.fsync`` calls made under
  an ``orchestration`` span;
* *hooks* — functions that read counts from a call's public result
  (``SolverDiagnostics`` of QBD solutions, simulated job counts).

Worker processes forked while the tracer is installed inherit the
patches; each child starts an empty span list and appends its spans to
``child-<pid>.jsonl`` in the trace directory whenever one of its root
spans closes, because sweep workers are terminated rather than asked to
exit.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import json
import os
import pkgutil
import sys
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

#: The repro subpackages the benchmark reports on, one layer each.
LAYERS = (
    "busy_periods",
    "distributions",
    "markov",
    "robustness",
    "core",
    "contracts",
    "perf",
    "orchestration",
    "experiments",
    "simulation",
    "service",
)

#: Functions timed and counted on every call (qualified span names).
METERED = {
    "robustness.condest_1": "condest",
    "core.CsCqTruncatedChain.solve": "truncated",
    "orchestration.CheckpointJournal.record": "journal_record",
    "perf.ResultStore.get": "store_get",
    "perf.ResultStore.put": "store_put",
}

_OUTSIDE = "outside"
_layer_cache: "dict[str, str]" = {}


def layer_of(module_name: "str | None") -> str:
    """The layer a module belongs to, or ``"outside"``."""
    name = module_name or ""
    layer = _layer_cache.get(name)
    if layer is None:
        parts = name.split(".")
        if len(parts) >= 2 and parts[0] == "repro" and parts[1] in LAYERS:
            layer = parts[1]
        elif parts[0] == "repro":
            layer = "repro"
        else:
            layer = _OUTSIDE
        _layer_cache[name] = layer
    return layer


def _generated(fn) -> bool:
    """True for functions made by ``exec`` (dataclass ``__init__`` etc.)."""
    code = getattr(fn, "__code__", None)
    return code is not None and code.co_filename == "<string>"


class Tracer:
    """Span recorder installed by :meth:`install`, removed by :meth:`uninstall`."""

    def __init__(self, run_id: str, trace_dir: Path):
        self.run_id = run_id
        self.trace_dir = Path(trace_dir)
        self.pid = os.getpid()
        self.spans: "list[tuple]" = []
        self.meters: "dict[str, list]" = defaultdict(lambda: [0, 0.0])
        self.counts: Counter = Counter()
        self._current: "contextvars.ContextVar" = contextvars.ContextVar(
            "perfbench_span", default=None
        )
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._patched: "list[tuple[object, str, object]]" = []
        self._seen_results: "dict[int, object]" = {}
        self._child_file = None
        self.hooks = {
            "markov.QbdProcess.solve": self._on_qbd_solution,
            "markov.cached_solution": self._on_qbd_solution,
            "simulation.simulate_replications": self._on_replications,
        }

    # ------------------------------------------------------------------ #
    # Installation
    # ------------------------------------------------------------------ #

    def install(self) -> None:
        """Import every repro module, then wrap each layer's public API."""
        import repro

        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            importlib.import_module(info.name)
        originals: "dict[int, object]" = {}
        for layer in LAYERS:
            package = importlib.import_module(f"repro.{layer}")
            for name in getattr(package, "__all__", ()):
                obj = getattr(package, name, None)
                if not getattr(obj, "__module__", "").startswith(f"repro.{layer}"):
                    continue
                if inspect.isclass(obj):
                    self._wrap_class(obj, layer)
                elif inspect.isfunction(obj) and not _generated(obj):
                    wrapper = self._wrap(obj, layer, f"{layer}.{obj.__name__}")
                    originals[id(obj)] = wrapper
        originals[id(os.fsync)] = self._fsync_wrapper(os.fsync)
        self._rebind(originals)
        os.register_at_fork(after_in_child=self._after_fork)

    def _wrap_class(self, cls: type, layer: str) -> None:
        if issubclass(cls, BaseException):
            return
        for attr, value in list(vars(cls).items()):
            public = not attr.startswith("_") or attr in ("__init__", "__call__")
            if not public:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(value, (staticmethod, classmethod)):
                func = value.__func__
                if _generated(func):
                    continue
                new = type(value)(self._wrap(func, layer, name))
            elif isinstance(value, functools.cached_property):
                new = functools.cached_property(self._wrap(value.func, layer, name))
                new.__set_name__(cls, attr)
            elif isinstance(value, property) and value.fget is not None:
                new = property(
                    self._wrap(value.fget, layer, name), value.fset, value.fdel, value.__doc__
                )
            elif inspect.isfunction(value) and not _generated(value):
                new = self._wrap(value, layer, name)
            else:
                continue
            self._patched.append((cls, attr, value))
            setattr(cls, attr, new)

    def _rebind(self, replacements: "dict[int, object]") -> None:
        """Point every module-level reference to an original at its wrapper."""
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == "repro" or module_name.startswith("repro.")
            ):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = replacements.get(id(value))
                if wrapper is not None and wrapper is not value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)
        self._patched.append((os, "fsync", os.fsync))
        os.fsync = replacements[id(os.fsync)]

    def uninstall(self) -> None:
        """Restore every patched attribute (newest first)."""
        for owner, attr, value in reversed(self._patched):
            setattr(owner, attr, value)
        self._patched.clear()

    # ------------------------------------------------------------------ #
    # Wrappers
    # ------------------------------------------------------------------ #

    def _wrap(self, fn, layer: str, name: str):
        meter = self.meters[METERED[name]] if name in METERED else None
        hook = self.hooks.get(name)
        watched = meter is not None or hook is not None
        current = self._current
        spans = self.spans
        ids = self._ids
        tracer = self
        orchestration = layer == "orchestration"

        def begin(caller: str):
            if layer_of(caller) == layer:
                return None
            sid = next(ids)
            parent = current.get()
            # The context holds (span id, inside an orchestration span?).
            inside = orchestration or (parent is not None and parent[1])
            return sid, parent and parent[0], current.set((sid, inside))

        def end(token, started: float) -> None:
            finished = time.perf_counter()
            if meter is not None:
                with tracer._lock:
                    meter[0] += 1
                    meter[1] += finished - started
            if token is not None:
                sid, parent, ctx_token = token
                current.reset(ctx_token)
                spans.append((sid, parent, name, layer, started, finished))
                if parent is None and tracer._child_file is not None:
                    tracer._flush_child()

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                token = begin(sys._getframe(1).f_globals.get("__name__"))
                started = time.perf_counter()
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    end(token, started)
                if hook is not None:
                    hook(args, kwargs, result)
                return result

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            caller = sys._getframe(1).f_globals.get("__name__")
            if not watched and layer_of(caller) == layer:
                return fn(*args, **kwargs)
            token = begin(caller)
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end(token, started)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return wrapper

    def _fsync_wrapper(self, original):
        tracer = self

        @functools.wraps(original)
        def fsync(fd):
            span = tracer._current.get()
            if span is not None and span[1]:
                with tracer._lock:
                    tracer.counts["fsyncs"] += 1
            return original(fd)

        return fsync

    # ------------------------------------------------------------------ #
    # Result hooks: counts read from public outputs
    # ------------------------------------------------------------------ #

    def _first_seen(self, result) -> bool:
        with self._lock:
            if id(result) in self._seen_results:
                return False
            self._seen_results[id(result)] = result  # keep alive: ids stay unique
            return True

    def _on_qbd_solution(self, args, kwargs, result) -> None:
        diag = getattr(result, "diagnostics", None)
        if diag is None or diag.cache_hit or not self._first_seen(result):
            return
        with self._lock:
            self.counts["qbd_solves"] += 1
            self.counts["iterations"] += int(diag.iterations or 0)
            self.counts["escalations"] += int(bool(diag.escalated))
            self.counts[f"trust.{diag.trust}"] += 1

    def _on_replications(self, args, kwargs, result) -> None:
        replications = getattr(result, "replications", ())
        warmup = int(kwargs.get("warmup_jobs", 0))
        with self._lock:
            self.counts["replications"] += len(replications)
            self.counts["jobs"] += sum(
                r.n_measured_short + r.n_measured_long + warmup for r in replications
            )

    # ------------------------------------------------------------------ #
    # Forked children and output
    # ------------------------------------------------------------------ #

    def _after_fork(self) -> None:
        self.pid = os.getpid()
        self.spans.clear()
        for meter in self.meters.values():
            meter[0], meter[1] = 0, 0.0
        self.counts.clear()
        self._seen_results.clear()
        self._lock = threading.Lock()
        # The forking thread's open span belongs to the parent process.
        self._current.set(None)
        self.trace_dir.mkdir(parents=True, exist_ok=True)
        self._child_file = open(self.trace_dir / f"child-{self.pid}.jsonl", "a")

    def _flush_child(self) -> None:
        handle = self._child_file
        for record in self.spans:
            handle.write(json.dumps(self._record(record, self.pid)) + "\n")
        # Cumulative counters; the reader keeps each child's last snapshot.
        snapshot = {"pid": self.pid, "meters": dict(self.meters), "counts": dict(self.counts)}
        handle.write(json.dumps(snapshot) + "\n")
        handle.flush()
        self.spans.clear()

    def _record(self, span: tuple, pid: int) -> dict:
        sid, parent, name, layer, start, end = span
        return {
            "run": self.run_id,
            "pid": pid,
            "id": sid,
            "parent": parent,
            "name": name,
            "layer": layer,
            "start": start,
            "end": end,
        }

    def records(self) -> "list[dict]":
        """This process's spans as dicts."""
        return [self._record(span, self.pid) for span in self.spans]

    def merge_children(self) -> "list[dict]":
        """Spans written by forked children; their counters join this process's."""
        records: "list[dict]" = []
        for path in sorted(self.trace_dir.glob("child-*.jsonl")):
            snapshot = None
            for line in path.read_text().splitlines():
                if not line.strip():
                    continue
                data = json.loads(line)
                if "meters" in data:
                    snapshot = data
                else:
                    records.append(data)
            if snapshot is not None:
                self.add_counters(snapshot["meters"], snapshot["counts"])
        return records

    def add_counters(self, meters: dict, counts: dict) -> None:
        """Fold another process's meters and counts into this tracer's."""
        for key, (calls, seconds) in meters.items():
            self.meters[key][0] += calls
            self.meters[key][1] += seconds
        self.counts.update(counts)


def layer_metrics(records: "list[dict]") -> "dict[str, float]":
    """``<layer>.calls``, ``<layer>.total_s`` and ``<layer>.self_s``.

    Self time is a span's duration minus the part of it its child spans
    cover.  Total time sums only the spans with no ancestor in the same
    layer, so a layer re-entered through another layer is not counted
    twice.
    """
    by_key = {(r["pid"], r["id"]): r for r in records}
    children: "dict[tuple, list]" = defaultdict(list)
    for r in records:
        if r["parent"] is not None:
            children[(r["pid"], r["parent"])].append(r)
    out: "dict[str, float]" = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = 0
        out[f"{layer}.total_s"] = 0.0
        out[f"{layer}.self_s"] = 0.0
    for r in records:
        layer = r["layer"]
        duration = r["end"] - r["start"]
        out[f"{layer}.calls"] += 1
        out[f"{layer}.self_s"] += max(
            0.0, duration - _covered(r, children.get((r["pid"], r["id"]), ()))
        )
        ancestor = by_key.get((r["pid"], r["parent"]))
        nested = False
        while ancestor is not None:
            if ancestor["layer"] == layer:
                nested = True
                break
            ancestor = by_key.get((ancestor["pid"], ancestor["parent"]))
        if not nested:
            out[f"{layer}.total_s"] += duration
    return out


def _covered(parent: dict, kids) -> float:
    """Length of the union of the children's intervals inside the parent."""
    intervals = sorted(
        (max(k["start"], parent["start"]), min(k["end"], parent["end"])) for k in kids
    )
    covered = 0.0
    cursor = parent["start"]
    for start, end in intervals:
        start = max(start, cursor)
        if end > start:
            covered += end - start
            cursor = end
    return covered


def write_records(path: Path, records: "list[dict]") -> None:
    """Write spans as JSON lines (once, at the end of the run)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")


def per_layer_metrics(tracer: Tracer, records: "list[dict]") -> "dict[str, float]":
    """Layer times plus the counters the tracer itself can see."""
    out = layer_metrics(records)
    meters, counts = tracer.meters, tracer.counts
    out.update(
        {
            "orchestration.journal_record_calls": meters["journal_record"][0],
            "orchestration.journal_record_s": meters["journal_record"][1],
            "orchestration.fsyncs": counts["fsyncs"],
            "markov.qbd_solves": counts["qbd_solves"],
            "markov.iterations": counts["iterations"],
            "robustness.condest_calls": meters["condest"][0],
            "robustness.condest_s": meters["condest"][1],
            "robustness.escalations": counts["escalations"],
            "robustness.trusted": counts["trust.trusted"],
            "robustness.suspect": counts["trust.suspect"],
            "robustness.untrusted": counts["trust.untrusted"] + counts["trust.None"],
            "core.truncated_calls": meters["truncated"][0],
            "core.truncated_s": meters["truncated"][1],
            "simulation.jobs": counts["jobs"],
            "simulation.replications": counts["replications"],
            "simulation.jobs_per_s": (
                counts["jobs"] / out["simulation.total_s"]
                if out["simulation.total_s"] > 0
                else 0.0
            ),
            "perf.store_get_s": meters["store_get"][1],
            "perf.store_put_s": meters["store_put"][1],
        }
    )
    return out
