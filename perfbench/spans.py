"""Span tracing for the benchmark's traced runs.

The engine is not edited.  ``install`` wraps the engine's public functions
and methods listed in ``TARGETS`` at every name they are bound under (a
module that did ``from x import f`` holds its own reference, so patching
``x.f`` alone would miss it).  In the driver it also wraps the
``ray.data.Dataset`` calls the package makes.  Ray workers install the same
wrappers from ``worker_setup``, the session's ``worker_process_setup_hook``.

A span is ``(id, parent, name, start, end, counts)``; start and end are
``time.perf_counter()`` readings, which on Linux come from one system-wide
monotonic clock, so spans from every process can be placed in the driver's
job intervals (that placement is the span's job id).  Spans stay in memory;
a worker appends them to its own file in the trace directory each time its
outermost span closes, so they are on disk before the task returns.
"""

from __future__ import annotations

import importlib
import itertools
import json
import os
import sys
import threading
import time
import types

TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"
PKG = "ndap_data_validator_ray"


def _rows(args, kwargs, out):
    return {"rows": args[1].num_rows}


def _validate_counts(args, kwargs, out):
    import pyarrow.compute as pc

    viol = pc.sum(pc.equal(out["record_type"], "violation")).as_py() or 0
    return {"rows": args[1].num_rows, "violation_rows": viol}


def _values(args, kwargs, out):
    return {"values": len(args[0])}


def _blob_out(args, kwargs, out):
    return {"blob_bytes": len(out)}


def _blob_in(args, kwargs, out):
    return {"blob_bytes": len(args[0])}


def _dup_keys(args, kwargs, out):
    return {"dup_keys": out.num_rows}


def _driver_rows(args, kwargs, out):
    return {"driver_rows": len(out)}


# (module, attribute, span name, counter)
TARGETS = [
    (f"{PKG}.functions.audio_codec", "decode", "functions.audio_codec", None),
    (f"{PKG}.functions.audio_codec", "sniff_header", "functions.audio_codec", None),
    (f"{PKG}.functions.audio_codec", "audio_features", "functions.audio_codec", None),
    (f"{PKG}.stages.audio", "AudioDecodeValidator.__call__", "stages.audio", _rows),
    (f"{PKG}.stages.validate", "ValidateBatch.__call__", "stages.validate", _validate_counts),
    (f"{PKG}.functions.coercion", "coerce_by_role", "functions.coercion", _values),
    (f"{PKG}.functions.timefmt", "format_ids", "functions.timefmt", None),
    (f"{PKG}.functions.timefmt", "batch_histogram", "functions.timefmt", None),
    (f"{PKG}.functions.sketches", "serialize", "functions.sketches", _blob_out),
    (f"{PKG}.functions.sketches", "deserialize", "functions.sketches", _blob_in),
    (f"{PKG}.functions.sketches", "HyperLogLog.update", "functions.sketches", None),
    (f"{PKG}.functions.sketches", "HyperLogLog.merge", "functions.sketches", None),
    (f"{PKG}.functions.sketches", "TDigest.update", "functions.sketches", None),
    (f"{PKG}.functions.sketches", "TDigest.merge", "functions.sketches", None),
    (f"{PKG}.report", "TableStats.merge", "report.merge", None),
    (f"{PKG}.report", "finalize_report", "report.finalize", None),
    (f"{PKG}.state.checkpoint", "load_manifests", "state.checkpoint.load", None),
    (f"{PKG}.state.checkpoint", "lineage_id_for", "state.checkpoint.lineage", None),
    (f"{PKG}.state.checkpoint", "write_manifest", "state.checkpoint.write", None),
    (f"{PKG}.stages.dedup", "duplicate_keys", "stages.dedup", _dup_keys),
    (f"{PKG}.sources.synthetic", "clip_files", "sources.list", None),
]

# modules whose by-name bindings must see the wrappers
_BINDERS = [
    f"{PKG}.pipelines.clip_validation",
    f"{PKG}.pipelines.role_validation",
    f"{PKG}.state.baseline",
]

# Dataset calls made by the package (driver only)
_EXCHANGES = ("groupby", "repartition", "sort")
_EXECUTIONS = ("to_pandas", "materialize", "write_parquet", "count", "schema")


class Recorder:
    """Per-process span store.  ``out_path`` set: append to that file
    whenever a thread's outermost span closes (worker processes)."""

    def __init__(self, out_path: str | None = None):
        self.out_path = out_path
        self.spans: list[list] = []
        self._flushed = 0
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()

    def begin(self, name: str) -> list:
        stack = self._local.__dict__.setdefault("stack", [])
        span = [next(self._ids), stack[-1][0] if stack else -1, name, time.perf_counter(), 0.0, None]
        stack.append(span)
        return span

    def end(self, span: list) -> None:
        span[4] = time.perf_counter()
        stack = self._local.stack
        stack.pop()
        self.spans.append(span)
        if not stack and self.out_path:
            self.flush()

    def flush(self) -> None:
        with self._lock:
            pending = self.spans[self._flushed :]
            self._flushed += len(pending)
            if pending:
                with open(self.out_path, "a") as fh:
                    fh.write("".join(json.dumps(s) + "\n" for s in pending))


_recorder: Recorder | None = None


class Traced:
    """Wrapper for one engine function or method.  Pickles as a reference
    to its home attribute, so a traced function shipped to a worker resolves
    to whatever that worker binds under the same name."""

    def __init__(self, fn, name: str, counter, home: tuple[str, str]):
        self.fn = fn
        self.name = name
        self.counter = counter
        self.home = home
        self.__wrapped__ = fn
        self.__doc__ = getattr(fn, "__doc__", None)

    def __call__(self, *args, **kwargs):
        rec = _recorder
        if rec is None:
            return self.fn(*args, **kwargs)
        span = rec.begin(self.name)
        try:
            out = self.fn(*args, **kwargs)
            if self.counter is not None:
                span[5] = self.counter(args, kwargs, out)
            return out
        finally:
            rec.end(span)

    def __get__(self, obj, objtype=None):
        return self if obj is None else types.MethodType(self, obj)

    def __reduce__(self):
        return (_resolve, self.home)


def _resolve(module: str, attr: str):
    obj = importlib.import_module(module)
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


class _PackageCall(Traced):
    """Dataset method wrapper that records only calls made from the
    package, not Ray's own internal calls."""

    def __call__(self, *args, **kwargs):
        if not sys._getframe(1).f_globals.get("__name__", "").startswith(PKG):
            return self.fn(*args, **kwargs)
        return super().__call__(*args, **kwargs)


def _patch_function(module, attr: str, name: str, counter) -> None:
    orig = getattr(module, attr)
    if isinstance(orig, Traced):
        return
    wrapper = Traced(orig, name, counter, (module.__name__, attr))
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith(PKG):
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, wrapper)


def _patch_method(owner, meth: str, name: str, counter, home: tuple[str, str]) -> None:
    orig = owner.__dict__[meth]
    if not isinstance(orig, Traced):
        setattr(owner, meth, Traced(orig, name, counter, home))


def install(recorder: Recorder, driver: bool) -> None:
    """Import the traced modules, wrap every target, start recording."""
    global _recorder
    for mod in {t[0] for t in TARGETS} | set(_BINDERS):
        importlib.import_module(mod)
    for modname, attr, name, counter in TARGETS:
        module = sys.modules[modname]
        if "." in attr:
            cls, meth = attr.split(".")
            _patch_method(getattr(module, cls), meth, name, counter, (modname, attr))
        else:
            _patch_function(module, attr, name, counter)
    if driver:
        import ray.data

        for meth in _EXCHANGES:
            home = ("ray.data", f"Dataset.{meth}")
            setattr(ray.data.Dataset, meth, _PackageCall(ray.data.Dataset.__dict__[meth], "pipelines.exchange", None, home))
        for meth in _EXECUTIONS:
            home = ("ray.data", f"Dataset.{meth}")
            counter = _driver_rows if meth == "to_pandas" else None
            setattr(ray.data.Dataset, meth, _PackageCall(ray.data.Dataset.__dict__[meth], "pipelines.execute", counter, home))
    _recorder = recorder


def recorder() -> Recorder | None:
    return _recorder


def worker_setup() -> None:
    """``worker_process_setup_hook`` of a traced Ray session."""
    trace_dir = os.environ[TRACE_DIR_ENV]
    install(Recorder(os.path.join(trace_dir, f"spans-{os.getpid()}.jsonl")), driver=False)


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


def load_worker_spans(trace_dir: str) -> list[list[list]]:
    """Spans of every worker process, one list per process."""
    out = []
    for fname in sorted(os.listdir(trace_dir)):
        if fname.startswith("spans-"):
            with open(os.path.join(trace_dir, fname)) as fh:
                out.append([json.loads(line) for line in fh])
    return out


def summarize(processes: list[list[list]], jobs: list[tuple[float, float]]) -> dict[str, dict[str, float]]:
    """Per span name, totals over spans that start inside a timed job:
    ``self`` (duration minus child spans), ``incl`` (duration, outermost
    span of that name only), ``calls`` and every counter."""
    starts = sorted(jobs)
    out: dict[str, dict[str, float]] = {}
    for spans in processes:
        by_id = {s[0]: s for s in spans}
        child_time: dict[int, float] = {}
        for s in spans:
            if s[1] >= 0:
                child_time[s[1]] = child_time.get(s[1], 0.0) + (s[4] - s[3])
        for s in spans:
            if not any(a <= s[3] <= b for a, b in starts):
                continue
            dur = s[4] - s[3]
            agg = out.setdefault(s[2], {"self": 0.0, "incl": 0.0, "calls": 0})
            agg["self"] += dur - child_time.get(s[0], 0.0)
            agg["calls"] += 1
            parent = by_id.get(s[1])
            nested = False
            while parent is not None:
                if parent[2] == s[2]:
                    nested = True
                    break
                parent = by_id.get(parent[1])
            if not nested:
                agg["incl"] += dur
            for key, val in (s[5] or {}).items():
                agg[key] = agg.get(key, 0) + val
    return out
