"""Span recorder for the traced benchmark run.

The recorder wraps every public function of the seven traced einalg modules
(``trace_points``) on each module attribute the library calls through
(``einalg.woodbury.pinv`` as well as ``einalg.inverses.pinv``, and so on), so
calls between modules are seen as well as calls from the benchmark; the
constructor of ``EinsteinTensor`` is wrapped as ``tensor.construct``.  Nothing
inside ``src/einalg`` changes: the wrappers are installed for the traced phase
only and removed afterwards.

Each span records its name, start, end, parent and the op it belongs to.
Spans stay in memory and are written out as gzip-compressed JSON lines when
the run ends.
Self time is a span's duration minus the time its direct children cover;
calls are strictly nested because the benchmark has a single caller.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import inspect
import json
import os
import time

_clock = time.perf_counter_ns


class Span:
    __slots__ = ("id", "parent", "name", "op", "start", "end", "child_ns", "attrs")

    def __init__(self, span_id, parent, name, op, start):
        self.id = span_id
        self.parent = parent
        self.name = name
        self.op = op
        self.start = start
        self.end = 0
        self.child_ns = 0
        self.attrs = None

    @property
    def duration_ns(self) -> int:
        return self.end - self.start

    @property
    def self_ns(self) -> int:
        return self.end - self.start - self.child_ns

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "parent": self.parent,
            "op": self.op,
            "name": self.name,
            "start_ns": self.start,
            "end_ns": self.end,
            "self_ns": self.self_ns,
            "attrs": self.attrs,
        }


class Recorder:
    """In-memory span store with a stack of open spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self.enabled = True
        self._stack: list[Span] = []
        self._op = -1

    def open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), parent.id if parent else None, name, self._op, _clock())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = _clock()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        if self._stack:
            self._stack[-1].child_ns += span.end - span.start

    def begin_op(self, index: int) -> Span:
        self._op = index
        return self.open("op")

    def write_jsonl(self, path) -> None:
        """Write every span as one JSON line, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_dict()) + "\n")


def _svd_attrs(args, result):
    m, n = args[0].shape
    # svd of a wide matrix recurses once on the transpose; only the tall call
    # runs the sweeps, so only it is charged with m*n*min(m, n).
    return {"m": m, "n": n, "computed_mn2": m * n * min(m, n) if m >= n else 0}


def _update_attrs(args, result):
    return {"path": "identity" if result.report.applicable else "fallback"}


def _file_attrs(args, result):
    return {"bytes": os.path.getsize(args[0])}


def _cli_attrs(args, result):
    argv = args[0] if args else None
    return {"command": argv[0] if argv else None, "exit": result}


#: The modules whose public functions are traced; a layer is named after each.
MODULES = ("matkernel", "inverses", "tensor", "woodbury", "sensitivity", "tensorio", "cli")
#: Span names other than ``<home module>.<function name>``.
RENAMED = {f"cli.cmd_{cmd}": f"cli.{cmd}" for cmd in ("pinv", "smw", "solve", "sweep", "verify")}
#: Attribute extractors, by span name.
ATTRS = {
    "matkernel.svd": _svd_attrs,
    "woodbury.update_pinv": _update_attrs,
    "tensorio.load_tensor": _file_attrs,
    "tensorio.save_tensor": _file_attrs,
    "cli.main": _cli_attrs,
}


def trace_points():
    """``(module, attribute, span name)`` for every public function of ``MODULES``.

    A function is public when its name has no leading underscore; it is wrapped
    on every one of the modules that binds it (``einalg.woodbury.pinv`` as
    well as ``einalg.inverses.pinv``), under one span name.  Functions defined
    outside ``MODULES`` (``unfold``, ``shapes``, ``_jacobi``) are not wrapped;
    their time counts as the caller's self time.
    """
    import importlib

    points = []
    for module_name in MODULES:
        module = importlib.import_module(f"einalg.{module_name}")
        for attr, value in vars(module).items():
            if attr.startswith("_") or not inspect.isfunction(value):
                continue
            package, _, home = value.__module__.partition(".")
            if package != "einalg" or home not in MODULES:
                continue
            name = f"{home}.{value.__name__}"
            points.append((module, attr, RENAMED.get(name, name)))
    return points


def _wrap(recorder: Recorder, fn, name: str, attrs_of):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not recorder.enabled:
            return fn(*args, **kwargs)
        span = recorder.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(span)
        if attrs_of is not None:
            span.attrs = attrs_of(args, result)
        return result

    return traced


def _wrap_init(recorder: Recorder, init):
    @functools.wraps(init)
    def traced_init(self, shape, matrix):
        if not recorder.enabled:
            return init(self, shape, matrix)
        span = recorder.open("tensor.construct")
        try:
            init(self, shape, matrix)
        finally:
            recorder.close(span)
        span.attrs = {"bytes": self.matrix.nbytes}

    return traced_init


@contextlib.contextmanager
def paused(recorder: Recorder):
    """Calls made inside the block run unwrapped and record no spans."""
    recorder.enabled = False
    try:
        yield
    finally:
        recorder.enabled = True


class installed:
    """Context manager that installs the wrappers and restores the originals."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self._saved = []

    def __enter__(self):
        from einalg.tensor import EinsteinTensor

        for module, attr, name in trace_points():
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, _wrap(self.recorder, original, name, ATTRS.get(name)))
        init = EinsteinTensor.__init__
        self._saved.append((EinsteinTensor, "__init__", init))
        EinsteinTensor.__init__ = _wrap_init(self.recorder, init)
        return self.recorder

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False
