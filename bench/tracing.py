"""Spans around the calls into each cloudinv module, recorded from outside.

The package is not edited: :func:`traced` swaps every public function,
constructor and public method of the package modules for a timing wrapper,
in every module namespace that bound the same object (``cli`` holds its own
``read_cloud_csv``, the package holds re-exports), and restores them on
exit.  Spans are kept in memory and summarised or written out at the end.
"""
from __future__ import annotations

import functools
import inspect
import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

LAYERS = ("coefficients", "transform", "families", "embedding", "generators",
          "cloudgen", "errors", "cli")

REQUEST = "request"

# Public functions left unwrapped: building the parser is part of cli.main's
# own work (argparse, report build and render), so it stays in its self time.
UNWRAPPED = frozenset({"cli.build_parser"})


class Tracer:
    """Spans as tuples (name, start_ns, end_ns, parent_index, request, exc)."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list[tuple[int, str]] = []
        self.request = -1

    def call(self, name: str, fn, *args, **kwargs):
        spans, stack = self.spans, self._stack
        if stack and stack[-1][1] == name:
            # A function re-entering itself (read_cloud_csv opens the file and
            # calls itself on the handle) is one call, not two.
            return fn(*args, **kwargs)
        idx = len(spans)
        spans.append(None)
        parent = stack[-1][0] if stack else -1
        stack.append((idx, name))
        exc = None
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        except BaseException as e:
            exc = type(e).__name__
            raise
        finally:
            end = perf_counter_ns()
            stack.pop()
            spans[idx] = (name, start, end, parent, self.request, exc)

    def run_request(self, request_id: int, fn, *args):
        """One request as a root span; its self time is the unattributed rest."""
        self.request = request_id
        return self.call(REQUEST, fn, *args)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced_fn(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced_fn

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _targets(package):
    """(owner, attribute, span name) for everything the tracer wraps."""
    modules = [getattr(package, layer) for layer in LAYERS
               if hasattr(package, layer)]
    for mod in modules:
        layer = mod.__name__.rsplit(".", 1)[-1]
        for attr, obj in sorted(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                if f"{layer}.{attr}" not in UNWRAPPED:
                    yield mod, attr, f"{layer}.{attr}"
            elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                if "__init__" in vars(obj):
                    yield obj, "__init__", f"{layer}.{attr}"
                for meth, raw in sorted(vars(obj).items()):
                    func = getattr(raw, "__func__", raw)
                    if (not meth.startswith("_") and inspect.isfunction(func)
                            and not getattr(func, "__isabstractmethod__", False)):
                        yield obj, meth, f"{layer}.{meth}"


@contextmanager
def traced(package, tracer: Tracer):
    """Patch the package so every public call records a span; undo on exit."""
    namespaces = [package] + [getattr(package, layer) for layer in LAYERS
                              if hasattr(package, layer)]
    undo = []
    try:
        for owner, attr, name in list(_targets(package)):
            raw = vars(owner)[attr]
            if inspect.isclass(owner):
                kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
                func = raw.__func__ if kind else raw
                wrapped = tracer.wrap(name, func)
                setattr(owner, attr, kind(wrapped) if kind else wrapped)
                undo.append((owner, attr, raw))
                continue
            wrapped = tracer.wrap(name, raw)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is raw:
                        setattr(ns, key, wrapped)
                        undo.append((ns, key, raw))
        yield tracer
    finally:
        for owner, attr, raw in reversed(undo):
            setattr(owner, attr, raw)


def summarize(spans, sizes=None) -> tuple[dict, dict]:
    """Per span name: calls, busy and self time, and work units processed.

    Self time is busy time minus the time of direct child spans.  The
    ``request`` root's self time is what no wrapped call accounts for.
    ``sizes`` maps a request id to its work units (points or lines); each
    span is credited with its request's size.  Returns ``(rows, errors)``,
    where ``errors`` counts, per exception class, the requests in which some
    wrapped call raised it.
    """
    child_ns = defaultdict(int)
    for name, start, end, parent, _req, _exc in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out: dict = defaultdict(lambda: {"calls": 0, "busy_ns": 0, "self_ns": 0, "units": 0})
    raised = defaultdict(set)
    for idx, (name, start, end, _parent, req, exc) in enumerate(spans):
        row = out[name]
        row["calls"] += 1
        row["busy_ns"] += end - start
        row["self_ns"] += end - start - child_ns[idx]
        if sizes is not None:
            row["units"] += sizes.get(req, 0)
        if exc is not None and name != REQUEST:
            raised[exc].add(req)
    return ({name: dict(row) for name, row in out.items()},
            {cls: len(reqs) for cls, reqs in raised.items()})
