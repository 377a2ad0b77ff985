"""In-memory span recorder and the layer wrappers of the traced run.

A span is one call into a layer: name, start, end, the span that was
open on the same thread when it began (its parent) and a few counts
taken from the call's result.  Spans are kept in a list and written out
once, when the run ends.

Layers are timed from outside: :func:`install` replaces the public
functions and methods named in :data:`LAYERS` with wrappers that open a
span around each call, and :meth:`Installation.undo` puts the originals
back.
A function is rebound in every loaded ``repro`` module that imported
it by name, so the wrapper sees calls from any caller.  A layer whose
function no longer exists is skipped and listed in
:attr:`Tracer.missing`; its metrics then read 0.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple


class Tracer:
    """Collects spans from every thread of the process."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        #: layers of :data:`LAYERS` whose function was not found
        self.missing: Set[str] = set()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[dict]:
        """Record one span; the yielded dict takes extra attributes."""
        stack = self._stack()
        span_id = next(self._ids)
        record = {
            "id": span_id,
            "parent": stack[-1] if stack else None,
            "name": name,
            "thread": threading.current_thread().name,
            "attrs": attrs,
        }
        stack.append(span_id)
        record["start_ns"] = time.perf_counter_ns()
        try:
            yield record["attrs"]
        finally:
            record["end_ns"] = time.perf_counter_ns()
            stack.pop()
            with self._lock:
                self.spans.append(record)

    def mark(self) -> int:
        """Position in the span list; spans after it ended later."""
        with self._lock:
            return len(self.spans)

    def since(self, mark: int) -> List[dict]:
        with self._lock:
            return list(self.spans[mark:])

    def dump(self, path: str) -> None:
        with self._lock:
            spans = list(self.spans)
        with open(path, "w") as handle:
            json.dump(
                {"spans": spans, "self_s": self_times(spans)},
                handle,
                separators=(",", ":"),
            )


# -- span arithmetic ----------------------------------------------------------


def duration_s(span: dict) -> float:
    return (span["end_ns"] - span["start_ns"]) / 1e9


def outermost(spans: List[dict], *names: str) -> List[dict]:
    """Spans called one of ``names`` with no ancestor among ``spans``
    called one of them (a nested call is counted once)."""
    by_id = {span["id"]: span for span in spans}
    out = []
    for span in spans:
        if span["name"] not in names:
            continue
        parent = by_id.get(span["parent"])
        while parent is not None and parent["name"] not in names:
            parent = by_id.get(parent["parent"])
        if parent is None:
            out.append(span)
    return out


def total_s(spans: List[dict], *names: str) -> float:
    return sum(duration_s(span) for span in outermost(spans, *names))


def self_s(spans: List[dict], span: dict) -> float:
    """The span's duration minus the time its direct children cover."""
    children = sum(
        duration_s(child) for child in spans if child["parent"] == span["id"]
    )
    return duration_s(span) - children


def self_times(spans: List[dict]) -> Dict[str, float]:
    """Self time summed per span name."""
    children: Dict[int, float] = {}
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]] = children.get(
                span["parent"], 0.0
            ) + duration_s(span)
    out: Dict[str, float] = {}
    for span in spans:
        own = duration_s(span) - children.get(span["id"], 0.0)
        out[span["name"]] = out.get(span["name"], 0.0) + own
    return out


def attr_sum(spans: List[dict], name: str, attr: str) -> float:
    return sum(
        span["attrs"].get(attr, 0) for span in outermost(spans, name)
    )


#: the layers whose time counts as covered in :func:`coverage`: every
#: layer but the ``engine`` span that wraps them and the sample's root
LEAF_LAYERS = (
    "workload", "collapse", "faultsim", "results.to_result_set",
    "results.to_jsonl", "results.export", "store.put", "store.get",
)


def coverage(window: List[dict], root: dict) -> float:
    """Share of ``root`` spent inside leaf layer spans; the self time of
    ``engine`` and of the root is not covered."""
    return total_s(window, *LEAF_LAYERS) / duration_s(root)


def cold_layers(window: List[dict]) -> Dict[str, float]:
    """Per-layer totals of one cold sample's spans."""
    classes = attr_sum(window, "collapse", "classes")
    faults = attr_sum(window, "collapse", "faults")
    return {
        "workload.gen_s": total_s(window, "workload"),
        "workload.cycles": attr_sum(window, "workload", "cycles"),
        "collapse.s": total_s(window, "collapse"),
        "collapse.classes_per_fault": classes / faults if faults else 0.0,
        "results.to_result_set_s": total_s(window, "results.to_result_set"),
        "results.to_jsonl_s": total_s(window, "results.to_jsonl"),
        "results.payload_bytes": attr_sum(window, "results.to_jsonl", "bytes"),
        "results.export_s": total_s(window, "results.export"),
        "store.put_s": total_s(window, "store.put"),
        "engine.self_s": sum(
            self_s(window, span) for span in outermost(window, "engine")
        ),
        "faultsim.self_s": sum(
            self_s(window, span) for span in outermost(window, "faultsim")
        ),
    }


def resumed_layers(window: List[dict]) -> Dict[str, float]:
    """Store reads of one resumed sample's spans."""
    return {"store.get_s": total_s(window, "store.get")}


# -- layer wrappers -----------------------------------------------------------


def _collapse_counts(result) -> dict:
    return {"classes": result.num_classes, "faults": result.total}


def _payload_bytes(result) -> dict:
    return {"bytes": len(result)}


def _cycles(result) -> dict:
    return {"cycles": len(result)}


#: (span name, module, class or None, attribute, counts taken from the
#: call's result)
LAYERS: Tuple[Tuple[str, str, Optional[str], str, Optional[Callable]], ...] = (
    ("workload", "repro.scenarios.workload", "Workload", "address_list",
     _cycles),
    ("design", "repro.design.engine", "DesignEngine", "build", None),
    ("collapse", "repro.circuits.equivalence", None, "collapse_faults",
     _collapse_counts),
    ("faultsim", "repro.faultsim.campaign", None, "scheme_campaign", None),
    ("results.to_result_set", "repro.faultsim.results", "CampaignResult",
     "to_result_set", None),
    ("results.to_jsonl", "repro.results.resultset", "ResultSet", "to_jsonl",
     _payload_bytes),
    ("store.put", "repro.results.store", "ResultStore", "put", None),
    ("store.put", "repro.results.store", "ResultStore", "put_report", None),
    ("store.get", "repro.results.store", "ResultStore", "get", None),
    ("store.get", "repro.results.store", "ResultStore", "payload", None),
    ("store.get", "repro.results.store", "ResultStore", "get_report", None),
    ("engine", "repro.scenarios.engine", "CampaignEngine", "scheme", None),
    ("suite", "repro.suite.runner", "SuiteRunner", "run", None),
)


def _wrap(tracer: Tracer, name: str, func: Callable, counts) -> Callable:
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        with tracer.span(name) as attrs:
            result = func(*args, **kwargs)
            if counts is not None:
                attrs.update(counts(result))
            return result

    return wrapper


def _subclasses(cls: type) -> List[type]:
    out, todo = [], [cls]
    while todo:
        current = todo.pop()
        if current not in out:
            out.append(current)
            todo.extend(current.__subclasses__())
    return out


class Installation:
    """The patches one :func:`install` made, undone by :meth:`undo`."""

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, object]] = []

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def undo(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def install(tracer: Tracer) -> Installation:
    """Wrap every layer in :data:`LAYERS`; returns the undo handle."""
    patches = Installation()
    for name, module_name, class_name, attr, counts in LAYERS:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            tracer.missing.add(f"{module_name}.{attr}")
            continue
        if class_name is None:
            func = getattr(module, attr, None)
            if func is None:
                tracer.missing.add(f"{module_name}.{attr}")
                continue
            wrapper = _wrap(tracer, name, func, counts)
            for loaded in list(sys.modules.values()):
                loaded_name = getattr(loaded, "__name__", "")
                if loaded_name.split(".")[0] != "repro":
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is func:
                        patches._set(loaded, key, wrapper)
            continue
        base = getattr(module, class_name, None)
        if base is None:
            tracer.missing.add(f"{module_name}.{class_name}")
            continue
        found = False
        for cls in _subclasses(base):
            if attr not in cls.__dict__:
                continue
            found = True
            patches._set(
                cls, attr, _wrap(tracer, name, cls.__dict__[attr], counts)
            )
        if not found:
            tracer.missing.add(f"{module_name}.{class_name}.{attr}")
    return patches

