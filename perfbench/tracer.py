"""Span tracing of the nbesov layers, installed from outside the package.

``Tracer.install()`` wraps every public (not underscored) function and
method defined in the six measured layers (domains, littlewood_paley,
spectral, norms, verify, reports).  A wrapper replaces the module attribute and every ``from ...
import`` binding of the same object in any ``nbesov.*`` module, plus the
experiment entries of ``nbesov.verify.runner.REGISTRY``, so calls made
through any of those names are recorded.  ``uninstall()`` puts the
originals back.

Each span records its name, start, end, parent span and thread, on a
per-thread stack; the suite's pool threads parent their first span on the
span open in the thread that installed the tracer.  Spans of one request
(or one experiment) share a request id.  Spans stay in memory until
``dump()`` writes them.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import itertools
import json
import os
import sys
import threading
import time
from dataclasses import dataclass, field

LAYERS = ("domains", "littlewood_paley", "spectral", "norms", "verify", "reports")


@dataclass
class Span:
    sid: int
    name: str
    rid: str
    parent: int | None
    thread: int
    t0: float
    t1: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def dur(self) -> float:
        return self.t1 - self.t0


def _layer_of(module_name: str) -> str | None:
    parts = module_name.split(".")
    if len(parts) >= 2 and parts[0] == "nbesov" and parts[1] in LAYERS:
        return parts[1]
    return None


def _annotate_endpoint_norms(args, kwargs, result):
    kernel = args[0] if args else kwargs["kernel"]
    return {"vector": kernel.components is not None}


def _annotate_kernel(args, kwargs, result):
    n = result.grid.n_nodes
    comps = 1 if result.components is None else result.components.shape[0]
    # Computed, not measured: the dense float64 matrix the call assembled.
    return {"bytes": comps * n * n * 8}


def _annotate_save_basis(args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


def _annotate_report_save(args, kwargs, result):
    return {"bytes": sum(os.path.getsize(p) for p in result)}


# Extra facts recorded on a span, computed after its end time is taken.
ANNOTATORS = {
    "spectral.endpoint_norms": _annotate_endpoint_norms,
    "spectral.multiplier_kernel": _annotate_kernel,
    "spectral.gradient_kernels": _annotate_kernel,
    "domains.save_basis": _annotate_save_basis,
    "reports.EstimateReport.save": _annotate_report_save,
}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.active = False
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._home_stack: list[Span] | None = None
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[Span]:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def _open(self, name: str, rid: str | None) -> Span:
        st = self._stack()
        sid = next(self._ids)
        if st:
            parent = st[-1]
        elif self._home_stack and self._home_stack is not st:
            parent = self._home_stack[-1]  # a pool thread's first span
            rid = rid or f"{name}#{sid}"
        else:
            parent = None
        rid = rid or (parent.rid if parent is not None else f"{name}#{sid}")
        span = Span(sid, name, rid, parent.sid if parent is not None else None,
                    threading.get_ident(), time.perf_counter())
        st.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.t1 = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    @contextlib.contextmanager
    def span(self, name: str, rid: str | None = None):
        """A benchmark-level span (a request root); nothing when inactive."""
        span = self._open(name, rid) if self.active else None
        try:
            yield span
        finally:
            if span is not None:
                self._close(span)

    def wrap(self, fn, name: str):
        annotate = ANNOTATORS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span = tracer._open(name, None)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if annotate is not None:
                span.attrs = annotate(args, kwargs, result)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def _targets(self):
        """(owner, attribute, original, span name) for every wrapped callable."""
        import nbesov.verify.runner as runner

        seen = {}
        out = []
        for mod_name, mod in sorted(sys.modules.items()):
            layer = _layer_of(mod_name) if mod is not None else None
            if layer is None:
                continue
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod_name:
                    continue
                if inspect.isclass(obj):
                    for meth, raw in vars(obj).items():
                        if meth.startswith("_") or not inspect.isfunction(raw):
                            continue
                        out.append((obj, meth, raw, f"{layer}.{obj.__name__}.{meth}"))
                elif callable(obj) and id(obj) not in seen:
                    seen[id(obj)] = f"{layer}.{attr}"
        for exp_id, fn in runner.REGISTRY.items():
            seen[id(fn)] = f"verify.exp.{exp_id}"
        for mod_name, mod in sorted(sys.modules.items()):
            if mod is None or not (mod_name == "nbesov" or mod_name.startswith("nbesov.")):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in seen:
                    out.append((mod, attr, obj, seen[id(obj)]))
        for exp_id, fn in runner.REGISTRY.items():
            out.append((runner.REGISTRY, exp_id, fn, seen[id(fn)]))
        return out

    def install(self) -> None:
        """Wrap the layers and start recording in the calling thread."""
        wrappers = {}
        for owner, attr, orig, name in self._targets():
            w = wrappers.get(id(orig))
            if w is None:
                w = wrappers[id(orig)] = self.wrap(orig, name)
            self._patches.append((owner, attr, orig))
            if isinstance(owner, dict):
                owner[attr] = w
            else:
                setattr(owner, attr, w)
        self._home_stack = self._stack()
        self.active = True

    def uninstall(self) -> None:
        self.active = False
        for owner, attr, orig in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = orig
            else:
                setattr(owner, attr, orig)
        self._patches.clear()

    @contextlib.contextmanager
    def paused(self):
        """Stop recording for the duration (the benchmark's own checks)."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def dump(self, path: str) -> None:
        rows = [[s.sid, s.name, s.rid, s.parent, s.thread, s.t0, s.t1, s.attrs]
                for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"fields": ["sid", "name", "rid", "parent", "thread", "t0", "t1",
                                  "attrs"], "spans": rows}, fh, separators=(",", ":"))


# ---------------------------------------------------------------------------
# Analysis


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of its interval its child spans cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        end = s.t0
        for c in sorted(children.get(s.sid, ()), key=lambda c: c.t0):
            lo, hi = max(c.t0, end), min(c.t1, s.t1)
            if hi > lo:
                covered += hi - lo
                end = hi
        out[s.sid] = s.dur - covered
    return out


def outermost_total(spans: list[Span], names) -> float:
    """Summed duration of spans named in ``names``, skipping those nested
    inside another span of the same group (no double counting)."""
    names = set(names)
    by_sid = {s.sid: s for s in spans}
    total = 0.0
    for s in spans:
        if s.name not in names:
            continue
        p = by_sid.get(s.parent)
        nested = False
        while p is not None:
            if p.name in names:
                nested = True
                break
            p = by_sid.get(p.parent)
        if not nested:
            total += s.dur
    return total
