"""In-memory spans around linkagekit's public functions, recorded from outside.

Each target is patched where its caller looks it up: linkagekit.locus
imports eliminate, divide and straightness_stats by name, so those names are
replaced in linkagekit.locus; the benchmark itself calls solver.trace,
locus.certify and poly.eliminate through their modules, so those module
attributes are replaced. Nothing inside the package changes.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from linkagekit import locus, poly, solver


def _model(args) -> Optional[str]:
    return getattr(args[0], "name", None) if args else None


def _trace_counts(result) -> dict[str, int]:
    return {"samples": len(result.samples), "events": len(result.events)}


def _certify_name(result) -> Optional[str]:
    return "locus.certify_fallback" if result.via_fallback else None


@dataclass(frozen=True)
class Target:
    module: Any
    attr: str
    span: str
    per_model: bool = False
    counts: Optional[Callable[[Any], dict[str, int]]] = None
    rename: Optional[Callable[[Any], Optional[str]]] = None


TARGETS = (
    Target(solver, "trace", "solver.trace", per_model=True, counts=_trace_counts),
    Target(locus, "certify", "locus.certify", per_model=True, rename=_certify_name),
    Target(locus, "straightness_stats", "solver.straightness_stats"),
    Target(locus, "locus_equation", "locus.locus_equation"),
    Target(locus, "constraint_ideal", "locus.constraint_ideal"),
    Target(locus, "extract_linear_factors", "locus.extract_linear_factors"),
    Target(locus, "eliminate", "poly.eliminate"),
    Target(locus, "divide", "poly.divide"),
    Target(poly, "eliminate", "poly.eliminate"),
)


@dataclass
class Span:
    name: str
    model: Optional[str]
    parent: Optional[int]
    start: float
    end: float = 0.0
    child: float = 0.0
    counts: dict[str, int] = field(default_factory=dict)


class Recorder:
    """Collects spans while installed; install() and uninstall() swap the
    wrapped functions in and out so untraced rounds run the originals."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []

    def _wrap(self, target: Target, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            model = _model(args) if target.per_model else None
            span = Span(target.span, model, stack[-1] if stack else None, 0.0)
            spans.append(span)
            stack.append(idx)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if span.parent is not None:
                    spans[span.parent].child += span.end - span.start
            if target.counts:
                span.counts = target.counts(result)
            if target.rename:
                span.name = target.rename(result) or span.name
            return result

        return wrapper

    def install(self) -> None:
        for t in TARGETS:
            fn = getattr(t.module, t.attr)
            self._saved.append((t.module, t.attr, fn))
            setattr(t.module, t.attr, self._wrap(t, fn))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def span_cost(self, calls: int = 20000) -> float:
        """Seconds a wrapper adds to one call, timed on a no-op; the
        calibration spans are discarded."""
        def noop():
            return None

        wrapped = self._wrap(Target(None, "noop", "calibration"), noop)
        mark = self.mark()
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = time.perf_counter()
        del self.spans[mark:]
        return max((t2 - t1) - (t1 - t0), 0.0) / calls

    def mark(self) -> int:
        return len(self.spans)

    def top_level(self, since: int) -> float:
        """Summed duration of the parentless spans recorded since mark()."""
        return sum(s.end - s.start for s in self.spans[since:] if s.parent is None)


def summarize(spans: list[Span]) -> dict[str, dict]:
    """Per span name: self seconds, calls, summed counts, and per-model
    inclusive seconds."""
    out: dict[str, dict] = defaultdict(
        lambda: {"self_s": 0.0, "calls": 0, "counts": defaultdict(int), "models": defaultdict(float)}
    )
    for s in spans:
        agg = out[s.name]
        dur = s.end - s.start
        agg["self_s"] += dur - s.child
        agg["calls"] += 1
        for k, v in s.counts.items():
            agg["counts"][k] += v
        if s.model is not None:
            agg["models"][s.model] += dur
    return out
