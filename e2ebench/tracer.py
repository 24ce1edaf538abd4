"""Layer spans recorded from outside the program.

The traced run wraps the public function that enters each ``src/repro``
layer, at the name the caller looks it up through, and keeps per-layer
call counts, self time (span minus child spans) and hit counts in
memory.  Spans nest on one stack: the benchmark runs its sweeps inline
and sequential (one supervision thread), so every span opens and closes
on the main thread.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


class Tracer:
    """Span stack plus per-layer accumulators."""

    def __init__(self) -> None:
        self._stack: list[list[float]] = []
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.hits: Counter = Counter()

    def call(self, layer, fn, args=(), kwargs=None, hit=None):
        """Run ``fn`` as one span of ``layer``; ``hit(result)`` counts
        useful outcomes for the layer's ratio."""
        child = [0.0]
        self._stack.append(child)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            span = time.perf_counter() - t0
            self._stack.pop()
            self.calls[layer] += 1
            self.self_s[layer] += span - child[0]
            if self._stack:
                self._stack[-1][0] += span
        if hit is not None and hit(result):
            self.hits[layer] += 1
        return result

    def take(self) -> dict:
        """Return and reset the accumulators (one phase's numbers)."""
        taken = {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "hits": dict(self.hits),
        }
        self.calls.clear()
        self.self_s.clear()
        self.hits.clear()
        return taken


def _layer_table():
    """(owner, attribute, layer, hit) for every wrapped entry point.

    Module-level functions are wrapped in the module whose globals the
    caller reads: ``OptRouter`` reads ``build_routing_ilp`` and friends
    from ``repro.router.optrouter`` (bound at import), while
    ``check_clip_routing`` is imported lazily from ``repro.drc.checker``
    by the router's warm-start and presolve checks and by the audit.
    The audit's own ``certify_infeasible`` re-check is not wrapped; it
    stays in ``audit`` self time.
    """
    import repro.clips
    import repro.drc.checker
    import repro.router.optrouter
    from repro.analysis.semantics.restriction import RestrictionProver
    from repro.exec.checkpoint import CheckpointJournal
    from repro.ilp.solve_cache import SolveCache
    from repro.router.optrouter import OptRouter
    from repro.verify.audit import ResultAuditor

    opt = repro.router.optrouter
    return [
        (repro.clips, "make_synthetic_clip", "clips", None),
        (repro.clips, "select_top_clips", "clips", None),
        (opt, "certify_infeasible", "certify", lambda r: r is not None),
        (opt, "build_routing_ilp", "build", None),
        (RestrictionProver, "prove", "prove", lambda proof: proof.holds),
        (opt, "presolve_routing_ilp", "presolve", None),
        (opt, "solve_with_highs", "highs", None),
        (SolveCache, "key_for", "cache.key", None),
        (SolveCache, "get", "cache.get", lambda entry: entry is not None),
        (SolveCache, "put", "cache.put", None),
        (repro.drc.checker, "check_clip_routing", "drc", None),
        (OptRouter, "route", "route", None),
        (ResultAuditor, "audit", "audit", None),
        (CheckpointJournal, "append", "journal", None),
    ]


#: Layers of one sweep pass, in reporting order (``flow`` is the
#: self time left inside ``evaluate_clips``: exec.runner + eval.flow).
PASS_LAYERS = (
    "certify", "build", "prove", "presolve", "highs", "cache.key",
    "cache.get", "cache.put", "drc", "route", "audit", "journal", "flow",
)


def _wrap(tracer: Tracer, fn, layer, hit):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(layer, fn, args, kwargs, hit)

    return wrapper


@contextmanager
def installed(tracer: Tracer):
    """Wrap every layer entry point for the ``with`` block, then restore."""
    saved = []
    try:
        for owner, name, layer, hit in _layer_table():
            # Read the raw attribute so a staticmethod stays one: a
            # wrapper that turned ``SolveCache.key_for`` into a plain
            # function would receive ``self`` as the model and make
            # every attempt raise (and the runner retry it).
            raw = vars(owner)[name]
            if isinstance(raw, staticmethod):
                new = staticmethod(_wrap(tracer, raw.__func__, layer, hit))
            else:
                new = _wrap(tracer, raw, layer, hit)
            saved.append((owner, name, raw))
            setattr(owner, name, new)
        yield tracer
    finally:
        for owner, name, raw in reversed(saved):
            setattr(owner, name, raw)
