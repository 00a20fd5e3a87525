"""Spans and work counters recorded around the library's public functions.

The wrappers live here, not in the library: ``install`` replaces each
layer's public functions (and the Field methods that build tables or work on
whole vectors) with traced versions, in every module that holds a reference
to them, such as ``crosscorr.get_field``.  Scalar field operations are not
wrapped; their time counts in the caller's self time.

A span records its bucket, start, end and parent.  A bucket's self time is
the time of its spans minus the time of their child spans, so the buckets of
one job, with the job's own ``bench`` span, add up to the job's time.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import Counter

import char2kit
from char2kit import crosscorr, curves, expsums, gf2m, zeta

MODULES = (char2kit, gf2m, expsums, crosscorr, curves, zeta)

# Bucket of each public function; the rest of a module goes to its default.
BUCKETS = {
    gf2m: ("gf2m.ops", {}),
    expsums: ("expsums", {}),
    crosscorr: ("crosscorr.spectrum", {
        "a1_bruteforce": "crosscorr.a1_brute",
        "a1_formula": "crosscorr.formula",
        "theorem1_multiplicities": "crosscorr.formula",
    }),
    curves: ("curves.other", {
        "count_projective_points": "curves.count",
        "count_projective_points_fast": "curves.count",
        "singular_points": "curves.singular",
    }),
    zeta: ("zeta", {}),
}
METHODS = (
    (gf2m.Field, "__init__", "gf2m.build"),
    (gf2m.Field, "pow_table", "gf2m.ops"),
    (gf2m.Field, "vec_mul", "gf2m.ops"),
    (gf2m.Field, "vec_inv", "gf2m.ops"),
    (curves.TrivariatePoly, "__mul__", "curves.other"),
    (curves.TrivariatePoly, "__pow__", "curves.other"),
    (curves.CurveCatalogEntry, "corrected_prediction", "curves.other"),
)
LAYERS = ("gf2m", "expsums", "crosscorr", "curves", "zeta", "bench")


def _argument(fn, args, kwargs, name):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


def _count_field(c, fn, args, kwargs, result):
    field = args[0]
    c["gf2m.builds"] += 1
    if field.has_tables:
        c["gf2m.table_bytes"] += sum(t.nbytes for t in (field.exp_table, field.log_table,
                                                         field.trace_table))


def _count_sum(c, fn, args, kwargs, result):
    c["expsums.calls"] += 1
    c["expsums.elements"] += result.domain_size


def _count_shifts(c, fn, args, kwargs, result):
    if fn.__name__ == "correlation_distribution" or (
            _argument(fn, args, kwargs, "mode") == "via_correlation"):
        c["crosscorr.spectrum_shifts"] += (1 << result.m) - 1


def _count_triples(c, fn, args, kwargs, result):
    c["crosscorr.a1_triples"] += 8 ** _argument(fn, args, kwargs, "m")


def _count_chart(c, fn, args, kwargs, result):
    s = _argument(fn, args, kwargs, "s")
    c["curves.chart_points"] += 4**s + 2**s + 1


COUNTERS = {
    "__init__": _count_field,
    "kloosterman": _count_sum,
    "c_sum": _count_sum,
    "g_sum": _count_sum,
    "k_prime": _count_sum,
    "correlation_distribution": _count_shifts,
    "weight_distribution": _count_shifts,
    "a1_bruteforce": _count_triples,
    "count_projective_points": _count_chart,
    "count_projective_points_fast": _count_chart,
}


class Tracer:
    """In-memory spans and counters; ``spans`` rows are [bucket, start, end, parent]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, fn, bucket: str, count=None):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [bucket, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if count is not None:
                count(counts, fn, args, kwargs, result)
            return result

        return traced

    def self_times(self) -> Counter:
        """Self time per bucket over all recorded spans."""
        out: Counter = Counter()
        for bucket, start, end, parent in self.spans:
            out[bucket] += end - start
            if parent >= 0:
                out[self.spans[parent][0]] -= end - start
        return out


def install(tracer: Tracer) -> list[tuple]:
    """Wrap the library in place; returns what ``uninstall`` needs to undo it."""
    patches = []
    for module, (default, special) in BUCKETS.items():
        for name in getattr(module, "__all__", ()):
            fn = getattr(module, name, None)
            if not (inspect.isfunction(fn) or hasattr(fn, "cache_info")):
                continue
            traced = tracer.wrap(fn, special.get(name, default), COUNTERS.get(name))
            for holder in MODULES:
                for attr, value in list(vars(holder).items()):
                    if value is fn:
                        patches.append((holder, attr, fn))
                        setattr(holder, attr, traced)
    for cls, name, bucket in METHODS:
        fn = cls.__dict__.get(name)
        if fn is not None:
            patches.append((cls, name, fn))
            setattr(cls, name, tracer.wrap(fn, bucket, COUNTERS.get(name)))
    return patches


def uninstall(patches: list[tuple]) -> None:
    for holder, attr, original in reversed(patches):
        setattr(holder, attr, original)
