"""Layer spans for the traced run.

Spans are recorded from the benchmark's own files: around the public calls
the benchmark makes, and around public estimator methods, which are wrapped
on their classes for the duration of a traced phase and restored afterwards.
Nothing under ``src/`` is edited.

A span's self time is its duration minus the time covered by the spans it
caused, so the self times of all spans add up to the time spent inside the
outermost spans.
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext

import numpy as np

from confjudge import BinClassifier, KernelSimilarity, QuantileForest


class Tracer:
    """Per-name self time, call count and (for names asked for) every
    inclusive duration, plus free-form counters."""

    def __init__(self, keep_durations=()):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.maxima = defaultdict(int)
        self.durations = defaultdict(list)
        self._keep = tuple(keep_durations)
        self._child_time = []

    @contextmanager
    def span(self, name: str):
        self._child_time.append(0.0)
        start = time.perf_counter()
        try:
            yield
        finally:
            duration = time.perf_counter() - start
            children = self._child_time.pop()
            self.self_s[name] += duration - children
            self.calls[name] += 1
            if self._child_time:
                self._child_time[-1] += duration
            if name.startswith(self._keep):
                self.durations[name].append(duration)

    def self_sum(self) -> float:
        return sum(self.self_s.values())

    def p50_ms(self, name: str) -> float:
        d = self.durations.get(name)
        return 1000.0 * statistics.median(d) if d else 0.0


class NullTracer:
    """Tracing off: every span is the same no-op context."""

    _null = nullcontext()

    def span(self, name: str):
        return self._null


def _wrap(tracer: Tracer, name: str, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if after is not None:
            after(args, result)
        return result
    return wrapper


def _pair_bytes(tracer: Tracer, a, b):
    """Size of the (a x b x features) float64 difference tensor a kernel
    call builds; computed from the argument shapes, not measured."""
    rows_a, features = a.shape[0], a.shape[-1]
    rows_b = b.shape[0]
    key = "estimators.kernel.pair_bytes"
    tracer.maxima[key] = max(tracer.maxima[key], rows_a * rows_b * features * 8)


@contextmanager
def patched_estimators(tracer: Tracer):
    """Wrap the public estimator methods in spans while the block runs."""

    def count_trees(args, forest):
        tracer.counts["estimators.quantile_forest.trees"] += len(forest.trees)

    def count_epochs(args, clf):
        tracer.counts["estimators.bin_classifier.epochs"] += len(clf.loss_history) - 1

    def median_pairs(args, _):
        x = np.atleast_2d(np.asarray(args[1], dtype=float))
        _pair_bytes(tracer, x, x)

    def weight_pairs(args, _):
        _pair_bytes(tracer, np.atleast_2d(np.asarray(args[2], dtype=float)),
                    np.atleast_2d(np.asarray(args[1], dtype=float)))

    methods = [
        (QuantileForest, "fit", "estimators.quantile_forest.fit", count_trees),
        (QuantileForest, "predict", "estimators.quantile_forest.predict", None),
        (QuantileForest, "from_dict", "estimators.quantile_forest.from_dict", None),
        (BinClassifier, "fit", "estimators.bin_classifier.fit", count_epochs),
        (BinClassifier, "predict_proba", "estimators.bin_classifier.predict_proba", None),
        (BinClassifier, "from_dict", "estimators.bin_classifier.from_dict", None),
        (KernelSimilarity, "median_bandwidth", "estimators.kernel.median_bandwidth", median_pairs),
        (KernelSimilarity, "weights_batch", "estimators.kernel.weights_batch", weight_pairs),
    ]
    originals = []
    for cls, attr, name, after in methods:
        original = cls.__dict__[attr]
        originals.append((cls, attr, original))
        if isinstance(original, classmethod):
            setattr(cls, attr, classmethod(_wrap(tracer, name, original.__func__, after)))
        else:
            setattr(cls, attr, _wrap(tracer, name, original, after))
    try:
        yield
    finally:
        for cls, attr, original in originals:
            setattr(cls, attr, original)
