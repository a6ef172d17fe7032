"""Typed metric instruments: counters, gauges, and histograms.

A :class:`MetricsRegistry` replaces the ad-hoc ``{name: int}`` counters
dict of the first-generation observability layer with three typed
instruments:

* :class:`Counter` — a monotonically increasing integer total (force
  evaluations, cache hits, …);
* :class:`Gauge` — a sampled level with its observed extremes (mobile
  frames remaining, incumbent best area, …);
* :class:`Histogram` — a value distribution over fixed geometric
  buckets, reporting ``count``/``sum``/``min``/``max`` exactly and
  ``p50``/``p95`` from the buckets (per-iteration selection time,
  candidates scanned, force-evaluation latencies, …).

Two properties the rest of the stack depends on:

* **Mergeable summaries.**  Every instrument serializes to a plain-data
  summary (:meth:`Histogram.summary` etc.) and every summary shape has
  an *associative, commutative* merge (:func:`merge_histogram_summary`,
  :func:`merge_gauge_summary`) — bucket counts add, extremes combine
  through min/max — so streamed worker telemetry can be folded
  incrementally in any order (:mod:`repro.obs.merge`).  Because the
  bucket boundaries are fixed globally rather than fitted per
  histogram, merging never re-bins.
* **Compatibility.**  :class:`repro.obs.counters.Counters` is now a
  thin shim over a registry; ``telemetry["counters"]`` keeps its
  ``{name: int}`` shape while ``telemetry["histograms"]`` and
  ``telemetry["gauges"]`` carry the new instruments.

The quantile estimates are bucket-resolved: ``p50``/``p95`` return the
upper bound of the bucket holding the target rank, clamped to the exact
observed ``[min, max]``.  Estimates are deterministic and stable under
merging — the same observations always produce the same quantiles, no
matter how they were batched.

See :func:`prometheus_text` in :mod:`repro.obs.events` for the
Prometheus text rendering of a registry snapshot.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Mapping, Optional

#: Geometric bucket grid shared by every histogram: bucket ``i`` covers
#: values in ``(BUCKET_BASE * 2**(i-1), BUCKET_BASE * 2**i]`` and bucket
#: 0 covers everything at or below ``BUCKET_BASE``.  The base resolves
#: nanoseconds; ``BUCKET_COUNT`` buckets reach ~1.2e27, far past any
#: duration or set size the schedulers produce.
BUCKET_BASE = 1e-9
BUCKET_COUNT = 120


def bucket_index(value: float) -> int:
    """Index of the fixed geometric bucket covering ``value``."""
    if value <= BUCKET_BASE:
        return 0
    index = 0
    bound = BUCKET_BASE
    # Doubling loop instead of log2: exact at bucket boundaries (no
    # float-log wobble deciding which side of a power of two lands in).
    while bound < value and index < BUCKET_COUNT:
        bound *= 2.0
        index += 1
    return index


def bucket_bound(index: int) -> float:
    """Upper bound of bucket ``index`` on the shared geometric grid."""
    return BUCKET_BASE * (2.0 ** index)


class Counter:
    """A named monotonically increasing integer total."""

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: int = 0) -> None:
        self.name = name
        self.value = value

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name}={self.value})"


class Gauge:
    """A named sampled level that remembers its observed extremes."""

    __slots__ = ("name", "value", "min", "max", "samples")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Optional[float] = None
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.samples = 0

    def set(self, value: float) -> None:
        self.value = value
        self.samples += 1
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def summary(self) -> Dict[str, Any]:
        return {
            "value": self.value,
            "min": self.min,
            "max": self.max,
            "samples": self.samples,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gauge({self.name}={self.value})"


class Histogram:
    """A value distribution over the shared geometric bucket grid."""

    __slots__ = ("name", "count", "sum", "min", "max", "buckets")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        #: Sparse ``{bucket index: observation count}``.
        self.buckets: Dict[int, int] = {}

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        index = bucket_index(value)
        self.buckets[index] = self.buckets.get(index, 0) + 1

    def observe_many(self, value: float, n: int) -> None:
        """Record ``n`` observations of the same ``value`` in one call.

        The batched-kernel hot paths record one aggregate per reduction
        (typically the per-evaluation mean of a batch) instead of one
        histogram update per candidate, keeping instrumentation overhead
        bounded regardless of batch width.  Equivalent to calling
        :meth:`observe` ``n`` times with ``value``: counts, sums,
        extremes, and bucket tallies all land identically, so summaries
        stay associative and merge-stable.
        """
        if n <= 0:
            return
        value = float(value)
        self.count += n
        self.sum += value * n
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        index = bucket_index(value)
        self.buckets[index] = self.buckets.get(index, 0) + n

    def percentile(self, q: float) -> Optional[float]:
        """Bucket-resolved quantile, clamped to the observed extremes.

        Returns the upper bound of the bucket holding the ``q``-rank
        observation; ``None`` for an empty histogram.  Deterministic and
        merge-stable (see module docstring).
        """
        if not self.count:
            return None
        target = max(1, int(q * self.count + 0.5))
        seen = 0
        for index in sorted(self.buckets):
            seen += self.buckets[index]
            if seen >= target:
                estimate = bucket_bound(index)
                assert self.min is not None and self.max is not None
                return min(max(estimate, self.min), self.max)
        return self.max

    @property
    def mean(self) -> Optional[float]:
        return self.sum / self.count if self.count else None

    def summary(self) -> Dict[str, Any]:
        """Plain-data summary: exact volumes plus bucket counts.

        The shape is JSON-safe (bucket keys are strings) and merges
        associatively through :func:`merge_histogram_summary`.
        """
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
            "buckets": {str(i): self.buckets[i] for i in sorted(self.buckets)},
        }

    @classmethod
    def from_summary(cls, name: str, summary: Mapping[str, Any]) -> "Histogram":
        """Rebuild a histogram from a :meth:`summary` dict."""
        histogram = cls(name)
        histogram.count = int(summary.get("count") or 0)
        histogram.sum = float(summary.get("sum") or 0.0)
        histogram.min = summary.get("min")
        histogram.max = summary.get("max")
        histogram.buckets = {
            int(i): int(c) for i, c in (summary.get("buckets") or {}).items()
        }
        return histogram

    def merge_summary(self, summary: Mapping[str, Any]) -> None:
        """Fold another histogram's summary into this instrument."""
        self.count += int(summary.get("count") or 0)
        self.sum += float(summary.get("sum") or 0.0)
        other_min = summary.get("min")
        if other_min is not None and (self.min is None or other_min < self.min):
            self.min = other_min
        other_max = summary.get("max")
        if other_max is not None and (self.max is None or other_max > self.max):
            self.max = other_max
        for index, count in (summary.get("buckets") or {}).items():
            index = int(index)
            self.buckets[index] = self.buckets.get(index, 0) + int(count)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Histogram({self.name}: n={self.count}, sum={self.sum:g})"


def merge_histogram_summary(
    into: Dict[str, Any], part: Mapping[str, Any]
) -> Dict[str, Any]:
    """Merge one histogram summary into another, in place.

    Associative and commutative: counts and bucket tallies add, extremes
    combine through min/max, and the quantiles are recomputed from the
    merged buckets — so any fold order over worker summaries produces
    the same aggregate.
    """
    merged = Histogram.from_summary("", into)
    merged.merge_summary(part)
    into.clear()
    into.update(merged.summary())
    return into


def merge_gauge_summary(
    into: Dict[str, Any], part: Mapping[str, Any]
) -> Dict[str, Any]:
    """Merge one gauge summary into another, in place.

    ``min``/``max``/``samples`` merge exactly; the merged ``value``
    (a "last seen" level, which has no order-free meaning across
    concurrent runs) is defined as the merged ``max`` so the result
    stays associative and order-independent.
    """
    for key, pick in (("min", min), ("max", max)):
        ours, theirs = into.get(key), part.get(key)
        if ours is None:
            into[key] = theirs
        elif theirs is not None:
            into[key] = pick(ours, theirs)
    into["samples"] = int(into.get("samples") or 0) + int(part.get("samples") or 0)
    into["value"] = into.get("max")
    return into


class MetricsRegistry:
    """An open registry of named counters, gauges, and histograms."""

    __slots__ = ("_counters", "_gauges", "_histograms")

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- instrument accessors (get or create) ---------------------------
    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(self, name: str) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(name)
        return instrument

    # -- hot-path shortcuts ---------------------------------------------
    def inc(self, name: str, amount: int = 1) -> None:
        """Increment a counter (created at 0 on first use)."""
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter(name)
        instrument.value += amount

    def observe(self, name: str, value: float) -> None:
        """Record one histogram observation."""
        self.histogram(name).observe(value)

    def observe_many(self, name: str, value: float, n: int) -> None:
        """Record ``n`` equal histogram observations in one batched call."""
        self.histogram(name).observe_many(value, n)

    def set_gauge(self, name: str, value: float) -> None:
        """Sample a gauge level."""
        self.gauge(name).set(value)

    # -- views -----------------------------------------------------------
    def counter_value(self, name: str) -> int:
        instrument = self._counters.get(name)
        return instrument.value if instrument is not None else 0

    def counters_dict(self) -> Dict[str, int]:
        """``{name: value}`` snapshot of the counters, sorted by name."""
        return {
            name: self._counters[name].value for name in sorted(self._counters)
        }

    def gauges_dict(self) -> Dict[str, Dict[str, Any]]:
        return {name: self._gauges[name].summary() for name in sorted(self._gauges)}

    def histograms_dict(self) -> Dict[str, Dict[str, Any]]:
        return {
            name: self._histograms[name].summary()
            for name in sorted(self._histograms)
        }

    def snapshot(self) -> Dict[str, Any]:
        """Full plain-data snapshot: counters, gauges, histograms."""
        return {
            "counters": self.counters_dict(),
            "gauges": self.gauges_dict(),
            "histograms": self.histograms_dict(),
        }

    # -- lifecycle --------------------------------------------------------
    def reset(self) -> None:
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry's instruments into this one.

        The fold reads as if ``other``'s samples were recorded here after
        this registry's own: counters add, histograms merge bucket-wise,
        and a gauge combines its extremes and sample counts and takes
        ``other``'s last level.
        """
        for name, counter in other._counters.items():
            self.inc(name, counter.value)
        for name, gauge in other._gauges.items():
            target = self.gauge(name)
            if not gauge.samples:
                continue
            target.value = gauge.value
            target.min = gauge.min if target.min is None else min(target.min, gauge.min)
            target.max = gauge.max if target.max is None else max(target.max, gauge.max)
            target.samples += gauge.samples
        for name, histogram in other._histograms.items():
            self.histogram(name).merge_summary(histogram.summary())

    def __bool__(self) -> bool:
        return (
            any(c.value for c in self._counters.values())
            or any(g.samples for g in self._gauges.values())
            or any(h.count for h in self._histograms.values())
        )


#: Canonical histogram names emitted by the instrumented schedulers.
SELECT_SECONDS = "select_seconds"
COMMIT_SECONDS = "commit_seconds"
REDUCTION_SCORE = "reduction_score"
CANDIDATES_SCANNED = "candidates_scanned"
CANDIDATE_SECONDS = "candidate_seconds"
FORCE_EVAL_SECONDS = "force_eval_seconds"

#: Canonical gauge names.
FRAMES_REMAINING = "frames_remaining"
INCUMBENT_AREA = "incumbent_area"

KNOWN_HISTOGRAMS = (
    SELECT_SECONDS,
    COMMIT_SECONDS,
    REDUCTION_SCORE,
    CANDIDATES_SCANNED,
    CANDIDATE_SECONDS,
    FORCE_EVAL_SECONDS,
)

KNOWN_GAUGES = (
    FRAMES_REMAINING,
    INCUMBENT_AREA,
)


def iter_metric_summaries(
    telemetry: Mapping[str, Any],
) -> Iterable[Dict[str, Any]]:  # pragma: no cover - convenience helper
    """Yield ``{"kind", "name", ...}`` rows for every instrument in a
    telemetry summary — a uniform iteration surface for exporters."""
    for name, value in (telemetry.get("counters") or {}).items():
        yield {"kind": "counter", "name": name, "value": value}
    for name, summary in (telemetry.get("gauges") or {}).items():
        yield {"kind": "gauge", "name": name, **summary}
    for name, summary in (telemetry.get("histograms") or {}).items():
        yield {"kind": "histogram", "name": name, **summary}
