"""Measurement primitives: counters, histograms, time series.

All measurement in the reproduction flows through these classes so that
experiments can enumerate every probe via :class:`StatsRegistry` and
reports never reach into model internals.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Tuple

try:
    import numpy as np
except ImportError:  # pragma: no cover - numpy-less installs only
    np = None  # type: ignore[assignment]

#: log-bucket resolution: sub-buckets per power of two (relative error
#: of a bucketed percentile is at most ~1/(2*_SUBBUCKETS) ≈ 6%)
_SUBBUCKETS = 8
#: exponent bias keeping positive-value keys positive: frexp exponents
#: span about [-1074, 1024] for doubles, so |e * _SUBBUCKETS| < _BIAS
_BIAS = 16384

#: largest float64 that still represents every smaller non-negative
#: integer exactly; below it, integer-valued sums are associativity-free
_EXACT_SUM_LIMIT = float(2 ** 53)


def log_bucket(value: float) -> int:
    """Map a value onto a signed logarithmic bucket key.

    Keys order the same way values do, so sorted bucket keys walk the
    distribution in value order: negative values get negative keys,
    zero gets its own bucket (key 0), positive values positive keys.
    The mapping uses ``frexp`` (exact integer arithmetic on the float
    representation), so it is deterministic across runs and platforms.
    """
    if value == 0:
        return 0
    m, e = math.frexp(abs(value))
    sub = int((m - 0.5) * 2 * _SUBBUCKETS)
    if sub >= _SUBBUCKETS:  # m == nextafter(1, 0) rounding guard
        sub = _SUBBUCKETS - 1
    # e may be negative (|value| < 0.5); the bias keeps the magnitude
    # key positive so the sign of the key is the sign of the value
    key = _BIAS + e * _SUBBUCKETS + sub
    return key if value > 0 else -key


def bucket_value(key: int) -> float:
    """The representative (midpoint) value of a :func:`log_bucket` key."""
    if key == 0:
        return 0.0
    e, sub = divmod(abs(key) - _BIAS, _SUBBUCKETS)
    lo = math.ldexp(0.5 + sub / (2 * _SUBBUCKETS), e)
    hi = math.ldexp(0.5 + (sub + 1) / (2 * _SUBBUCKETS), e)
    mid = (lo + hi) / 2.0
    return mid if key > 0 else -mid


def _percentile(samples: Iterable[float], q: float) -> float:
    """Linear-interpolated percentile, the pure-Python stand-in for
    ``np.percentile`` on numpy-less installs (same method, so results
    agree up to float associativity)."""
    data = sorted(float(v) for v in samples)
    if not data:
        return math.nan
    rank = (len(data) - 1) * (q / 100.0)
    lo = math.floor(rank)
    hi = math.ceil(rank)
    if lo == hi:
        return data[lo]
    return data[lo] + (data[hi] - data[lo]) * (rank - lo)


class StreamingHistogram:
    """A bounded-memory streaming histogram: exact up to a cap.

    The first ``exact_cap`` samples are stored verbatim (percentiles
    are then exact, like :class:`Histogram`); beyond the cap new
    samples fold into logarithmic buckets (:func:`log_bucket`), so
    memory stays O(cap + buckets) however long the run.  Count, sum,
    sum of squares, min and max are tracked exactly in both regimes,
    so ``mean``/``std``/``min``/``max`` never degrade — only
    percentiles become bucketed approximations past the cap.

    This is the storage engine both for the opt-in *bucketed* mode of
    :class:`Histogram` and for the per-flow/per-link fabric telemetry
    in :mod:`repro.obs.flows`.
    """

    __slots__ = ("exact_cap", "_head", "_buckets", "count", "total",
                 "sumsq", "_min", "_max")

    def __init__(self, exact_cap: int = 512):
        if exact_cap < 1:
            raise ValueError(f"exact_cap must be >= 1, got {exact_cap}")
        self.exact_cap = exact_cap
        self._head: List[float] = []
        self._buckets: Dict[int, int] = {}
        self.count = 0
        self.total = 0.0
        self.sumsq = 0.0
        self._min = math.inf
        self._max = -math.inf

    def add(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        self.sumsq += value * value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        if len(self._head) < self.exact_cap:
            self._head.append(value)
        else:
            key = log_bucket(value)
            self._buckets[key] = self._buckets.get(key, 0) + 1

    def extend(self, values: Iterable[float]) -> None:
        for v in values:
            self.add(v)

    def add_run(self, value: float, n: int) -> None:
        """Add ``n`` copies of ``value``, **bit-identical** to ``n``
        calls of :meth:`add`.

        The one-shot update is taken only when it cannot round
        differently from the sequential path: integer-valued samples
        whose running sums stay below 2**53 are associativity-free, so
        ``n * value`` lands on exactly the same ``total``/``sumsq``.
        Fractions, non-finite values and sums near the exact-integer
        limit fall back to the per-sample loop.
        """
        value = float(value)
        if n <= 0:
            return
        if not (value.is_integer() and self.total.is_integer()
                and self.sumsq.is_integer()
                and abs(self.total) + n * abs(value) < _EXACT_SUM_LIMIT
                and self.sumsq + n * value * value < _EXACT_SUM_LIMIT):
            for _ in range(n):
                self.add(value)
            return
        self.count += n
        self.total += n * value
        self.sumsq += n * (value * value)
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        take = min(self.exact_cap - len(self._head), n)
        if take > 0:
            self._head.extend([value] * take)
            n -= take
        if n:
            key = log_bucket(value)
            self._buckets[key] = self._buckets.get(key, 0) + n

    @property
    def exact(self) -> bool:
        """True while every sample is still stored verbatim."""
        return not self._buckets

    @property
    def head(self) -> Tuple[float, ...]:
        """The verbatim-sample prefix (everything, while under the cap)."""
        return tuple(self._head)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else math.nan

    @property
    def std(self) -> float:
        if not self.count:
            return math.nan
        m = self.total / self.count
        return math.sqrt(max(self.sumsq / self.count - m * m, 0.0))

    @property
    def min(self) -> float:
        return self._min if self.count else math.nan

    @property
    def max(self) -> float:
        return self._max if self.count else math.nan

    def percentile(self, q: float) -> float:
        """Exact (interpolated) while under the cap; nearest-rank over
        the retained head plus bucket midpoints once bucketed."""
        if not self.count:
            return math.nan
        if not self._buckets:
            if np is None:
                return _percentile(self._head, q)
            return float(np.percentile(self._head, q))
        pairs = sorted(
            [(v, 1) for v in self._head]
            + [(bucket_value(k), n) for k, n in self._buckets.items()]
        )
        rank = min(self.count, max(1, math.ceil(q / 100.0 * self.count)))
        seen = 0
        for value, n in pairs:
            seen += n
            if seen >= rank:
                return value
        return pairs[-1][0]  # pragma: no cover - rank <= count always hits

    def summary(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "mean": self.mean,
            "std": self.std,
            "min": self.min,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
            "max": self.max,
        }

    def as_dict(self) -> Dict[str, object]:
        """Deterministic plain-data form (snapshot/JSON-friendly)."""
        return {
            "mode": "bucketed",
            "count": self.count,
            "sum": self.total,
            "sumsq": self.sumsq,
            "min": self._min if self.count else None,
            "max": self._max if self.count else None,
            "head": list(self._head),
            "buckets": {str(k): self._buckets[k]
                        for k in sorted(self._buckets)},
        }

    def __repr__(self) -> str:  # pragma: no cover
        return (f"StreamingHistogram(n={self.count}, "
                f"exact={not self._buckets})")


class Counter:
    """A monotonically increasing event counter."""

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError(f"counter {self.name!r}: negative increment {n}")
        self.value += n

    def __int__(self) -> int:
        return self.value

    def __repr__(self) -> str:  # pragma: no cover
        return f"Counter({self.name!r}, {self.value})"


class Histogram:
    """A sample store with summary statistics.

    The default *exact* mode keeps every sample (experiments here are
    small enough), so percentiles are exact rather than bucketed
    approximations — and paper tables derived from them are
    bit-identical run to run.  The opt-in *bucketed* mode
    (``Histogram(name, mode="bucketed")``) delegates storage to a
    :class:`StreamingHistogram`, bounding memory for long-running
    traffic experiments: count/mean/std/min/max stay exact, while
    percentiles become log-bucketed approximations once the sample
    count passes the exact cap.
    """

    MODES = ("exact", "bucketed")

    def __init__(self, name: str, mode: str = "exact",
                 exact_cap: int = 4096):
        if mode not in self.MODES:
            raise ValueError(
                f"histogram {name!r}: unknown mode {mode!r} "
                f"(expected one of {self.MODES})"
            )
        self.name = name
        self.mode = mode
        self._stream: Optional[StreamingHistogram] = (
            StreamingHistogram(exact_cap) if mode == "bucketed" else None
        )
        self._samples: List[float] = []

    def add(self, value: float) -> None:
        if self._stream is not None:
            self._stream.add(value)
        else:
            self._samples.append(float(value))

    def extend(self, values: Iterable[float]) -> None:
        if self._stream is not None:
            self._stream.extend(values)
        else:
            self._samples.extend(float(v) for v in values)

    def add_run(self, value: float, n: int) -> None:
        """Add ``n`` copies of ``value``, bit-identical to ``n`` calls
        of :meth:`add` (the stretch back-fill path)."""
        if self._stream is not None:
            self._stream.add_run(value, n)
        elif n > 0:
            self._samples.extend([float(value)] * n)

    @property
    def count(self) -> int:
        if self._stream is not None:
            return self._stream.count
        return len(self._samples)

    @property
    def samples(self) -> Tuple[float, ...]:
        """All samples (exact mode) or the verbatim head retained
        before bucketing began (bucketed mode)."""
        if self._stream is not None:
            return self._stream.head
        return tuple(self._samples)

    @property
    def total(self) -> float:
        """Sum of all samples (exact in both modes)."""
        if self._stream is not None:
            return self._stream.total
        return float(sum(self._samples))

    @property
    def mean(self) -> float:
        if self._stream is not None:
            return self._stream.mean
        if not self._samples:
            return math.nan
        if np is None:
            return math.fsum(self._samples) / len(self._samples)
        return float(np.mean(self._samples))

    @property
    def std(self) -> float:
        if self._stream is not None:
            return self._stream.std
        if not self._samples:
            return math.nan
        if np is None:
            m = math.fsum(self._samples) / len(self._samples)
            var = math.fsum((v - m) ** 2 for v in self._samples)
            return math.sqrt(var / len(self._samples))
        return float(np.std(self._samples))

    @property
    def min(self) -> float:
        if self._stream is not None:
            return self._stream.min
        return min(self._samples) if self._samples else math.nan

    @property
    def max(self) -> float:
        if self._stream is not None:
            return self._stream.max
        return max(self._samples) if self._samples else math.nan

    def percentile(self, q: float) -> float:
        if self._stream is not None:
            return self._stream.percentile(q)
        if not self._samples:
            return math.nan
        if np is None:
            return _percentile(self._samples, q)
        return float(np.percentile(self._samples, q))

    def _snapshot_state(self) -> object:
        """Snapshot form: the full sample list (exact mode) or the
        deterministic streaming-state dict (bucketed mode)."""
        if self._stream is not None:
            return self._stream.as_dict()
        return list(self._samples)

    def summary(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "mean": self.mean,
            "std": self.std,
            "min": self.min,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
            "max": self.max,
        }

    def __repr__(self) -> str:  # pragma: no cover
        return f"Histogram({self.name!r}, n={self.count}, mean={self.mean:.3g})"


class TimeSeries:
    """(cycle, value) samples, e.g. link utilization over time."""

    def __init__(self, name: str):
        self.name = name
        self._cycles: List[int] = []
        self._values: List[float] = []

    def record(self, cycle: int, value: float) -> None:
        if self._cycles and cycle < self._cycles[-1]:
            raise ValueError(
                f"time series {self.name!r}: non-monotonic cycle {cycle}"
            )
        self._cycles.append(cycle)
        self._values.append(float(value))

    @property
    def cycles(self) -> "np.ndarray":
        if np is None:
            raise ImportError(
                "TimeSeries array views need numpy: pip install repro[fast]"
            )
        return np.asarray(self._cycles, dtype=np.int64)

    @property
    def values(self) -> "np.ndarray":
        if np is None:
            raise ImportError(
                "TimeSeries array views need numpy: pip install repro[fast]"
            )
        return np.asarray(self._values, dtype=np.float64)

    def __len__(self) -> int:
        return len(self._cycles)

    def window_mean(self, start: int, end: int) -> float:
        """Mean of samples with start <= cycle < end."""
        if np is None:
            hits = [v for c, v in zip(self._cycles, self._values)
                    if start <= c < end]
            return math.fsum(hits) / len(hits) if hits else math.nan
        c = self.cycles
        mask = (c >= start) & (c < end)
        if not mask.any():
            return math.nan
        return float(self.values[mask].mean())


class StatsRegistry:
    """Namespaced factory for probes; one per simulator."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._series: Dict[str, TimeSeries] = {}

    def counter(self, name: str) -> Counter:
        if name not in self._counters:
            self._counters[name] = Counter(name)
        return self._counters[name]

    def histogram(self, name: str, mode: Optional[str] = None,
                  exact_cap: int = 4096) -> Histogram:
        """Get or create a histogram.  ``mode`` selects the storage on
        first creation ("exact" default, "bucketed" bounded); passing a
        conflicting mode for an existing histogram raises."""
        hist = self._histograms.get(name)
        if hist is None:
            hist = Histogram(name, mode=mode or "exact",
                             exact_cap=exact_cap)
            self._histograms[name] = hist
        elif mode is not None and hist.mode != mode:
            raise ValueError(
                f"histogram {name!r} already exists with mode "
                f"{hist.mode!r}, requested {mode!r}"
            )
        return hist

    def series(self, name: str) -> TimeSeries:
        if name not in self._series:
            self._series[name] = TimeSeries(name)
        return self._series[name]

    def counters(self, prefix: str = "") -> Dict[str, int]:
        return {
            k: c.value for k, c in sorted(self._counters.items())
            if k.startswith(prefix)
        }

    def histograms(self, prefix: str = "") -> Dict[str, Histogram]:
        return {
            k: h for k, h in sorted(self._histograms.items())
            if k.startswith(prefix)
        }

    def get_counter(self, name: str) -> Optional[Counter]:
        return self._counters.get(name)

    def get_histogram(self, name: str) -> Optional[Histogram]:
        return self._histograms.get(name)

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """A deep, plain-data snapshot of every probe.

        Counters become ints, histograms their full ordered sample
        lists (or, in bucketed mode, their deterministic streaming
        state), time series their (cycles, values) lists.  Two runs are
        behaviourally identical iff their snapshots compare equal —
        this is what the fast-path golden-equivalence tests assert.
        """
        return {
            "counters": {k: c.value for k, c in sorted(self._counters.items())},
            "histograms": {
                k: h._snapshot_state()
                for k, h in sorted(self._histograms.items())
            },
            "series": {
                k: (list(s._cycles), list(s._values))
                for k, s in sorted(self._series.items())
            },
        }


class CounterSnapshot:
    """Windowed counter deltas: snapshot, run, diff.

    The E6/E11-style experiments measure "what happened during phase
    X"; diffing two snapshots gives exactly that without resetting the
    live registry.
    """

    def __init__(self, registry: "StatsRegistry", prefix: str = ""):
        self.registry = registry
        self.prefix = prefix
        self._baseline = registry.counters(prefix)

    def delta(self) -> Dict[str, int]:
        """Counter increments since the snapshot (new counters included)."""
        now = self.registry.counters(self.prefix)
        return {
            name: value - self._baseline.get(name, 0)
            for name, value in now.items()
            if value != self._baseline.get(name, 0)
        }

    def rebase(self) -> None:
        """Make the current values the new baseline."""
        self._baseline = self.registry.counters(self.prefix)
