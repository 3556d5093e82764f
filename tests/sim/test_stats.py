"""Unit tests for measurement primitives."""

import math

import pytest

from repro.sim.stats import Counter, Histogram, StatsRegistry, TimeSeries


class TestCounter:
    def test_starts_at_zero(self):
        assert Counter("c").value == 0

    def test_inc(self):
        c = Counter("c")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_negative_inc_raises(self):
        with pytest.raises(ValueError):
            Counter("c").inc(-1)

    def test_int_conversion(self):
        c = Counter("c")
        c.inc(3)
        assert int(c) == 3


class TestHistogram:
    def test_empty_stats_are_nan(self):
        h = Histogram("h")
        assert math.isnan(h.mean)
        assert math.isnan(h.min)
        assert math.isnan(h.percentile(50))

    def test_mean_min_max(self):
        h = Histogram("h")
        h.extend([1, 2, 3, 4])
        assert h.mean == 2.5
        assert h.min == 1
        assert h.max == 4
        assert h.count == 4

    def test_percentiles_exact(self):
        h = Histogram("h")
        h.extend(range(101))
        assert h.percentile(50) == 50
        assert h.percentile(95) == 95

    def test_summary_keys(self):
        h = Histogram("h")
        h.add(1.0)
        s = h.summary()
        assert set(s) == {"count", "mean", "std", "min", "p50", "p95",
                          "p99", "max"}

    def test_samples_immutable_copy(self):
        h = Histogram("h")
        h.add(1)
        samples = h.samples
        assert isinstance(samples, tuple)


class TestTimeSeries:
    def test_record_and_read(self):
        ts = TimeSeries("t")
        ts.record(0, 1.0)
        ts.record(5, 2.0)
        assert list(ts.cycles) == [0, 5]
        assert list(ts.values) == [1.0, 2.0]
        assert len(ts) == 2

    def test_non_monotonic_raises(self):
        ts = TimeSeries("t")
        ts.record(5, 1.0)
        with pytest.raises(ValueError):
            ts.record(4, 1.0)

    def test_window_mean(self):
        ts = TimeSeries("t")
        for c, v in [(0, 1.0), (10, 3.0), (20, 5.0)]:
            ts.record(c, v)
        assert ts.window_mean(0, 15) == 2.0
        assert math.isnan(ts.window_mean(100, 200))

    def test_same_cycle_allowed(self):
        ts = TimeSeries("t")
        ts.record(3, 1.0)
        ts.record(3, 2.0)
        assert len(ts) == 2


class TestStatsRegistry:
    def test_counter_is_memoized(self):
        reg = StatsRegistry()
        assert reg.counter("x") is reg.counter("x")

    def test_histogram_is_memoized(self):
        reg = StatsRegistry()
        assert reg.histogram("x") is reg.histogram("x")

    def test_series_is_memoized(self):
        reg = StatsRegistry()
        assert reg.series("x") is reg.series("x")

    def test_counters_prefix_filter(self):
        reg = StatsRegistry()
        reg.counter("a.x").inc()
        reg.counter("a.y").inc(2)
        reg.counter("b.z").inc(3)
        assert reg.counters("a.") == {"a.x": 1, "a.y": 2}

    def test_get_missing_returns_none(self):
        reg = StatsRegistry()
        assert reg.get_counter("nope") is None
        assert reg.get_histogram("nope") is None


class TestCounterSnapshot:
    def test_delta_since_snapshot(self):
        from repro.sim.stats import CounterSnapshot

        reg = StatsRegistry()
        reg.counter("a").inc(5)
        snap = CounterSnapshot(reg)
        reg.counter("a").inc(3)
        reg.counter("b").inc(1)
        assert snap.delta() == {"a": 3, "b": 1}

    def test_unchanged_counters_omitted(self):
        from repro.sim.stats import CounterSnapshot

        reg = StatsRegistry()
        reg.counter("a").inc()
        snap = CounterSnapshot(reg)
        assert snap.delta() == {}

    def test_prefix_filter(self):
        from repro.sim.stats import CounterSnapshot

        reg = StatsRegistry()
        snap = CounterSnapshot(reg, prefix="x.")
        reg.counter("x.a").inc()
        reg.counter("y.b").inc()
        assert snap.delta() == {"x.a": 1}

    def test_rebase(self):
        from repro.sim.stats import CounterSnapshot

        reg = StatsRegistry()
        snap = CounterSnapshot(reg)
        reg.counter("a").inc(2)
        snap.rebase()
        assert snap.delta() == {}

    def test_new_counter_after_baseline_included(self):
        from repro.sim.stats import CounterSnapshot

        reg = StatsRegistry()
        reg.counter("a").inc()
        snap = CounterSnapshot(reg)
        reg.counter("b").inc(7)
        assert snap.delta() == {"b": 7}

    def test_rebase_picks_up_new_counters(self):
        from repro.sim.stats import CounterSnapshot

        reg = StatsRegistry()
        snap = CounterSnapshot(reg)
        reg.counter("a").inc(2)
        reg.counter("b").inc(3)
        snap.rebase()
        reg.counter("a").inc(1)
        assert snap.delta() == {"a": 1}


class TestLogBuckets:
    def test_zero_has_its_own_bucket(self):
        from repro.sim.stats import bucket_value, log_bucket

        assert log_bucket(0) == 0
        assert bucket_value(0) == 0.0

    def test_keys_order_like_values(self):
        from repro.sim.stats import log_bucket

        values = [-100.0, -1.5, -0.01, 0.0, 0.02, 1.0, 3.0, 4096.0]
        keys = [log_bucket(v) for v in values]
        assert keys == sorted(keys)

    def test_midpoint_relative_error_bounded(self):
        from repro.sim.stats import bucket_value, log_bucket

        for v in [1, 7, 100, 12345, 0.001, 3.7e6]:
            mid = bucket_value(log_bucket(v))
            assert abs(mid - v) / v < 1 / 8  # 8 sub-buckets per octave

    def test_deterministic(self):
        from repro.sim.stats import log_bucket

        assert [log_bucket(v) for v in (1.0, 2.5, 9.9)] == \
            [log_bucket(v) for v in (1.0, 2.5, 9.9)]


class TestStreamingHistogram:
    def _make(self, cap=4):
        from repro.sim.stats import StreamingHistogram

        return StreamingHistogram(cap)

    def test_exact_under_cap(self):
        h = self._make(cap=10)
        h.extend([5, 1, 3])
        assert h.exact
        assert h.percentile(50) == 3
        assert h.mean == 3
        assert (h.min, h.max) == (1, 5)

    def test_aggregates_stay_exact_past_cap(self):
        h = self._make(cap=4)
        h.extend(range(1, 101))
        assert not h.exact
        assert h.count == 100
        assert h.total == 5050
        assert (h.min, h.max) == (1, 100)
        assert h.mean == 50.5

    def test_percentile_approximate_past_cap(self):
        h = self._make(cap=4)
        h.extend(range(1, 1001))
        p99 = h.percentile(99)
        assert abs(p99 - 990) / 990 < 0.15

    def test_invalid_cap_raises(self):
        import pytest

        from repro.sim.stats import StreamingHistogram

        with pytest.raises(ValueError):
            StreamingHistogram(0)

    def test_as_dict_deterministic(self):
        h1, h2 = self._make(), self._make()
        for h in (h1, h2):
            h.extend([9, 1, 55, 7, 3, 1000, 2])
        assert h1.as_dict() == h2.as_dict()
        assert h1.as_dict()["mode"] == "bucketed"

    def test_summary_keys_match_histogram(self):
        h = self._make()
        h.add(1.0)
        assert set(h.summary()) == {"count", "mean", "std", "min", "p50",
                                    "p95", "p99", "max"}


class TestBucketedHistogramMode:
    def test_default_mode_is_exact(self):
        assert Histogram("h").mode == "exact"

    def test_unknown_mode_raises(self):
        with pytest.raises(ValueError, match="unknown mode"):
            Histogram("h", mode="approximate")

    def test_bucketed_bounds_memory(self):
        h = Histogram("h", mode="bucketed", exact_cap=16)
        h.extend(range(10_000))
        assert len(h.samples) == 16  # verbatim head only
        assert h.count == 10_000
        assert h.total == sum(range(10_000))

    def test_bucketed_summary_aggregates_exact(self):
        h = Histogram("h", mode="bucketed", exact_cap=2)
        h.extend([1, 2, 3, 4])
        assert h.mean == 2.5
        assert (h.min, h.max) == (1, 4)

    def test_registry_mode_selection_and_conflict(self):
        reg = StatsRegistry()
        h = reg.histogram("x", mode="bucketed")
        assert reg.histogram("x") is h  # no mode: existing returned
        assert reg.histogram("x", mode="bucketed") is h
        with pytest.raises(ValueError, match="already exists"):
            reg.histogram("x", mode="exact")

    def test_snapshot_shape_per_mode(self):
        reg = StatsRegistry()
        reg.histogram("e").add(1)
        reg.histogram("b", mode="bucketed").add(1)
        snap = reg.snapshot()["histograms"]
        assert snap["e"] == [1.0]
        assert isinstance(snap["b"], dict)
        assert snap["b"]["count"] == 1


class TestAddRun:
    """``add_run(value, n)`` is bit-identical to ``n`` calls of ``add``
    — the contract stretch back-fill relies on."""

    @staticmethod
    def _pair(cap=8):
        from repro.sim.stats import StreamingHistogram

        return StreamingHistogram(cap), StreamingHistogram(cap)

    @staticmethod
    def _same(run, seq):
        # repr keeps NaN comparable and tells 0.0 from -0.0
        assert repr(run.as_dict()) == repr(seq.as_dict())

    def _check(self, steps, cap=8, prefix=()):
        run, seq = self._pair(cap)
        for h in (run, seq):
            h.extend(prefix)
        for value, n in steps:
            run.add_run(value, n)
            for _ in range(n):
                seq.add(value)
            self._same(run, seq)

    def test_crosses_exact_cap(self):
        self._check([(3, 5), (2, 6), (7, 1)], cap=8)

    def test_bucketed_tail(self):
        self._check([(1, 4), (5, 1000), (1, 3), (12, 40)], cap=4)

    def test_zero_and_negative_lengths_are_noops(self):
        self._check([(4, 0), (4, -3)])

    @pytest.mark.parametrize("value", (0.5, 1e-3, -2.25, -0.0))
    def test_fallback_for_non_integer_values(self, value):
        self._check([(2, 3), (value, 20), (2, 2)])

    def test_fallback_near_exact_sum_limit(self):
        big = float(2 ** 52)
        self._check([(big, 3), (1, 5)], prefix=(big,))
        self._check([(2 ** 26 + 1, 40)])  # sumsq past 2**53

    def test_fallback_on_fractional_running_sum(self):
        self._check([(3, 10)], prefix=(0.1,))

    @pytest.mark.parametrize("mode", ("exact", "bucketed"))
    def test_histogram_modes(self, mode):
        run = Histogram("r", mode=mode, exact_cap=6)
        seq = Histogram("s", mode=mode, exact_cap=6)
        for value, n in ((2, 4), (1, 9), (2.5, 3)):
            run.add_run(value, n)
            for _ in range(n):
                seq.add(value)
        assert repr(run._snapshot_state()) == repr(seq._snapshot_state())
