"""Unit tests for the metrics registry and its merge algebra."""

import json
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.obs.metrics import MetricsRegistry, _bucket_exponent


class TestRegistry:
    def test_counters_accumulate(self):
        reg = MetricsRegistry()
        reg.inc("a")
        reg.inc("a", 4)
        reg.inc("b", 0)
        snap = reg.snapshot()
        assert snap["counters"] == {"a": 5, "b": 0}

    def test_gauge_last_write_wins(self):
        reg = MetricsRegistry()
        reg.gauge("u", 0.25)
        reg.gauge("u", 0.75)
        assert reg.snapshot()["gauges"] == {"u": 0.75}

    def test_observe_tracks_count_total_min_max(self):
        reg = MetricsRegistry()
        for seconds in (0.5, 2.0, 0.125):
            reg.observe("t", seconds)
        timer = reg.snapshot()["timers"]["t"]
        assert timer["count"] == 3
        assert timer["total_s"] == 2.625
        assert timer["min_s"] == 0.125
        assert timer["max_s"] == 2.0

    def test_snapshot_is_json_ready(self):
        reg = MetricsRegistry()
        reg.inc("a")
        reg.observe("t", 1e-9)  # below the smallest bucket
        json.dumps(reg.snapshot())  # must not raise (no inf/nan)

    def test_bucket_exponent_clamped(self):
        assert _bucket_exponent(0.0) == -20
        assert _bucket_exponent(1e-12) == -20
        assert _bucket_exponent(1e9) == 12
        # 0.5 < value <= 1 lands in bucket 0.
        assert _bucket_exponent(0.75) == 0

    def test_reset_clears_everything(self):
        reg = MetricsRegistry()
        reg.inc("a")
        reg.gauge("g", 1.0)
        reg.observe("t", 0.1)
        reg.reset()
        assert reg.snapshot() == {"counters": {}, "gauges": {}, "timers": {}}


class TestMergeAlgebra:
    def _random_registry(self, ops):
        reg = MetricsRegistry()
        for kind, name, value in ops:
            if kind == 0:
                reg.inc(name, int(value * 10))
            elif kind == 1:
                reg.gauge(name, value)
            else:
                reg.observe(name, value)
        return reg

    _ops = st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=2),
            st.sampled_from(["x", "y", "z"]),
            st.floats(min_value=0.0, max_value=100.0),
        ),
        max_size=20,
    )

    @settings(max_examples=50, deadline=None)
    @given(ops_a=_ops, ops_b=_ops, ops_c=_ops)
    def test_merge_order_independent_on_counters_and_timers(
        self, ops_a, ops_b, ops_c
    ):
        """merge(A) then merge(B) == merge(B) then merge(A) for every
        field except gauges (documented last-write-wins) — the property
        that makes worker completion order irrelevant."""
        snaps = [
            self._random_registry(ops).snapshot()
            for ops in (ops_a, ops_b, ops_c)
        ]
        forward = MetricsRegistry()
        backward = MetricsRegistry()
        for snap in snaps:
            forward.merge(snap)
        for snap in reversed(snaps):
            backward.merge(snap)
        f, b = forward.snapshot(), backward.snapshot()
        assert f["counters"] == b["counters"]
        assert f["timers"].keys() == b["timers"].keys()
        for name, ft in f["timers"].items():
            bt = b["timers"][name]
            # total_s is a float sum: order-independent only up to
            # rounding.  Everything else must match exactly.
            assert ft["count"] == bt["count"]
            assert ft["min_s"] == bt["min_s"]
            assert ft["max_s"] == bt["max_s"]
            assert ft["buckets"] == bt["buckets"]
            assert ft["total_s"] == pytest.approx(bt["total_s"], rel=1e-12)

    def test_merge_equals_sequential_collection(self):
        """Collecting in one registry == collecting in two and merging."""
        one = MetricsRegistry()
        for i in range(6):
            one.inc("n")
            one.observe("t", 0.1 * (i + 1))
        left, right = MetricsRegistry(), MetricsRegistry()
        for i in range(6):
            target = left if i % 2 else right
            target.inc("n")
            target.observe("t", 0.1 * (i + 1))
        merged = MetricsRegistry()
        merged.merge(left.snapshot())
        merged.merge(right.snapshot())
        a, b = one.snapshot(), merged.snapshot()
        assert a["counters"] == b["counters"]
        assert a["timers"]["t"]["count"] == b["timers"]["t"]["count"]
        assert a["timers"]["t"]["buckets"] == b["timers"]["t"]["buckets"]
        assert abs(a["timers"]["t"]["total_s"] - b["timers"]["t"]["total_s"]) < 1e-12

    def test_merge_empty_snapshot_is_identity(self):
        reg = MetricsRegistry()
        reg.inc("a", 3)
        before = reg.snapshot()
        reg.merge(MetricsRegistry().snapshot())
        assert reg.snapshot() == before


class TestGlobalHelpers:
    def test_disabled_helpers_publish_nothing(self):
        obs.inc("ghost")
        obs.gauge("ghost", 1.0)
        obs.observe("ghost", 1.0)
        snap = obs.snapshot()
        assert snap["counters"] == {}
        assert snap["gauges"] == {}
        assert snap["timers"] == {}

    def test_enable_gates_publishing(self):
        obs.enable()
        obs.inc("live", 2)
        obs.disable()
        obs.inc("live", 100)  # ignored again
        assert obs.snapshot()["counters"] == {"live": 2}

    def test_enable_without_trace_keeps_tracing_off(self):
        obs.enable()
        assert obs.metrics_enabled()
        assert not obs.tracing_enabled()

    def test_solver_publishes_into_registry(self, small_baseline):
        from repro import compute_rank

        obs.enable()
        result = compute_rank(small_baseline, bunch_size=2000, repeater_units=64)
        obs.disable()
        counters = obs.snapshot()["counters"]
        assert counters["solver.dp.solves"] == 1
        assert counters["solver.dp.rows"] == result.stats.rows > 0
        assert counters["solver.dp.transitions"] == result.stats.transitions
        timers = obs.snapshot()["timers"]
        assert timers["solver.dp.solve_s"]["count"] == 1
        # The kernel's three layers, the close of each pair included.
        for name in ("transition_s", "rank_scan_s", "close_s"):
            timer = timers[f"solver.dp.kernel.{name}"]
            assert timer["count"] == 1
            assert 0.0 <= timer["total_s"] <= timers["solver.dp.solve_s"]["total_s"]

    def test_budget_curve_publishes_kernel_timers(self, small_baseline):
        """The curve's pair loop reports the kernel's three layers under
        the rank solve's names, once per curve."""
        from repro.api import budget_curve

        obs.enable()
        t0 = time.perf_counter()
        budget_curve(small_baseline, bunch_size=2000, repeater_units=64)
        spent = time.perf_counter() - t0
        obs.disable()
        timers = obs.snapshot()["timers"]
        for name in ("transition_s", "rank_scan_s", "close_s"):
            timer = timers[f"solver.dp.kernel.{name}"]
            assert timer["count"] == 1
            assert 0.0 <= timer["total_s"] <= spent
