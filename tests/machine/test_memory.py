"""Tests for the memory bus's queueing-delay curve."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MachineConfigError
from repro.machine import MemorySpec, queueing_latency_multiplier


SPEC = MemorySpec()


class TestQueueingCurve:
    def test_idle_is_one(self):
        assert queueing_latency_multiplier(0.0, SPEC) == pytest.approx(1.0)

    def test_monotone_non_decreasing(self):
        vals = [queueing_latency_multiplier(u / 100, SPEC) for u in range(0, 120, 5)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_clamped_above_max_utilization(self):
        at_max = queueing_latency_multiplier(SPEC.max_utilization, SPEC)
        beyond = queueing_latency_multiplier(5.0, SPEC)
        assert beyond == pytest.approx(at_max)

    @pytest.mark.parametrize("rho", [0.25, 0.5, 0.75])
    def test_open_queue_shape(self, rho):
        expected = 1.0 + SPEC.queue_gain * rho / (1.0 - rho)
        assert queueing_latency_multiplier(rho, SPEC) == pytest.approx(expected)

    def test_spec_sets_gain_and_cap(self):
        spec = MemorySpec(queue_gain=2.0, max_utilization=0.5)
        # Clamped at rho = 0.5: 1 + 2 * 0.5 / 0.5.
        assert queueing_latency_multiplier(0.8, spec) == pytest.approx(3.0)
        assert queueing_latency_multiplier(0.8, SPEC) < 3.0

    def test_negative_utilization_rejected(self):
        with pytest.raises(MachineConfigError):
            queueing_latency_multiplier(-0.1, SPEC)

    @given(st.floats(min_value=0.0, max_value=2.0))
    @settings(max_examples=50, deadline=None)
    def test_always_at_least_one_and_finite(self, rho):
        m = queueing_latency_multiplier(rho, SPEC)
        assert m >= 1.0
        assert m < 1e6
