"""Cross-layer integration tests: calibrated profiles -> interval
engine -> measurement tools.

The trace layer's path from a trace to a co-running profile is tested
in ``tests/trace/test_profiler.py``.
"""

import pytest

from repro.engine import IntervalEngine
from repro.tools import PcmMemoryMonitor
from repro.units import GB
from repro.workloads.registry import get_profile


class TestPhaseBehaviour:
    def test_amg_bandwidth_burst(self):
        """Paper Section V-A: AMG2006's third phase generates a short
        high-bandwidth burst; the serial setup phases are quiet."""
        engine = IntervalEngine()
        res = engine.solo_run(get_profile("AMG2006"), threads=4, max_dt=2.0)
        report = PcmMemoryMonitor(granularity_s=4.0).observe(res.timeline)
        series = report.series("AMG2006")
        assert series.max() > 15 * GB      # the burst
        assert series.min() < 0.5 * series.max()  # the quiet setup

    def test_amg_serial_phases_do_not_speed_up(self):
        engine = IntervalEngine()
        prof = get_profile("AMG2006")
        m1 = engine.solo_run(prof, threads=1).metrics
        m8 = engine.solo_run(prof, threads=8).metrics
        # Serial regions execute the same instructions regardless.
        for region in ("setup_fine_grid", "setup_coarse_hierarchy"):
            assert m8.by_region[region].instructions == pytest.approx(
                m1.by_region[region].instructions, rel=1e-6
            )
