"""Tests for the energy model."""

import pytest

from repro.engine.results import AppMetrics
from repro.errors import MachineConfigError
from repro.machine import EnergySpec, energy_of_run, energy_of_window


class TestEnergyModel:
    def test_window_accounting(self):
        spec = EnergySpec(static_watts=100, core_active_watts=10,
                          dram_joules_per_byte=1e-9)
        e = energy_of_window(spec, duration_s=10, busy_core_seconds=40,
                             bus_bytes=1e9)
        assert e.static_j == pytest.approx(1000)
        assert e.core_j == pytest.approx(400)
        assert e.dram_j == pytest.approx(1.0)
        assert e.total_j == pytest.approx(1401.0)

    def test_validation(self):
        with pytest.raises(MachineConfigError):
            EnergySpec(static_watts=-1)
        with pytest.raises(MachineConfigError):
            energy_of_window(EnergySpec(), duration_s=-1,
                             busy_core_seconds=0, bus_bytes=0)

    def test_energy_of_run(self):
        m = AppMetrics(name="x", threads=4, runtime_s=10.0)
        rm = m.region("r")
        rm.bus_bytes = 2e9
        e = energy_of_run(EnergySpec(), m)
        assert e.static_j == pytest.approx(EnergySpec().static_watts * 10)
        assert e.core_j == pytest.approx(EnergySpec().core_active_watts * 40)
        assert e.total_j > e.static_j

    def test_consolidation_amortizes_static_power(self):
        """Two 10s jobs: sequential = 20s static; co-run = ~12s static."""
        spec = EnergySpec()
        seq = energy_of_window(spec, duration_s=20, busy_core_seconds=80, bus_bytes=0)
        co = energy_of_window(spec, duration_s=12, busy_core_seconds=96, bus_bytes=0)
        assert co.total_j < seq.total_j
