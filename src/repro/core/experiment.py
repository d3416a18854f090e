"""Shared experiment infrastructure.

Every paper experiment runs through :class:`ExperimentConfig`: which
applications, how many threads (the paper pins 4 per app), how many
repetitions (the paper runs each pair three times), and a seeded
measurement-jitter model so the repetition protocol is exercised the
way it is on real hardware.
"""

from __future__ import annotations

import statistics
import zlib
from dataclasses import dataclass, field

import numpy as np

from repro.engine import EngineConfig, IntervalEngine
from repro.errors import ExperimentError
from repro.machine.spec import MachineSpec, xeon_e5_4650
from repro.workloads.calibration import APPLICATIONS


@dataclass
class ExperimentConfig:
    """Common knobs for all experiments."""

    threads: int = 4
    repetitions: int = 3
    #: Fractional stddev of multiplicative measurement noise applied to
    #: runtimes per repetition (0 disables the jitter model).
    jitter: float = 0.01
    seed: int = 0
    workloads: tuple[str, ...] = APPLICATIONS
    spec: MachineSpec = field(default_factory=xeon_e5_4650)
    engine_config: EngineConfig = field(default_factory=EngineConfig)

    def __post_init__(self) -> None:
        if self.repetitions < 1:
            raise ExperimentError("repetitions must be >= 1")
        if self.jitter < 0:
            raise ExperimentError("jitter must be >= 0")
        if not self.workloads:
            raise ExperimentError("need at least one workload")

    def make_engine(self) -> IntervalEngine:
        """A fresh engine honouring this config."""
        return IntervalEngine(spec=self.spec, config=self.engine_config)


class Jitter:
    """Seeded multiplicative measurement noise (the 'three runs' model).

    Constructed bare, draws come from one sequential stream seeded by
    ``config.seed``.  Constructed via :meth:`for_key`, the stream is
    derived from ``(config.seed, key)`` so each named measurement gets
    its own independent, order-free noise — the property that lets the
    parallel executor reproduce the serial sweep bit-for-bit.
    """

    def __init__(self, config: ExperimentConfig, *, key: str | None = None) -> None:
        if key is None:
            self._rng = np.random.default_rng(config.seed)
        else:
            # crc32 (not hash()) so the derivation is stable across
            # processes and interpreter runs.
            self._rng = np.random.default_rng([config.seed, zlib.crc32(key.encode())])
        self._sigma = config.jitter
        self._reps = config.repetitions

    @classmethod
    def for_key(cls, config: ExperimentConfig, *parts: object) -> "Jitter":
        """Jitter stream for one named measurement (e.g. a Fig 5 cell)."""
        return cls(config, key="|".join(str(p) for p in parts))

    def measure(self, true_value: float) -> float:
        """Median of ``repetitions`` noisy observations of a value."""
        if self._sigma == 0 or true_value == 0:
            return true_value
        obs = true_value * (1.0 + self._rng.normal(0.0, self._sigma, self._reps))
        return float(statistics.median(obs))
