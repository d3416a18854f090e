"""Seeded inputs: traffic days, campaign sweeps and serve schedules.

The benchmark generates every input itself from the ``--seed`` it is
given and hands the program only the generated objects.  One run seed
fans out into several *input seeds* (``input_seed(seed, j)``), one per
day or sweep the run replays, so a run averages over more than one
input.  The same run seed always yields the same inputs.
"""

from __future__ import annotations

import hashlib
import json
import random

from repro.core import ExperimentConfig
from repro.sched import ArrivalTrace
from repro.session import ScenarioSet
from repro.traffic import DiurnalCurve, TrafficModel, WorkloadMix
from repro.workloads.registry import APPLICATIONS

#: The admission roster every traffic workload draws from.
ROSTER = ("G-CC", "G-PR", "fotonik3d", "IRSmk", "swaptions", "nab")
THREADS = 4
MACHINES = 2
#: Peak-hour arrivals of the business-hours curve: about 500 a day.
RATE_PER_HOUR = 40.0
HOURS = 24.0
#: Both shipped policies, in ``traffic-replay`` order, over one evaluator.
POLICIES = ("baseline", "interference")

CONFIG = ExperimentConfig(workloads=ROSTER, threads=THREADS, jitter=0.0)


def input_seed(seed: int, j: int) -> int:
    """The seed of the ``j``-th day or sweep of a run with ``seed``."""
    return seed * 1000 + j


def make_day(gen_seed: int) -> ArrivalTrace:
    """One seeded business-hours day over the roster."""
    model = TrafficModel(
        mix=WorkloadMix.uniform(ROSTER),
        curve=DiurnalCurve.business_hours(60.0),
        rate_per_hour=RATE_PER_HOUR,
    )
    return model.generate(seed=gen_seed, hours=HOURS)


def make_sweep(gen_seed: int) -> ScenarioSet:
    """A dense campaign sweep of 1537 cells: every ordered pair of the
    25 applications at 4 threads, every 3-way rotation of 12 of them and
    every 7-way rotation of 9 of them at 1 thread (the seed picks the 12
    and the 9)."""
    rng = random.Random(gen_seed)
    apps = list(APPLICATIONS)
    three = sorted(rng.sample(apps, 12))
    seven = sorted(rng.sample(apps, 9))
    return (
        ScenarioSet.pairwise(apps, threads=THREADS)
        + ScenarioSet.consolidations(three, n=3, threads=1)
        + ScenarioSet.consolidations(seven, n=7, threads=1)
    )


#: An admitted serve tenant departs this many arrivals after its own.
DEPART_LAG = 6


def digest(obj) -> str:
    """sha256 of the canonical JSON of ``obj``."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
