"""Workload registry: one place that knows every application.

Maps each of the 27 names to (a) a factory for its kernel, the trace
generator the trace profiler measures, and (b) its calibrated engine
profile, so experiments and examples can look workloads up uniformly:

>>> from repro.workloads.registry import get_workload, get_profile
>>> kernel = get_workload("G-PR")     # trace generator
>>> profile = get_profile("G-PR")     # analytic profile for the engine
"""

from __future__ import annotations

from typing import Callable

from repro.errors import WorkloadError
from repro.workloads.base import Workload, WorkloadProfile
from repro.workloads.calibration import (
    APPLICATIONS,
    MINI_BENCHMARKS,
    SUITES,
    all_profiles,
    calibrated_profile,
)


def _factories() -> dict[str, Callable[[], Workload]]:
    from repro.workloads.dl import ATIS, ConvNetCIFAR, ConvNetMNIST, LSTMAn4
    from repro.workloads.graph.gemini import (
        GeminiBC,
        GeminiBFS,
        GeminiCC,
        GeminiPageRank,
        GeminiSSSP,
    )
    from repro.workloads.graph.powergraph import (
        PowerGraphCC,
        PowerGraphPageRank,
        PowerGraphSSSP,
    )
    from repro.workloads.hpc import AMG2006, IRSmk, Lulesh
    from repro.workloads.micro import Bandit, StreamBench
    from repro.workloads.parsec import (
        BlackScholes,
        FreqMine,
        StreamCluster,
        Swaptions,
    )
    from repro.workloads.spec import (
        MCF,
        CactuBSSN,
        DeepSjeng,
        Fotonik3D,
        Nab,
        Xalancbmk,
    )

    return {
        "G-PR": GeminiPageRank,
        "G-BFS": GeminiBFS,
        "G-CC": GeminiCC,
        "G-SSSP": GeminiSSSP,
        "G-BC": GeminiBC,
        "P-PR": PowerGraphPageRank,
        "P-SSSP": PowerGraphSSSP,
        "P-CC": PowerGraphCC,
        "CIFAR": ConvNetCIFAR,
        "MNIST": ConvNetMNIST,
        "LSTM": LSTMAn4,
        "ATIS": ATIS,
        "blackscholes": BlackScholes,
        "freqmine": FreqMine,
        "swaptions": Swaptions,
        "streamcluster": StreamCluster,
        "lulesh": Lulesh,
        "IRSmk": IRSmk,
        "AMG2006": AMG2006,
        "mcf": MCF,
        "fotonik3d": Fotonik3D,
        "deepsjeng": DeepSjeng,
        "nab": Nab,
        "xalancbmk": Xalancbmk,
        "cactuBSSN": CactuBSSN,
        "Stream": StreamBench,
        "Bandit": Bandit,
    }


_FACTORY_CACHE: dict[str, Callable[[], Workload]] | None = None


def _factory_map() -> dict[str, Callable[[], Workload]]:
    global _FACTORY_CACHE
    if _FACTORY_CACHE is None:
        _FACTORY_CACHE = _factories()
    return _FACTORY_CACHE


def list_workloads(*, include_mini: bool = True) -> list[str]:
    """Names of all registered workloads in Table I order."""
    names = list(APPLICATIONS)
    if include_mini:
        names.extend(MINI_BENCHMARKS)
    return names


def suite_of(name: str) -> str:
    """Which benchmark suite a workload belongs to."""
    for suite, members in SUITES.items():
        if name in members:
            return suite
    if name in MINI_BENCHMARKS:
        return "mini-benchmarks"
    raise WorkloadError(f"unknown workload {name!r}")


def get_workload(name: str, **kwargs) -> Workload:
    """Instantiate the kernel for ``name`` (kwargs go to its
    constructor, e.g. ``scale=`` for graph workloads)."""
    try:
        factory = _factory_map()[name]
    except KeyError:
        raise WorkloadError(
            f"unknown workload {name!r}; known: {list_workloads()}"
        ) from None
    return factory(**kwargs)


def get_profile(name: str) -> WorkloadProfile:
    """The calibrated engine profile for ``name``."""
    return calibrated_profile(name)


def get_all_profiles() -> dict[str, WorkloadProfile]:
    """All calibrated profiles keyed by name."""
    return all_profiles()
