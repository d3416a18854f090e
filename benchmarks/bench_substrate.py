"""Performance benchmarks of the substrates themselves.

Not a paper artifact — these keep the simulator layers honest:
cache-model access throughput, reuse-distance computation, the engine's
fixed-point solve, and the trace profiler's characterization of a
fixed synthetic stream.
"""

import numpy as np

from repro.engine import IntervalEngine
from repro.machine import CoreCacheHierarchy, small_test_machine
from repro.trace import TraceProfiler, reuse_distances, synth
from repro.workloads.registry import get_profile


def test_cache_access_throughput(benchmark):
    rng = np.random.default_rng(0)
    lines = rng.integers(0, 1 << 20, size=20_000)

    def run():
        core = CoreCacheHierarchy(small_test_machine())
        for line in lines:
            core.access(1, int(line))
        return core.l1d.stats.accesses

    assert benchmark(run) == 20_000


def test_reuse_distance_throughput(benchmark):
    rng = np.random.default_rng(1)
    lines = rng.integers(0, 4096, size=30_000)
    d = benchmark(reuse_distances, lines)
    assert len(d) == 30_000


def test_engine_solo_run(benchmark):
    engine = IntervalEngine()
    prof = get_profile("G-PR")
    res = benchmark(engine.solo_run, prof, threads=4)
    assert res.runtime_s > 0


def test_engine_corun(benchmark):
    engine = IntervalEngine()
    fg, bg = get_profile("G-CC"), get_profile("Stream")

    def run():
        return engine.co_run(fg, bg, fg_solo_runtime_s=40.0, bg_solo_rate=1e10)

    res = benchmark(run)
    assert res.fg.runtime_s > 0


def test_profiler_characterize(benchmark):
    profiler = TraceProfiler(small_test_machine())
    # Zipf-skewed gathers, then a sequential sweep the prefetchers cover.
    trace = [*synth.zipf(2_000, 4096, seed=2), *synth.sequential(2_000)]
    char = benchmark(profiler.characterize, trace, max_accesses=None)
    assert char.accesses == 4_000
