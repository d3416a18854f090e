#!/usr/bin/env python
"""Interference-aware consolidation scheduling from the Fig 5 matrix.

The paper motivates its characterization with throughput-oriented
computing: pack two applications per machine to save energy, but avoid
pairings that destroy performance.  This example closes that loop —
it builds the full consolidation matrix and then pairs up a job queue
two ways:

* naive: first-come-first-served pairing;
* interference-aware: greedy matching that minimizes the pair's total
  slowdown (and refuses Both-Victim pairings).

and reports the throughput each schedule achieves.

Run:  python examples/scheduling_advisor.py
"""

from repro.core import ExperimentConfig, PairClass
from repro.session import Session

#: An incoming job queue.  Arrival order is adversarial for FCFS: the
#: memory-hungry jobs arrive back-to-back (as bursts of similar work
#: tend to), so naive pairing co-locates offenders with victims.
JOB_QUEUE = (
    "G-CC", "fotonik3d", "G-PR", "IRSmk",
    "mcf", "streamcluster", "G-SSSP", "CIFAR",
    "blackscholes", "swaptions", "nab", "deepsjeng",
)


def pair_cost(matrix, a: str, b: str) -> float:
    """Combined slowdown of co-scheduling a and b (lower is better)."""
    return matrix.value(a, b) + matrix.value(b, a)


def schedule_naive(jobs):
    """FCFS: pair neighbours in arrival order."""
    return [(jobs[i], jobs[i + 1]) for i in range(0, len(jobs) - 1, 2)]


def schedule_aware(matrix, jobs):
    """Greedy min-cost matching, refusing Both-Victim pairs."""
    remaining = list(jobs)
    pairs = []
    while len(remaining) > 1:
        a = remaining.pop(0)
        candidates = sorted(remaining, key=lambda b: pair_cost(matrix, a, b))
        best = None
        for b in candidates:
            if matrix.classify(a, b).relationship is not PairClass.BOTH_VICTIM:
                best = b
                break
        best = best if best is not None else candidates[0]
        remaining.remove(best)
        pairs.append((a, best))
    return pairs


def throughput(matrix, pairs) -> float:
    """Aggregate progress rate: sum of 1/slowdown over all co-run jobs
    (2.0 per pair would be perfect consolidation)."""
    return sum(
        1.0 / matrix.value(a, b) + 1.0 / matrix.value(b, a) for a, b in pairs
    )


def main() -> None:
    apps = tuple(dict.fromkeys(JOB_QUEUE))
    print(f"building consolidation matrix over {len(apps)} applications...")
    matrix = Session(ExperimentConfig(workloads=apps, jitter=0.0)).run("fig5").result

    for name, pairs in (
        ("naive FCFS", schedule_naive(JOB_QUEUE)),
        ("interference-aware", schedule_aware(matrix, JOB_QUEUE)),
    ):
        print(f"\n== {name} schedule ==")
        for a, b in pairs:
            rel = matrix.classify(a, b).relationship.value
            print(
                f"  {a:>13} + {b:<13} "
                f"{matrix.value(a, b):4.2f}x / {matrix.value(b, a):4.2f}x   [{rel}]"
            )
        tp = throughput(matrix, pairs)
        print(f"  aggregate throughput: {tp:.2f} / {2 * len(pairs):.1f} ideal")

    naive = throughput(matrix, schedule_naive(JOB_QUEUE))
    aware = throughput(matrix, schedule_aware(matrix, JOB_QUEUE))
    print(f"\ninterference-aware scheduling gains "
          f"{100 * (aware / naive - 1):.1f}% throughput over naive pairing")


if __name__ == "__main__":
    main()
