"""HPC workloads (LLNL suite of Table I: lulesh, IRSmk, AMG2006)."""

from repro.workloads.hpc.amg import AMG2006
from repro.workloads.hpc.irsmk import IRSmk
from repro.workloads.hpc.lulesh import Lulesh

__all__ = ["AMG2006", "IRSmk", "Lulesh"]
