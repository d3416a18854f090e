"""PARSEC workloads (Table I: blackscholes, freqmine, swaptions,
streamcluster)."""

from repro.workloads.parsec.blackscholes import BlackScholes
from repro.workloads.parsec.freqmine import FreqMine
from repro.workloads.parsec.streamcluster import StreamCluster
from repro.workloads.parsec.swaptions import Swaptions

__all__ = ["BlackScholes", "FreqMine", "StreamCluster", "Swaptions"]
