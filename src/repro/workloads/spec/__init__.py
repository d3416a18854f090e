"""SPEC CPU2017 workloads (Table I: mcf, fotonik3d, deepsjeng, nab,
xalancbmk, cactuBSSN)."""

from repro.workloads.spec.cactubssn import CactuBSSN
from repro.workloads.spec.deepsjeng import DeepSjeng
from repro.workloads.spec.fotonik3d import Fotonik3D
from repro.workloads.spec.mcf import MCF
from repro.workloads.spec.nab import Nab
from repro.workloads.spec.xalancbmk import Xalancbmk

__all__ = ["CactuBSSN", "DeepSjeng", "Fotonik3D", "MCF", "Nab", "Xalancbmk"]
