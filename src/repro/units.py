"""Unit constants used across the package.

The hardware model works internally in bytes, CPU cycles and seconds.
These constants keep call-sites legible (``20 * MiB`` instead of
``20 * 1024 * 1024``) and centralize the GB/s convention used by the
paper: Intel PCM reports decimal gigabytes per second, so bandwidth
figures use ``GB = 1e9`` while cache capacities use binary ``KiB/MiB``.
"""

from __future__ import annotations

KiB: int = 1024
MiB: int = 1024 * KiB
GiB: int = 1024 * MiB

#: Decimal units (bandwidth, following Intel PCM's GB/s convention).
KB: int = 1_000
MB: int = 1_000_000
GB: int = 1_000_000_000

#: Size of one cache line on the modelled Sandy Bridge machine.
CACHE_LINE: int = 64
