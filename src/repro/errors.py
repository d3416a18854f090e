"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch one type at an API boundary.  Sub-types exist for the
three broad failure domains: machine/hardware-model configuration,
workload definition, and experiment execution.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class MachineConfigError(ReproError):
    """An invalid hardware-model configuration (cache geometry, negative
    line addresses, bandwidth parameters out of range)."""


class WorkloadError(ReproError):
    """An invalid workload definition or workload-registry lookup failure."""


class TraceError(ReproError):
    """A malformed access trace or trace-generator misuse."""


class EngineError(ReproError):
    """Failure inside the interval/co-run simulation engine, e.g. a
    fixed-point iteration that does not converge."""


class ExperimentError(ReproError):
    """Failure while assembling or running a paper experiment."""


class ScenarioError(ExperimentError):
    """An invalid consolidation scenario: bad placement spec, unknown
    LLC policy, or an identity request for an uncacheable scenario."""


class SchedError(ExperimentError):
    """An invalid scheduling request: malformed arrival trace, unknown
    placement policy, a tenant that fits no machine shape, or a cluster
    description that does not round-trip."""


class TrafficError(ExperimentError):
    """An invalid traffic-generator request: a malformed diurnal curve
    or workload mix, a traffic-model file that does not round-trip, or
    a model whose knobs generate no arrivals at all."""


class ServeError(ExperimentError):
    """A scheduler-service problem: a malformed API request or
    response, a daemon that cannot bind or is shutting down, or a
    client that cannot reach one."""


class StoreError(ReproError):
    """A persistent result-store problem: incompatible on-disk schema,
    unreadable record, or a lookup that cannot be satisfied."""


class CampaignError(StoreError):
    """A multi-process campaign problem: bad shard spec, a worker that
    died mid-campaign, or artifacts missing from the shared store when
    the manifest is frozen."""


class StoreWarning(UserWarning):
    """Non-fatal store condition worth surfacing: e.g. index lines from
    a different schema version being skipped by a reader."""
