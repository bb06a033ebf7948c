"""Exception hierarchy for the ``repro`` library.

All library-specific errors derive from :class:`ReproError` so callers can
catch everything raised by this package with a single ``except`` clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the ``repro`` package."""


class ConfigurationError(ReproError):
    """A protocol or system was configured with inconsistent parameters.

    Raised, for example, when an ``m/u``-degradable agreement instance is
    requested with ``u < m``, with fewer than ``2m + u + 1`` nodes, or on a
    network whose connectivity is below ``m + u + 1``.
    """


class ProtocolError(ReproError):
    """A protocol observed an execution state that should be impossible.

    This indicates a bug in the protocol implementation or in the simulator,
    never legitimate Byzantine behaviour: Byzantine messages are *expected*
    and must be absorbed by the vote logic, not raised as errors.
    """


class SimulationError(ReproError):
    """The simulation engine was driven incorrectly.

    Examples: delivering a message to a node that does not exist, running a
    round after the engine finished, or registering two processes under the
    same node identifier.
    """


class TransportError(ReproError):
    """A real transport failed to move a frame between two endpoints.

    Raised by the :mod:`repro.net` runtime for connection failures, encode
    errors and injected transient faults.  The async round runner sends
    each frame once: a send that raises is treated as *lost* (a
    supervised link re-dials within its backoff budget first), which the
    receiving protocol observes as absence and resolves to ``V_d`` —
    agreement semantics are never widened by transport trouble.
    """


class AdmissionError(ReproError):
    """A service refused to admit a new agreement instance.

    Raised by :class:`repro.serve.AgreementService` when its bounded
    admission queue is full — backpressure, not failure.  ``retry_after``
    is the service's hint (in seconds, derived from observed instance
    latencies) for when a resubmission is likely to be admitted.
    """

    def __init__(self, message: str, retry_after: float = 0.0) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class UnknownInstanceError(ConfigurationError):
    """A service holds no instance under the asked-for id.

    Raised by :meth:`repro.serve.AgreementService.decision` for an id that
    was never submitted to the service, or whose instance decided and has
    since left the service's bounded window of decided instances
    (``docs/runtime.md``, "Single-use ids under the window").  Take each
    decision as it lands to never meet the second case.
    """


class RoutingError(SimulationError):
    """A virtual link could not be established over the physical topology.

    Raised by :mod:`repro.sim.routing` when the requested number of
    vertex-disjoint paths between two nodes does not exist.
    """


class AnalysisError(ReproError):
    """An analysis routine was invoked with out-of-domain arguments."""


class TraceFormatError(ReproError):
    """A serialized execution trace could not be parsed.

    Raised by :meth:`repro.sim.trace.EventTrace.from_jsonl` and the
    :mod:`repro.verify` loaders on malformed JSONL, unknown event kinds or
    a missing/invalid run header.
    """


class VerificationError(ReproError):
    """The conformance oracle was driven incorrectly.

    This is *not* how trace violations are reported — those are data
    (:class:`repro.verify.Violation`); this error marks misuse of the
    verifier itself (e.g. a record whose header names a sender outside its
    node set).
    """
