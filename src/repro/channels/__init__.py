"""Multiple-channel fault-tolerant systems (Section 3 of the paper).

The application layer that motivates degradable agreement: replicated
computation channels fed by a sensor through an agreement protocol and
drained into an external voter, with forward/backward recovery on top.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "multisensor": (
        "MultiSensorReport", "MultiSensorSystem", "fault_tolerant_midpoint",
    ),
    "pipeline": ("PipelineStats", "ReplicatedPipeline", "StepRecord"),
    "recovery": (
        "MissionSimulator", "MissionStats", "RecoveryAction", "RecoveryController",
        "StepOutcome",
    ),
    "system": ("ByzantineChannelSystem", "ChannelRunReport", "DegradableChannelSystem"),
    "voter": ("ExternalVoter", "MajorityVoter", "VoteOutcome", "VoterVerdict"),
})
