"""Core of the reproduction: the paper's protocols and their building blocks.

Public surface re-exported here:

* value domain — :data:`DEFAULT`, :func:`is_default`
* voting — :func:`vote`, :func:`majority`, :func:`k_of_n_vote`
* parameters — :class:`DegradableSpec`, :func:`minimal_spec`, bounds helpers
* algorithms — :func:`run_degradable_agreement` (algorithm BYZ),
  :func:`run_oral_messages` (Lamport OM baseline), :func:`run_crusader`
  (Dolev baseline), interactive consistency
* behaviours — the Byzantine adversary toolkit
* classification — :func:`classify` against conditions D.1–D.4
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "behavior": (
        "Behavior", "BehaviorMap", "ConstantLiar", "EchoAsBehavior", "HonestBehavior",
        "LieAboutSender", "RandomLiar", "SilentBehavior", "TwoFacedBehavior",
    ),
    "bounds": (
        "configurations", "feasible", "max_byzantine_faults", "max_u",
        "min_connectivity", "min_nodes", "min_nodes_table", "trade_off_curve",
    ),
    "byz": (
        "AgreementResult", "ExecutionStats", "direct_transport", "message_count",
        "run_degradable_agreement",
    ),
    "conditions": ("OutcomeReport", "OutcomeShape", "assert_contract", "classify"),
    "crusader": ("crusader_message_count", "run_crusader"),
    "detection": ("FaultCountDetector", "SuspectTracker", "quorum_detection"),
    "eig": ("EIGTree", "byz_resolver", "majority_resolver"),
    "interactive_consistency": (
        "ic_runner_byz", "run_interactive_consistency", "vectors_agree",
        "vectors_valid",
    ),
    "oral_messages": ("om_message_count", "run_oral_messages"),
    "signed": (
        "SelectiveForwarder", "SignedBehavior", "SignedMessage", "SilentSigner",
        "TwoFacedSigner", "run_signed_agreement", "sm_message_count",
    ),
    "protocol": (
        "AgreementProcess", "ProtocolSession", "execute_degradable_protocol",
        "make_byz_processes",
    ),
    "spec": ("DegradableSpec", "minimal_spec", "sub_minimal_spec"),
    "vector_agreement": (
        "VectorReport", "classify_vectors", "compatible_merge",
        "run_degradable_interactive_consistency",
    ),
    "values": ("DEFAULT", "DefaultValue", "is_default", "non_default"),
    "vote": ("k_of_n_vote", "majority", "unanimity", "vote"),
})
