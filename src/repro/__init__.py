"""repro — Degradable Agreement in the Presence of Byzantine Faults.

A complete, executable reproduction of N. H. Vaidya's ICDCS 1993 paper:

* :mod:`repro.core` — m/u-degradable agreement (algorithm BYZ), the
  Lamport OM and Dolev Crusader baselines, interactive consistency,
  outcome classification against conditions D.1–D.4, and the node /
  connectivity bounds;
* :mod:`repro.sim` — a deterministic synchronous-round simulator with
  Byzantine/omission/timeout fault injection, topologies, disjoint-path
  routing and hardware clocks;
* :mod:`repro.channels` — the Section 3 multiple-channel systems with
  external voters and forward/backward recovery;
* :mod:`repro.clocksync` — Section 6 clock synchronization (interactive
  convergence, degradable clock sync, witness clocks);
* :mod:`repro.analysis` — lower-bound scenario machinery, reliability and
  complexity analysis, Monte-Carlo fault injection, table rendering;
* :mod:`repro.net` — asyncio message-bus runtime that runs the same
  protocols over real transports (in-process bus or TCP sockets) with
  per-round deadlines, self-healing links and wire metrics.

Quickstart::

    from repro import DegradableSpec, run_degradable_agreement, classify

    spec = DegradableSpec(m=1, u=2, n_nodes=6)      # 1/2-degradable
    nodes = ["S", "A", "B", "C", "D", "E"]
    result = run_degradable_agreement(spec, nodes, "S", "engage")
    report = classify(result, faulty=set(), spec=spec)
    assert report.satisfied

The names above resolve on first use (:mod:`repro._exports`): ``import
repro`` loads none of these packages, and the agreement core never loads
the asyncio runtime unless a :mod:`repro.net` name is asked for.
"""

from repro._exports import lazy_exports

__version__ = "1.1.0"

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "core": (
        "DEFAULT", "AgreementResult", "Behavior", "ConstantLiar", "DegradableSpec",
        "EchoAsBehavior", "HonestBehavior", "LieAboutSender", "OutcomeReport",
        "OutcomeShape", "RandomLiar", "SilentBehavior", "TwoFacedBehavior", "classify",
        "execute_degradable_protocol", "is_default", "k_of_n_vote", "majority",
        "message_count", "min_connectivity", "min_nodes", "minimal_spec",
        "run_crusader", "run_degradable_agreement", "run_oral_messages", "vote",
    ),
    "net": (
        "AsyncRoundRunner", "LocalBus", "NetMetrics", "TcpTransport",
        "run_agreement_async",
    ),
})
__all__.append("__version__")
