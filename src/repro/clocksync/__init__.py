"""Clock synchronization (Section 6 of the paper).

Three approaches:

* :mod:`repro.clocksync.convergence` — the classical interactive
  convergence baseline (tolerates strictly under a third faulty clocks);
* :mod:`repro.clocksync.degradable` — the paper's m/u-degradable clock
  synchronization formulation, with an agreement-based candidate algorithm
  for its (open) conjecture;
* :mod:`repro.clocksync.witnesses` — the Section 6.2 hardware alternative:
  extra witness clock units keep clock faults under a third even when
  processor faults exceed it.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "convergence": (
        "InteractiveConvergence", "SyncHistory", "SyncRoundReport",
        "max_tolerable_faults",
    ),
    "degradable": (
        "ClockFaceBehavior", "DegradableClockSync", "DegradableSyncReport",
        "DegradableSyncRound",
    ),
    "evaluation": (
        "ADVERSARY_FAMILIES", "ConjectureCell", "ConjectureEvaluation",
        "evaluate_conjecture",
    ),
    "witnesses": ("WitnessedClockSystem", "WitnessedSystemReport", "witnesses_needed"),
})
