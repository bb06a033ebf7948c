"""Chaos translated into the paper's fault vocabulary.

The paper counts *faulty nodes*; the chaos layer perturbs *frames*.  This
module bridges the two: every absence-inducing chaos event charges a node
set (:class:`ChaosEvent.afflicted`), the union of those sets is the run's
*effective fault set*, and ``f_eff`` — its size — selects which guarantee
tier the run must be judged against:

* ``f_eff <= m`` — conditions D.1/D.2 must hold (``byzantine`` tier);
* ``m < f_eff <= u`` — conditions D.3/D.4 must hold (``degraded`` tier);
* ``f_eff > u`` — nothing is promised (``none`` tier, record-only).

Attribution is deliberately conservative (a single dropped frame marks its
source as fully faulty for the whole run), which keeps the assertions
sound: the real adversary needed *at most* ``f_eff`` faulty nodes to
produce what the chaos layer did, so whenever ``f_eff`` fits a tier the
paper's guarantee for that tier must hold.  Benign perturbations —
duplication, in-round reordering, added latency — charge nobody: they
cannot create absence or fabricate values.

The tier names are exactly
:meth:`repro.core.spec.DegradableSpec.guarantee_for`'s, and
:func:`partition_injector` renders a scheduled partition as the
synchronous engine's :class:`~repro.sim.faults.OmissionInjector`, so the
sync and async fault models stay one vocabulary (the assumption-(b)
equivalence suite leans on this).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, List

from repro.net.chaos.policy import Partition
from repro.sim.faults import OmissionInjector

NodeId = Hashable

#: Event kinds that induce absence (and therefore charge nodes).  A
#: ``restart`` (real endpoint crash-restart) conservatively charges the
#: restarted node: anything its endpoint lost while down is explainable as
#: that one node's omission faults.
ABSENCE_KINDS = ("drop", "corrupt", "partition", "crash", "restart")
#: Event kinds that perturb without creating absence (charge nobody).  A
#: ``reset`` (hard connection reset between rounds) is benign when a
#: reconnecting supervisor heals it before any frame is lost — if healing
#: fails, the resulting drop/outage is charged separately.
BENIGN_KINDS = ("dup", "reorder", "delay", "reset")


@dataclass(frozen=True)
class ChaosEvent:
    """One thing the chaos layer did to one frame."""

    kind: str
    round_no: int
    source: NodeId
    destination: NodeId
    #: Nodes this event charges for fault accounting (empty when benign).
    afflicted: FrozenSet[NodeId] = frozenset()
    #: Protocol instance the perturbed frame belonged to (``None`` for
    #: single-agreement runs).  When many instances multiplex one chaotic
    #: transport (:mod:`repro.serve`), per-instance attribution is what
    #: lets each instance assert its *own* D.1–D.4 tier.
    instance: Hashable = None


class ChaosLog:
    """Append-only record of everything one ChaosTransport did.

    Maintains the running union of afflicted nodes so campaigns can read
    ``f_eff`` in O(1) after a run, plus per-instance unions so multiplexed
    service runs can judge each agreement instance against the tier *its
    own* chaos selects (a drop on instance A's frames charges A's fault
    budget, not B's).
    """

    def __init__(self) -> None:
        self.events: List[ChaosEvent] = []
        self._afflicted: set = set()
        self._by_instance: Dict[Hashable, set] = {}

    def record(self, event: ChaosEvent) -> None:
        self.events.append(event)
        self._afflicted.update(event.afflicted)
        if event.afflicted:
            self._by_instance.setdefault(event.instance, set()).update(
                event.afflicted
            )

    @property
    def afflicted(self) -> FrozenSet[NodeId]:
        """Every node charged with a fault by some event."""
        return frozenset(self._afflicted)

    @property
    def f_eff(self) -> int:
        """The effective fault count: ``|afflicted|``."""
        return len(self._afflicted)

    def afflicted_for(self, instance: Hashable) -> FrozenSet[NodeId]:
        """Nodes charged with a fault on *instance*'s frames.

        Events recorded without an instance id (legacy single-agreement
        runs, or scheduled faults hitting an unversioned frame) charge
        every instance — conservative, hence sound.
        """
        charged = set(self._by_instance.get(instance, ()))
        if instance is not None:
            charged.update(self._by_instance.get(None, ()))
        return frozenset(charged)

    def counts(self) -> Dict[str, int]:
        """Events per kind — stable keys, zero-filled, for reports."""
        out = {kind: 0 for kind in ABSENCE_KINDS + BENIGN_KINDS}
        for event in self.events:
            out[event.kind] = out.get(event.kind, 0) + 1
        return out

    def __len__(self) -> int:
        return len(self.events)


# ----------------------------------------------------------------------
# Tier selection
# ----------------------------------------------------------------------
def tier_is_asserted(tier: str) -> bool:
    """Whether the paper promises anything at this tier."""
    return tier in ("byzantine", "degraded")


# ----------------------------------------------------------------------
# Shared vocabulary with the synchronous engine
# ----------------------------------------------------------------------
def partition_injector(partition: Partition) -> OmissionInjector:
    """The synchronous-engine rendition of a scheduled partition.

    Drops exactly the messages the async chaos layer would sever: same
    directed links, same engine-round window.  Running the sync engine
    with this injector and the async runtime with the partition must
    produce identical decisions, substitution counts and D.1–D.4 verdicts
    — the chaos extension of the assumption-(b) equivalence suite.
    """
    return OmissionInjector(
        lambda round_no, message: partition.severs(
            round_no, message.source, message.destination
        )
    )
