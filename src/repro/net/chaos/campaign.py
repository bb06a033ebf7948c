"""The seeded net instance underneath every chaos trial.

:func:`run_seeded_instance` runs one agreement instance through the
:class:`~repro.net.runner.AsyncRoundRunner`, optionally behind a
:class:`~repro.net.chaos.transport.ChaosTransport` built from a
``(severity, seed)`` pair and a reconnecting supervisor (kill-links
mode).  It returns the outcome with the fault set the run is to be
judged against — the declared faults plus every node the chaos charged
(:mod:`~repro.net.chaos.accounting`) — and the guarantee tier that set's
size selects:

* ``f_eff <= m`` — D.1/D.2;
* ``m < f_eff <= u`` — D.3/D.4 (the two-class split, one class on
  ``V_d``);
* ``f_eff > u`` — nothing (the paper promises nothing).

``repro chaos`` (a grid of :class:`~repro.verify.fuzz.FuzzCase` trials),
``repro fuzz`` and ``repro trace`` all run it, so a ``(seed, severity)``
pair names the same schedule in all three.
"""

from __future__ import annotations

from typing import FrozenSet, Tuple

from repro.core.scenario import Instance
from repro.net.chaos.policy import seeded_policy
from repro.net.runner import NetRunOutcome, run_agreement_async
from repro.net.stack import make_transport


async def run_seeded_instance(
    instance: Instance,
    transport: str,
    round_timeout: float,
    severity: str = "",
    seed: int = 0,
    kill_links: bool = False,
    batching: bool = True,
    tracer=None,
) -> Tuple[NetRunOutcome, FrozenSet, str]:
    """Run *instance* once over the async runtime, a pure function of its
    arguments; return the outcome, the afflicted set and the tier.

    *severity* (``""`` = a clean network) and *seed* select the chaos via
    :func:`~repro.net.chaos.policy.seeded_policy`; *kill_links* layers the
    self-healing soak on it and runs under a reconnecting supervisor.  The
    afflicted set is the instance's declared faulty nodes plus every node
    the chaos layer charged — the fault set the run is to be judged
    against — and the tier is the guarantee its size selects.
    """
    spec, nodes = instance.spec(), instance.nodes()
    policy = rng = None
    if severity:
        policy, rng = seeded_policy(severity, spec, nodes, seed, kill_links)
    outcome = await run_agreement_async(
        spec,
        nodes,
        nodes[0],
        instance.sender_value,
        behaviors=instance.behaviors(),
        transport=make_transport(transport),
        round_timeout=round_timeout,
        chaos=policy,
        chaos_rng=rng,
        batching=batching,
        # Supervision jitter defaults to Random(policy.seed): the trial seed.
        supervise=kill_links,
        tracer=tracer,
    )
    afflicted = instance.behavior_faulty
    if outcome.chaos is not None:
        afflicted = afflicted | outcome.chaos.afflicted
    return outcome, afflicted, spec.guarantee_for(len(afflicted))
