"""repro.net.chaos — seeded network chaos and degradation-spec soaks.

The paper's claim is *graceful degradation*: up to ``m`` faults you get
full Byzantine agreement (D.1/D.2), between ``m + 1`` and ``u`` faults a
two-class guarantee with one class on ``V_d`` (D.3/D.4), and beyond ``u``
nothing.  This package turns that claim into a falsifiable robustness
harness against realistic network misbehaviour:

* :class:`ChaosPolicy` / :func:`make_policy` — what the network is
  allowed to do: per-frame loss, duplication, reordering (bounded delayed
  redelivery), corruption, added latency; scheduled :class:`Partition`
  (sever-and-heal) and :class:`Crash` (dark endpoint, optional restart);
  :func:`seeded_policy` is the one seeded recipe — a preset policy plus
  the RNG that built it and must make the per-frame draws;
* :class:`ChaosTransport` — applies a policy around any
  :class:`~repro.net.transport.Transport`, every draw from one injected
  ``random.Random`` — same seed, same chaos, byte for byte;
* :mod:`~repro.net.chaos.accounting` — chaos translated into the paper's
  fault vocabulary: each afflicted node set yields an effective fault
  count ``f_eff`` that selects the guarantee tier to assert;
* :mod:`~repro.net.chaos.campaign` — seed-driven soak sweeps over
  ``(m, u, N) x severity`` grids with JSON reports and one-command
  replay of any failed trial; :func:`run_seeded_instance` is the one
  "seeded chaotic net instance" recipe its trials, ``repro trace`` and
  the fuzzer all run.

Quickstart::

    from repro.net.chaos import TrialConfig, run_trial_sync

    result = run_trial_sync(TrialConfig(
        m=1, u=2, n_nodes=5, severity="heavy", transport="local", seed=7,
    ))
    assert not result.failed          # D-conditions hold for its tier
    print(result.tier, result.chaos_counts)

Or from the command line::

    python -m repro chaos --seed 7 --severity heavy --trials 20 --report out.json
"""

from repro.net.chaos.accounting import (
    ABSENCE_KINDS,
    BENIGN_KINDS,
    ChaosEvent,
    ChaosLog,
    partition_injector,
    tier_is_asserted,
)
from repro.net.chaos.campaign import (
    DEFAULT_GRID,
    CampaignReport,
    TrialConfig,
    TrialResult,
    campaign_configs,
    parse_replay,
    run_campaign,
    run_campaign_sync,
    run_seeded_instance,
    run_trial,
    run_trial_sync,
    trial_seed,
)
from repro.net.chaos.policy import (
    SEVERITIES,
    ChaosPolicy,
    Crash,
    EndpointRestart,
    Partition,
    make_policy,
    seeded_policy,
)
from repro.net.chaos.transport import ChaosTransport

__all__ = [
    "ABSENCE_KINDS",
    "BENIGN_KINDS",
    "CampaignReport",
    "ChaosEvent",
    "ChaosLog",
    "ChaosPolicy",
    "ChaosTransport",
    "Crash",
    "DEFAULT_GRID",
    "EndpointRestart",
    "Partition",
    "SEVERITIES",
    "TrialConfig",
    "TrialResult",
    "campaign_configs",
    "make_policy",
    "parse_replay",
    "partition_injector",
    "run_campaign",
    "run_campaign_sync",
    "run_seeded_instance",
    "run_trial",
    "run_trial_sync",
    "seeded_policy",
    "tier_is_asserted",
    "trial_seed",
]
