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
* :func:`run_seeded_instance` (:mod:`~repro.net.chaos.campaign`) — the
  one "seeded chaotic net instance" recipe: the outcome, the afflicted
  set and the tier it selects.  ``repro chaos`` sweeps it over
  ``(m, u, N) x severity`` grids of :class:`~repro.verify.fuzz.FuzzCase`
  trials, each judged by the conformance oracle, with JSON reports and
  one-command replay of any failed trial; ``repro trace`` and the fuzzer
  run it too.

Quickstart::

    from repro.verify.fuzz import FuzzCase, run_case

    case = FuzzCase(
        m=1, u=2, n_nodes=5, chaos_severity="heavy", chaos_seed=7,
        timeout=0.25, transport="local",
    )
    outcome = run_case(case)          # one batched run over the bus
    assert outcome.ok                 # the oracle's 14 checks, tier included
    print(outcome.render())           # tier, afflicted nodes, chaos counts

Or from the command line::

    python -m repro chaos --seed 7 --severity heavy --trials 20 --report out.json
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "accounting": (
        "ABSENCE_KINDS", "BENIGN_KINDS", "ChaosEvent", "ChaosLog", "partition_injector",
    ),
    "campaign": ("run_seeded_instance",),
    "policy": (
        "SEVERITIES", "ChaosPolicy", "Crash", "EndpointRestart", "Partition",
        "make_policy", "seeded_policy",
    ),
    "transport": ("ChaosTransport",),
})
