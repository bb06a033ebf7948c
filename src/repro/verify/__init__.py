"""Offline conformance checking for agreement executions.

The paper's guarantees are *checkable*: conditions D.1–D.4 plus the
``VOTE(n-1-m, n-1)`` arithmetic of algorithm BYZ are all functions of what
was delivered to whom.  This package audits finished runs after the fact:

* :mod:`repro.verify.record` — a :class:`RunRecord` bundles one execution's
  canonical trace with the header needed to judge it (spec, node set,
  sender, fault placement, wire mode) and round-trips through JSONL;
* :mod:`repro.verify.oracle` — the conformance checker: re-derives every
  fault-free node's vote tree from the recorded deliveries with an
  *independent* implementation of the vote fold, and cross-checks decisions,
  round structure, absence→``V_d`` accounting and the D.1–D.4 tier;
* :mod:`repro.verify.demux` — splits a multi-instance ``mode="serve"``
  record (:mod:`repro.serve`) into one auditable per-instance record per
  agreement, keyed by each event's ``meta["instance"]`` stamp;
* :mod:`repro.verify.fuzz` — one seeded case type for the differential
  fuzzer and the chaos campaign: ``random.Random(seed)`` samples small
  instances × behaviours × chaos seeds and runs them over sync /
  local-bus / tcp × batched / unbatched, a campaign grid runs one chaos
  trial per case, and every trace goes through the oracle (plus
  cross-mode decision equivalence for chaos-free samples).

CLI: ``repro verify <trace.jsonl>``, ``repro fuzz [--quick --seed S]`` and
``repro chaos``.
"""

from repro.verify.demux import demux_record
from repro.verify.oracle import ConformanceReport, Violation, verify_record, verify_trace_file
from repro.verify.record import RunRecord, record_net_outcome, record_sync_run
from repro.verify.fuzz import FuzzCase, FuzzReport, run_case, run_fuzz

__all__ = [
    "ConformanceReport",
    "FuzzCase",
    "FuzzReport",
    "RunRecord",
    "Violation",
    "demux_record",
    "record_net_outcome",
    "record_sync_run",
    "run_case",
    "run_fuzz",
    "verify_record",
    "verify_trace_file",
]
