"""Seeded mutations each fail verification distinctly.

Three deliberate defects — a weakened vote threshold, a forged DATA
delivery, and a suppressed deadline-default — must each be caught by
``repro verify`` with a *specific, distinct* violation code.  This is the
oracle's own mutation-coverage gate: a checker that waves any of these
through is not checking the paper's arithmetic.

Four more doctored records reach oracle branches no honest run takes: a
fault-free sender deciding another value, a ``V_d`` substitution in the
wrong round, one shadowing a real delivery, and a non-relay payload from
a fault-free source.
"""

from dataclasses import replace

import pytest

from repro.core.behavior import LieAboutSender
from repro.core.eig import vote
from repro.core.protocol import execute_degradable_protocol
from repro.core.values import DEFAULT
from repro.sim.faults import OmissionInjector
from repro.sim.messages import RelayPayload
from repro.sim.trace import EventKind, EventTrace, TraceEvent
from repro.verify import record_sync_run, verify_record
from repro.verify.oracle import (
    ABSENCE_UNRECORDED,
    FORGED_RELAY,
    SENDER_DECISION,
    SPURIOUS_DEFAULT,
    UNSENT_DELIVERY,
    VOTE_MISMATCH,
)
from tests.conftest import node_names


def run_and_record(spec, behaviors, faulty, extra_injectors=None):
    nodes = node_names(spec.n_nodes)
    _, engine = execute_degradable_protocol(
        spec, nodes, "S", "alpha", behaviors, extra_injectors=extra_injectors
    )
    return record_sync_run(
        spec, nodes, "S", "alpha", frozenset(faulty), engine
    )


# ----------------------------------------------------------------------
# The mutated records (test_oracle_differential.py replays every one)
# ----------------------------------------------------------------------
def vote_threshold_record(spec):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            "repro.core.protocol.byz_resolver",
            lambda threshold, ballots: vote(1, ballots),
        )
        return run_and_record(spec, {"p1": LieAboutSender("forged", "S")}, {"p1"})


def forge(record, event):
    doctored = EventTrace()
    for original in record.trace.events:
        doctored.record(original)
    doctored.record(event)
    return replace(record, trace=doctored)


def unsent_delivery_record(spec):
    return forge(
        run_and_record(spec, {}, set()),
        TraceEvent(
            round_no=2,
            kind=EventKind.DELIVERED,
            source="S",
            destination="p3",
            payload=RelayPayload(path=("S",), value="planted"),
            meta={"tag": "byz"},
        ),
    )


def malformed_path_record(spec):
    return forge(
        run_and_record(spec, {}, set()),
        TraceEvent(
            round_no=3,
            kind=EventKind.DELIVERED,
            source="p2",
            # path claims to end at p4 but the wire source is p2
            destination="p3",
            payload=RelayPayload(path=("S", "p4"), value="planted"),
            meta={"tag": "byz"},
        ),
    )


def omission_record(spec):
    """p1 omits everything: its peers substitute V_d for ('S', 'p1')."""
    return run_and_record(
        spec, {}, {"p1"}, extra_injectors=[OmissionInjector.from_sources({"p1"})]
    )


def first_default(record):
    defaulted = [e for e in record.trace.events if e.kind is EventKind.DEFAULTED]
    assert defaulted, "omission run must produce V_d substitutions"
    return defaulted[0]


def rewrite(record, change):
    """*record* with every trace event passed through *change*."""
    doctored = EventTrace()
    for event in record.trace.events:
        doctored.record(change(event))
    return replace(record, trace=doctored)


def sender_decision_record(spec):
    def change(event):
        if event.kind is EventKind.DECIDED and event.source == "S":
            return replace(event, payload="planted")
        return event

    return rewrite(run_and_record(spec, {}, set()), change)


def misplaced_default_record(spec):
    record = omission_record(spec)
    victim = first_default(record)
    return rewrite(
        record,
        lambda e: replace(e, round_no=e.round_no - 1) if e is victim else e,
    )


def shadowing_default_record(spec):
    # p3 received ('S', 'p2') in round 3, then claims it was absent.
    return forge(
        run_and_record(spec, {}, set()),
        TraceEvent(3, EventKind.DEFAULTED, "p3", None, ("S", "p2")),
    )


def non_relay_delivery_record(spec):
    return forge(
        run_and_record(spec, {}, set()),
        TraceEvent(
            round_no=2,
            kind=EventKind.DELIVERED,
            source="S",
            destination="p3",
            payload="planted",
            meta={"tag": "byz"},
        ),
    )


def suppressed_default_record(spec):
    record = omission_record(spec)
    victim = first_default(record)
    doctored = EventTrace()
    removed = False
    for event in record.trace.events:
        if not removed and event is victim:
            removed = True
            continue
        doctored.record(event)
    return replace(record, trace=doctored)


MUTATED_RECORDS = {
    "vote-threshold": vote_threshold_record,
    "unsent-delivery": unsent_delivery_record,
    "malformed-path": malformed_path_record,
    "suppressed-default": suppressed_default_record,
    "sender-decision": sender_decision_record,
    "misplaced-default": misplaced_default_record,
    "shadowing-default": shadowing_default_record,
    "non-relay-delivery": non_relay_delivery_record,
}


def details(report, code):
    return [v.detail for v in report.violations if v.code == code]


class TestVoteThresholdMutation:
    """Flip VOTE(n-1-m, ...) to VOTE(1, ...): decisions drift off the fold."""

    def test_caught_as_vote_mismatch(self, spec_1_2):
        report = verify_record(vote_threshold_record(spec_1_2))
        assert not report.ok
        assert VOTE_MISMATCH in report.codes

    def test_unmutated_run_is_clean(self, spec_1_2):
        record = run_and_record(
            spec_1_2, {"p1": LieAboutSender("forged", "S")}, {"p1"}
        )
        assert verify_record(record).ok


class TestForgedFrameMutation:
    """Plant one DATA delivery the fault-free source never emitted."""

    def test_unsent_delivery_caught(self, spec_1_2):
        report = verify_record(unsent_delivery_record(spec_1_2))
        assert not report.ok
        assert UNSENT_DELIVERY in report.codes

    def test_malformed_path_caught_as_forged_relay(self, spec_1_2):
        report = verify_record(malformed_path_record(spec_1_2))
        assert not report.ok
        assert FORGED_RELAY in report.codes


class TestSuppressedDefaultMutation:
    """Drop one absence→V_d substitution event from an omission run."""

    def test_caught_as_absence_unrecorded(self, spec_1_2):
        report = verify_record(suppressed_default_record(spec_1_2))
        assert not report.ok
        assert ABSENCE_UNRECORDED in report.codes

    def test_omission_run_with_all_defaults_is_clean(self, spec_1_2):
        record = run_and_record(
            spec_1_2,
            {},
            {"p1"},
            extra_injectors=[OmissionInjector.from_sources({"p1"})],
        )
        assert verify_record(record).ok


class TestBranchesNoHonestRunTakes:
    """Doctored records for the checks an honest run never trips."""

    def test_sender_deciding_another_value_caught(self, spec_1_2):
        report = verify_record(sender_decision_record(spec_1_2))
        assert details(report, SENDER_DECISION) == [
            "fault-free sender decided 'planted' instead of its own value 'alpha'"
        ]

    def test_default_in_the_wrong_round_caught(self, spec_1_2):
        report = verify_record(misplaced_default_record(spec_1_2))
        found = details(report, SPURIOUS_DEFAULT)
        assert found and all("recorded in round 2, expected 3" in d for d in found)

    def test_default_shadowing_a_delivery_caught(self, spec_1_2):
        report = verify_record(shadowing_default_record(spec_1_2))
        assert details(report, SPURIOUS_DEFAULT) == [
            "V_d substitution shadows a real delivery for path ('S', 'p2')"
        ]

    def test_non_relay_payload_from_a_fault_free_source_caught(self, spec_1_2):
        report = verify_record(non_relay_delivery_record(spec_1_2))
        assert details(report, FORGED_RELAY) == [
            "non-relay payload 'planted' delivered from fault-free source 'S'"
        ]

    def test_each_base_record_is_clean(self, spec_1_2):
        assert verify_record(run_and_record(spec_1_2, {}, set())).ok
        assert verify_record(omission_record(spec_1_2)).ok


class TestCodesAreDistinct:
    """The three mutations map to three different violation codes."""

    def test_distinct(self):
        assert len({VOTE_MISMATCH, UNSENT_DELIVERY, ABSENCE_UNRECORDED}) == 3
        assert DEFAULT is DEFAULT  # sentinel sanity for the V_d paths
