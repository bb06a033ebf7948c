"""Differential test: the closed-form message count vs real executions.

``message_count(n, m)`` transcribes the paper's recurrence

    M(n, t) = (n - 1) + (n - 1) * M(n - 1, t - 1)

(with the ``t = 1`` base and the ``m = 0`` entry reusing the ``t = 1``
echo structure).  The executions count every point-to-point transmission
as it happens.  Pinning the two against each other across the whole
valid grid catches either side drifting: a protocol emitting spurious
(or missing) relays, or the closed form mis-transcribed.
"""

import pytest

from repro.core.behavior import ConstantLiar, LieAboutSender
from repro.core.byz import message_count, run_degradable_agreement
from repro.core.protocol import execute_degradable_protocol
from repro.core.spec import DegradableSpec
from repro.sim.engine import FaultInjector
from repro.sim.faults import OmissionInjector
from repro.sim.trace import EventKind
from tests.conftest import node_names

VALUE = "engage"

#: Every valid (m, u, N) with N <= 8: 0 <= m <= u and N > 2m + u.
GRID = [
    (m, u, n)
    for n in range(3, 9)
    for m in range(0, n)
    for u in range(max(m, 1), n)
    if 2 * m + u < n
]


def _grid_id(point):
    m, u, n = point
    return f"m{m}-u{u}-n{n}"


class TestMessageCountClosedForm:
    def test_grid_is_complete(self):
        # Sanity on the generator itself: m=0 and the deepest m=2 point
        # are both in, and every point satisfies the spec's constraints.
        assert (0, 1, 3) in GRID
        assert (2, 2, 7) in GRID
        assert (2, 3, 8) in GRID
        for m, u, n in GRID:
            DegradableSpec(m=m, u=u, n_nodes=n)  # must not raise

    @pytest.mark.parametrize("point", GRID, ids=_grid_id)
    def test_matches_functional_execution(self, point):
        m, u, n = point
        spec = DegradableSpec(m=m, u=u, n_nodes=n)
        nodes = node_names(n)
        result = run_degradable_agreement(spec, nodes, "S", VALUE)
        assert result.stats.messages == message_count(n, m)

    @pytest.mark.parametrize("point", GRID, ids=_grid_id)
    def test_matches_message_passing_execution(self, point):
        m, u, n = point
        spec = DegradableSpec(m=m, u=u, n_nodes=n)
        nodes = node_names(n)
        # record_trace=True (the default) — the sync engine counts
        # transmissions through its event trace.
        result, _ = execute_degradable_protocol(spec, nodes, "S", VALUE)
        assert result.stats.messages == message_count(n, m)

    def test_count_is_independent_of_u(self):
        # The recurrence has no u in it: (m, u, N) and (m, u', N) cost
        # the same wire traffic.
        for u in (2, 3, 4):
            spec = DegradableSpec(m=1, u=u, n_nodes=7)
            result = run_degradable_agreement(
                spec, node_names(7), "S", VALUE
            )
            assert result.stats.messages == message_count(7, 1)

    def test_liars_do_not_change_the_count(self):
        # Non-silent adversaries lie about *content*, not volume: the
        # transmission count is a pure function of (n, m).
        spec = DegradableSpec(m=2, u=2, n_nodes=7)
        nodes = node_names(7)
        for behaviors in (
            {"p1": LieAboutSender("forged", "S")},
            {"p1": ConstantLiar("noise"), "p2": ConstantLiar("junk")},
        ):
            result = run_degradable_agreement(
                spec, nodes, "S", VALUE, behaviors
            )
            assert result.stats.messages == message_count(7, 2)


class TestEngineCountsWithoutATrace:
    """``stats.messages`` is what the processes emitted, trace or no trace.

    It used to be the number of ``sent`` trace events, so a run with
    ``record_trace=False`` reported 0 messages.
    """

    @pytest.mark.parametrize("point", [(1, 2, 5), (2, 2, 7), (3, 3, 10)], ids=_grid_id)
    @pytest.mark.parametrize("record_trace", [True, False])
    def test_equals_closed_form_and_functional_run(self, point, record_trace):
        m, u, n = point
        spec = DegradableSpec(m=m, u=u, n_nodes=n)
        nodes = node_names(n)
        result, engine = execute_degradable_protocol(
            spec, nodes, "S", VALUE, record_trace=record_trace
        )
        functional = run_degradable_agreement(spec, nodes, "S", VALUE)
        assert result.stats.messages == message_count(n, m)
        assert result.stats.messages == functional.stats.messages
        assert engine.emitted == result.stats.messages
        if record_trace:
            assert engine.trace.count(EventKind.SENT) == engine.emitted

    @pytest.mark.parametrize("record_trace", [True, False])
    def test_injectors_do_not_change_the_count(self, record_trace):
        # Emitted means handed to the engine: an injector that drops or
        # multiplies messages changes what is delivered, not what was sent.
        class Doubler(FaultInjector):
            def intercept(self, round_no, message):
                return [message, message]

        spec = DegradableSpec(m=1, u=2, n_nodes=5)
        nodes = node_names(5)
        for injector in (OmissionInjector.from_sources({"p1"}), Doubler()):
            result, engine = execute_degradable_protocol(
                spec, nodes, "S", VALUE,
                extra_injectors=[injector], record_trace=record_trace,
            )
            assert result.stats.messages == message_count(5, 1) == 16
            assert engine.emitted == 16
