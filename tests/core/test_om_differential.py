"""Differential tests for OM(m): functional vs message-passing."""

import random

from hypothesis import given, settings, strategies as st

from repro.core.behavior import (
    ConstantLiar,
    EchoAsBehavior,
    LieAboutSender,
    SilentBehavior,
    TwoFacedBehavior,
)
from repro.core.oral_messages import run_oral_messages
from repro.sim.engine import SynchronousEngine
from repro.sim.faults import behavior_injectors
from repro.sim.network import Topology
from tests.conftest import node_names
from tests.core.om import make_om_processes

DOMAIN = ["attack", "retreat", "regroup"]


def run_protocol_om(m, nodes, sender, value, behaviors):
    processes = make_om_processes(m, nodes, sender, value)
    engine = SynchronousEngine(
        Topology.complete(nodes),
        processes,
        injectors=behavior_injectors(behaviors or {}),
        record_trace=False,
    )
    engine.run(m + 3)
    return {
        p.node_id: p.decision for p in processes if p.node_id != sender
    }


@st.composite
def om_scenarios(draw):
    m = draw(st.integers(min_value=0, max_value=2))
    n = draw(st.integers(min_value=max(3 * m + 1, 2), max_value=3 * m + 3))
    nodes = node_names(n)
    seed = draw(st.integers(min_value=0, max_value=2**16))
    rng = random.Random(seed)
    f = draw(st.integers(min_value=0, max_value=min(m + 1, n)))
    faulty = rng.sample(nodes, f)
    behaviors = {}
    for node in faulty:
        kind = rng.randrange(5)
        if kind == 0:
            behaviors[node] = ConstantLiar(rng.choice(DOMAIN))
        elif kind == 1:
            behaviors[node] = SilentBehavior()
        elif kind == 2:
            behaviors[node] = EchoAsBehavior(rng.choice(DOMAIN))
        elif kind == 3:
            behaviors[node] = LieAboutSender(rng.choice(DOMAIN), "S")
        else:
            faces = {
                x: rng.choice(DOMAIN)
                for x in rng.sample(nodes, min(3, len(nodes)))
            }
            behaviors[node] = TwoFacedBehavior(faces)
    value = draw(st.sampled_from(DOMAIN))
    return m, nodes, behaviors, value


@settings(max_examples=80, deadline=None)
@given(om_scenarios())
def test_om_implementations_match(scenario):
    m, nodes, behaviors, value = scenario
    functional = run_oral_messages(
        m, nodes, "S", value, behaviors, require_quorum=False
    )
    protocol = run_protocol_om(m, nodes, "S", value, behaviors)
    assert functional.decisions == protocol
