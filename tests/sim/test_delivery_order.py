"""Pin: ``delivery_order`` is the one inbox order, and it did not move.

Every pinned trace, fingerprint and ``counters()`` determinism test was
recorded with inboxes sorted by ``(str(destination), str(source),
str(payload))``.  ``delivery_order`` renders a payload once per distinct
*object* instead of once per message; the order must be that sort's order
exactly, stable ties included, and both runtimes must get it from here.
"""

import inspect
import random

import pytest

from repro.core.values import DEFAULT
from repro.net import runner as net_runner
from repro.sim import engine as sim_engine
from repro.sim.messages import Message, RelayPayload, delivery_order


def reference_order(messages):
    """The sort both runtimes used to spell out themselves."""
    return sorted(
        messages,
        key=lambda m: (str(m.destination), str(m.source), str(m.payload)),
    )


def wave(nodes, sender, rng):
    """A relay wave: one payload *object* per relayed path, shared by all
    its destinations, plus equal-but-distinct copies and forged values."""
    messages = []
    for relayer in nodes:
        if relayer == sender:
            continue
        shared = RelayPayload((sender, relayer), rng.choice(["a", "b", DEFAULT]))
        for destination in nodes:
            if destination in (sender, relayer):
                continue
            roll = rng.random()
            if roll < 0.6:
                payload = shared
            elif roll < 0.8:  # equal to the shared one, another object
                payload = RelayPayload(shared.path, shared.value)
            else:  # forged in flight: same path, another value
                payload = RelayPayload(shared.path, ("forged", rng.randrange(3)))
            messages.append(Message(relayer, destination, payload, 2, "byz"))
            if roll > 0.9:  # a multiplied message: the same object twice
                messages.append(messages[-1])
    return messages


NODE_SETS = [
    ["S", "p1", "p2", "p3", "p4"],
    # str order differs from natural order: "p10" < "p2", "10" < "2".
    ["p0", "p1", "p2", "p10", "p11", "p3"],
    [0, 1, 2, 10, 11, 3],
    [0, "p1", 2, "p10", 10, "p2"],
]


@pytest.mark.parametrize("nodes", NODE_SETS, ids=lambda nodes: str(nodes[-3:]))
@pytest.mark.parametrize("seed", range(8))
def test_equals_the_spelled_out_sort(nodes, seed):
    rng = random.Random(seed)
    messages = wave(nodes, nodes[0], rng)
    rng.shuffle(messages)
    got, want = delivery_order(messages), reference_order(messages)
    assert len(got) == len(messages)
    assert all(a is b for a, b in zip(got, want))  # same objects, same places


def test_ties_keep_arrival_order():
    # Equal keys from distinct objects: the sort is stable and never falls
    # back to comparing the messages themselves.
    first = Message("a", "c", RelayPayload(("s", "a"), "v"), 1, "x")
    second = Message("a", "c", RelayPayload(("s", "a"), "v"), 1, "y")
    assert first != second and str(first.payload) == str(second.payload)
    for arrival in ([first, second], [second, first]):
        assert all(a is b for a, b in zip(delivery_order(arrival), arrival))


def test_accepts_any_iterable_and_does_not_mutate():
    messages = [Message("a", "b", "x"), Message("b", "a", "y")]  # to b, to a
    snapshot = list(messages)
    assert delivery_order(iter(messages)) == [messages[1], messages[0]]
    assert messages == snapshot
    assert delivery_order([]) == []


def test_non_relay_payloads_sort_by_their_str():
    messages = [Message("a", "b", payload) for payload in (10, 9, "9", None, (1, 2))]
    assert [m.payload for m in delivery_order(messages)] == [
        m.payload for m in reference_order(messages)
    ]


def test_both_runtimes_call_it_and_spell_no_key_of_their_own():
    for module in (sim_engine, net_runner):
        source = inspect.getsource(module)
        assert "delivery_order(" in source
        assert "str(m.payload)" not in source and "str(message.payload)" not in source
        assert module.delivery_order is delivery_order
