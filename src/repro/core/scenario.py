"""The one description of an agreement instance, and its replay tokens.

In the paper an execution is fixed by very little: ``(m, u, N)`` with
``N > 2m + u``, the sender's value, and which nodes are faulty and how.
The fuzzer, the schedule explorer, the chaos campaign, the scenario suite
and the CLI all read that description from here: :func:`node_ids`,
the :data:`FAULT_KINDS` table behind :func:`build_behavior`, the frozen
:class:`Instance`, and the ``key=value,...`` replay-token grammar
(:func:`parse_token` / :func:`format_token`) every ``--replay`` speaks.

A replay token must never silently replay a different run, so a key the
grammar does not know, or one named twice, is an error; empty segments (a
trailing comma) are skipped.  Nothing here imports :mod:`repro.net`, and
``spec()/nodes()/behaviors()`` never parse or re-validate a token.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, ClassVar, Dict, FrozenSet, Iterable, List
from typing import Sequence, Tuple

from repro.core.behavior import (
    Behavior,
    BehaviorMap,
    ConstantLiar,
    LieAboutSender,
    SilentBehavior,
    TwoFacedBehavior,
)
from repro.core.spec import DegradableSpec
from repro.exceptions import ConfigurationError

SENDER = "S"


def node_ids(n_nodes: int) -> List[str]:
    """The canonical node list: the sender ``S`` then ``p1 .. p{N-1}``."""
    return [SENDER] + [f"p{k}" for k in range(1, n_nodes)]


_BEHAVIOR_OF: Dict[str, Callable[[Sequence[str]], Behavior]] = {
    "lie": lambda nodes: LieAboutSender("forged", SENDER),
    "silent": lambda nodes: SilentBehavior(),
    "constant": lambda nodes: ConstantLiar("forged"),
    "two-faced": lambda nodes: TwoFacedBehavior(
        {p: ("x" if i % 2 else "y") for i, p in enumerate(nodes)}
    ),
}

#: Behaviour kinds a faulty node may be assigned: the vocabulary of every
#: ``faults=`` token field, of ``repro explore --faulty`` and of the CLI's
#: ``--adversary`` (which adds ``crash``, a wire mute with no behaviour).
FAULT_KINDS: Tuple[str, ...] = tuple(_BEHAVIOR_OF)


def build_behavior(kind: str, nodes: Sequence[str]) -> Behavior:
    """The behaviour a faulty node of *kind* runs in a system of *nodes*."""
    if kind not in _BEHAVIOR_OF:
        raise ConfigurationError(
            f"unknown fault kind {kind!r}; choose from {FAULT_KINDS}"
        )
    return _BEHAVIOR_OF[kind](nodes)


@dataclass(frozen=True)
class Instance:
    """One fully determined agreement instance."""

    #: Names the grammar in error messages ("fuzz", "explore", ...).
    grammar: ClassVar[str] = "scenario"

    m: int
    u: int
    n_nodes: int
    sender_value: str = "alpha"
    #: ``((node, kind), ...)`` sorted by node; kinds from FAULT_KINDS.
    faults: Tuple[Tuple[str, str], ...] = ()

    def spec(self) -> DegradableSpec:
        return DegradableSpec(m=self.m, u=self.u, n_nodes=self.n_nodes)

    def nodes(self) -> List[str]:
        return node_ids(self.n_nodes)

    def behaviors(self) -> BehaviorMap:
        nodes = self.nodes()
        behaviors: BehaviorMap = {}
        for node, kind in self.faults:
            if node not in nodes:
                raise ConfigurationError(
                    f"{self.grammar} names unknown faulty node {node!r} "
                    f"(nodes are {SENDER}, p1 .. p{self.n_nodes - 1})"
                )
            if node in behaviors:
                # Keeping either kind runs a node the faults do not name.
                raise ConfigurationError(
                    f"repeated faulty node {node!r} in {self.grammar} "
                    f"faults ({'+'.join(f'{n}:{k}' for n, k in self.faults)}"
                    f"); each node may have one fault kind"
                )
            behaviors[node] = build_behavior(kind, nodes)
        return behaviors

    @property
    def behavior_faulty(self) -> FrozenSet[str]:
        return frozenset(node for node, _ in self.faults)

    def token_fields(self) -> List[Tuple[str, object]]:
        """The fields every instance-bearing token starts with."""
        faults = "+".join(f"{n}:{k}" for n, k in self.faults) or "-"
        return [
            ("m", self.m),
            ("u", self.u),
            ("n", self.n_nodes),
            ("value", self.sender_value),
            ("faults", faults),
        ]


def format_token(fields: Iterable[Tuple[str, object]]) -> str:
    """Render ``key=value`` pairs, in order, as one replay token."""
    return ",".join(f"{key}={value}" for key, value in fields)


def parse_token(
    token: str,
    grammar: str,
    fields: Dict[str, Tuple[str, Callable[[str], object]]],
    required: Sequence[str] = ("m", "u", "n"),
) -> Dict[str, object]:
    """Read *token* against its grammar into constructor keywords.

    *fields* maps each key the grammar knows to ``(keyword, convert)``:
    the config-constructor keyword it fills and the text -> value
    conversion.  Keys the token omits are left to the constructor's
    defaults; an unknown or repeated key, a segment without ``=``, a
    missing *required* key or a failed conversion is a
    :class:`ConfigurationError` labelled with the grammar's name.
    """
    values: Dict[str, object] = {}
    seen = set()
    for part in token.split(","):
        part = part.strip()
        if not part:
            continue
        key, sep, text = part.partition("=")
        key = key.strip()
        if not sep or not key:
            raise ConfigurationError(
                f"malformed {grammar} replay token segment {part!r} "
                f"in {token!r} (expected key=value pairs)"
            )
        if key not in fields:
            raise ConfigurationError(
                f"unknown key {key!r} in {grammar} replay token {token!r}; "
                f"known keys: {', '.join(fields)}"
            )
        if key in seen:
            raise ConfigurationError(
                f"repeated key {key!r} in {grammar} replay token {token!r}; "
                f"each key may appear once (known keys: {', '.join(fields)})"
            )
        seen.add(key)
        keyword, convert = fields[key]
        try:
            values[keyword] = convert(text.strip())
        except ValueError as exc:
            raise ConfigurationError(
                f"malformed {grammar} replay token {token!r}: "
                f"bad {key}: {exc}"
            ) from exc
    missing = [key for key in required if fields[key][0] not in values]
    if missing:
        raise ConfigurationError(
            f"{grammar} replay token {token!r} is missing fields: {missing}"
        )
    return values


def absent(text: str) -> bool:
    """``-`` (or nothing) is how a token spells an empty optional field."""
    return text in ("", "-")


def flag(text: str) -> bool:
    return bool(int(text))


def fault_pairs(
    text: str, separator: str = "+", default_kind: str = ""
) -> Tuple[Tuple[str, str], ...]:
    """The ``node:kind`` assignments *text* lists, sorted by node.

    As called, the ``faults=`` token field: ``+``-separated, kind
    required.  ``repro explore --faulty`` reads its comma-separated list,
    where a bare node takes *default_kind*, through the same conversion.
    """
    pairs = []
    for chunk in () if absent(text) else text.split(separator):
        node, _, kind = chunk.partition(":")
        kind = kind or default_kind
        if not node or not kind:
            raise ValueError(
                f"malformed fault assignment {chunk!r} (expected node:kind)"
            )
        pairs.append((node, kind))
    return tuple(sorted(pairs))


#: The ``(m, u, N)`` keys every grammar carries ...
SHAPE_FIELDS = {"m": ("m", int), "u": ("u", int), "n": ("n_nodes", int)}

#: ... and the rest of an :class:`Instance`, for the grammars that have one.
INSTANCE_FIELDS = {
    **SHAPE_FIELDS,
    "value": ("sender_value", str),
    "faults": ("faults", fault_pairs),
}
