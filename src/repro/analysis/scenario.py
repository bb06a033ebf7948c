"""Declarative, serializable execution scenarios.

Experiments and regression suites want to pin down *exact* executions —
"this spec, these faults, these lies" — in data rather than code, so they
can be stored as JSON, diffed, and replayed across library versions.  A
:class:`ScenarioSpec` captures one degradable-agreement execution; a
:class:`ScenarioSuite` runs a batch and reports violations.

Behaviours are referenced by name through :data:`BEHAVIOR_BUILDERS` — the
registry covers every deterministic behaviour in the toolkit (randomized
behaviours are deliberately excluded: a replayable scenario must be
deterministic).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, Hashable, List, Optional, Sequence

from repro.core.behavior import (
    Behavior,
    BehaviorMap,
    ChainLiar,
    ChainTwoFaced,
    ConstantLiar,
    EchoAsBehavior,
    LieAboutSender,
    SilentBehavior,
    TwoFacedBehavior,
)
from repro.core.byz import run_degradable_agreement
from repro.core.conditions import OutcomeReport, classify
from repro.core.scenario import node_ids
from repro.core.spec import DegradableSpec, sub_minimal_spec
from repro.core.values import DEFAULT
from repro.exceptions import AnalysisError

NodeId = Hashable

#: Marker used in serialized scenarios for the default value V_d.
DEFAULT_MARKER = "__V_d__"


def _encode_value(value):
    return DEFAULT_MARKER if value is DEFAULT else value


def _decode_value(value):
    return DEFAULT if value == DEFAULT_MARKER else value


def _build_constant(args):
    return ConstantLiar(_decode_value(args["value"]))


def _build_silent(args):
    return SilentBehavior()


def _build_echo_as(args):
    return EchoAsBehavior(_decode_value(args["value"]))


def _build_two_faced(args):
    faces = {dest: _decode_value(v) for dest, v in args["faces"].items()}
    return TwoFacedBehavior(faces)


def _build_lie_about_sender(args):
    return LieAboutSender(_decode_value(args["value"]), args["sender"])


def _build_chain_liar(args):
    return ChainLiar(
        _decode_value(args["value"]), args["sender"], args.get("extras", ())
    )


def _build_chain_two_faced(args):
    faces = {dest: _decode_value(v) for dest, v in args["faces"].items()}
    return ChainTwoFaced(faces, args["sender"], args.get("extras", ()))


#: name -> builder(args dict) -> Behavior
BEHAVIOR_BUILDERS: Dict[str, Callable[[dict], Behavior]] = {
    "constant-liar": _build_constant,
    "silent": _build_silent,
    "echo-as": _build_echo_as,
    "two-faced": _build_two_faced,
    "lie-about-sender": _build_lie_about_sender,
    "chain-liar": _build_chain_liar,
    "chain-two-faced": _build_chain_two_faced,
}


@dataclass
class ScenarioSpec:
    """One fully-determined degradable-agreement execution.

    ``faults`` maps node id to ``{"kind": <registry name>, ...args}``.
    ``expect`` optionally pins expected decisions (with
    :data:`DEFAULT_MARKER` for ``V_d``) — a golden-output regression.
    """

    name: str
    m: int
    u: int
    n_nodes: int
    sender_value: object = "alpha"
    faults: Dict[str, dict] = field(default_factory=dict)
    expect: Optional[Dict[str, object]] = None
    description: str = ""

    # ------------------------------------------------------------------
    def nodes(self) -> List[str]:
        return node_ids(self.n_nodes)

    def spec(self) -> DegradableSpec:
        if self.n_nodes > 2 * self.m + self.u:
            return DegradableSpec(m=self.m, u=self.u, n_nodes=self.n_nodes)
        return sub_minimal_spec(self.m, self.u, self.n_nodes)

    def behaviors(self) -> BehaviorMap:
        built: BehaviorMap = {}
        for node, fault in self.faults.items():
            kind = fault.get("kind")
            if kind not in BEHAVIOR_BUILDERS:
                raise AnalysisError(
                    f"scenario {self.name!r}: unknown behaviour kind {kind!r}"
                )
            if node not in self.nodes():
                raise AnalysisError(
                    f"scenario {self.name!r}: faulty node {node!r} not in system"
                )
            built[node] = BEHAVIOR_BUILDERS[kind](fault)
        return built

    # ------------------------------------------------------------------
    def run(self) -> "ScenarioRun":
        nodes = self.nodes()
        result = run_degradable_agreement(
            self.spec(), nodes, "S", self.sender_value, self.behaviors()
        )
        report = classify(result, frozenset(self.faults), self.spec())
        golden_ok = True
        mismatches: Dict[str, object] = {}
        if self.expect is not None:
            for node, expected in self.expect.items():
                actual = result.decisions.get(node)
                if actual != _decode_value(expected):
                    golden_ok = False
                    mismatches[node] = _encode_value(actual)
        return ScenarioRun(
            scenario=self,
            report=report,
            decisions={
                str(n): _encode_value(v) for n, v in result.decisions.items()
            },
            golden_ok=golden_ok,
            mismatches=mismatches,
        )

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        data = asdict(self)
        data["sender_value"] = _encode_value(self.sender_value)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioSpec":
        known = {
            "name", "m", "u", "n_nodes", "sender_value", "faults",
            "expect", "description",
        }
        unknown = set(data) - known
        if unknown:
            raise AnalysisError(f"unknown scenario fields: {sorted(unknown)}")
        payload = dict(data)
        payload["sender_value"] = _decode_value(
            payload.get("sender_value", "alpha")
        )
        return cls(**payload)


@dataclass
class ScenarioRun:
    scenario: ScenarioSpec
    report: OutcomeReport
    decisions: Dict[str, object]
    golden_ok: bool
    mismatches: Dict[str, object]

    @property
    def ok(self) -> bool:
        return self.report.satisfied and self.golden_ok


class ScenarioSuite:
    """A batch of scenarios with JSON round-tripping."""

    def __init__(self, scenarios: Sequence[ScenarioSpec]) -> None:
        names = [s.name for s in scenarios]
        if len(set(names)) != len(names):
            raise AnalysisError("duplicate scenario names in suite")
        self.scenarios = list(scenarios)

    def run(self) -> List[ScenarioRun]:
        return [scenario.run() for scenario in self.scenarios]

    def failures(self) -> List[ScenarioRun]:
        return [run for run in self.run() if not run.ok]

    # ------------------------------------------------------------------
    def to_json(self) -> str:
        return json.dumps(
            {"schema": "repro-scenarios/1",
             "scenarios": [s.to_dict() for s in self.scenarios]},
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSuite":
        payload = json.loads(text)
        if payload.get("schema") != "repro-scenarios/1":
            raise AnalysisError(
                f"unsupported scenario schema: {payload.get('schema')!r}"
            )
        return cls(
            [ScenarioSpec.from_dict(d) for d in payload["scenarios"]]
        )

    def save(self, path: str) -> None:
        with open(path, "w") as handle:
            handle.write(self.to_json())

    @classmethod
    def load(cls, path: str) -> "ScenarioSuite":
        with open(path) as handle:
            return cls.from_json(handle.read())


def reference_suite() -> ScenarioSuite:
    """The built-in golden scenarios (used by tests and the CLI)."""
    return ScenarioSuite([
        ScenarioSpec(
            name="clean-1-2",
            m=1, u=2, n_nodes=5,
            description="fault-free baseline",
            expect={f"p{k}": "alpha" for k in range(1, 5)},
        ),
        ScenarioSpec(
            name="one-liar-masked",
            m=1, u=2, n_nodes=5,
            faults={"p1": {"kind": "lie-about-sender",
                           "value": "zeta", "sender": "S"}},
            expect={"p2": "alpha", "p3": "alpha", "p4": "alpha"},
        ),
        ScenarioSpec(
            name="two-colluders-degrade",
            m=1, u=2, n_nodes=5,
            faults={
                "p1": {"kind": "chain-liar", "value": "zeta", "sender": "S"},
                "p2": {"kind": "chain-liar", "value": "zeta", "sender": "S"},
            },
            expect={"p3": DEFAULT_MARKER, "p4": DEFAULT_MARKER},
        ),
        ScenarioSpec(
            name="two-faced-sender",
            m=1, u=2, n_nodes=5,
            faults={"S": {"kind": "two-faced",
                          "faces": {"p1": "x", "p2": "y"}}},
        ),
        ScenarioSpec(
            name="silent-sender-defaults",
            m=1, u=2, n_nodes=5,
            faults={"S": {"kind": "silent"}},
            expect={f"p{k}": DEFAULT_MARKER for k in range(1, 5)},
        ),
        ScenarioSpec(
            name="m2-depth-recursion",
            m=2, u=3, n_nodes=8,
            faults={
                "p1": {"kind": "chain-liar", "value": "zeta",
                       "sender": "S", "extras": ["p7"]},
                "p2": {"kind": "echo-as", "value": "zeta"},
                "p3": {"kind": "silent"},
            },
        ),
    ])
