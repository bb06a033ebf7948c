"""Test adversaries: a scripted liar and a function adapter."""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.core.behavior import Behavior, HonestBehavior, NodeId, Path
from repro.core.values import Value


class ScriptedBehavior(Behavior):
    """Plays back an explicit script, keyed by ``(path, destination)``.

    Missing entries fall back to a default rule (honest by default), so a
    test can choreograph each faulty node's lies one message at a time.
    """

    def __init__(
        self,
        script: Dict[Tuple[Path, NodeId], Value],
        fallback: Optional[Behavior] = None,
    ) -> None:
        self.script = dict(script)
        self.fallback = fallback or HonestBehavior()

    def send(self, path: Path, source: NodeId, destination: NodeId, honest_value: Value) -> Value:
        key = (path, destination)
        if key in self.script:
            return self.script[key]
        return self.fallback.send(path, source, destination, honest_value)


class FunctionBehavior(Behavior):
    """Adapts a plain function ``f(path, source, destination, honest) -> value``."""

    def __init__(self, fn: Callable[[Path, NodeId, NodeId, Value], Value]) -> None:
        self.fn = fn

    def send(self, path: Path, source: NodeId, destination: NodeId, honest_value: Value) -> Value:
        return self.fn(path, source, destination, honest_value)
