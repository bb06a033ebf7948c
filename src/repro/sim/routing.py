"""Disjoint-path relay transport for sparse topologies (Theorem 3 support).

Algorithm BYZ assumes a fully connected network.  On a sparse topology,
every logical point-to-point transmission must be *routed*; Byzantine nodes
sitting on the routes can corrupt or suppress what they forward.  Theorem 3
proves that m/u-degradable agreement needs vertex connectivity at least
``m + u + 1``, and remarks that this much connectivity is also sufficient.

This module supplies the sufficiency construction as a :data:`Transport`
plugin for the functional algorithm:

* each logical message is sent as one copy along each of ``m + u + 1``
  vertex-disjoint paths (they exist by Menger's theorem exactly when the
  connectivity bound holds);
* a faulty intermediate hop may rewrite the copy it forwards (or swallow
  it);
* the destination accepts a value carried by at least ``u + 1`` copies and
  otherwise falls back to the default ``V_d``.

Why ``u + 1``: with ``f <= u`` total faults, at most ``u`` copies are
corrupted, so a *fabricated* value can never reach the threshold — the
channel delivers either the true value or ``V_d``.  With ``f <= m``, at
least ``(m + u + 1) - m = u + 1`` copies arrive intact, so the true value
always makes the threshold and the channel is perfectly reliable.  A
``V_d`` substitution in the degraded regime is precisely the "message
declared absent" relaxation of Section 6.1, under which algorithm BYZ still
achieves conditions D.3/D.4.

At connectivity ``m + u`` these two properties cannot hold simultaneously —
which is the quantitative content of Theorem 3 and what the
``bench_connectivity_bound`` experiment demonstrates.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Dict, Hashable, List, Optional, Tuple

from repro.core.behavior import Path
from repro.core.values import DEFAULT, Value
from repro.exceptions import ConfigurationError, RoutingError
from repro.sim.network import Topology

NodeId = Hashable

#: A hop corruptor decides what a (faulty) forwarding node passes on:
#: ``(forwarder, previous_hop, next_hop, value) -> value``.  Returning
#: ``None`` swallows the copy entirely.
HopCorruptor = Callable[[NodeId, NodeId, NodeId, Value], Optional[Value]]


class RoutedTransport:
    """Transport that routes every logical message over disjoint paths.

    Parameters
    ----------
    topology:
        The physical communication graph.
    n_paths:
        Number of vertex-disjoint paths per logical message
        (``m + u + 1`` for the sufficiency construction).
    accept_threshold:
        Copies that must agree for the destination to accept a value
        (``u + 1``); below it the destination records ``V_d``.
    hop_corruptors:
        Map from faulty node id to its :data:`HopCorruptor`.  Nodes not in
        the map forward faithfully.  Endpoint behaviour (a faulty *sender*
        lying) is handled upstream by the protocol's behaviour map — this
        layer only models what happens *in transit*.
    """

    def __init__(
        self,
        topology: Topology,
        n_paths: int,
        accept_threshold: int,
        hop_corruptors: Optional[Dict[NodeId, HopCorruptor]] = None,
    ) -> None:
        if n_paths < 1:
            raise ConfigurationError(f"n_paths must be >= 1, got {n_paths}")
        if accept_threshold < 1 or accept_threshold > n_paths:
            raise ConfigurationError(
                f"accept_threshold must be in [1, n_paths], got "
                f"{accept_threshold} with n_paths={n_paths}"
            )
        self.topology = topology
        self.n_paths = n_paths
        self.accept_threshold = accept_threshold
        self.hop_corruptors = dict(hop_corruptors or {})
        self._route_cache: Dict[Tuple[NodeId, NodeId], List[Tuple[NodeId, ...]]] = {}
        self.copies_sent = 0
        self.copies_corrupted = 0
        self.copies_swallowed = 0

    @classmethod
    def for_spec(
        cls,
        topology: Topology,
        m: int,
        u: int,
        hop_corruptors: Optional[Dict[NodeId, HopCorruptor]] = None,
    ) -> "RoutedTransport":
        """The Theorem 3 sufficiency configuration for given (m, u)."""
        return cls(
            topology,
            n_paths=m + u + 1,
            accept_threshold=u + 1,
            hop_corruptors=hop_corruptors,
        )

    # ------------------------------------------------------------------
    # Transport protocol (plugs into repro.core.byz)
    # ------------------------------------------------------------------
    def __call__(self, path: Path, source: NodeId, dest: NodeId, value: Value) -> Value:
        """Deliver *value* from *source* to *dest*; return what is accepted."""
        copies = [
            self._forward_along(route, value)
            for route in self._routes(source, dest)
        ]
        arrived = [c for c in copies if c is not _SWALLOWED]
        counts = Counter(arrived)
        winners = [v for v, c in counts.items() if c >= self.accept_threshold]
        if len(winners) == 1:
            return winners[0]
        return DEFAULT

    def _routes(self, source: NodeId, dest: NodeId) -> List[Tuple[NodeId, ...]]:
        key = (source, dest)
        if key not in self._route_cache:
            paths = self.topology.disjoint_paths(source, dest, self.n_paths)
            self._route_cache[key] = paths
        return self._route_cache[key]

    def _forward_along(self, route: Tuple[NodeId, ...], value: Value) -> Value:
        """Walk one route hop by hop, applying intermediate corruption."""
        self.copies_sent += 1
        current = value
        # route = (source, hop_1, ..., hop_k, dest); only interior hops
        # forward and may corrupt.
        for idx in range(1, len(route) - 1):
            hop = route[idx]
            corruptor = self.hop_corruptors.get(hop)
            if corruptor is None:
                continue
            forwarded = corruptor(hop, route[idx - 1], route[idx + 1], current)
            if forwarded is None:
                self.copies_swallowed += 1
                return _SWALLOWED
            if forwarded != current:
                self.copies_corrupted += 1
            current = forwarded
        return current

    def verify_feasible(self, nodes: List[NodeId]) -> None:
        """Pre-flight check: every ordered pair has enough disjoint paths."""
        for source in nodes:
            for dest in nodes:
                if source == dest:
                    continue
                try:
                    self._routes(source, dest)
                except RoutingError as exc:
                    raise RoutingError(
                        f"topology cannot support {self.n_paths} disjoint "
                        f"paths for pair ({source!r}, {dest!r}): {exc}"
                    ) from exc


class _Swallowed:
    """Internal marker: a copy that never arrived (distinct from V_d)."""


_SWALLOWED = _Swallowed()


def constant_corruptor(forged: Value) -> HopCorruptor:
    """A hop corruptor that rewrites every forwarded copy to *forged*."""

    def corrupt(hop: NodeId, prev: NodeId, nxt: NodeId, value: Value) -> Value:
        return forged

    return corrupt


def silent_corruptor() -> HopCorruptor:
    """A hop that swallows every copy (crashed router)."""

    def corrupt(hop: NodeId, prev: NodeId, nxt: NodeId, value: Value) -> Optional[Value]:
        return None

    return corrupt
