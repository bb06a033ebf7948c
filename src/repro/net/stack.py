"""The one place a transport stack is put together.

:func:`make_transport` turns the ``local``/``tcp`` name every verb and
config carries into a base transport; :func:`build_stack` wraps a base in
the optional layers, always in the same order —
``Supervised(Chaos(base))`` — so injected connection resets and endpoint
restarts exercise the real re-dial path while frame chaos still reaches
the protocol.  The runner entry point, the service gateway and the
schedule explorer all assemble their stack here.  Each layer is imported
by the branch that builds it, so a LocalBus stack without chaos or
supervision loads neither the TCP transport nor the supervisor.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Optional, Tuple

from repro.net.transport import LocalBus, Transport

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.net.chaos.accounting import ChaosLog
    from repro.net.chaos.policy import ChaosPolicy


def make_transport(name: str) -> Transport:
    """``"tcp"`` -> :class:`~repro.net.tcp.TcpTransport`, anything else ->
    :class:`LocalBus`."""
    if name != "tcp":
        return LocalBus()
    from repro.net.tcp import TcpTransport

    return TcpTransport()


def build_stack(
    base: Transport,
    chaos: Optional["ChaosPolicy"],
    chaos_rng: Optional[random.Random],
    supervise: bool,
) -> Tuple[Transport, Optional["ChaosLog"]]:
    """Wrap *base* in chaos, then supervision; return it with the chaos log.

    With *chaos* set every draw comes from *chaos_rng* (default:
    ``random.Random(chaos.seed)``).  Supervision is armed by *supervise*;
    its jitter RNG is seeded like the chaos policy (0 without chaos), so
    one seed replays the whole stack.
    """
    chaos_log = None
    if chaos is not None:
        # Imported lazily: repro.net.chaos.campaign imports the runner,
        # which imports this module.
        from repro.net.chaos.transport import ChaosTransport

        base = ChaosTransport(base, chaos, rng=chaos_rng)
        chaos_log = base.log
    if supervise:
        from repro.net.supervision import SupervisedTransport

        seed = chaos.seed if chaos is not None else 0
        base = SupervisedTransport(base, rng=random.Random(seed))
    return base, chaos_log
