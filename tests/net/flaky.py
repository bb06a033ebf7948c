"""FlakyTransport: the test double for sender-visible transport failures.

Unlike :class:`~repro.net.chaos.ChaosTransport`, which drops silently,
this layer *raises* :class:`~repro.exceptions.TransportError` from
``send`` — what the supervision tests drive the re-dial path with.  It
lived in ``repro.net.transport`` until no ``src/`` caller was left; moved
here verbatim.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Optional

from repro.exceptions import TransportError
from repro.net.codec import Frame
from repro.net.transport import Transport, TransportLayer


class FlakyTransport(TransportLayer):
    """Wraps a transport with deterministic transient send failures.

    Two failure modes, both fully reproducible:

    * **count-based** (default): the first *failures* send attempts of
      every matching ``(source, destination, kind)`` link raise
      :class:`~repro.exceptions.TransportError`; later attempts pass
      through.  With ``failures`` below a supervisor's retry budget this
      exercises its backoff path without changing any outcome; with
      ``failures`` effectively infinite it turns a link (or a node's whole
      output, via *match*) into an omission fault.
    * **probabilistic** (``failure_probability > 0``): each matching send
      attempt independently fails with the given probability, drawn from
      the injected ``rng`` — never the global RNG, so the same seed
      reproduces the same failure pattern byte for byte.
    """

    layer = "flaky"

    def __init__(
        self,
        inner: Transport,
        failures: int = 1,
        match: Optional[Callable[[Frame], bool]] = None,
        failure_probability: float = 0.0,
        rng: Optional[random.Random] = None,
    ) -> None:
        if failures < 0:
            raise ValueError(f"failures must be >= 0, got {failures}")
        if not 0.0 <= failure_probability <= 1.0:
            raise ValueError(
                f"failure_probability must be in [0, 1], "
                f"got {failure_probability}"
            )
        super().__init__(inner)
        self.failures = failures
        self.match = match
        self.failure_probability = failure_probability
        self.rng = rng if rng is not None else random.Random(0)
        self.injected_failures = 0
        self._attempts: Dict[tuple, int] = {}

    def _should_fail(self, frame: Frame) -> bool:
        if self.failure_probability > 0.0:
            return self.rng.random() < self.failure_probability
        key = (frame.source, frame.destination, frame.kind)
        seen = self._attempts.get(key, 0)
        if seen < self.failures:
            self._attempts[key] = seen + 1
            return True
        return False

    async def send(self, frame: Frame) -> int:
        if (self.match is None or self.match(frame)) and self._should_fail(frame):
            self.injected_failures += 1
            raise TransportError(
                f"injected transient failure #{self.injected_failures} on "
                f"{frame.source!r} -> {frame.destination!r}"
            )
        return await self.inner.send(frame)
