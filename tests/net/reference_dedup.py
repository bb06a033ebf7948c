"""The rebuild-on-overflow dedup window, kept verbatim as the differential oracle.

``_admit`` below is the body ``SupervisedTransport._admit`` had before the
window was pruned incrementally: add every admitted number to ``seen``
and, once the set holds more than ``dedup_window`` numbers, rebuild it
from the ones above ``high_seq - dedup_window``.  Nothing here is imported
by ``src/``; ``test_dedup_differential.py`` requires the live ``_admit``
to make the same admit decisions and count the same ``deduped`` replays
on every stream whose replays come within ``dedup_window`` of the
high-water mark.  Do not "fix" or speed up this file.
"""

from repro.net.supervision import LinkSupervisor


class ReferenceDedup:
    """The receive-side dedup state of a ``SupervisedTransport``, alone."""

    def __init__(self, dedup_window: int, metrics=None) -> None:
        self.dedup_window = dedup_window
        self.metrics = metrics
        self._links = {}

    def link(self, source, destination) -> LinkSupervisor:
        key = (source, destination)
        if key not in self._links:
            self._links[key] = LinkSupervisor()
        return self._links[key]

    def _admit(self, frame, node) -> bool:
        """Receive-side dedup: True when *frame* is not a replay."""
        link = (frame.source, node)
        sup = self.link(*link)
        seq = frame.seq
        if seq in sup.seen:
            if self.metrics is not None:
                self.metrics.record_dedup(*link)
            return False
        sup.seen.add(seq)
        if seq > sup.high_seq:
            sup.high_seq = seq
        if len(sup.seen) > self.dedup_window:
            floor = sup.high_seq - self.dedup_window
            sup.seen = {s for s in sup.seen if s > floor}
        return True
