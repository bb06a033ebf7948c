"""Hypothesis strategy over the fuzzer's case domain.

The same domain :func:`repro.verify.fuzz.sample_cases` draws from with a
seeded ``random.Random``: a spec corner, at most ``u`` behaviour faults,
and optionally a chaos preset with a 0.25 s deadline.  Kept under
``tests/`` so the package itself never imports Hypothesis; here it drives
property tests, shrinking included.
"""

from hypothesis import strategies as st

from repro.core.scenario import FAULT_KINDS, node_ids
from repro.net.chaos import SEVERITIES
from repro.verify.fuzz import SPEC_CORNERS, FuzzCase

VALUES = ("alpha", "beta", "gamma")


def case_strategy(allow_chaos: bool = True):
    """Hypothesis strategy over :class:`FuzzCase`."""

    @st.composite
    def _cases(draw) -> FuzzCase:
        m, u = draw(st.sampled_from(SPEC_CORNERS))
        extra = draw(st.integers(min_value=0, max_value=1))
        n = min(2 * m + u + 1 + extra, 7)
        nodes = node_ids(n)
        n_faults = draw(st.integers(min_value=0, max_value=u))
        order = draw(st.permutations(nodes))
        faults = tuple(
            sorted(
                (node, draw(st.sampled_from(FAULT_KINDS)))
                for node in order[:n_faults]
            )
        )
        severity, chaos_seed, timeout = "", 0, 2.0
        if allow_chaos and draw(st.booleans()):
            severity = draw(st.sampled_from(SEVERITIES))
            chaos_seed = draw(st.integers(min_value=0, max_value=2 ** 20))
            timeout = 0.25
        return FuzzCase(
            m=m,
            u=u,
            n_nodes=n,
            sender_value=draw(st.sampled_from(VALUES)),
            faults=faults,
            chaos_severity=severity,
            chaos_seed=chaos_seed,
            timeout=timeout,
        )

    return _cases()
