"""Shared helpers for the experiment benchmarks.

Every benchmark regenerates one paper artefact (table or figure), prints it
(run with ``-s`` to see the tables inline), asserts the paper's qualitative
claims, and times the regeneration with pytest-benchmark.  EXPERIMENTS.md
records the printed outputs against the paper's statements.
"""

from __future__ import annotations

import sys

from repro.analysis.runner import EXPERIMENTS


def emit(title: str, body: str) -> None:
    """Print an experiment artefact in a uniform, greppable frame."""
    bar = "=" * 72
    sys.stdout.write(f"\n{bar}\n{title}\n{bar}\n{body}\n")


def run_full(benchmark, exp_id: str, blocks: slice = slice(None)) -> None:
    """Time registry entry *exp_id* at its full size, require that every
    claim it judges holds, and print its artefact (or the *blocks* of it)."""
    result = benchmark.pedantic(
        EXPERIMENTS[exp_id], args=("full",), rounds=1, iterations=1
    )
    assert result.passed, result.details
    for title, body in result.artefacts[blocks]:
        emit(title, body)
    benchmark.extra_info.update(result.details)
