"""Public-API surface consistency checks.

Guards against `__init__` drift: every name in every package's ``__all__``
must resolve, every re-export must point at the canonical object, and the
top-level convenience surface must stay importable.  These tests fail fast
when an export is renamed or forgotten — before any user code does.
"""

import importlib
import pkgutil

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.core",
    "repro.sim",
    "repro.channels",
    "repro.clocksync",
    "repro.analysis",
    "repro.net",
]


@pytest.mark.parametrize("package_name", PACKAGES)
def test_all_entries_resolve(package_name):
    package = importlib.import_module(package_name)
    assert hasattr(package, "__all__"), package_name
    for name in package.__all__:
        assert hasattr(package, name), f"{package_name}.__all__ lists missing {name!r}"


@pytest.mark.parametrize("package_name", PACKAGES)
def test_all_entries_unique(package_name):
    package = importlib.import_module(package_name)
    assert len(set(package.__all__)) == len(package.__all__), (
        f"duplicate entries in {package_name}.__all__"
    )


def test_every_module_imports():
    """Walk the whole package tree; every module must import cleanly."""
    failures = []
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        try:
            importlib.import_module(info.name)
        except Exception as exc:  # pragma: no cover - failure reporting
            failures.append((info.name, repr(exc)))
    assert not failures, failures


def test_top_level_convenience_names():
    for name in (
        "DegradableSpec",
        "run_degradable_agreement",
        "execute_degradable_protocol",
        "classify",
        "DEFAULT",
        "vote",
        "min_nodes",
        "LocalBus",
        "TcpTransport",
        "AsyncRoundRunner",
        "NetMetrics",
        "run_agreement_async",
    ):
        assert hasattr(repro, name), name


def test_reexports_are_canonical():
    from repro.core import byz, conditions, spec
    from repro.net import runner, transport

    assert repro.run_degradable_agreement is byz.run_degradable_agreement
    assert repro.classify is conditions.classify
    assert repro.DegradableSpec is spec.DegradableSpec
    assert repro.LocalBus is transport.LocalBus
    assert repro.run_agreement_async is runner.run_agreement_async


def test_version_string():
    assert isinstance(repro.__version__, str)
    assert repro.__version__.count(".") == 2


def test_version_matches_pyproject():
    # A regex, not tomllib: tomllib is 3.11+ and the floor is 3.9.
    import re
    from pathlib import Path

    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    declared = re.search(r'^version = "([^"]+)"$', text, re.MULTILINE)
    assert declared is not None, "pyproject.toml has no version line"
    assert declared.group(1) == repro.__version__


def test_no_import_cycle_clocksync_first():
    """Regression: importing repro.clocksync before repro.analysis once
    closed an import cycle through analysis.report.  Both orders must work
    in a fresh interpreter."""
    import subprocess
    import sys

    for order in (
        "import repro.clocksync; import repro.analysis",
        "import repro.analysis; import repro.clocksync",
    ):
        proc = subprocess.run(
            [sys.executable, "-c", order], capture_output=True, text=True
        )
        assert proc.returncode == 0, (order, proc.stderr)


GRAPH_FREE_ENTRY_POINTS = (
    "repro", "repro.serve", "repro.explore", "repro.verify", "repro.cli", "repro.net.tcp",
)

GRAPH_LIBRARY_PROBE = f"""
import sys
import {", ".join(GRAPH_FREE_ENTRY_POINTS)}
assert "networkx" not in sys.modules, "networkx loaded by importing the entry points"
from repro.sim.network import Topology
assert Topology.complete(["a", "b", "c"]).links["a"] == {{"b", "c"}}
assert "networkx" not in sys.modules, "networkx loaded by a complete topology"
assert Topology.ring(["a", "b", "c", "d"]).connectivity() == 2
assert "networkx" in sys.modules, "connectivity ran without networkx"
"""


def test_a_process_loads_no_graph_library_it_does_not_query():
    """networkx costs ~20 MB and ~130 ms to import; only the graph
    algorithms (Theorem 3's connectivity, disjoint-path routing) load it,
    on their first call.  A fresh interpreter is the only clean slate."""
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-c", GRAPH_LIBRARY_PROBE], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


def test_every_public_module_has_docstring():
    undocumented = []
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        module = importlib.import_module(info.name)
        if not (module.__doc__ or "").strip():
            undocumented.append(info.name)
    assert not undocumented, undocumented
