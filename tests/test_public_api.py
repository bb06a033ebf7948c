"""Public-API surface consistency checks.

Guards against `__init__` drift: every name in every package's ``__all__``
must resolve, every re-export must point at the canonical object, and the
top-level convenience surface must stay importable.  These tests fail fast
when an export is renamed or forgotten — before any user code does.  A
package re-export resolves on first access (:mod:`repro._exports`), so a
wrong table entry would otherwise fail only where a caller first asks.
"""

import ast
import importlib
import inspect
import pkgutil
import subprocess
import sys

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
    "repro.net.chaos",
    "repro.explore",
    "repro.obs",
    "repro.serve",
    "repro.trace",
    "repro.verify",
]


def export_table(package_name):
    """``[(name, module), ...]`` as the package's ``lazy_exports`` table
    writes it, read from the source, not from the helper."""
    package = importlib.import_module(package_name)
    for node in ast.walk(ast.parse(inspect.getsource(package))):
        if isinstance(node, ast.Call) and getattr(node.func, "id", "") == "lazy_exports":
            return [
                (name, f"{package_name}.{submodule}")
                for submodule, names in ast.literal_eval(node.args[1]).items()
                for name in names
            ]
    raise AssertionError(f"{package_name} has no lazy_exports table")


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
    names = [name for name, _ in export_table(package_name)]
    assert len(set(names)) == len(names), f"a name listed twice in {package_name}"


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


@pytest.mark.parametrize("package_name", PACKAGES)
def test_dir_lists_every_export(package_name):
    package = importlib.import_module(package_name)
    assert set(package.__all__) <= set(dir(package))
    assert package.__all__ == [name for name, _ in export_table(package_name)] + (
        ["__version__"] if package_name == "repro" else []
    )


def test_reexports_are_canonical():
    """Every table entry is its module's object — also after every
    submodule has been imported, which sets each one as an attribute of
    its package (``repro.core.vote`` is both a module and a function)."""
    from repro.core import byz, conditions, spec
    from repro.net import runner, transport

    assert repro.run_degradable_agreement is byz.run_degradable_agreement
    assert repro.classify is conditions.classify
    assert repro.DegradableSpec is spec.DegradableSpec
    assert repro.LocalBus is transport.LocalBus
    assert repro.run_agreement_async is runner.run_agreement_async
    for package_name in PACKAGES:
        package = importlib.import_module(package_name)
        for info in pkgutil.iter_modules(package.__path__, f"{package_name}."):
            importlib.import_module(info.name)
        for name, module in export_table(package_name):
            canonical = getattr(importlib.import_module(module), name)
            assert getattr(package, name) is canonical, (package_name, name)


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


def test_each_package_imported_first_resolves_its_all():
    """Each package, imported first in a fresh interpreter, resolves its
    whole ``__all__``.  Re-exports bind on first access, so the order the
    submodules load in is the caller's: an import cycle (importing
    repro.clocksync before repro.analysis once closed one through
    analysis.report) can surface in any order."""
    failures = []
    for package_name in PACKAGES:
        probe = (
            f"import {package_name} as p\n"
            "for name in p.__all__:\n"
            "    getattr(p, name)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True
        )
        if proc.returncode != 0:
            failures.append((package_name, proc.stderr))
    assert not failures, failures


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
    proc = subprocess.run(
        [sys.executable, "-c", GRAPH_LIBRARY_PROBE], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


RUNTIME_MODULES = ("asyncio", "socket", "ssl", "repro.net", "repro.obs")

#: Transport layers a LocalBus service without supervision never builds.
STACK_MODULES = ("repro.net.tcp", "repro.net.supervision")

RUNTIME_PROBE = f"""
import contextlib, io, sys
import repro, repro.core, repro.sim, repro.analysis.montecarlo, repro.cli
with contextlib.redirect_stdout(io.StringIO()):
    assert repro.cli.main(["table"]) == 0
loaded = [name for name in {RUNTIME_MODULES!r} if name in sys.modules]
assert not loaded, f"the agreement core and `repro table` loaded {{loaded}}"
from repro import LocalBus
missing = [name for name in {RUNTIME_MODULES!r} if name not in sys.modules]
assert not missing, f"`from repro import LocalBus` did not load {{missing}}"
import asyncio
from repro.core.spec import DegradableSpec
from repro.serve import AgreementService
async def serve():
    async with AgreementService(
        DegradableSpec(1, 2, 5), ("S", "p1", "p2", "p3", "p4"),
        record_trace=False,
    ) as service:
        assert (await service.submit_and_wait("S", "v")).ok
asyncio.run(serve())
stacked = [name for name in {STACK_MODULES!r} if name in sys.modules]
assert not stacked, f"a LocalBus service without supervision loaded {{stacked}}"
"""


def test_a_subpackage_is_an_attribute_of_its_package():
    """As when every package imported its submodules: after ``import
    repro``, ``repro.net.chaos.run_seeded_instance`` resolves (importing
    on the way), and a name that is no submodule is an AttributeError."""
    probe = (
        "import repro\n"
        "found = repro.net.chaos.run_seeded_instance\n"
        "from repro.net.chaos.campaign import run_seeded_instance\n"
        "assert found is run_seeded_instance\n"
        "assert repro.core.eig.EIGTree is repro.core.EIGTree\n"
        "assert not hasattr(repro, 'no_such_module')\n"
        "assert not hasattr(repro.core, '__wrapped__')\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_a_process_loads_nothing_it_does_not_run():
    """BYZ and the synchronous engine need no network runtime: importing
    the package, the core, the simulator and the Monte-Carlo campaign, and
    printing the paper's tables, leave asyncio, sockets, TLS and the
    runtime/observability packages unloaded until a runtime name is used;
    a LocalBus service without supervision then loads neither the TCP
    transport nor the supervisor."""
    proc = subprocess.run(
        [sys.executable, "-c", RUNTIME_PROBE], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


def test_every_public_module_has_docstring():
    undocumented = []
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        module = importlib.import_module(info.name)
        if not (module.__doc__ or "").strip():
            undocumented.append(info.name)
    assert not undocumented, undocumented
