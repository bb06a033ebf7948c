"""scripts/reach.py sorts a package's functions by the runs that call them.

A planted package has one function per class of reach.  Its test suite
clears the trace function before the test that calls into it, runs a
thread and spawns a ``python -m`` child; its "entry point" is a
``python -c`` one-liner.  Each function must land in its class.
"""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location("reach", ROOT / "scripts" / "reach.py")
reach = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reach)

PLANTED = '''\
def _decorate(fn):
    return fn


def by_entry():
    return 1


def by_test():
    return 2


def by_child():
    return 3


def by_thread():
    return 4


class Box:
    @property
    def by_test_property(self):
        return 5


@_decorate
def by_nothing():
    """Two docstring
    lines."""
    # a comment

    x = 6
    return x
'''

PLANTED_MAIN = "from planted import by_child\n\nby_child()\n"

PLANTED_TESTS = '''\
import subprocess
import sys
import threading

import planted


def test_clears_the_trace_function():
    sys.settrace(None)
    threading.settrace(None)


def test_calls_after_the_clear():
    assert planted.by_test() == 2
    assert planted.Box().by_test_property == 5


def test_thread():
    worker = threading.Thread(target=planted.by_thread)
    worker.start()
    worker.join()


def test_spawns_a_child():
    subprocess.run([sys.executable, "-m", "planted"], check=True)
'''


@pytest.fixture(scope="module")
def planted(tmp_path_factory):
    root = tmp_path_factory.mktemp("reach")
    package = root / "src" / "planted"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(PLANTED)
    (package / "__main__.py").write_text(PLANTED_MAIN)
    (root / "test_planted.py").write_text(PLANTED_TESTS)
    out = root / "logs"
    tier1 = (reach.PY, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_planted.py")
    assert reach.record(tier1, "tier1", out, package, cwd=root) == 0
    entry = (reach.PY, "-c", "import planted; planted.by_entry()")
    assert reach.record(entry, "entry", out, package, cwd=root) == 0
    return reach.classify(package, out)


def names(functions):
    return {fn.qualname for fn in functions}


def test_each_function_lands_in_its_class(planted):
    """by_test runs after a test cleared the trace function (the plugin
    re-installs it), by_thread in a thread, by_child in a ``python -m``
    child that the test spawned."""
    assert names(planted["entry"]) == {"_decorate", "by_entry"}
    assert names(planted["tier-1 only"]) == {
        "by_test", "by_child", "by_thread", "Box.by_test_property",
    }
    assert names(planted["nothing"]) == {"by_nothing"}


def test_line_counts(planted):
    (fn,) = planted["nothing"]
    # decorator through return; docstring, comment and blank line excluded
    assert (fn.physical, fn.statements) == (8, 2)
