#!/usr/bin/env python
"""Which ``src/`` functions the shipped traffic reaches.

Runs tier-1 and every command in :data:`ENTRIES` (the shipped verbs with
each of their flags, the benchmarks, the examples, the gate scripts and
``perf/``) with a call recorder installed, then sorts every function of
``src/repro`` into three classes:

* **entry** — a shipped entry point calls it (tier-1 may too);
* **tier-1 only** — only the test suite calls it;
* **nothing** — no run calls it.

A function is an outermost ``def``: a module-level function or a method
(nested classes included); a closure counts as part of its function.
"Statement lines" are its non-blank, non-comment body lines without the
docstring, "physical lines" its whole span, decorators included.

    PYTHONPATH=src python scripts/reach.py          # report
    PYTHONPATH=src python scripts/reach.py --check  # and fail above BOUND
                                                    # tier-1-only lines

The recorder is a ``sitecustomize`` module in a temporary ``PYTHONPATH``
directory, so every interpreter a run starts (``python -m repro`` from a
test, ``perf/`` children) installs it at start and appends the code
objects it calls, one file per process.  ``sys.settrace`` and
``threading.settrace`` log each code object's first call and trace
nothing inside it; as a pytest plugin the module re-installs the hook
before each test's setup and call, because a test may set or clear its
own trace function.  ``benchmarks/`` runs with ``--benchmark-disable``:
pytest-benchmark switches tracing off while it times.
"""

from __future__ import annotations

import argparse
import ast
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]

#: The ratchet: ``--check`` fails when more physical lines than this are
#: tier-1 only.  It is the tree's own reading; lower it as code goes.
BOUND = 879

HOOK = '''\
"""Call recorder installed by scripts/reach.py (see its docstring)."""
import os
import sys
import threading

_OUT = os.environ.get("REACH_OUT")
_SRC = os.environ.get("REACH_SRC", "")
_LABEL = os.environ.get("REACH_LABEL", "run")
_seen = set()
_keep = []  # holds each seen code object, so its id is never reused
_paths = {}
_fd = [None, None]  # [pid, fd]: a forked child opens its own file


def _log(frame, event, arg):
    code = frame.f_code
    if id(code) in _seen:
        return None
    _seen.add(id(code))
    _keep.append(code)
    path = _paths.get(code.co_filename)
    if path is None:
        path = _paths[code.co_filename] = os.path.abspath(code.co_filename)
    if path.startswith(_SRC):
        if _fd[0] != os.getpid():
            name = os.path.join(_OUT, "%s-%d.txt" % (_LABEL, os.getpid()))
            _fd[:] = [os.getpid(), os.open(name, os.O_WRONLY | os.O_CREAT | os.O_APPEND)]
        os.write(_fd[1], ("%s\\t%d\\n" % (path, code.co_firstlineno)).encode())
    return None


def install():
    sys.settrace(_log)
    threading.settrace(_log)


if _OUT:
    install()

    def pytest_runtest_setup(item):
        install()

    def pytest_runtest_call(item):
        install()
'''

PY = "python"
REPRO = (PY, "-m", "repro")

#: The shipped traffic, each run from the repository root; ``{tmp}`` is a
#: scratch directory.  Every flag ``build_parser()`` registers appears in
#: at least one ``repro`` invocation (tests/test_cli_surface.py).
ENTRIES: Tuple[Tuple[str, ...], ...] = (
    (PY, "-m", "pytest", "-q", "-p", "no:cacheprovider", "benchmarks/", "--benchmark-disable"),
    *((PY, str(p.relative_to(ROOT))) for p in sorted((ROOT / "examples").glob("*.py"))),
    ("bash", "scripts/replay_tokens.sh"),
    (PY, "scripts/obs_gate.py"),
    (PY, "-m", "pytest", "-q", "-p", "no:cacheprovider", "perf/"),
    (PY, "perf/run.py", "--quick", "--seed", "7"),
    (*REPRO, "table"),
    (*REPRO, "tradeoff", "7"),
    (*REPRO, "scenarios", "-m", "1", "-u", "2"),
    (*REPRO, "connectivity", "-m", "1", "-u", "2"),
    (*REPRO, "reliability", "7", "-p", "0.05"),
    (*REPRO, "complexity", "-u", "2"),
    (*REPRO, "search", "-u", "1"),
    (*REPRO, "search", "-u", "1", "--below"),
    (*REPRO, "mission", "--steps", "60", "-p", "0.1", "--seed", "3"),
    (*REPRO, "report", "-o", "{tmp}/report.md", "--no-battery"),
    (*REPRO, "clocksync", "-m", "1", "-u", "2", "-n", "6"),
    (*REPRO, "suite"),
    (*REPRO, "suite", "--save", "{tmp}/suite.json"),
    (*REPRO, "suite", "{tmp}/suite.json"),
    (*REPRO, "experiments"),
    (*REPRO, "experiments", "--only", "E1,E2", "--out", "{tmp}/experiments.json"),
    (*REPRO, "run", "-m", "1", "-u", "2"),
    (*REPRO, "run", "-m", "1", "-u", "2", "-n", "6", "--value", "beta", "--faulty", "p1",
     "--adversary", "two-faced", "--trace", "{tmp}/run.jsonl"),
    (*REPRO, "run", "-m", "1", "-u", "2", "--faulty", "p1", "--verbose"),
    (*REPRO, "run", "-m", "1", "-u", "2", "--faulty", "p1,p2", "--adversary", "silent"),
    (*REPRO, "run", "-m", "1", "-u", "2", "--faulty", "p1", "--adversary", "constant"),
    (*REPRO, "net", "--transport", "local"),
    (*REPRO, "net", "--transport", "tcp"),
    (*REPRO, "net", "-m", "1", "-u", "2", "-n", "6", "--timeout", "0.5", "--value", "beta",
     "--faulty", "p1", "--adversary", "crash", "--trace", "{tmp}/net.jsonl"),
    (*REPRO, "net", "--faulty", "p1", "--adversary", "two-faced", "--no-verify"),
    (*REPRO, "serve", "--instances", "32", "--max-inflight", "32", "--seed", "7"),
    (*REPRO, "serve", "--instances", "8", "--chaos", "light", "--seed", "5", "--timeout", "0.5"),
    (*REPRO, "serve", "--instances", "64", "--max-inflight", "4", "--queue-limit", "4", "--seed", "7"),
    (*REPRO, "serve", "--instances", "4", "--trace", "{tmp}/serve.jsonl"),
    (*REPRO, "serve", "--instances", "3000", "--max-inflight", "16", "--seed", "7"),
    (*REPRO, "serve", "-m", "1", "-u", "2", "-n", "6", "--transport", "tcp", "--instances", "4",
     "--no-verify", "--metrics-port", "0", "--metrics-linger", "0.1"),
    (*REPRO, "stats", "{tmp}/serve.jsonl"),
    (*REPRO, "stats", "{tmp}/serve.jsonl", "--prom"),
    (*REPRO, "trace", "--seed", "3", "--spans", "{tmp}/spans.jsonl",
     "--perfetto", "{tmp}/perfetto.json"),
    (*REPRO, "trace", "-m", "1", "-u", "2", "-n", "6", "--transport", "tcp", "--timeout", "0.5",
     "--mode", "serve", "--value", "beta", "--instances", "3", "--chaos", "light",
     "--spans", "{tmp}/spans.jsonl", "--perfetto", "{tmp}/perfetto.json",
     "--record", "{tmp}/trace.jsonl"),
    (*REPRO, "trace", "--kill-links", "--seed", "1", "--spans", "{tmp}/spans.jsonl",
     "--perfetto", "{tmp}/perfetto.json"),
    (*REPRO, "chaos", "--severity", "light", "--trials", "5", "--seed", "7"),
    (*REPRO, "chaos", "--kill-links", "--severity", "light", "--trials", "4", "--seed", "7",
     "--transport", "tcp", "--timeout", "0.5", "--report", "{tmp}/chaos.json"),
    (*REPRO, "chaos", "--severity", "all", "--trials", "5", "--seed", "2"),
    (*REPRO, "chaos", "--severity", "heavy", "--trials", "4", "--seed", "3", "--transport", "tcp",
     "--timeout", "0.5"),
    (*REPRO, "chaos", "--replay",
     "m=1,u=2,n=5,severity=crash,transport=local,seed=11,timeout=0.25,kill_links=1"),
    (*REPRO, "verify", "examples/traces/golden_m1u2.jsonl"),
    (*REPRO, "verify", "examples/traces/golden_m1u2.jsonl", "{tmp}/run.jsonl", "--quiet"),
    (*REPRO, "fuzz", "--quick", "--seed", "7"),
    (*REPRO, "fuzz", "--examples", "4", "--seed", "3", "--transport", "local", "--no-chaos"),
    (*REPRO, "fuzz", "--transport", "local", "--replay",
     "m=1,u=2,n=5,value=beta,faults=p2:silent,chaos=heavy:991,timeout=0.25"),
    (*REPRO, "explore", "--depth", "2", "--budget", "150"),
    (*REPRO, "explore", "--inject-vote-bug", "1", "--depth", "2", "--budget", "150"),
    (*REPRO, "explore", "-m", "2", "-u", "2", "--depth", "2", "--budget", "3000"),
    (*REPRO, "explore", "-m", "1", "-u", "2", "-n", "5", "--value", "beta", "--faulty",
     "p1:two-faced", "--depth", "1", "--budget", "60", "--keep-going", "--timeout", "1.0",
     "--supervise"),
    (*REPRO, "explore", "--replay",
     "m=1,u=2,n=5,value=alpha,faults=p1:two-faced,timeout=1.0,batch=1,sup=1,bug=0,sched=1.0.2"),
)

TIER1: Tuple[str, ...] = (PY, "-m", "pytest", "-q", "-p", "no:cacheprovider")

CLASSES = ("entry", "tier-1 only", "nothing")


def record(argv: Sequence[str], label: str, out: Path, src: Path,
           cwd: Path = ROOT, tmp: str = "") -> int:
    """Run *argv* in *cwd* with the recorder on; code under *src* that it
    calls is logged to ``out/<label>-<pid>.txt``.  Returns the exit code."""
    hook_dir = out / "hook"
    hook_dir.mkdir(parents=True, exist_ok=True)
    (hook_dir / "sitecustomize.py").write_text(HOOK)
    path = [str(hook_dir), str(cwd / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p),
               REACH_OUT=str(out), REACH_SRC=str(src.resolve()), REACH_LABEL=label,
               PYTEST_PLUGINS="sitecustomize")
    argv = [sys.executable if a == PY else a.replace("{tmp}", tmp) for a in argv]
    return subprocess.run(argv, cwd=cwd, env=env, stdout=subprocess.DEVNULL).returncode


def reached(out: Path, label: str) -> Set[Tuple[str, int]]:
    """Every ``(file, first line)`` a run labelled *label* called."""
    calls = set()
    for log in out.glob(f"{label}-*.txt"):
        for line in log.read_text().splitlines():
            path, _, lineno = line.rpartition("\t")
            calls.add((path, int(lineno)))
    return calls


class Function:
    """One outermost function: where its code object starts, and its size."""

    def __init__(self, path: Path, qualname: str, node: ast.AST, lines: List[str]):
        self.path, self.qualname = path, qualname
        self.first = min([node.lineno] + [d.lineno for d in node.decorator_list])
        self.physical = node.end_lineno - self.first + 1
        first = node.body[0]
        docstring = isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
            and isinstance(first.value.value, str)
        start = first.end_lineno + 1 if docstring else first.lineno
        self.statements = sum(
            1 for text in lines[start - 1:node.end_lineno]
            if text.strip() and not text.strip().startswith("#"))


def functions(src: Path) -> List[Function]:
    """Every outermost function under *src*, in file and line order."""
    found = []

    def walk(path, body, prefix, lines):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.append(Function(path, prefix + node.name, node, lines))
            elif isinstance(node, ast.ClassDef):
                walk(path, node.body, f"{prefix}{node.name}.", lines)
            elif isinstance(node, (ast.If, ast.Try)):
                walk(path, node.body + node.orelse, prefix, lines)

    for path in sorted(src.resolve().rglob("*.py")):
        text = path.read_text()
        walk(path, ast.parse(text).body, "", text.splitlines())
    return found


def classify(src: Path, out: Path) -> Dict[str, List[Function]]:
    entry, tier1 = reached(out, "entry"), reached(out, "tier1")
    classes: Dict[str, List[Function]] = {name: [] for name in CLASSES}
    for fn in functions(src):
        key = (str(fn.path), fn.first)
        name = "entry" if key in entry else "tier-1 only" if key in tier1 else "nothing"
        classes[name].append(fn)
    return classes


def report(classes: Dict[str, List[Function]]) -> None:
    print(f"{'reach':<12} {'functions':>9} {'statement lines':>15} {'physical lines':>14}")
    for name in CLASSES:
        fns = classes[name]
        print(f"{name:<12} {len(fns):>9} {sum(f.statements for f in fns):>15} "
              f"{sum(f.physical for f in fns):>14}")
    for name in CLASSES[1:]:
        print(f"\n{name}:")
        for fn in classes[name]:
            print(f"  {fn.path.relative_to(ROOT)}:{fn.first} {fn.qualname} ({fn.physical})")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help=f"exit 1 if more than {BOUND} physical lines are tier-1 only")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as scratch:
        out = Path(scratch)
        src = ROOT / "src" / "repro"
        status = record(TIER1, "tier1", out, src)
        if status:
            print(f"reach: tier-1 exited {status} under the recorder", file=sys.stderr)
        for command in ENTRIES:
            status = record(command, "entry", out, src, tmp=scratch)
            if status and "--inject-vote-bug" not in command:  # that one must exit 1
                print(f"reach: {' '.join(command)} exited {status}", file=sys.stderr)
        classes = classify(src, out)
    report(classes)
    tier1_only = sum(f.physical for f in classes["tier-1 only"])
    if args.check and tier1_only > BOUND:
        print(f"reach: {tier1_only} physical lines are tier-1 only, above the "
              f"{BOUND} allowed", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
