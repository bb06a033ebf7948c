"""The CLI's argument surface, pinned.

``SURFACE`` was written from ``build_parser()`` at the commit before
``repro/cli.py`` became the ``repro/cli/`` package, minus exactly the
eight options that split removed on purpose (``--no-batch`` on net,
serve, load, trace and explore; explore's ``--smoke``, ``--bench`` and
``--out``).  Each row is ``(option strings, default, choices, required)``
in declaration order, so an option that appears, disappears, or changes
its default shows up here as a one-line diff.
"""

import argparse

import pytest

from repro.cli import build_parser, main

SURFACE = {'table': [],
 'tradeoff': [('nodes', None, None, True)],
 'run': [('-m', None, None, True),
         ('-u', None, None, True),
         ('-n/--nodes', None, None, False),
         ('--value', 'alpha', None, False),
         ('--faulty', '', None, False),
         ('--adversary', 'lie', ('lie', 'silent', 'constant', 'two-faced'), False),
         ('--verbose', False, None, False),
         ('--trace', '', None, False)],
 'net': [('-m', 1, None, False),
         ('-u', 2, None, False),
         ('-n/--nodes', None, None, False),
         ('--transport', 'local', ('local', 'tcp'), False),
         ('--timeout', 2.0, None, False),
         ('--value', 'alpha', None, False),
         ('--faulty', '', None, False),
         ('--adversary',
          'lie',
          ('lie', 'silent', 'constant', 'two-faced', 'crash'),
          False),
         ('--no-verify', False, None, False),
         ('--trace', '', None, False)],
 'serve': [('-m', 1, None, False),
           ('-u', 2, None, False),
           ('-n/--nodes', None, None, False),
           ('--transport', 'local', ('local', 'tcp'), False),
           ('--timeout', 2.0, None, False),
           ('--seed', 0, None, False),
           ('--instances', 8, None, False),
           ('--max-inflight', 16, None, False),
           ('--queue-limit', 64, None, False),
           ('--chaos', '', None, False),
           ('--no-verify', False, None, False),
           ('--trace', '', None, False),
           ('--metrics-port', None, None, False),
           ('--metrics-linger', 0.0, None, False)],
 'load': [('-m', 1, None, False),
          ('-u', 2, None, False),
          ('-n/--nodes', None, None, False),
          ('--transport', 'local', ('local', 'tcp'), False),
          ('--timeout', 5.0, None, False),
          ('--seed', 20260808, None, False),
          ('--instances', 64, None, False),
          ('--mode', 'closed', ('open', 'closed'), False),
          ('--rate', 200.0, None, False),
          ('--concurrency', 8, None, False),
          ('--max-inflight', 16, None, False),
          ('--queue-limit', 64, None, False),
          ('--quick', False, None, False),
          ('--out', 'BENCH_serve.json', None, False),
          ('--metrics-port', None, None, False)],
 'trace': [('-m', 1, None, False),
           ('-u', 2, None, False),
           ('-n/--nodes', None, None, False),
           ('--transport', 'local', ('local', 'tcp'), False),
           ('--timeout', 0.5, None, False),
           ('--seed', 0, None, False),
           ('--mode', 'net', ('net', 'serve'), False),
           ('--value', 'alpha', None, False),
           ('--instances', 4, None, False),
           ('--chaos', '', None, False),
           ('--kill-links', False, None, False),
           ('--spans', 'TRACE_spans.jsonl', None, False),
           ('--perfetto', 'TRACE_perfetto.json', None, False),
           ('--record', '', None, False)],
 'stats': [('artifact', None, None, True), ('--prom', False, None, False)],
 'chaos': [('--seed', 0, None, False),
           ('--severity',
            'light',
            ('light', 'heavy', 'partition', 'crash', 'all'),
            False),
           ('--trials', 10, None, False),
           ('--transport', 'local', ('local', 'tcp'), False),
           ('--timeout', 0.25, None, False),
           ('--report', '', None, False),
           ('--kill-links', False, None, False),
           ('--replay', '', None, False)],
 'verify': [('traces', None, None, True), ('--quiet', False, None, False)],
 'fuzz': [('--quick', False, None, False),
          ('--seed', 0, None, False),
          ('--examples', None, None, False),
          ('--transport', 'all', ('local', 'tcp', 'all'), False),
          ('--no-chaos', False, None, False),
          ('--replay', '', None, False)],
 'explore': [('-m', 1, None, False),
             ('-u', 2, None, False),
             ('-n/--nodes', None, None, False),
             ('--value', 'alpha', None, False),
             ('--faulty', '', None, False),
             ('--depth', 2, None, False),
             ('--budget', 200, None, False),
             ('--keep-going', False, None, False),
             ('--timeout', 1.0, None, False),
             ('--supervise', False, None, False),
             ('--inject-vote-bug', 0, None, False),
             ('--replay', '', None, False)],
 'scenarios': [('-m', None, None, True), ('-u', None, None, True)],
 'connectivity': [('-m', None, None, True), ('-u', None, None, True)],
 'reliability': [('nodes', None, None, True), ('-p/--p-node', 0.03, None, False)],
 'complexity': [('-u', None, None, True)],
 'search': [('-u', None, None, True), ('--below', False, None, False)],
 'mission': [('--steps', 300, None, False),
             ('-p/--fault-probability', 0.05, None, False),
             ('--seed', 0, None, False)],
 'report': [('-o/--out', '', None, False), ('--no-battery', False, None, False)],
 'clocksync': [('-m', 1, None, False),
               ('-u', 2, None, False),
               ('-n/--nodes', None, None, False)],
 'suite': [('path', '', None, False), ('--save', '', None, False)],
 'experiments': [('--only', '', None, False), ('--out', '', None, False)]}


def verbs(parser):
    (sub,) = [
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ]
    return sub.choices


def surface(parser):
    return {
        verb: [
            (
                "/".join(action.option_strings) or action.dest,
                action.default,
                None if action.choices is None else tuple(action.choices),
                action.required,
            )
            for action in verb_parser._actions
            if not isinstance(action, argparse._HelpAction)
        ]
        for verb, verb_parser in verbs(parser).items()
    }


def test_surface_is_the_pinned_table():
    got = surface(build_parser())
    assert sorted(got) == sorted(SURFACE)
    for verb, rows in SURFACE.items():
        assert got[verb] == rows, verb


def test_every_verb_has_a_handler():
    for verb, verb_parser in verbs(build_parser()).items():
        assert callable(verb_parser.get_default("handler")), verb


@pytest.mark.parametrize("verb", sorted(SURFACE))
def test_every_verb_answers_help(verb, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main([verb, "--help"])
    assert exit_info.value.code == 0
    assert f"usage: repro {verb}" in capsys.readouterr().out
