"""Command-line interface: ``python -m repro <command>``.

One module per verb family; each declares its verbs' flags beside their
handlers (``register(sub)``), and a handler is an argument table, one
library call and the printing of what that call returns:

* :mod:`repro.cli.paper`   — the paper's tables, bounds, witnesses and
  experiment batteries (``table`` ... ``experiments``);
* :mod:`repro.cli.run`     — one agreement instance, on the synchronous
  engine (``run``) or the asyncio runtime (``net``);
* :mod:`repro.cli.service` — the multi-instance service: ``serve``
  and the ``stats`` snapshot of a recorded trace;
* :mod:`repro.cli.trace`   — ``trace``: causal spans and critical path;
* :mod:`repro.cli.chaos`   — ``chaos``: seeded soak campaigns;
* :mod:`repro.cli.check`   — ``verify``, ``fuzz`` and ``explore``.

This module keeps :func:`main`, :func:`build_parser` and the argument
clusters the families share.  Every command prints plain text; exit
status is 0 on success, 1 when an executed check fails (e.g. a violated
agreement contract), 2 on usage errors.  A handler imports what it needs
when it runs, so ``repro net`` does not pay for ``repro report``.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import TYPE_CHECKING, Callable, List, Optional

if TYPE_CHECKING:
    from repro.core.scenario import Instance


def _checked(flag: str, cast: Callable, bound: str, ok: Callable) -> Callable:
    """An argparse ``type=``: *cast* the text, then require ``ok(value)``.

    An out-of-range value is a usage error worded ``--flag must be
    <bound>, got <value>`` (exit 2, no usage banner — what
    :func:`main` makes of a :class:`ConfigurationError`).
    """

    def convert(text: str):
        value = cast(text)
        if not ok(value):
            from repro.exceptions import ConfigurationError

            raise ConfigurationError(f"{flag} must be {bound}, got {value}")
        return value

    # argparse words an unparsable value "invalid <__name__> value".
    convert.__name__ = cast.__name__
    return convert


def _count(flag: str) -> Callable:
    """``type=`` for a flag that counts things to run: an integer >= 1."""
    return _checked(flag, int, ">= 1", lambda v: v >= 1)


def _verb(sub, name: str, handler: Callable, help: str):
    """Add verb *name* to the sub-parsers, bound to *handler*; returns its
    parser for the caller to declare the flags on."""
    parser = sub.add_parser(name, help=help)
    parser.set_defaults(handler=handler)
    return parser


def _add_spec_arguments(
    parser, m_default: Optional[int] = None, u_default: Optional[int] = None
) -> None:
    """The ``(m, u, N)`` cluster every protocol-executing verb shares.

    With no defaults the pair is required (``repro run``); verbs with a
    canonical running-example default pass ``m_default``/``u_default``.
    ``-n`` always defaults to the paper's minimum, ``2m + u + 1``.
    """
    required = m_default is None and u_default is None
    parser.add_argument("-m", type=int, default=m_default, required=required,
                        help="Byzantine fault bound m")
    parser.add_argument("-u", type=int, default=u_default, required=required,
                        help="degraded fault bound u (m <= u)")
    parser.add_argument("-n", "--nodes", type=int, default=None,
                        help="node count (default 2m+u+1)")


def _add_wire_arguments(parser, timeout: float, transports: bool = True) -> None:
    """The wire cluster shared by net/chaos/serve/trace/explore.

    Every verb gets a positive ``--timeout``; *transports* adds the
    local/tcp choice (explore runs its own virtual transport).
    """
    if transports:
        parser.add_argument(
            "--transport", default="local", choices=["local", "tcp"],
            help="in-process asyncio bus or real localhost sockets")
    parser.add_argument(
        "--timeout", default=timeout,
        type=_checked("--timeout", float, "> 0", lambda v: v > 0),
        help="per-round deadline in seconds")


def _add_seed_argument(parser, default: int, help_text: str) -> None:
    parser.add_argument("--seed", type=int, default=default, help=help_text)


def _replay(token: str, transports=("local", "tcp")) -> int:
    """``fuzz``/``chaos --replay``: rerun one case from its token (either
    grammar) and print its outcome; exit 1 if the oracle objects."""
    from repro.verify.fuzz import parse_case_token, run_case

    outcome = run_case(parse_case_token(token), transports)
    print(outcome.render())
    return 0 if outcome.ok else 1


def _n_nodes(args) -> int:
    """``-n``, defaulting to the paper's minimum ``2m + u + 1``."""
    return args.nodes if args.nodes is not None else 2 * args.m + args.u + 1


def _instance(args, faults=()) -> Instance:
    """The agreement instance the ``(m, u, N)`` / ``--value`` flags name."""
    from repro.core.scenario import Instance

    instance = Instance(
        args.m,
        args.u,
        _n_nodes(args),
        getattr(args, "value", "alpha"),
        tuple(faults),
    )
    instance.spec()  # surface an infeasible (m, u, N) as a usage error
    return instance


def build_parser() -> argparse.ArgumentParser:
    # Imported here: the families import the clusters above from this module.
    from repro.cli import chaos, check, paper, run, service, trace

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Degradable agreement (Vaidya, ICDCS 1993) toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for family in (paper, run, service, trace, chaos, check):
        family.register(sub)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    from repro.exceptions import ReproError

    try:
        args = build_parser().parse_args(argv)
        return args.handler(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream consumer closed early (e.g. `repro stats --prom | head`);
        # swap stdout for devnull so the interpreter's flush-at-exit does not
        # raise a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
