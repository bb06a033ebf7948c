"""One scenario vocabulary: instance, fault kinds, replay tokens.

``repro.core.scenario`` is the single description of an agreement
instance behind the fuzzer, the explorer, the chaos campaign and the CLI.
These tables pin what the three replay grammars share (the chaos grammar
is read by the fuzz reader's shim onto a grid ``FuzzCase``): every token the
repository prints or documents parses to the config built by hand and
re-renders to the same bytes; every malformed token is a
``ConfigurationError`` naming its grammar; and the fault-kind table is
the one the CLI reads.
"""

import pytest

from repro import cli
from repro.core.behavior import (
    ConstantLiar,
    LieAboutSender,
    SilentBehavior,
    TwoFacedBehavior,
)
from repro.core.scenario import (
    FAULT_KINDS,
    Instance,
    build_behavior,
    node_ids,
)
from repro.exceptions import ConfigurationError
from repro.explore import ExploreConfig, parse_explore_token
from repro.explore import explorer as explore_module
from repro.verify import fuzz as fuzz_module
from repro.verify.fuzz import GRID_VALUE, FuzzCase, parse_case_token


def parse_replay(token):
    """The retired chaos grammar: the fuzz reader's shim onto a grid case."""
    return parse_case_token(token)


_fuzz, _explore, _chaos = parse_case_token, parse_explore_token, parse_replay


def _grid(m, u, n, severity, transport, seed, timeout=0.25, kill_links=False):
    """The grid case a chaos-grammar token names."""
    return FuzzCase(
        m, u, n, GRID_VALUE, chaos_severity=severity, chaos_seed=seed,
        timeout=timeout, transport=transport, kill_links=kill_links,
    )


def _render(config):
    if isinstance(config, tuple):  # explore: (config, schedule)
        return config[0].token(config[1])
    return config.token


# (parser, token as written somewhere in tests/docs/README/scripts,
#  the config built by hand, canonical rendering — None when the token
#  already is canonical).
GOLDEN = [
    # chaos: tests/test_cli.py, the verify skill, scripts/ci.sh.  The
    # chaos grammar reads onto a grid FuzzCase and renders as a fuzz token.
    (
        _chaos,
        "m=1,u=2,n=5,severity=crash,transport=local,seed=11",
        _grid(1, 2, 5, "crash", "local", 11),
        "m=1,u=2,n=5,value=engage,faults=-,chaos=crash:11,timeout=0.25,"
        "transport=local",
    ),
    # tests/net/test_chaos_campaign.py
    (
        _chaos,
        "m=1,u=2,n=5,severity=light,transport=local,seed=3",
        _grid(1, 2, 5, "light", "local", 3, timeout=0.25),
        "m=1,u=2,n=5,value=engage,faults=-,chaos=light:3,timeout=0.25,"
        "transport=local",
    ),
    # docs/runtime.md
    (
        _chaos,
        "m=1,u=2,n=5,severity=heavy,transport=local,seed=123,timeout=0.25",
        _grid(1, 2, 5, "heavy", "local", 123, timeout=0.25),
        "m=1,u=2,n=5,value=engage,faults=-,chaos=heavy:123,timeout=0.25,"
        "transport=local",
    ),
    # kill_links=1 is appended only when set
    (
        _chaos,
        "m=2,u=3,n=8,severity=light,transport=tcp,seed=7,timeout=0.5,"
        "kill_links=1",
        _grid(2, 3, 8, "light", "tcp", 7, timeout=0.5, kill_links=True),
        "m=2,u=3,n=8,value=engage,faults=-,chaos=light:7,timeout=0.5,"
        "transport=tcp,kill_links=1",
    ),
    (
        _chaos,
        "m=2,u=3,n=8,severity=light,transport=tcp,seed=7,timeout=0.5,"
        "kill_links=0",
        _grid(2, 3, 8, "light", "tcp", 7, timeout=0.5),
        "m=2,u=3,n=8,value=engage,faults=-,chaos=light:7,timeout=0.5,"
        "transport=tcp",
    ),
    # scripts/replay_tokens.sh
    (
        _chaos,
        "m=1,u=2,n=5,severity=crash,transport=local,seed=11,timeout=0.25,"
        "kill_links=1",
        _grid(1, 2, 5, "crash", "local", 11, kill_links=True),
        "m=1,u=2,n=5,value=engage,faults=-,chaos=crash:11,timeout=0.25,"
        "transport=local,kill_links=1",
    ),
    # fuzz: docs/testing.md, docs/runtime.md, tests/verify/test_fuzz.py,
    # scripts/replay_tokens.sh
    (
        _fuzz,
        "m=1,u=2,n=5,value=beta,faults=p2:silent,chaos=heavy:991,timeout=0.25",
        FuzzCase(
            m=1, u=2, n_nodes=5, sender_value="beta",
            faults=(("p2", "silent"),), chaos_severity="heavy",
            chaos_seed=991, timeout=0.25,
        ),
        None,
    ),
    # tests/verify/test_cli_verify.py
    (
        _fuzz,
        "m=1,u=2,n=5,value=beta,faults=p1:lie,chaos=-,timeout=2.0",
        FuzzCase(
            m=1, u=2, n_nodes=5, sender_value="beta", faults=(("p1", "lie"),)
        ),
        None,
    ),
    # tests/verify/test_fuzz.py: the kind is checked by behaviors(), not here
    (
        _fuzz,
        "m=1,u=2,n=5,faults=p1:gremlin",
        FuzzCase(m=1, u=2, n_nodes=5, faults=(("p1", "gremlin"),)),
        "m=1,u=2,n=5,value=alpha,faults=p1:gremlin,chaos=-,timeout=2.0",
    ),
    # faults are kept sorted by node, whatever order they were written in
    (
        _fuzz,
        "m=2,u=2,n=7,value=gamma,faults=p3:two-faced+p1:constant,"
        "chaos=light:5,timeout=0.25",
        FuzzCase(
            m=2, u=2, n_nodes=7, sender_value="gamma",
            faults=(("p1", "constant"), ("p3", "two-faced")),
            chaos_severity="light", chaos_seed=5, timeout=0.25,
        ),
        "m=2,u=2,n=7,value=gamma,faults=p1:constant+p3:two-faced,"
        "chaos=light:5,timeout=0.25",
    ),
    # explore: tests/test_cli.py, docs/testing.md
    (
        _explore,
        "m=1,u=2,n=5,value=alpha,faults=-,timeout=1.0,batch=1,sup=0,bug=1,"
        "sched=1",
        (ExploreConfig(vote_offset=1), (1,)),
        None,
    ),
    # tests/explore/test_replay.py: the supervised, unbatched corner
    (
        _explore,
        "m=1,u=2,n=5,value=alpha,faults=-,timeout=1.0,batch=0,sup=1,bug=0,"
        "sched=2.1",
        (ExploreConfig(batching=False, supervise=True), (2, 1)),
        None,
    ),
    # scripts/replay_tokens.sh
    (
        _explore,
        "m=1,u=2,n=5,value=alpha,faults=p1:two-faced,timeout=1.0,batch=1,"
        "sup=1,bug=0,sched=1.0.2",
        (
            ExploreConfig(faults=(("p1", "two-faced"),), supervise=True),
            (1, 0, 2),
        ),
        None,
    ),
    # trailing defaults are stripped from sched=
    (
        _explore,
        "m=1,u=2,n=5,value=alpha,faults=p1:lie+p2:silent,timeout=0.5,"
        "batch=1,sup=0,bug=0,sched=1.0.2.0.0",
        (
            ExploreConfig(
                faults=(("p1", "lie"), ("p2", "silent")), round_timeout=0.5
            ),
            (1, 0, 2, 0, 0),
        ),
        "m=1,u=2,n=5,value=alpha,faults=p1:lie+p2:silent,timeout=0.5,"
        "batch=1,sup=0,bug=0,sched=1.0.2",
    ),
    (
        _explore,
        "m=1,u=2,n=5",
        (ExploreConfig(), ()),
        "m=1,u=2,n=5,value=alpha,faults=-,timeout=1.0,batch=1,sup=0,bug=0,"
        "sched=-",
    ),
]


class TestGoldenTokens:
    @pytest.mark.parametrize("parse,token,config,canonical", GOLDEN)
    def test_parses_to_the_hand_built_config(
        self, parse, token, config, canonical
    ):
        assert parse(token) == config

    @pytest.mark.parametrize("parse,token,config,canonical", GOLDEN)
    def test_renders_the_same_bytes(self, parse, token, config, canonical):
        rendered = _render(config)
        assert rendered == (canonical or token)
        # ... and the canonical form is a fixed point.
        assert _render(parse(rendered)) == rendered

    @pytest.mark.parametrize("parse,token,config,canonical", GOLDEN)
    def test_empty_segments_are_skipped(
        self, parse, token, config, canonical
    ):
        assert parse(token + ",") == config
        assert parse(", ," + token.replace(",", " , ")) == config


BASES = {
    "fuzz": (_fuzz, "m=1,u=2,n=5,value=alpha,faults=-,chaos=-,timeout=2.0"),
    "explore": (
        lambda token: _explore(token)[0],
        "m=1,u=2,n=5,value=alpha,faults=-,timeout=1.0,batch=1,sup=0,bug=0,"
        "sched=-",
    ),
    "chaos": (_chaos, "m=1,u=2,n=5,severity=light,transport=local,seed=3"),
}

# label -> how the grammar's well-formed base token is broken.
MALFORMED = {
    "missing m": lambda base: base.replace("m=1,", ""),
    "missing u": lambda base: base.replace("u=2,", ""),
    "missing n": lambda base: base.replace("n=5,", ""),
    "segment without =": lambda base: base + ",oops",
    "segment without a key": lambda base: base + ",=3",
    "non-integer field": lambda base: base.replace("m=1", "m=x"),
    "unknown key": lambda base: base + ",bogus=1",
    "misspelt key": lambda base: base.replace("n=5", "n=5,N=6"),
}

# The fault rows only exist where the grammar has a faults= field.
MALFORMED_FAULTS = {
    "bad faults= chunk": "faults=p1",
    "fault without a node": "faults=:lie",
    "unknown fault kind": "faults=p1:gremlin",
    "unknown node": "faults=p9:lie",
}


class TestMalformedTokens:
    @pytest.mark.parametrize("label", MALFORMED)
    @pytest.mark.parametrize("grammar", BASES)
    def test_reader_rejects(self, grammar, label):
        parse, base = BASES[grammar]
        token = MALFORMED[label](base)
        assert token != base
        with pytest.raises(ConfigurationError, match=grammar):
            parse(token)

    @pytest.mark.parametrize("label", MALFORMED_FAULTS)
    @pytest.mark.parametrize("grammar", ["fuzz", "explore"])
    def test_fault_assignments_rejected(self, grammar, label):
        parse, base = BASES[grammar]
        token = base.replace("faults=-", MALFORMED_FAULTS[label])
        with pytest.raises(ConfigurationError):
            # Kinds and node names are checked where behaviours are
            # built, so a token naming them still parses.
            parse(token).behaviors()

    @pytest.mark.parametrize(
        "parse,token,key",
        [
            # the three silent misreplays the one reader closes
            (_fuzz, "m=1,u=2,n=5,chaoss=heavy:3", "chaoss"),
            (
                _chaos,
                "m=1,u=2,n=5,severity=light,transport=local,seed=3,"
                "kil_links=1",
                "kil_links",
            ),
            (_explore, "m=1,u=2,n=5,schedule=1.2", "schedule"),
        ],
    )
    def test_unknown_key_never_replays_a_different_run(
        self, parse, token, key
    ):
        with pytest.raises(ConfigurationError) as excinfo:
            parse(token)
        message = str(excinfo.value)
        assert repr(key) in message
        assert "known keys: m, u, n, " in message

    @pytest.mark.parametrize(
        "grammar",
        [
            # Both kinds used to parse; the run kept one and the token
            # printed both.
            "fuzz",
            "explore",
            # The retired chaos grammar declares no faults at all, so it
            # cannot carry a repeated node either.
            "chaos",
        ],
    )
    def test_a_repeated_faulty_node_never_replays_a_different_run(
        self, grammar
    ):
        parse, base = BASES[grammar]
        faults = "faults=p1:lie+p1:two-faced"
        if grammar == "chaos":
            with pytest.raises(ConfigurationError, match="unknown key 'faults'"):
                parse(base + "," + faults)
            return
        token = base.replace("faults=-", faults)
        with pytest.raises(ConfigurationError) as excinfo:
            parse(token).behaviors()
        message = str(excinfo.value)
        assert f"repeated faulty node 'p1' in {grammar} faults" in message
        assert "p1:lie+p1:two-faced" in message

    @pytest.mark.parametrize(
        "parse,grammar,token,key",
        [
            (_fuzz, "fuzz", "m=1,u=2,n=5,chaos=heavy:3,chaos=light:3", "chaos"),
            (
                _chaos,
                "chaos",
                "m=1,u=2,n=5,severity=light,transport=local,seed=3,seed=4",
                "seed",
            ),
            (
                _explore,
                "explore",
                "m=1,u=2,n=5,value=alpha,faults=-,timeout=1.0,batch=1,"
                "sup=0,bug=0,bug=1,sched=1",
                "bug",
            ),
        ],
    )
    def test_a_repeated_key_never_replays_a_different_run(
        self, parse, grammar, token, key
    ):
        # Keeping either value replays a run the token does not name:
        # the last one would turn bug=0,bug=1 into the planted bug.
        with pytest.raises(ConfigurationError) as excinfo:
            parse(token)
        message = str(excinfo.value)
        assert f"repeated key {key!r} in {grammar} replay token" in message
        assert "known keys: m, u, n, " in message

    def test_chaos_seed_without_a_severity_never_replays_chaos_free(self):
        # chaos=:5 used to replay a chaos-free case and print chaos=-.
        with pytest.raises(ConfigurationError, match="fuzz") as excinfo:
            _fuzz("m=1,u=2,n=5,chaos=:5")
        assert "without a severity" in str(excinfo.value)

    def test_unknown_key_error_lists_the_grammars_keys(self):
        for module, (parse, base) in (
            (fuzz_module, BASES["fuzz"]),
            (explore_module, BASES["explore"]),
        ):
            with pytest.raises(ConfigurationError) as excinfo:
                parse(base + ",bogus=1")
            assert ", ".join(module.TOKEN_FIELDS) in str(excinfo.value)


class TestFaultKindTable:
    def test_one_table(self):
        assert explore_module.FAULT_KINDS is fuzz_module.FAULT_KINDS
        assert fuzz_module.FAULT_KINDS is FAULT_KINDS
        assert FAULT_KINDS == ("lie", "silent", "constant", "two-faced")

    def test_cli_choices_come_from_the_table(self):
        verbs = cli.build_parser()._subparsers._group_actions[0].choices

        def adversaries(verb):
            (action,) = [
                a for a in verbs[verb]._actions if a.dest == "adversary"
            ]
            return tuple(action.choices)

        assert adversaries("run") == FAULT_KINDS
        # ``crash`` is a wire-level mute: it maps to no behaviour.
        assert adversaries("net") == FAULT_KINDS + ("crash",)
        with pytest.raises(ConfigurationError):
            build_behavior("crash", node_ids(5))

    @pytest.mark.parametrize("kind", FAULT_KINDS + ("gremlin",))
    def test_explore_faulty_reads_the_table(self, kind, capsys):
        code = cli.main(
            ["explore", "--faulty", f"p1:{kind}", "--depth", "0",
             "--budget", "1"]
        )
        captured = capsys.readouterr()
        if kind in FAULT_KINDS:
            assert code == 0, captured.out
        else:
            assert code == 2
            assert "fault kind" in captured.err

    @pytest.mark.parametrize("n_nodes", [5, 7])
    def test_each_kind_builds_the_same_behavior(self, n_nodes):
        nodes = node_ids(n_nodes)
        assert nodes == ["S"] + [f"p{k}" for k in range(1, n_nodes)]
        expected = {
            "lie": LieAboutSender("forged", "S"),
            "silent": SilentBehavior(),
            "constant": ConstantLiar("forged"),
            "two-faced": TwoFacedBehavior(
                {p: ("x" if i % 2 else "y") for i, p in enumerate(nodes)}
            ),
        }
        assert set(expected) == set(FAULT_KINDS)
        faults = tuple(zip(nodes[1:], FAULT_KINDS))
        for config in (
            Instance(1, 2, n_nodes, faults=faults),
            FuzzCase(1, 2, n_nodes, faults=faults),
            ExploreConfig(1, 2, n_nodes, faults=faults),
        ):
            built = config.behaviors()
            assert config.behavior_faulty == {n for n, _ in faults}
            for node, kind in faults:
                assert type(built[node]) is type(expected[kind])
                assert vars(built[node]) == vars(expected[kind])
