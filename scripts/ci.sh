#!/usr/bin/env bash
# Full CI gate: tests, benchmarks, examples, CLI battery.
# Runs straight from a checkout — no editable install required.
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:${PYTHONPATH}}"

# Run artifacts (explorer output, a service trace) go to a scratch
# directory: a CI run leaves the tree clean.
ARTIFACTS="$(mktemp -d)"
trap 'rm -rf "${ARTIFACTS}"' EXIT

echo "== unit / property / integration tests (tier 1) =="
python -m pytest -x -q

echo "== line-coverage floor (core + verify) =="
# pytest-cov is an optional extra; the floor is enforced wherever it is
# installed and skipped (loudly) where it is not, so a bare checkout
# still runs the rest of CI.
if python -c "import pytest_cov" 2> /dev/null; then
    python -m pytest -q -p pytest_cov \
        --cov=repro.core --cov=repro.verify \
        --cov-report=term-missing:skip-covered --cov-fail-under=85 \
        tests/core tests/verify
else
    echo "  pytest-cov not installed; coverage floor skipped"
fi

echo "== experiment benchmarks =="
python -m pytest benchmarks/ --benchmark-only

echo "== examples =="
for example in examples/*.py; do
    echo "  -> ${example}"
    python "${example}" > /dev/null
done

echo "== CLI experiment battery =="
python -m repro experiments
python -m repro suite
python -m repro net --transport local
python -m repro net --transport tcp

echo "== one writer per paper result (the registry computes and judges; benchmarks, report and verbs call it) =="
# Each paper result is computed and judged by its entry in
# repro.analysis.runner.EXPERIMENTS and the per-instance helpers it loops
# over (theorem2_case, theorem3_case, search_case, survive_u_costs,
# evaluate_conjecture, degradation_case, fly_mission).  A benchmark times
# an entry at its full size; the report prints quick-size artefacts and
# the paper verbs call the helpers.
if grep -nE "(run_scenario_triple|connectivity_scenarios|exhaustive_search|degradation_profile|degradable_vs_byzantine|survive_u_comparison|om_complexity|byz_complexity|MissionSimulator|ChannelSystem|DegradableClockSync|InteractiveConvergence|WitnessedClockSystem)\(" \
        benchmarks/*.py src/repro/analysis/report.py src/repro/cli/paper.py \
        || grep -nE "(evaluate_conjecture|mixed_fault_grid|crash_only_envelope)\(" \
            benchmarks/*.py src/repro/analysis/report.py \
        || grep -nE "run_campaign\(" benchmarks/*.py \
        || grep -nE "run_degradable_interactive_consistency\(" benchmarks/bench_degradation_profile.py; then
    echo "a benchmark, the report or a paper verb computes a paper result itself: call its registry entry or helper (repro.analysis.runner)" >&2
    exit 1
fi

echo "== artefacts are a function of the code (one output under two hash seeds) =="
# A seeded draw that iterates a set of node ids follows the string hash,
# which differs between processes: what the benchmarks print and the
# report must not move with PYTHONHASHSEED.
for hash_seed in 0 3; do
    PYTHONHASHSEED="${hash_seed}" python -m pytest benchmarks/ --benchmark-disable -s -q \
        > "${ARTIFACTS}/bench-${hash_seed}.txt"
    PYTHONHASHSEED="${hash_seed}" python -m repro report --no-battery \
        > "${ARTIFACTS}/report-${hash_seed}.txt"
done
if ! diff "${ARTIFACTS}/bench-0.txt" "${ARTIFACTS}/bench-3.txt" \
        || ! diff "${ARTIFACTS}/report-0.txt" "${ARTIFACTS}/report-3.txt"; then
    echo "a benchmark artefact or the report depends on PYTHONHASHSEED: draw seeded randomness in list order, never a set's" >&2
    exit 1
fi

echo "== REPORT.md is what repro report writes =="
# The committed report is regenerated and compared.  The one line pattern
# masked is the battery's per-entry wall time, "(N.NNs)" at a line's end:
# a clock reading, never a count, a verdict or a table cell.
PYTHONHASHSEED=0 python -m repro report -o "${ARTIFACTS}/REPORT.md" > /dev/null
wall_time='s/\([0-9]+\.[0-9]{2}s\)$/(N.NNs)/'
if ! diff <(sed -E "${wall_time}" REPORT.md) <(sed -E "${wall_time}" "${ARTIFACTS}/REPORT.md"); then
    echo "REPORT.md is not what the code writes: regenerate it with python -m repro report -o REPORT.md" >&2
    exit 1
fi

echo "== one send path (the runner has no retry loop; supervision is the only backoff) =="
# (`! grep` alone never trips `set -e`; spell the failure out.)
if grep -rn "RetryPolicy" src/; then
    echo "RetryPolicy is back in src/: the runner must not retry" >&2
    exit 1
fi

echo "== one send order (a round's frames leave in link order on every transport) =="
# The runner sends from one loop; no transport declares a send order, and
# the only gather left in the runner is the collect (one task per node that
# must still wait once the round has filed what already arrived).
if grep -rn --include="*.py" "ordered_sends" src/; then
    echo "ordered_sends is back under src/: there is one send order, the runner's" >&2
    exit 1
fi
if [ "$(grep -c "asyncio.gather(" src/repro/net/runner.py)" -gt 1 ]; then
    echo "asyncio.gather( occurs more than once in net/runner.py: sends are awaited in order, only collects are gathered" >&2
    grep -n "asyncio.gather(" src/repro/net/runner.py >&2
    exit 1
fi

echo "== one failure detector (absence is decided at the round deadline, nowhere else) =="
# The heartbeat detector, its PING/PONG frames, circuit breaker and
# link-state metrics are gone; a supervised link re-dials and dedups.
if grep -rniE "heartbeat|\bping\b|\bpong\b|fast_fail|links_by_state|link_state" src/; then
    echo "a heartbeat failure detector is back under src/: the round deadline is the only one" >&2
    exit 1
fi
# The gateway's instance watchdog (a wait_for around runner.run() that
# forced an all-V_d verdict) is gone: the round deadline bounds the sends
# too, so nothing above the runner times an instance out.
if grep -rnE "instance_envelope|watchdog_cancel|WATCHDOG|instance_watchdogged|record_watchdog" src/; then
    echo "the instance watchdog is back under src/: the round deadline bounds every instance" >&2
    exit 1
fi
if grep -n "wait_for(" src/repro/serve/gateway.py; then
    echo "wait_for( is back in serve/gateway.py: the gateway awaits runner.run() directly" >&2
    exit 1
fi

echo "== one restart path (a restarted endpoint keeps its inbox; the mux only routes) =="
# The mux's retired-id set, lazy attach and its event, the tracer's bus
# mirror, the backoff policy object and the supervisor RNG knob are gone.
if grep -rnE "_retired|instance_attached|span_closed|BackoffPolicy|supervision_rng" src/; then
    echo "a deleted restart/mux/observer name is back under src/: the mux only routes, and nothing configures the backoff" >&2
    exit 1
fi
# restart_endpoint empties a node's inbox in place: a replaced queue
# leaves a waiting collect parked on the old one, and the node is deaf.
python - <<'PY'
import ast
import sys

for path in ("src/repro/net/transport.py", "src/repro/net/tcp.py"):
    for fn in ast.walk(ast.parse(open(path).read())):
        if not (isinstance(fn, ast.AsyncFunctionDef) and fn.name == "restart_endpoint"):
            continue
        for node in ast.walk(fn):
            targets = getattr(node, "targets", None) or [getattr(node, "target", None)]
            for target in targets:
                if (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Attribute)
                    and target.value.attr == "_inboxes"
                ):
                    sys.exit(
                        f"{path}:{node.lineno}: restart_endpoint rebinds "
                        "self._inboxes[...]: empty the inbox in place"
                    )
PY

echo "== one endpoint store (every node inbox is a LocalBus Inbox) =="
# TCP, the mux's channels and the explorer derive from LocalBus and
# override only how a frame arrives; the inbox helpers, the mux's queue
# registry and the explorer's deques and waiter futures are gone.
if grep -rnE "take_nowait|def drain|queue_for|_queues|_waiters" src/; then
    echo "a hand-written inbox is back under src/: node inboxes live in LocalBus" >&2
    exit 1
fi
if grep -n "deque(" src/repro/explore/transport.py; then
    echo "explore/transport.py keeps its own deques: its inboxes are LocalBus's" >&2
    exit 1
fi
# The inbox is net/transport.py's Inbox, a deque with one reader: an
# asyncio.Queue (getter list, task counting, join event) is not back on
# the frame path.  A round's BATCH frames share one sent_at, read once.
if grep -n "asyncio.Queue(" src/repro/net/transport.py src/repro/net/tcp.py \
        src/repro/serve/mux.py src/repro/explore/transport.py; then
    echo "an asyncio.Queue is back as a node inbox: inboxes are net/transport.py's Inbox" >&2
    exit 1
fi
echo "== a frame is filed where it lands (one delivery path, no reader task) =="
# The mux files a frame in the call that delivered it: its per-node pump
# tasks are gone, and a TCP endpoint decodes in its protocol's
# data_received instead of a stream-reader task per connection.
if grep -rn "_pump" src/repro/serve/; then
    echo "a mux pump is back under serve/: the mux is a filter on the delivery path" >&2
    exit 1
fi
if grep -nE "start_server|_reader_tasks" src/repro/net/tcp.py; then
    echo "a stream-reader endpoint is back in net/tcp.py: endpoints are asyncio.Protocols that decode in data_received" >&2
    exit 1
fi
stamps="$(sed -n '/def _frame_batched(/,/^    def /p' src/repro/net/runner.py | grep -c "\.time()" || true)"
if [ "${stamps}" -gt 1 ]; then
    echo "_frame_batched reads the clock ${stamps} times: a round's frames share one sent_at" >&2
    exit 1
fi

echo "== one observer seam (a layer reaches the bus and tracer through its recorder) =="
# NetMetrics is built with the run's bus and tracer, and attach_metrics is
# the only seam that hands them down a stack; a layer and TcpTransport
# always hold a recorder (a private one until one is attached).
if grep -rn --include="*.py" "attach_tracer\|attach_bus" src/; then
    echo "attach_tracer/attach_bus is back under src/: the recorder carries the run's bus and tracer" >&2
    exit 1
fi
if grep -rn --include="*.py" "metrics is None\|metrics is not None" src/repro/net/; then
    echo "a recorder None-guard is back under src/repro/net/: every layer holds a recorder" >&2
    exit 1
fi

echo "== one metric store (/metrics and stats --prom are renderings of the recorder) =="
# obs/prom.py writes each family once from the recorder at render time;
# the Counter/Gauge/Histogram/Registry store and its inc/observe are gone.
if grep -rnE "class (_Family|Counter|Gauge|Histogram|Registry)\b|\.inc\(|\.observe\(" src/repro/obs/; then
    echo "a metric store is back under src/repro/obs/: the exposition is a rendering of NetMetrics" >&2
    exit 1
fi

echo "== two runtimes, one round (the runner calls the engine's emit; one interception contract) =="
# net/adapters.py is gone: FaultInjector is the only interception base
# class and CrashInjector (sim/faults.py) is the wire-level crash.
if grep -rn --include="*.py" "AsyncFaultAdapter\|InjectorAdapter\|lift_injectors\|behavior_adapters\|MuteAdapter" src/; then
    echo "an adapter name is back under src/: both runtimes take FaultInjector objects" >&2
    exit 1
fi
# Assumption (c) is enforced in sim/engine.py and nowhere else; the
# runner steps no process and raises no SimulationError of its own.
if grep -n "SimulationError\|\.step(" src/repro/net/runner.py; then
    echo "net/runner.py steps processes or raises SimulationError: that is SynchronousEngine.emit's job" >&2
    exit 1
fi
if [ "$(grep -rl --include="*.py" "attempted to forge source" src/ | wc -l)" -gt 1 ]; then
    echo "'attempted to forge source' occurs in more than one file under src/:" >&2
    grep -rn --include="*.py" "attempted to forge source" src/ >&2
    exit 1
fi
if grep -rn --include="*.py" "def tier_for\|def expected_conditions" src/; then
    echo "tier_for / expected_conditions are back: call spec.guarantee_for" >&2
    exit 1
fi

echo "== a cheap schedule (one deadline timer per round; trace lines from the codec's kernel) =="
# A round arms one call_at before its first send, and it cancels the send
# in flight or the collects still waiting; a collect awaits recv directly.
# A wait_for around recv is a Task, a timer and a future per frame again.
if grep -n "wait_for(" src/repro/net/runner.py; then
    echo "wait_for( is back in the runner: the round deadline is one timer, not one per frame" >&2
    exit 1
fi
if [ "$(grep -c "call_at(" src/repro/net/runner.py)" -gt 1 ]; then
    echo "call_at( occurs more than once in net/runner.py: a round arms one timer, not one per collect" >&2
    grep -n "call_at(" src/repro/net/runner.py >&2
    exit 1
fi
# event_to_json writes its line with canonical_json/raw_json; the dict
# tree + json.dumps writer lives in tests/sim/reference_trace.py only.
if sed -n '/^def event_to_json/,/^def event_from_json/p' src/repro/sim/trace.py | grep -n "json.dumps("; then
    echo "json.dumps( is back in event_to_json: trace lines come from the canonical-text kernel" >&2
    exit 1
fi

echo "== a frame that never touches a wire is not written (LocalBus sizes it; no per-frame savings) =="
# LocalBus counts bytes with codec.frame_size, arithmetic on field
# lengths; batch savings are a test-side formula
# (tests/net/reference_codec.batch_savings), not a runtime counter.
if grep -rn "batch_bytes_saved" src/; then
    echo "batch_bytes_saved is back under src/: batch savings are computed from captured frames, in tests" >&2
    exit 1
fi
if grep -n "encode_frame" src/repro/net/transport.py; then
    echo "net/transport.py uses encode_frame: a frame on LocalBus is sized by frame_size, never written" >&2
    exit 1
fi

echo "== a round collects inline (recv_nowait on every transport; a task only for a node that waits) =="
# The task-count pins (0 collect tasks per fault-free instance, plain or
# served) are the guard against a per-node gather coming back.
python -m pytest -q tests/net/test_recv_nowait.py tests/net/test_wire_cost.py

echo "== a frame hop builds its wire objects in one step (twins, seq stamp, poisoned bodies) =="
python -m pytest -q \
    tests/net/test_codec.py::TestConstruction \
    tests/sim/test_messages.py::TestConstruction \
    tests/net/test_supervision.py::TestSeqStamp \
    tests/net/test_codec.py::TestDecodeRobustness \
    tests/net/test_tcp_resilience.py::TestPoisonedConnection
# The supervisor stamps seq with one positional Frame(...): replace()
# walks fields() and re-enters __init__ by keyword, 2 µs more per frame.
if grep -n "replace(" src/repro/net/supervision.py; then
    echo "replace( is back in net/supervision.py: stamp seq with one positional Frame(...)" >&2
    exit 1
fi

echo "== a trace event costs once (built in one step, its meta shared, audited in one pass) =="
# Stamping an instance builds the stamped event directly: replace() walks
# fields() and re-enters __init__ by keyword, 2.5 µs more per event.
if sed -n '/^    def record(/,/^    def record_message(/p' src/repro/sim/trace.py | grep -n "replace("; then
    echo "replace( is back in EventTrace.record: build the stamped TraceEvent directly" >&2
    exit 1
fi
# A run's events share one meta dict per tag and frame shape, and lines()
# writes each meta object's text once: a meta is read-only under src/.
if grep -rnE '\.meta\[[^]]*\] *=[^=]|\.meta\.(update|setdefault|pop)\(' src/; then
    echo "a write into an event's meta is back under src/: metas are shared within a trace, build a new dict" >&2
    exit 1
fi
python -m pytest -q tests/net/test_trace_metas.py \
    tests/sim/test_trace_differential.py::test_whole_traces_match_the_reference
# The oracle files every event once; no check rescans the trace.
if grep -n "def _deliveries_for\|def _index_sends" src/repro/verify/oracle.py; then
    echo "a per-check rescan of the trace is back in verify/oracle.py: read the one-pass buckets" >&2
    exit 1
fi
if [ "$(grep -c "for event in events" src/repro/verify/oracle.py)" -gt 1 ]; then
    echo "'for event in events' occurs more than once in verify/oracle.py: the oracle reads the trace once" >&2
    grep -n "for event in events" src/repro/verify/oracle.py >&2
    exit 1
fi

echo "== the EIG shape computed once (one path table, one inbox order, no per-message repr) =="
# Inboxes are ordered by repro.sim.messages.delivery_order, which renders
# a payload once per distinct object; neither runtime spells the key out.
for runtime in src/repro/sim/engine.py src/repro/net/runner.py; do
    if grep -n "str(m.payload)" "${runtime}"; then
        echo "str(m.payload) is back in ${runtime}: inbox order comes from delivery_order" >&2
        exit 1
    fi
done
# Paths are enumerated once per shape by EIGShape; the recursive generator
# and the recursive fold live in tests/core/reference_eig.py only.
if grep -n "_extend(\|_resolve_path(" src/repro/core/eig.py; then
    echo "the recursive path enumeration / resolve is back in core/eig.py: use the EIGShape table" >&2
    exit 1
fi
if sed -n '/^def vote(/,/^def majority(/p' src/repro/core/vote.py | grep -n "Counter("; then
    echo "Counter( is back inside vote: it counts 5-9 ballots in a plain dict" >&2
    exit 1
fi
# The functional recursion and the oracle enumerate paths on their own:
# they are what the table is cross-checked against.
for independent in src/repro/core/byz.py src/repro/verify/oracle.py; do
    if grep -n "eig_shape\|EIGShape\|^ *\(from\|import\) .*\beig\b" "${independent}"; then
        echo "${independent} imports the EIG shape table: it must stay an independent implementation" >&2
        exit 1
    fi
done

echo "== thin verbs (superseded flags, harness and test double stay out of src/) =="
# FlakyTransport is a test double: it lives in tests/net/flaky.py.
if grep -rn --include="*.py" "FlakyTransport" src/; then
    echo "FlakyTransport is back under src/: it is a test double (tests/net/flaky.py)" >&2
    exit 1
fi
# The unbatched wire mode is a keyword-only reference path, not a CLI flag.
if grep -rn --include="*.py" "no.batch" src/repro/cli/; then
    echo "--no-batch is back in the CLI: batching=False is a keyword for tests and perf/ only" >&2
    exit 1
fi
# The explorer's gate is tier-1 + perf/; its own bench harness is gone.
if grep -rn --include="*.py" "repro.bench.explore" src/ || [ -e src/repro/explore/bench.py ]; then
    echo "the explorer bench harness is back under src/: perf/explore_certify.py measures it" >&2
    exit 1
fi
# The service has one load generator, perf/loadgen.py; src/ keeps only the
# seeded plan repro serve submits (serve/plan.py).
if grep -rnE --include="*.py" "repro\.bench\.serve|run_load|LoadConfig|LoadReport|latency_summary" src/ || [ -e src/repro/serve/load.py ]; then
    echo "the service load generator is back under src/: perf/loadgen.py measures the service" >&2
    exit 1
fi
# Import cost follows use: scipy only where a bound is computed, and the
# CLI package's front door pays for no verb family.
if grep -rn --include="*.py" "^from scipy\|^import scipy" src/; then
    echo "a module-level scipy import is back under src/: import it at the call" >&2
    exit 1
fi
if grep -n "^from repro.analysis\|^import repro.analysis" src/repro/cli/__init__.py; then
    echo "repro.cli imports repro.analysis at module level: a handler imports what it needs when it runs" >&2
    exit 1
fi

# One seeded sampler: a chaos-campaign trial is a FuzzCase judged by the
# oracle, and the package samples with random.Random, not Hypothesis.
if grep -rn "hypothesis" src/; then
    echo "src/ mentions hypothesis: repro fuzz samples from random.Random; strategies live in tests/verify/" >&2
    exit 1
fi
if grep -rnE "TrialConfig|run_campaign_sync|CampaignReport" src/; then
    echo "the chaos campaign's own case/driver/report is back under src/: a trial is a grid FuzzCase (repro.verify.fuzz)" >&2
    exit 1
fi

echo "== a process loads nothing it does not run =="
# Topology is its adjacency map; networkx is imported by the graph
# algorithms on their first call.  A package re-export resolves on first
# access (repro/_exports.py), so no package __init__ imports a submodule.
# Fresh interpreters import the entry points and must leave networkx
# unloaded until they ask a graph question, and asyncio, socket, ssl,
# repro.net and repro.obs unloaded until they use a runtime name.
if grep -rnE --include="*.py" "^(from|import) networkx" src/; then
    echo "a module-level networkx import is back under src/: import it through repro.sim.network._networkx" >&2
    exit 1
fi
if grep -rnE --include="__init__.py" "^from (repro\.|\.)" src/repro/ | grep -v "from repro._exports import lazy_exports$"; then
    echo "a package __init__ binds names by importing a submodule: list them in its lazy_exports table" >&2
    exit 1
fi
# A transport layer is imported by the branch of net/stack.py that builds
# it: a LocalBus service without supervision loads neither.
if grep -nE "^(from|import) repro\.net\.(tcp|supervision)" src/repro/net/stack.py; then
    echo "net/stack.py imports the TCP transport or the supervisor at module level: import each where it is built" >&2
    exit 1
fi
python -m pytest -q \
    tests/test_public_api.py::test_a_process_loads_no_graph_library_it_does_not_query \
    tests/test_public_api.py::test_a_process_loads_nothing_it_does_not_run

echo "== one scenario vocabulary (one node list, one fault-kind table, replayable tokens) =="
# The S,p1..p{N-1} builder and the kind -> Behavior mapping live once, in
# repro.core.scenario.  (A count test, since `! grep` never trips `set -e`.)
for pattern in '[f"p{k}" for k in range(1,' 'LieAboutSender("forged"'; do
    if [ "$(grep -rF -- "${pattern}" src/ | wc -l)" -gt 1 ]; then
        echo "'${pattern}' occurs more than once under src/:" >&2
        grep -rnF -- "${pattern}" src/ >&2
        exit 1
    fi
done
bash scripts/replay_tokens.sh

echo "== chaos soak (seeded, replayable) =="
timeout 300 python -m repro chaos --severity light --trials 5 --seed 7

echo "== self-healing soak (reconnect + crash-restart under chaos) =="
# Hard-resets every TCP connection at relay-round onsets and
# crash-restarts one node's endpoint mid-run, under the reconnecting
# supervisor; runs the campaign twice with the same seed and fails
# unless decisions and wire fingerprints (reconnect counters included)
# are identical.
timeout 300 python -m repro chaos --kill-links --severity light --trials 4 --seed 7 --transport tcp --timeout 0.5

echo "== trace conformance (golden trace + differential fuzz) =="
python -m repro verify examples/traces/golden_m1u2.jsonl
timeout 300 python -m repro fuzz --quick --seed 7

echo "== schedule explorer (exhausted frontiers + shrink gate) =="
# Seedless and deterministic, and a gate that can fail in both
# directions: correct (1,2,5) must explore clean to an exhausted depth-2
# frontier (exit 0 *and* the frontier sentence: a run that merely spent
# its budget also exits 0), and the planted vote bug must be found and
# shrunk to a replayable one-deviation token (exit 1).
timeout 300 python -m repro explore --depth 2 --budget 150 | tee "${ARTIFACTS}/explore.txt"
if ! grep -q "frontier exhausted at depth 2: 513 schedules settled (13 run + 500 covered" "${ARTIFACTS}/explore.txt"; then
    echo "(1,2,5) did not exhaust its depth-2 frontier in 13 runs" >&2
    exit 1
fi
if timeout 300 python -m repro explore --inject-vote-bug 1 --depth 2 --budget 150; then
    echo "planted vote bug not found" >&2
    exit 1
fi
# The deeper certificate tier-1 has no time for: (2,2,7) clean to an
# exhausted depth-2 frontier, 8 713 schedules from 34 runs (~1 s).
timeout 600 python -m repro explore -m 2 -u 2 --depth 2 --budget 3000 | tee "${ARTIFACTS}/explore.txt"
if ! grep -q "frontier exhausted at depth 2: 8713 schedules settled (34 run + " "${ARTIFACTS}/explore.txt"; then
    echo "(2,2,7) did not exhaust its 8713-schedule depth-2 frontier in 34 runs" >&2
    exit 1
fi
# The orbit cover's gate by name: every schedule of four symmetric
# frontiers, run directly, is the first run of its orbit relabelled, and
# the group is the one the configuration allows.
timeout 300 python -m pytest -q tests/explore/test_reduction.py::TestOrbitTwins tests/explore/test_reduction.py::TestSymmetryGroup
# The unbatched (1,2,5) depth-2 frontier both ways (5 839 reference +
# 4 263 reduced runs, ~45 s): tier-1 keeps its depth-1 slice only.
timeout 600 python -m pytest -q -m slow tests/explore/test_reduction.py
# One definition of when a stall surfaces: what send arms and what a
# drop's silent-stall report compares must be the same expression.
if [ "$(grep -c "STALL_FRACTION \*" src/repro/explore/transport.py)" -gt 1 ]; then
    echo "'STALL_FRACTION *' occurs more than once in explore/transport.py:" >&2
    grep -n "STALL_FRACTION \*" src/repro/explore/transport.py >&2
    exit 1
fi

echo "== agreement service (multiplexed instances + backpressure) =="
# serve cross-checks every decision against the synchronous engine, with
# one transport pair per link across all instances.  The third run plans
# 64 instances against an admission bound of 8: rejected submits wait out
# retry_after, and every instance must still be decided.
timeout 300 python -m repro serve --instances 32 --max-inflight 32 --seed 7
timeout 300 python -m repro serve --instances 8 --chaos light --seed 5 --timeout 0.5
timeout 300 python -m repro serve --instances 64 --max-inflight 4 --queue-limit 4 --seed 7
timeout 300 python -m repro serve --instances 4 --trace "${ARTIFACTS}/serve.jsonl"

echo "== a service's memory is bounded (a window of decided instances, folded sums for the rest) =="
# The service keeps its last OUTCOME_WINDOW decided instances (plus the
# latest HELD_OUTCOMES held ones) in one store, service.outcomes, which is
# the aggregate recorder's window, and folds what it evicts into running
# sums, so a scrape counts from the sums and walks the window.  A count
# taken by walking service.outcomes or sizing metrics.window would read
# the window, not the run.
if grep -nE "for [a-z_]+ in (service\.outcomes|outcomes)\b|service\.outcomes\.values\(|len\(service\.outcomes\)|len\(metrics\.window\)" \
        src/repro/obs/prom.py src/repro/obs/http.py; then
    echo "obs/prom.py or obs/http.py counts by walking the service window: read the service's tally and the recorder's instances_folded" >&2
    exit 1
fi
# One window, one fold, one eviction site: one window-size constant under
# src/, no second fold class beside InstanceTally, and one place where an
# outcome leaves the store.
if [ "$(grep -rnE "^[A-Z_]*WINDOW[A-Z_]* *(: *[A-Za-z]+)? *=" src/ | wc -l)" -ne 1 ] \
        || grep -rnE "^class (FoldedInstances|OutcomeTally)\b" src/ \
        || [ "$(grep -c "outcomes\.pop(" src/repro/serve/gateway.py)" -ne 1 ]; then
    echo "the service keeps its decided instances twice: one window-size constant, one fold class (InstanceTally), one eviction site (AgreementService._evict)" >&2
    exit 1
fi
# A round's wait-set table is the session's, shared by every instance's
# recorder: nothing writes into it.
if grep -rnE "expected_sources\[[^]]*\] *=|expected_sources\.(update|setdefault|pop)\(" src/; then
    echo "a write into a shared wait-set table (RoundMetrics.expected_sources) under src/" >&2
    exit 1
fi
python -m pytest -q tests/serve/test_bounded_state.py tests/serve/test_aggregate_differential.py \
    tests/net/test_tcp_bookkeeping.py tests/serve/test_recv_only.py
# repro serve takes each decision as it lands: a plan longer than the
# window is decided whole.
timeout 300 python -m repro serve --instances 3000 --max-inflight 16 --seed 7 | tail -1 | grep -F "ALL INSTANCES SATISFIED"

echo "== observability gate (live scrape + traced kill-links smoke) =="
# Starts repro serve --metrics-port, scrapes the endpoint while live,
# and fails on any malformed exposition line or unhealthy /healthz.
# Then runs repro trace --kill-links on a known-degraded seed and fails
# unless the span JSONL validates, the Perfetto JSON parses with every
# parent resolving, and the summary names a degraded round.
# The stats verb then re-renders the service trace recorded above as
# exposition, exercising the offline path.
timeout 180 python scripts/obs_gate.py
timeout 60 python -m repro stats "${ARTIFACTS}/serve.jsonl" --prom > /dev/null

echo "== perf harness (self-tests + quick run; exit code is the correctness gate) =="
# The benchmark checks every output it timed: any serve decision that
# differs from the synchronous engine, any functional/engine mismatch or
# any unexhausted frontier is printed by op id and exits nonzero.  The
# numbers are printed, not gated.
timeout 300 python3 -m pytest perf/ -q
timeout 300 python3 perf/run.py --quick --seed 7
echo "src/ Python lines: $(find src -name '*.py' | xargs wc -l | tail -1)"

echo "== src/ holds what an entry point reaches (a call recorder; the tier-1-only count may not grow) =="
# scripts/reach.py runs tier-1 and its entry table (every verb with each of
# its flags, the benchmarks, the examples, the gate scripts and perf/) under
# a stdlib call recorder and sorts every src/ function by what calls it.
# What only tier-1 calls is safety code, the Transport contract, a
# reference a differential holds, or documented public API
# (docs/testing.md §4, docs/api.md); fixtures and test clients live
# under tests/.  The bound, reach.py's BOUND, is this tree's own reading
# in physical lines.
if ! timeout 1200 python scripts/reach.py --check > "${ARTIFACTS}/reach.txt"; then
    cat "${ARTIFACTS}/reach.txt"
    exit 1
fi
head -4 "${ARTIFACTS}/reach.txt"
# Mechanisms no entry point reached are gone, with their tests.
if grep -rnE "ProtocolConvergence|ClockSyncProcess|ClockFaceInjector|ClockReadingPayload|TwoFacedAboutSender|unsafe_probability_curve|exhaustive_fault_sets|partition_corruptor|narrate_ballots|def faulty_nodes|expected_path_count|is_quiet|read_matrix" src/ \
        || [ -e src/repro/clocksync/protocol.py ] \
        || grep -nE "def (dump|load)\(" src/repro/sim/trace.py; then
    echo "a deleted mechanism is back under src/: nothing that ships reaches it" >&2
    exit 1
fi
# Test fixtures and test clients live under tests/.
if grep -rnE "class (IdleProcess|RecordingProcess|ScriptedProcess|ScriptedBehavior|FunctionBehavior)\b|def (scrape|make_om_processes|ic_runner_om|check_divergence|verify_message_count|verify_instance_exhaustively|replay_fingerprints)\(" src/; then
    echo "a test fixture or test client is back under src/: it lives under tests/" >&2
    exit 1
fi

echo "== slow suite (full fuzz budget) =="
timeout 600 python -m pytest -q -m slow --ignore=tests/explore/test_reduction.py

echo "CI green."
