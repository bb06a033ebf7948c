#!/usr/bin/env bash
# Fast smoke gate: tier-1 tests plus one real net run.  Target: < 1 minute.
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:${PYTHONPATH}}"

# Run artifacts go to a scratch directory: a run leaves the tree clean.
ARTIFACTS="$(mktemp -d)"
trap 'rm -rf "${ARTIFACTS}"' EXIT

echo "== tier-1 tests =="
python -m pytest -x -q

echo "== trace line writer vs its reference (same lines, headers, fingerprints) =="
python -m pytest -q tests/sim/test_trace_differential.py

echo "== a trace writes each meta once (one dict per tag and frame shape in a run; whole traces vs the reference) =="
python -m pytest -q tests/net/test_trace_metas.py \
    tests/sim/test_trace_differential.py::test_whole_traces_match_the_reference

echo "== one-pass oracle vs its reference (same reports on frontiers, mutations, doctored traces) =="
python -m pytest -q tests/verify/test_oracle_differential.py

echo "== EIG shape table vs its reference (same paths, folds, votes, process steps) =="
python -m pytest -q tests/core/test_eig_differential.py

echo "== exposition writer vs its reference (same /metrics and stats --prom text, bar the link-errors family) =="
python -m pytest -q tests/obs/test_prom_differential.py

echo "== the shared round, from both runtimes (same checks, same injector order, same crash) =="
python -m pytest -q tests/net/test_async_faults.py

echo "== what the wire path costs (one encode per frame, one send order, a task only for a node that waits) =="
python -m pytest -q tests/net/test_recv_nowait.py tests/net/test_wire_cost.py

echo "== a frame hop builds its wire objects in one step (twins, seq stamp, poisoned bodies) =="
python -m pytest -q \
    tests/net/test_codec.py::TestConstruction \
    tests/sim/test_messages.py::TestConstruction \
    tests/net/test_supervision.py::TestSeqStamp \
    tests/net/test_codec.py::TestDecodeRobustness \
    tests/net/test_tcp_resilience.py::TestPoisonedConnection

echo "== one deadline per round (it bounds sends and collects; nothing above the runner) =="
python -m pytest -q tests/net/test_collect_deadline.py tests/serve/test_shutdown.py

echo "== one restart path (a restarted node keeps serving; mux state stays flat) =="
python -m pytest -q \
    "tests/serve/test_shutdown.py::TestRestartNode::test_a_chaos_restart_leaves_the_node_serving" \
    "tests/serve/test_shutdown.py::TestRestartNode::test_a_tcp_endpoint_restart_leaves_the_node_serving" \
    "tests/serve/test_mux.py::TestFlatState::test_mux_state_is_the_same_size_after_256_and_512_instances"

echo "== supervision and the exported metric catalog (re-dial, dedup window, golden exposition) =="
python -m pytest -q tests/net/test_supervision.py tests/net/test_dedup_differential.py tests/obs/test_prom.py

echo "== net runtime over the local bus =="
python -m repro net --transport local

echo "== chaos smoke =="
timeout 120 python -m repro chaos --severity light --trials 2 --seed 7

echo "== self-healing smoke (reconnect under kill-links chaos) =="
timeout 120 python -m repro chaos --kill-links --severity light --trials 2 --seed 7 --transport tcp --timeout 0.5

echo "== trace conformance (golden trace + differential fuzz) =="
python -m repro verify examples/traces/golden_m1u2.jsonl
timeout 120 python -m repro fuzz --quick --seed 7

echo "== replay tokens (one committed token per grammar) =="
bash scripts/replay_tokens.sh

echo "== one run per behaviour vs the search that runs everything (same frontier, runs byte-identical, covered == twin) =="
python -m pytest -q tests/explore/test_reduction.py

echo "== orbit cover: every symmetric schedule is its orbit's first run relabelled =="
python -m pytest -q tests/explore/test_reduction.py::TestOrbitTwins tests/explore/test_reduction.py::TestSymmetryGroup

echo "== schedule explorer smoke (virtual clock, seedless) =="
# Deterministic both ways: the correct running example must explore
# clean to an exhausted depth-2 frontier (exit 0 and the frontier
# sentence), and the planted vote bug must be found and shrunk to a
# replayable one-deviation token (exit 1).
timeout 60 python -m repro explore --depth 2 --budget 150 | tee "${ARTIFACTS}/explore.txt"
if ! grep -q "frontier exhausted at depth 2: 513 schedules settled (13 run + 500 covered" "${ARTIFACTS}/explore.txt"; then
    echo "(1,2,5) did not exhaust its depth-2 frontier in 13 runs" >&2
    exit 1
fi
if timeout 60 python -m repro explore --inject-vote-bug 1 --depth 2 --budget 150; then
    echo "planted vote bug not found" >&2
    exit 1
fi

echo "== agreement service (32 concurrent instances, one shared bus; backpressure) =="
# Each run exits nonzero on any sync-engine divergence; the third plans 64
# instances against an admission bound of 8 and must decide them all.
timeout 120 python -m repro serve --instances 32 --max-inflight 32 --seed 7
timeout 120 python -m repro serve --instances 64 --max-inflight 4 --queue-limit 4 --seed 7
timeout 120 python -m repro serve --instances 4 --trace "${ARTIFACTS}/serve.jsonl"

echo "== observability gate (live scrape + traced kill-links smoke) =="
timeout 180 python scripts/obs_gate.py
timeout 60 python -m repro stats "${ARTIFACTS}/serve.jsonl" --prom > /dev/null

echo "== perf harness (self-tests + quick run; exit code is the correctness gate) =="
# The benchmark checks every output it timed: any serve decision that
# differs from the synchronous engine, any functional/engine mismatch or
# any unexhausted frontier is printed by op id and exits nonzero.  The
# numbers are printed, not gated.
timeout 300 python3 -m pytest perf/ -q
timeout 300 python3 perf/run.py --quick --seed 7

echo "Smoke green."
