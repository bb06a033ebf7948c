"""The repo's benchmark: one command, every workload, every metric by name.

    python3 perf/run.py --seed 7                    # everything, R repeats + traced run
    python3 perf/run.py --seed 7 --quick            # smoke: R = 2, about a tenth of the work
    python3 perf/run.py --workload core_grid --seed 7 --seconds 20 --trace 0
    python3 perf/run.py --seed 7 --append bench_history.json

``--trace 0`` measures the end-to-end metrics (tracing off), ``--trace 1``
the per-layer ones (one traced repeat per workload, the micro-costs and
the wrapper toggles); without ``--trace`` both are done.  Names, units,
directions and bounds come from ``BENCHMARK.json`` — this program refuses
to finish if what it measured and what that file promises differ.

Run shape: every (workload, repeat) is one fresh ``child.py`` process;
children run strictly one after another and repeats are interleaved
round-robin across workloads, so slow drift of a shared host hits every
workload equally.  Throughput, CPU and latency are reported over all of a
run's repeats and divided by ``host.speed_factor``, the slowdown a probe
run inside the timed regions saw over the same seconds (hostspeed.py): on
this host the same code runs up to 1.7x slower from one minute to the
next.  The unscaled whole-repeat values, their median and quartiles are
printed beside them and kept.  README.md gives the evidence.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed``, ``metrics``.  Any op whose output is wrong or missing is
printed by id and makes the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from child import percentile  # noqa: E402  (needs HERE on the path)
from hostspeed import PROBE_REF_MS  # noqa: E402

#: Repeats per workload.  Seven would be better and does not fit: the
#: driver allows 30 s per run all told, and every repeat pays set-up.
REPEATS = 5
#: Workloads that get fewer, longer repeats: ``--seconds`` divided by this
#: many seconds, at least two.  An ``explore_certify`` repeat is one whole
#: pass over its three configurations; a ``core_grid`` repeat pays 1.6 s
#: of imports, so three long ones measure more than five short ones.
MIN_REPEAT_S = {"explore_certify": 6.0, "core_grid": 6.0}
#: ``--quick``: two short repeats.
QUICK_REPEATS, QUICK_SECONDS = 2, 0.8
#: A set of repeats whose median calibration exceeds its fastest by this
#: share ran on a host busy with something else.
NOISY_HOST_SHARE = 0.20
#: Share of the probes cut from each end before their mean is taken: a
#: probe the host preempted reads 2-5 ms against 0.3-0.5.
PROBE_TRIM = 0.10


def load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def stamp(args, repeats: int) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "commit": commit,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "seconds": args.seconds,
        "repeats": repeats,
        "quick": args.quick,
        "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def run_child(mode: str, workload: str, args, seconds: float, **extra) -> dict:
    """Run one ``child.py`` to completion and return what it printed."""
    spec = {
        "mode": mode,
        "workload": workload,
        "seed": args.seed,
        "seconds": seconds,
        "quick": args.quick,
        "inject_failure": args.inject_failure,
        "spawned_at": time.monotonic(),
        **extra,
    }
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), json.dumps(spec)],
        capture_output=True, text=True, timeout=170,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"perf: {mode} child for {workload} failed")
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartiles(values) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def speed_factor(children: list) -> float:
    """How much slower than a quiet sizing host this run's host was."""
    probes = sorted(ms for child in children for ms in child["probes_ms"])
    cut = int(len(probes) * PROBE_TRIM)
    return statistics.mean(probes[cut : len(probes) - cut]) / PROBE_REF_MS


def run_values(children: list) -> dict:
    """Throughput, CPU and latency over all repeats, at the reference speed.

    The share of a second this host runs slow drifts from minute to minute,
    so every number is an average over time, which moves in proportion to
    that share and is divided by the probes' average over the same seconds
    (hostspeed.py).  A pooled median would not do: it sits in one of the two
    speeds and jumps when the share crosses a half.

    Totals are totals: every op and all the wall and CPU time of every
    repeat (the probes' own time left out).  A service workload's latency
    percentiles are taken slice by slice and averaged over the slices.  A
    workload that repeats the same ops pass after pass has one latency per
    op — the mean of its passes without the slowest, where a stall of the
    host lands — and the percentiles run over the ops (an op may come in
    pieces, such as the schedules of one exploration).
    """
    tail_q = children[0]["tail_q"]
    if "passes" in children[0]:
        passes = [ops for child in children for ops in child["passes"]]
        pieces = [piece for ops in passes for op in ops for piece in op]
        ops = sum(len(ops) for ops in passes)
        wall_s = sum(wall for wall, _cpu in pieces) / 1e3
        cpu_ms = sum(cpu for _wall, cpu in pieces)
        walls = []
        for renditions in zip(*passes):  # one op, once per pass
            timings = sorted(sum(wall for wall, _cpu in op) for op in renditions)
            walls.append(statistics.mean(timings[:-1] or timings))
        p50_ms, tail_ms = percentile(walls, 0.5), percentile(walls, tail_q)
    else:
        slices = [s for child in children for s in child["slices"] if s[2]]
        ops = sum(len(s[2]) for s in slices)
        wall_s = sum(s[0] for s in slices)
        cpu_ms = sum(s[1] for s in slices) * 1e3
        p50_ms = statistics.mean(percentile(s[2], 0.5) for s in slices)
        tail_ms = statistics.mean(percentile(s[2], tail_q) for s in slices)
    slowdown = speed_factor(children)
    values = {
        "setup_s": statistics.median(c["setup_s"] for c in children) / slowdown,
        "ops_per_s": ops / wall_s * slowdown,
        "op_p50_ms": p50_ms / slowdown,
        "op_tail_ms": tail_ms / slowdown,
        "cpu_ms_per_op": cpu_ms / ops / slowdown,
    }
    if children[0]["open_loop"]:
        # The schedule sets the rate, whatever the host does.
        values["ops_per_s"] = sum(c["ops"] for c in children) / sum(
            c["ops"] / c["ops_per_s"] for c in children
        )
    return values


def summarize(metric: dict, values: list, reported=None) -> dict:
    """One metric's row: the reported value beside the per-repeat evidence."""
    best = max(values) if metric["better"] == "higher" else min(values)
    q1, median, q3 = quartiles(values)
    return {
        "value": best if reported is None else reported,
        "unit": metric["unit"], "best": best,
        "median": median, "q1": q1, "q3": q3, "raw": values,
    }


def tally(children: list) -> dict:
    """What a workload's record holds whichever kind of run produced it."""
    failures = [op for child in children for op in child["failures"]]
    return {
        "attempted": sum(child["attempted"] for child in children),
        "failed": len(failures),
        "failures": failures,
        "calib_ms": [child["calib_ms"] for child in children],
        "speed_factor": speed_factor(children),
        "slo_miss_share": max(c["slo_miss_share"] for c in children),
        "lag_p99_ms": min(c["lag_p99_ms"] for c in children),
    }


def measure_end_to_end(contract, workloads, args, repeats) -> dict:
    """R timed repeats per workload, interleaved; returns per-workload records."""
    plan = {
        name: max(2, min(repeats, int(args.seconds // MIN_REPEAT_S[name])))
        if name in MIN_REPEAT_S and not args.quick else repeats
        for name in workloads
    }
    runs = {name: [] for name in workloads}
    for repeat in range(repeats):
        for name in workloads:
            if repeat < plan[name]:
                runs[name].append(
                    run_child("timed", name, args, args.seconds / plan[name])
                )
    records = {}
    for name, children in runs.items():
        reported = run_values(children)
        records[name] = {
            "end_to_end": {
                metric["name"]: summarize(
                    metric,
                    [child[metric["name"]] for child in children],
                    reported.get(metric["name"]),
                )
                for metric in contract["end_to_end"]
            },
            "ops_per_repeat": [child["ops"] for child in children],
            **tally(children),
        }
    return records


def measure_per_layer(workloads, args, repeats, records, layer_metrics) -> None:
    """One traced repeat per workload, plus the workload-independent costs."""
    seconds = args.seconds / repeats
    for name in workloads:
        record = records.get(name)
        if record is None:
            # --trace 1 alone: one untraced repeat to compare against.
            plain = run_child("timed", name, args, seconds)
            record = records[name] = tally([plain])
            untraced_cpu = plain["cpu_ms_per_op"]
        else:
            untraced_cpu = record["end_to_end"]["cpu_ms_per_op"]["best"]
        spans = None
        if args.spans:
            os.makedirs(args.spans, exist_ok=True)
            spans = os.path.join(args.spans, f"{name}.spans.jsonl")
        traced = run_child("traced", name, args, seconds, spans=spans)
        record["attempted"] += traced["attempted"]
        record["failed"] += len(traced["failures"])
        record["failures"] += traced["failures"]
        record["missing_entry_points"] = traced["missing_entry_points"]
        layer = dict(traced["traced"])
        traced_cpu = layer.pop("traced.cpu_ms_per_op")
        spans_ms = sum(v for k, v in layer.items() if k.endswith(".self_ms"))
        layer["eventloop.self_ms"] = max(0.0, traced_cpu - spans_ms)
        layer["trace.overhead_share"] = traced_cpu / untraced_cpu - 1.0
        layer["loadgen.lag_p99_ms"] = record["lag_p99_ms"]
        layer["slo_miss_share"] = record["slo_miss_share"]
        layer["failed_share"] = record["failed"] / record["attempted"]
        layer["host.calib_ms"] = statistics.median(
            record["calib_ms"] + [traced["calib_ms"]]
        )
        layer["host.speed_factor"] = record["speed_factor"]
        layer["host.nproc"] = os.cpu_count()
        layer.update(layer_metrics)
        record["per_layer"] = layer
        record["traced_cpu_ms_per_op"] = traced_cpu


def print_report(contract, records, info) -> None:
    print(
        f"perf: commit {info['commit'][:12]}  python {info['python']}  "
        f"{info['platform']}  nproc {info['nproc']}  seed {info['seed']}  "
        f"R {info['repeats']}  seconds {info['seconds']}"
        + ("  (quick)" if info["quick"] else "")
    )
    units = {m["name"]: m["unit"] for m in contract["per_layer"]}
    for name, record in records.items():
        print(f"\n== {name}")
        if "end_to_end" in record:
            print(f"   ops per repeat: {record['ops_per_repeat']}")
            print(
                "   host.calib_ms per repeat: "
                + " ".join(f"{v:.3f}" for v in record["calib_ms"])
                + f"   host.speed_factor {record['speed_factor']:.3f}"
                " (reported times are divided by it)"
            )
            calib = record["calib_ms"]
            if statistics.median(calib) > min(calib) * (1 + NOISY_HOST_SHARE):
                print(
                    "   !!! NOISY HOST: median host.calib_ms exceeds the "
                    f"fastest by more than {NOISY_HOST_SHARE:.0%}; the "
                    "spread below is the host's, not the program's"
                )
            print(
                f"   {'metric':<18}{'unit':<7}{'reported':>12}{'best':>12}"
                f"{'median':>12}{'q1':>12}{'q3':>12}   per repeat"
            )
            for metric, row in record["end_to_end"].items():
                raw = " ".join(f"{v:.4g}" for v in row["raw"])
                print(
                    f"   {metric:<18}{row['unit']:<7}{row['value']:>12.4f}"
                    f"{row['best']:>12.4f}{row['median']:>12.4f}"
                    f"{row['q1']:>12.4f}{row['q3']:>12.4f}   {raw}"
                )
        if "per_layer" in record:
            layer = record["per_layer"]
            named = sum(
                layer[f"{k}.self_ms"]
                for k in ("gateway", "runner", "transport", "codec", "core",
                          "metrics", "explore", "verify")
            )
            print(
                f"   traced run: cpu {record['traced_cpu_ms_per_op']:.4f} ms/op, "
                f"named layers' self time {named:.4f} ms/op "
                f"({named / record['traced_cpu_ms_per_op']:.0%} of it)"
            )
            for missing in record["missing_entry_points"]:
                print(f"   entry point gone, not traced: {missing}")
            for metric in sorted(layer):
                print(f"   {metric:<34}{units[metric]:<8}{layer[metric]:>14.4f}")
        print(
            f"   attempted {record['attempted']}  failed {record['failed']}"
            f"  failed_share {record['failed'] / record['attempted']:.6f}"
        )
        for op in record["failures"]:
            print(f"   FAILED op {op}")


def main(argv=None) -> int:
    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names,
                        help="run only this workload (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per workload (default: "
                             "BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics only; 1: per-layer only")
    parser.add_argument("--quick", action="store_true",
                        help="smoke run: R = 2, about a tenth of the work")
    parser.add_argument("--append", metavar="FILE",
                        help="append this run as one JSON line to FILE")
    parser.add_argument("--spans", metavar="DIR",
                        help="write each traced run's spans to "
                             "DIR/<workload>.spans.jsonl")
    parser.add_argument("--inject-failure", action="store_true",
                        help="self-test: corrupt one output per repeat before "
                             "the correctness gate sees it")
    args = parser.parse_args(argv)
    workloads = args.workload or names
    repeats = QUICK_REPEATS if args.quick else REPEATS
    if args.seconds is None:
        args.seconds = QUICK_SECONDS if args.quick else float(contract["run_seconds"])
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        raise SystemExit("perf: no src/repro beside perf/ — nothing to measure")

    info = stamp(args, repeats)
    records: dict = {}
    if args.trace != 1:
        records = measure_end_to_end(contract, workloads, args, repeats)
    if args.trace != 0:
        layer_metrics = run_child("layers", "-", args, args.seconds)["metrics"]
        measure_per_layer(workloads, args, repeats, records, layer_metrics)
    print_report(contract, records, info)

    flat: dict = {}
    for name, record in records.items():
        metrics = {}
        if args.trace != 1:
            metrics.update(
                {k: {"value": v["value"], "unit": v["unit"]}
                 for k, v in record["end_to_end"].items()}
            )
        if args.trace != 0:
            units = {m["name"]: m["unit"] for m in contract["per_layer"]}
            promised, measured = set(units), set(record["per_layer"])
            if promised != measured:
                raise SystemExit(
                    "perf: BENCHMARK.json and the traced run disagree on "
                    f"per-layer metrics: {sorted(promised ^ measured)}"
                )
            metrics.update(
                {k: {"value": v, "unit": units[k]}
                 for k, v in record["per_layer"].items()}
            )
        flat[name] = metrics
    attempted = sum(r["attempted"] for r in records.values())
    failed = sum(r["failed"] for r in records.values())
    if args.append:
        with open(args.append, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({"stamp": info, "workloads": records}) + "\n")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": flat[workloads[0]] if len(workloads) == 1 else flat,
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
