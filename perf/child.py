"""One repeat of one workload, in a process of its own.

``run.py`` starts this file once per (workload, repeat), strictly one at a
time.  A fresh process per repeat means every repeat pays — and reports —
the same set-up (``setup_s``: spawn to first timed op), and nothing one
repeat cached or leaked reaches the next.

Argument: one JSON object (see ``run.py``).  Output: one JSON object on
the last line of stdout.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import resource
import statistics
import sys
from collections import Counter


def percentile(samples, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def traced_metrics(out: dict, rec) -> dict:
    """Per-op self times, waits, counts and ratios from the traced run."""
    traced = out["traced"]
    ops = out["ops"]
    spans = rec.spans[: traced["n_spans"]]
    names = Counter(span[1] for span in spans)
    metrics = {
        f"{layer}.self_ms": traced["self_s"].get(layer, 0.0) * 1e3 / ops
        for layer in (
            "gateway", "runner", "transport", "codec", "core", "metrics",
            "explore", "verify", "loadgen",
        )
    }
    frames = traced.get("frames", names["explore.send"])
    encodes = names["codec.encode_frame"]
    metrics.update(
        {
            "wire.frames_per_op": frames / ops,
            "wire.bytes_per_op": traced.get("bytes", 0) / ops,
            "codec.encodes_per_op": encodes / ops,
            "codec.decodes_per_op": names["codec.decode_frame"] / ops,
            "codec.encodes_per_frame_sent": encodes / frames if frames else 0.0,
            "core.votes_per_op": names["core.vote"] / ops,
            "runner.rounds_per_op": names["metrics.record_round_duration"] / ops,
            "runner.timeouts_per_op": names["metrics.record_timeout"] / ops,
            "runner.retries_per_op": names["metrics.record_retry"] / ops,
            "gateway.rejections_per_op": traced.get("rejections", 0) / ops,
            "explore.schedules_per_op": traced.get("schedules", 0) / ops,
            "explore.schedules_per_s": traced.get("schedules", 0) / out["wall_s"],
            "explore.pruning_ratio": traced.get("pruning_ratio", 0.0),
            "explore.unique_fingerprint_share": traced.get(
                "unique_fingerprint_share", 0.0
            ),
        }
    )
    submitted = rec.first_start_by_op("gateway.submit")
    started = rec.first_start_by_op("runner.run")
    waits = [
        (started[op] - at) * 1e3 for op, at in submitted.items() if op in started
    ]
    metrics["gateway.queue_wait_p50_ms"] = statistics.median(waits) if waits else 0.0
    metrics["traced.cpu_ms_per_op"] = out["cpu_s"] * 1e3 / ops
    return metrics


def main() -> int:
    spec = json.loads(sys.argv[1])
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))
    sys.path.insert(0, here)

    if spec["mode"] == "layers":
        import layers

        result = {"metrics": layers.measure(spec["seed"], spec["seconds"], spec["quick"])}
        print(json.dumps(result))
        return 0

    module = importlib.import_module(spec["workload"])
    rec = None
    missing = []
    if spec["mode"] == "traced":
        import spans

        rec = spans.Recorder()
        missing = spans.rebind(rec)
        spans.trace_virtual_loops(rec)
    out = module.run(
        spec["seed"],
        spec["seconds"],
        rec=rec,
        quick=spec["quick"],
        inject_failure=spec["inject_failure"],
    )
    latencies = out["latencies_ms"]
    ops = out["ops"]
    result = {
        "calib_ms": statistics.median(out["probes_ms"]),
        "probes_ms": out["probes_ms"],
        "tail_q": module.TAIL_Q,
        "open_loop": out.get("open_loop", False),
        "ops": ops,
        "attempted": out["attempted"],
        "failures": out["failures"],
        "setup_s": out["timed_start"] - spec["spawned_at"],
        "ops_per_s": ops / out["wall_s"],
        "op_p50_ms": percentile(latencies, 0.5),
        "op_tail_ms": percentile(latencies, module.TAIL_Q),
        "cpu_ms_per_op": out["cpu_s"] * 1e3 / ops,
        "peak_rss_mb": out.get(
            "peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        ),
        "slo_miss_share": out.get("slo_misses", 0) / out["attempted"],
        "lag_p99_ms": percentile(out["lags_ms"], 0.99) if out.get("lags_ms") else 0.0,
    }
    for pieces in ("slices", "passes"):
        if pieces in out:
            result[pieces] = out[pieces]
    if rec is not None:
        result["traced"] = traced_metrics(out, rec)
        result["missing_entry_points"] = missing
        if spec.get("spans"):
            rec.dump(spec["spans"], out["traced"]["n_spans"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
