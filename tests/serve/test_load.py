"""Load generator: seeded workloads, latency summaries, report schema."""

import asyncio
import json

import pytest

from repro.core.scenario import Instance
from repro.exceptions import ConfigurationError
from repro.serve import (
    AgreementService,
    LoadConfig,
    check_divergence,
    latency_summary,
    percentile,
    plan_workload,
    run_load,
    serve_plan,
)
from repro.serve.load import SCHEMA, VALUES


class TestConfig:
    def test_defaults_are_valid(self):
        config = LoadConfig()
        assert config.spec.n_nodes == 5
        assert config.mode == "closed"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mode": "burst"},
            {"transport": "carrier-pigeon"},
            {"instances": 0},
            {"mode": "open", "rate": 0.0},
            {"mode": "closed", "concurrency": 0},
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            LoadConfig(**kwargs)


def plan_of(config):
    """The plan ``run_load`` submits for *config*."""
    return plan_workload(
        config.instance.nodes(), config.instances, config.seed
    )


class TestWorkloadPlan:
    def test_same_seed_same_plan(self):
        config = LoadConfig(instances=24, seed=99)
        assert plan_of(config) == plan_of(config)

    def test_different_seed_different_plan(self):
        a = plan_of(LoadConfig(instances=24, seed=1))
        b = plan_of(LoadConfig(instances=24, seed=2))
        assert a != b

    def test_plan_covers_all_senders_with_known_values(self):
        config = LoadConfig(instances=20, seed=5)
        plan = plan_of(config)
        assert len(plan) == 20
        senders = {sender for sender, _ in plan}
        assert len(senders) == config.n_nodes  # round-robin hits every node
        assert all(value in VALUES for _, value in plan)


class TestOnePlanOneCrossCheck:
    """``repro serve`` and ``repro load`` share the seeded plan and the
    synchronous-engine cross-check; only the arrival model differs."""

    def test_both_drivers_submit_the_plan(self, monkeypatch):
        submitted = {}
        submit = AgreementService.submit

        def spy(self, sender, value, *args, **kwargs):
            iid = submit(self, sender, value, *args, **kwargs)
            submitted[iid] = (sender, value)
            return iid

        monkeypatch.setattr(AgreementService, "submit", spy)
        config = LoadConfig(instances=12, seed=41, concurrency=3)
        plan = plan_of(config)
        assert {sender for sender, _ in plan} == {"S", "p1", "p2", "p3", "p4"}

        asyncio.run(run_load(config))
        assert [submitted[iid] for iid in sorted(submitted)] == plan
        submitted.clear()
        _, outcomes = asyncio.run(serve_plan(config.instance, 12, 41))
        assert [submitted[o.instance_id] for o in outcomes] == plan
        assert [(o.sender, o.sender_value) for o in outcomes] == plan

    def test_cross_check_passes_clean_and_flags_a_tampered_decision(self):
        instance = Instance(1, 2, 5)
        spec, nodes = instance.spec(), instance.nodes()
        _, outcomes = asyncio.run(serve_plan(instance, 6, 3))
        by_id = {o.instance_id: o for o in outcomes}  # run_load's shape
        assert check_divergence(spec, nodes, outcomes) == []
        assert check_divergence(spec, nodes, by_id.values()) == []

        outcomes[4].result.decisions["p2"] = "forged"
        assert check_divergence(spec, nodes, outcomes) == ["i0004"]
        assert check_divergence(spec, nodes, by_id.values()) == ["i0004"]


class TestStatistics:
    def test_percentile_nearest_rank(self):
        samples = [float(i) for i in range(1, 11)]
        assert percentile(samples, 0.0) == 1.0
        # Nearest rank on the 0-indexed sorted list: round(0.5 * 9) = 4.
        assert percentile(samples, 0.5) == 5.0
        assert percentile(samples, 1.0) == 10.0
        assert percentile([], 0.5) == 0.0

    def test_summary_keys(self):
        summary = latency_summary([0.01, 0.02, 0.03, 0.4])
        assert set(summary) >= {"p50", "p95", "p99", "mean", "max"}
        assert summary["max"] == 0.4
        assert summary["p50"] <= summary["p95"] <= summary["p99"]


class TestRunLoad:
    def test_closed_loop_quick_run_is_clean(self):
        config = LoadConfig(
            instances=16, mode="closed", concurrency=4, seed=7,
            round_timeout=2.0,
        )
        report = asyncio.run(run_load(config))
        assert report.instances_done == 16
        assert report.dropped_submits == 0
        assert report.divergences == []
        assert report.ok
        assert report.throughput > 0.0
        assert report.latencies["p50"] > 0.0

    def test_open_loop_backpressure_drops_nothing(self):
        # A tight admission bound forces AdmissionError rejections; the
        # generator must retry until every instance lands (0 drops).
        config = LoadConfig(
            instances=12, mode="open", rate=500.0, seed=3,
            max_inflight=2, queue_limit=2, round_timeout=2.0,
        )
        report = asyncio.run(run_load(config))
        assert report.instances_done == 12
        assert report.dropped_submits == 0
        assert report.ok

    def test_report_schema_and_save(self, tmp_path):
        config = LoadConfig(
            instances=8, mode="closed", concurrency=4, seed=11,
            round_timeout=2.0,
        )
        report = asyncio.run(run_load(config))
        out = tmp_path / "BENCH_serve.json"
        report.save(str(out))
        payload = json.loads(out.read_text())
        assert payload["schema"] == SCHEMA
        assert payload["config"]["seed"] == 11
        assert payload["instances_done"] == 8
        assert payload["ok"] is True
        assert set(payload["latency_s"]) >= {"p50", "p95", "p99"}
        assert payload["throughput_per_s"] > 0
