"""The one shared nearest-rank percentile: edge cases and call sites."""

from repro.obs.stats import percentile, percentiles


class TestPercentile:
    def test_empty_returns_zero(self):
        assert percentile([], 0.0) == 0.0
        assert percentile([], 0.5) == 0.0
        assert percentile([], 1.0) == 0.0

    def test_single_element_for_every_quantile(self):
        for q in (0.0, 0.01, 0.5, 0.95, 1.0):
            assert percentile([7.0], q) == 7.0

    def test_two_elements_median_is_first(self):
        # ceil(0.5 * 2) = 1 (1-based): the median of two samples is the
        # smaller one.  The old int(q*n) variants returned the larger —
        # biased one rank high whenever q*n landed on an integer.
        assert percentile([1.0, 2.0], 0.50) == 1.0
        assert percentile([1.0, 2.0], 0.95) == 2.0

    def test_even_sample_integral_rank(self):
        samples = [0.1, 0.2, 0.3, 0.4]
        assert percentile(samples, 0.25) == 0.1  # ceil(1.0) -> rank 1
        assert percentile(samples, 0.50) == 0.2  # ceil(2.0) -> rank 2
        assert percentile(samples, 0.75) == 0.3
        assert percentile(samples, 1.00) == 0.4

    def test_quantiles_outside_range_clamp(self):
        samples = [3.0, 1.0, 2.0]
        assert percentile(samples, -0.5) == 1.0
        assert percentile(samples, 0.0) == 1.0
        assert percentile(samples, 1.5) == 3.0

    def test_order_independent(self):
        assert percentile([3.0, 1.0, 2.0], 0.5) == 2.0
        assert percentile([2.0, 3.0, 1.0], 0.5) == 2.0

    def test_ten_elements_named_ranks(self):
        samples = [float(i) for i in range(1, 11)]
        assert percentile(samples, 0.50) == 5.0
        assert percentile(samples, 0.90) == 9.0
        assert percentile(samples, 0.99) == 10.0


class TestPercentiles:
    def test_empty_maps_every_name_to_zero(self):
        out = percentiles([], {"p50": 0.5, "p99": 0.99})
        assert out == {"p50": 0.0, "p99": 0.0}

    def test_matches_single_quantile_variant(self):
        samples = [0.4, 0.1, 0.9, 0.2, 0.7]
        named = percentiles(
            samples, {"p0": 0.0, "p50": 0.5, "p90": 0.9, "p100": 1.0}
        )
        for name, q in (
            ("p0", 0.0), ("p50", 0.5), ("p90", 0.9), ("p100", 1.0)
        ):
            assert named[name] == percentile(samples, q)


class TestSharedCallSites:
    """Every former private copy now resolves to the one implementation."""

    def test_metrics_latency_percentiles_delegate(self):
        from repro.net.metrics import NetMetrics

        metrics = NetMetrics(transport="test")
        metrics.record_latency(1, 0.1)
        metrics.record_latency(1, 0.2)
        # Two samples: canonical nearest-rank p50 is the *first*.
        assert metrics.latency_percentiles() == {
            "p50": 0.1, "p90": 0.2, "p99": 0.2
        }

    def test_metrics_latency_percentiles_empty(self):
        from repro.net.metrics import NetMetrics

        assert NetMetrics().latency_percentiles() == {
            "p50": 0.0, "p90": 0.0, "p99": 0.0
        }
