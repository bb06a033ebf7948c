"""repro.trace — deterministic causal span tracing for the agreement stack.

See :mod:`repro.trace.spans` for the model and the determinism
contract, :mod:`repro.trace.export` for the JSONL / Perfetto exporters,
and :mod:`repro.trace.critical` for per-round critical-path analysis;
:func:`trace_report` joins the three into the report the ``repro trace``
CLI verb prints for a traced run.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "spans": ("Span", "SpanEvent", "Tracer", "span_key"),
    "export": (
        "SCHEMA", "perfetto_trace", "read_spans", "spans_from_jsonl", "spans_to_jsonl",
        "validate_spans", "write_perfetto", "write_spans",
    ),
    "critical": (
        "CostEntry", "RoundPath", "critical_paths", "cross_link", "summary_lines",
        "trace_report",
    ),
})
