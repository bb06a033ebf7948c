"""Analysis and experiment machinery: bounds validation, reliability,
complexity accounting, Monte-Carlo fault injection and table rendering."""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "adversary_search": (
        "SearchResult", "ViolationWitness", "count_profiles", "exhaustive_search",
        "verify_instance_exhaustively",
    ),
    "charts": ("bar_chart", "log_bar_chart", "sparkline", "staircase"),
    "confidence": (
        "summarize_confidence", "trials_needed", "violation_rate_upper_bound",
    ),
    "degradation": ("DegradationLevel", "DegradationProfile", "degradation_profile"),
    "complexity": (
        "ComplexityPoint", "byz_complexity", "crusader_complexity", "om_complexity",
        "sm_complexity", "survive_u_comparison", "verify_message_count",
    ),
    "lowerbounds": (
        "ConnectivityScenarioResult", "NodeGroups", "Scenario", "ScenarioOutcome",
        "TripleResult", "connectivity_scenarios", "make_groups", "run_scenario_triple",
        "theorem2_scenarios",
    ),
    "mixed_faults": (
        "MixedCell", "MixedFaultStudy", "crash_only_envelope", "mixed_fault_grid",
    ),
    "scenario": (
        "BEHAVIOR_BUILDERS", "ScenarioSpec", "ScenarioSuite", "reference_suite",
    ),
    "montecarlo": (
        "ADVERSARY_ZOO", "MonteCarloSummary", "TrialRecord", "exhaustive_fault_sets",
        "run_campaign",
    ),
    "report": ("generate_report", "write_report"),
    "runner": (
        "EXPERIMENTS", "ExperimentResult", "run_experiments", "summarize",
        "write_results",
    ),
    "reliability": (
        "ReliabilityPoint", "compare_configurations", "degradable_vs_byzantine",
        "fault_count_pmf", "heterogeneous_fault_pmf", "heterogeneous_reliability",
        "pareto_configurations", "reliability", "unsafe_probability_curve",
    ),
    "tables": ("render_table", "section2_min_nodes_table", "seven_node_tradeoff_table"),
})
