"""The names ``servesim`` exports, pinned: an API change is deliberate."""

import types

import servesim

PUBLIC = {
    # Configs and records.
    "BatchPlan", "BenefitParams", "ChunkedPrefill", "DeadlinePolicy",
    "DecodePrepone", "DelayConfig", "EndToEnd", "EngineConfig", "EvalWindow",
    "ExperimentConfig", "IndicatorPenalty", "LinearSeconds", "MetricsReport",
    "QueueState", "ReadingSpeed", "RequestSpec", "RequestTrace",
    "SchedulerPolicy", "SimTrace", "TokenTimeline", "TokensEquivalent",
    "TtftTbt", "Variant", "VllmLike", "WorkloadConfig",
    # Functions: scoring has one entry per scope, score and build_report.
    "apply_output_delay", "build_report", "capacity_search",
    "concatenate_to_length", "deadlines_for", "delay_trace",
    "experiment_from_config", "generate", "iteration_time",
    "load_experiment", "load_workload", "percentile", "read_trace", "run",
    "run_experiment", "save_workload", "score", "window_from_traces",
    "write_trace",
}


def test_public_names_are_pinned():
    exported = {name for name, value in vars(servesim).items()
                if not name.startswith("_")
                and not isinstance(value, types.ModuleType)}
    assert exported == PUBLIC
