"""servesim: discrete-event simulation and user-experience metrics for
continuous-batching LLM serving.

The package simulates an iteration-level serving engine under pluggable batch
policies, transforms generation timelines into delivery timelines, and scores
both with a unified per-token deadline framework: classic TTFT/TBT and
end-to-end SLOs, reading-speed deadlines, goodput, and smooth goodput (benefit
per second, where benefit discounts tokens by the user's worst idle wait).
"""

__version__ = "0.1.0"

from .config import (
    ExperimentConfig,
    Variant,
    experiment_from_config,
    load_experiment,
)
from .deadlines import (
    DeadlinePolicy,
    EndToEnd,
    ReadingSpeed,
    TtftTbt,
    deadlines_for,
)
from .delivery import DelayConfig, apply_output_delay, delay_trace
from .engine import EngineConfig, iteration_time, run
from .metrics import (
    BenefitParams,
    EvalWindow,
    IndicatorPenalty,
    LinearSeconds,
    MetricsReport,
    TokensEquivalent,
    build_report,
    percentile,
    score,
    window_from_traces,
)
from .runner import capacity_search, run_experiment
from .schedulers import (
    BatchPlan,
    ChunkedPrefill,
    DecodePrepone,
    QueueState,
    SchedulerPolicy,
    VllmLike,
)
from .traces import (
    RequestTrace,
    SimTrace,
    TokenTimeline,
    read_trace,
    write_trace,
)
from .workload import (
    RequestSpec,
    WorkloadConfig,
    concatenate_to_length,
    generate,
    load_workload,
    save_workload,
)
