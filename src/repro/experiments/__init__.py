"""Canonical experiments: scenarios and per-figure runners."""

from repro.lazy import lazy_exports

# runner imports the analysis layer and chaos the exporters; a benchmark
# that only needs perf.batched_workload loads neither
__getattr__, __dir__ = lazy_exports(__name__, {
    ".runner": (
        "SCHEDULER_FACTORIES",
        "ablation_bandwidth",
        "ablation_estimator",
        "ablation_network_condition",
        "ablation_probabilistic",
        "ablation_probability_model",
        "comparison",
        "fig3_data_sizes",
        "fig4_jct",
        "fig5_reduction",
        "fig6_task_times",
        "fig7_locality_by_size",
        "pmin_sweep",
        "table3_locality",
    ),
    ".chaos": (
        "ChaosReport",
        "ChaosRun",
        "random_fault_plan",
        "random_telemetry",
        "run_chaos",
    ),
    ".perf": ("BenchCase", "bench_cases"),
    ".scenarios": ("SCENARIOS", "Scenario", "get_scenario", "run_batch"),
    ".sweep": (
        "run_sweep",
        "run_task",
        "sweep_tasks",
        "task_key",
        "write_sweep",
    ),
})

__all__ = [
    "SCENARIOS",
    "SCHEDULER_FACTORIES",
    "Scenario",
    "BenchCase",
    "ChaosReport",
    "ChaosRun",
    "bench_cases",
    "ablation_bandwidth",
    "ablation_estimator",
    "ablation_network_condition",
    "ablation_probabilistic",
    "ablation_probability_model",
    "comparison",
    "fig3_data_sizes",
    "fig4_jct",
    "fig5_reduction",
    "fig6_task_times",
    "fig7_locality_by_size",
    "get_scenario",
    "pmin_sweep",
    "random_fault_plan",
    "random_telemetry",
    "run_batch",
    "run_chaos",
    "run_sweep",
    "run_task",
    "sweep_tasks",
    "table3_locality",
    "task_key",
    "write_sweep",
]
