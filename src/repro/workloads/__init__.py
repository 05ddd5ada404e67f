"""Multi-task workloads: the paper's presets plus generated scenarios."""

from repro.utils.lazy import lazy_exports

# Public name -> defining module, imported on first access.
_EXPORTS = {
    "SIZE_CLASSES": ".generator",
    "GeneratedScenario": ".generator",
    "ScenarioSpec": ".generator",
    "TaskSpec": ".generator",
    "generate_spec": ".generator",
    "generate_specs": ".generator",
    "fig1_workload": ".presets",
    "w1": ".presets",
    "w2": ".presets",
    "w3": ".presets",
    "workload_by_name": ".presets",
    "validate_workload": ".validation",
    "DesignSpecs": ".workload",
    "PenaltyBounds": ".workload",
    "Task": ".workload",
    "Workload": ".workload",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
