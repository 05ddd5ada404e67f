"""NASAIC reproduction: co-exploration of neural architectures and
heterogeneous ASIC accelerator designs targeting multiple tasks.

Reimplementation of Yang et al., DAC 2020 (arXiv:2002.04116), with every
substrate built from scratch: the ResNet9/U-Net search spaces, the
dataflow-template accelerator model, a MAESTRO-style analytic cost model,
the HAP mapper/scheduler, the RNN controller with Monte-Carlo policy
gradient, and the full baseline suite.  See the README for the
system inventory; the paper's values for each table live in the
docstrings of :mod:`repro.experiments.table1` and
:mod:`repro.experiments.table2`.

Quickstart::

    from repro import NASAIC, NASAICConfig, w3

    search = NASAIC(w3(), config=NASAICConfig(episodes=50, seed=7))
    result = search.run()
    print(result.summary())
"""

from repro.utils.lazy import lazy_exports

__version__ = "1.0.0"

# Public name -> defining subpackage, imported on first access.
_EXPORTS = {
    "AllocationSpace": ".accel",
    "Dataflow": ".accel",
    "HeterogeneousAccelerator": ".accel",
    "ResourceBudget": ".accel",
    "SubAccelerator": ".accel",
    "ArchitectureSpace": ".arch",
    "Choice": ".arch",
    "ConvLayer": ".arch",
    "NetworkArch": ".arch",
    "ResNetSpace": ".arch",
    "UNetSpace": ".arch",
    "cifar10_resnet_space": ".arch",
    "nuclei_unet_space": ".arch",
    "stl10_resnet_space": ".arch",
    "NASAIC": ".core",
    "Campaign": ".core",
    "CampaignConfig": ".core",
    "CampaignResult": ".core",
    "EvalService": ".core",
    "EvalServiceStats": ".core",
    "Evaluator": ".core",
    "ExploredSolution": ".core",
    "JointSearchSpace": ".core",
    "NASAICConfig": ".core",
    "RNNController": ".core",
    "Scenario": ".core",
    "SearchDriver": ".core",
    "SearchResult": ".core",
    "SearchStrategy": ".core",
    "asic_then_hw_nas": ".core",
    "hardware_aware_nas": ".core",
    "monte_carlo_search": ".core",
    "run_campaign": ".core",
    "run_nas": ".core",
    "successive_nas_then_asic": ".core",
    "CostModel": ".cost",
    "CostModelParams": ".cost",
    "LayerCost": ".cost",
    "MappingProblem": ".mapping",
    "list_schedule": ".mapping",
    "solve_exact": ".mapping",
    "solve_hap": ".mapping",
    "AccuracySurrogate": ".train",
    "SurrogateTrainer": ".train",
    "default_surrogate": ".train",
    "DesignSpecs": ".workloads",
    "Task": ".workloads",
    "Workload": ".workloads",
    "fig1_workload": ".workloads",
    "w1": ".workloads",
    "w2": ".workloads",
    "w3": ".workloads",
}

__all__ = [*_EXPORTS, "__version__"]
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
