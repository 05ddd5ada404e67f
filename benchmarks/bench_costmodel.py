"""Ablation B: cost-model throughput and the dataflow-affinity matrix.

The search's feasibility hinges on the §II Challenge-2 affinity
structure: NVDLA-style favours channel-heavy/low-resolution layers,
ShiDianNao-style the opposite, row-stationary in between.  This bench
prints the full network x dataflow latency matrix and measures the
oracle's throughput: the scalar per-layer path and the batch path every
search prices through (one ``MappingProblem.build_many`` per batch).
"""

from benchmarks.conftest import run_once, write_report
from repro.accel import Dataflow, SubAccelerator
from repro.arch import cifar10_resnet_space, nuclei_unet_space, stl10_resnet_space
from repro.cost import CostModel
from repro.utils.tables import format_table


def _affinity_matrix():
    cm = CostModel()
    cifar = cifar10_resnet_space()
    stl = stl10_resnet_space()
    unet = nuclei_unet_space()
    networks = {
        "resnet9/cifar10 (max)": cifar.decode(cifar.largest_indices()),
        "resnet9/stl10 (mid)": stl.decode(
            stl.indices_of((32, 128, 1, 256, 1, 256, 1, 512, 1, 512, 1))),
        "unet/nuclei (mid)": unet.decode((3, 1, 1, 1, 1, 0)),
    }
    rows = []
    latencies = {}
    for label, net in networks.items():
        lats = {}
        for df in Dataflow:
            sub = SubAccelerator(df, 1024, 32)
            lat, _ = cm.network_cost_on(net, sub)
            lats[df.value] = lat
        latencies[label] = lats
        best = min(lats, key=lats.get)
        rows.append([label] + [f"{lats[d]:.3g}"
                               for d in ("shi", "dla", "rs")] + [best])
    table = format_table(
        ["network", "shi latency", "dla latency", "rs latency", "winner"],
        rows, title="Ablation B: dataflow affinity (1024 PEs, 32 GB/s)")
    return table, latencies


def test_dataflow_affinity(benchmark):
    (table, latencies) = run_once(benchmark, _affinity_matrix)
    write_report("ablation_affinity", table)
    # The paper's §II claim is about shi vs dla: "NVDLA style works
    # better for ResNets, while Shidiannao works better for U-Nets".
    resnet = latencies["resnet9/cifar10 (max)"]
    unet = latencies["unet/nuclei (mid)"]
    assert resnet["dla"] < resnet["shi"]
    assert unet["shi"] < unet["dla"]


def test_costmodel_throughput(benchmark):
    """Scalar layer-cost oracle throughput."""
    cifar = cifar10_resnet_space()
    net = cifar.decode(cifar.largest_indices())
    subs = [SubAccelerator(df, pes, 32)
            for df in Dataflow for pes in (256, 1024, 4096)]

    def evaluate_all():
        cm = CostModel()
        total = 0
        for layer in net.layers:
            for sub in subs:
                total += cm.layer_cost(layer, sub).latency_cycles
        return total

    assert benchmark(evaluate_all) > 0


def test_costmodel_build_many_throughput(benchmark):
    """Batch pricing as the search pays for it: the HAP tables of 64
    sampled W3 designs from one ``build_many`` call."""
    from repro.mapping import MappingProblem
    from repro.workloads import w3
    from tests.suite_helpers import sample_design_pairs

    pairs = sample_design_pairs(w3(), n=64, seed=3)
    cm = CostModel()
    problems = benchmark(MappingProblem.build_many, pairs, cm)
    assert len(problems) == 64
