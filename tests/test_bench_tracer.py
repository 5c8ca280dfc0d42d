"""The benchmark's traced names, and what it reads of a network, must exist in the package.

`benchmarks/tracer.py` looks each traced function up by name when a traced
pass starts, and `benchmarks/workloads.py` counts a scoring's convolution
FLOPs from the network; a renamed or deleted name would otherwise fail only
in a traced benchmark pass.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from evonas.cellspace import ArchEncoding, OpKind
from evonas.rng import RngStream
from evonas.tensornet import SkeletonConfig, _ConvBN, build_network, forward

TRACER_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"
WORKLOADS_PATH = TRACER_PATH.parent / "workloads.py"


def _traced():
    spec = importlib.util.spec_from_file_location("_bench_tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)  # stdlib imports only
    return [(layer, name) for layer, names in tracer.TRACED.items() for name in names]


@pytest.mark.parametrize("layer, name", _traced())
def test_traced_name_resolves(layer, name):
    owner = importlib.import_module(f"evonas.{layer}")
    cls_name, _, attr = name.rpartition(".")
    if cls_name:
        owner = getattr(owner, cls_name)
        assert isinstance(owner, type), f"evonas.{layer}.{cls_name} is not a class"
    assert callable(getattr(owner, attr, None)), f"evonas.{layer}.{name} does not resolve"


@pytest.mark.parametrize("cfg", [SkeletonConfig(), SkeletonConfig(input_hw=32, stem_channels=16)], ids=["desk", "wide"])
def test_harness_reads_a_network(cfg, monkeypatch):
    """`conv_flop` reads `net.cfg` and `net.arch.edge_ops` and the traced pass
    runs `tensornet.forward`: for the all-3x3 cell, which has no dead conv,
    and for a cell with two dead convs, which the network does not run,
    `conv_flop` counts each conv step's multiply-adds twice (forward and
    input gradient) at 2 FLOPs each."""
    monkeypatch.syspath_prepend(str(WORKLOADS_PATH.parent))  # workloads imports its sibling inputs.py
    spec = importlib.util.spec_from_file_location("_bench_workloads", WORKLOADS_PATH)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    N1, SK, C1, C3, PL = OpKind.ZEROIZE, OpKind.SKIP_CONNECT, OpKind.CONV1X1, OpKind.CONV3X3, OpKind.AVGPOOL3X3
    for ops in [(C3,) * 6, (N1, C3, C3, SK, C1, PL)]:  # the second's node 1 gets no signal: 1->2 and 1->3 are dead
        net = build_network(ArchEncoding(ops), cfg, RngStream(1, ("init",)))
        n, hw, macs = 4, {0: cfg.input_hw}, 0
        for layer, a, b in net.steps:
            hw[b] = hw[a] // layer.stride if isinstance(layer, _ConvBN) else hw[a]
            if isinstance(layer, _ConvBN):
                o, c, k, _ = layer.w.shape
                macs += n * o * hw[b] ** 2 * c * k * k
        assert workloads.conv_flop(net, n) == 4.0 * macs
        batch = RngStream(2).normal(size=(n, cfg.input_channels, cfg.input_hw, cfg.input_hw))
        logits = forward(net, batch)
        assert logits.shape == (n, cfg.num_classes) and np.all(np.isfinite(logits))
