"""Guided evolutionary architecture search over a 6-edge cell space.

The package's parts, bottom up: `rng` (deterministic splittable streams),
`cellspace` (genotype, mutation, string codec), `tensornet` (forward pass
and input Jacobian of untrained networks), `zeroproxy` (the
Jacobian-correlation score), `oracle` (tabular and synthetic fitness),
`evolution` (the search loop and the search methods), plus `config` (the
field rule), `batches`, `stats`, `experiment` and `cli` for running
multi-seed comparisons end to end.
"""

__version__ = "0.1.0"

from .batches import SyntheticBatchSpec, load_raw_batch, make_batch
from .cellspace import (
    ArchEncoding,
    OpKind,
    decode_str,
    encode_str,
    enumerate_all,
    mutate,
    random_arch,
)
from .evolution import (
    Individual,
    SearchConfig,
    Trajectory,
    load_checkpoint,
    rea_config,
    run_random_search,
    run_search,
    save_checkpoint,
)
from .experiment import ExperimentConfig, emit_results, run_experiment
from .oracle import (
    Benchmark,
    FitnessRecord,
    SyntheticSpec,
    best_of,
    gen_synthetic,
    load_tabular,
    query,
    save_tabular,
)
from .rng import RngStream
from .stats import kendall_tau, welch_ttest
from .tensornet import (
    JacobianBatch,
    SkeletonConfig,
    build_network,
    finite_diff_jacobian,
    forward,
    input_jacobian,
)
from .zeroproxy import ProxyParams, ProxyScore, score_arch

__all__ = [
    "__version__",
    "SyntheticBatchSpec",
    "load_raw_batch",
    "make_batch",
    "kendall_tau",
    "welch_ttest",
    "ArchEncoding",
    "OpKind",
    "decode_str",
    "encode_str",
    "enumerate_all",
    "mutate",
    "random_arch",
    "Individual",
    "SearchConfig",
    "Trajectory",
    "load_checkpoint",
    "rea_config",
    "run_random_search",
    "run_search",
    "save_checkpoint",
    "ExperimentConfig",
    "emit_results",
    "run_experiment",
    "Benchmark",
    "FitnessRecord",
    "SyntheticSpec",
    "best_of",
    "gen_synthetic",
    "load_tabular",
    "query",
    "save_tabular",
    "RngStream",
    "JacobianBatch",
    "SkeletonConfig",
    "build_network",
    "finite_diff_jacobian",
    "forward",
    "input_jacobian",
    "ProxyParams",
    "ProxyScore",
    "score_arch",
]
