"""Synthetic fitness landscapes: known optimum, tunable proxy correlation.

Run: python demos/03_synthetic_benchmark.py
"""

import tempfile
from pathlib import Path

import numpy as np

from evonas import (
    SyntheticSpec,
    best_of,
    enumerate_all,
    gen_synthetic,
    kendall_tau,
    load_tabular,
    query,
    save_tabular,
)

# A separable, noise-free landscape: every edge contributes independently,
# so the global optimum is the per-edge argmax and is known in closed form.
easy = gen_synthetic(SyntheticSpec(seed=9, noise_std=0.0, interaction_scale=0.0))
arch, record = best_of(easy)
print(f"separable landscape optimum: {arch}")
print(f"  val {record.val_acc:.1f}, test {record.test_acc:.1f}, cost {record.train_time_s:.1f}s")

# Interactions between node-sharing edges plus per-architecture noise make
# the landscape rugged; the bundled proxy map is calibrated by bisection
# until its Kendall tau against val_acc hits the requested target.
for tau_target in (1.0, 0.6, 0.0):
    bench = gen_synthetic(
        SyntheticSpec(seed=5, noise_std=2.0, interaction_scale=0.5, target_proxy_tau=tau_target)
    )
    measured = kendall_tau(bench.synthetic_proxy, bench.val_acc)
    print(f"target tau {tau_target:+.1f} -> measured {measured:+.4f}")

# Benchmarks round-trip through the JSON schema used by the CLI.
bench = gen_synthetic(SyntheticSpec(seed=5, noise_std=2.0, interaction_scale=0.5,
                                    target_proxy_tau=0.6))
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "bench.json"
    save_tabular(bench, path)
    loaded = load_tabular(path)
    probe = next(enumerate_all())
    assert query(loaded, probe) == query(bench, probe)
    print(f"\nsaved and reloaded {len(loaded.val_acc)} records ({path.stat().st_size / 1e6:.1f} MB)")

# Fitness arrays are indexed by genotype, in enumerate_all order.
vals = bench.val_acc
print("\nfitness distribution over the full space:")
for q in (0, 25, 50, 75, 100):
    print(f"  p{q:<3} = {np.percentile(vals, q):6.2f}")
