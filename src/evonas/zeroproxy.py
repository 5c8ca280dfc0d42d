"""Architecture score from per-class correlations of input-Jacobian rows.

Jacobian rows are grouped by class label; each class with at least two
samples yields a Pearson correlation matrix between its rows.  A matrix
with n entries sigma_ij is condensed to

    E = sum_ij ln(|sigma_ij| + t) / sqrt(n)

and the per-class values e are combined into the final score z: the sum of
|e_w| when the batch holds at most `tau` classes, otherwise the mean
absolute pairwise difference.  Higher z ranks better.  Any non-finite value
along the way (e.g. a zero-variance Jacobian row) collapses the result to a
sentinel that ranks below every finite score.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cellspace import ArchEncoding
from .rng import RngStream
from .tensornet import JacobianBatch, SkeletonConfig, build_network, input_jacobian

__all__ = [
    "ProxyParams",
    "ClassCorr",
    "ProxyScore",
    "WORST_SCORE",
    "per_class_correlation",
    "eval_matrix",
    "score",
    "score_arch",
]

# Rows with standard deviation below this are treated as constant: their
# correlations are undefined and marked non-finite.
_DEGENERATE_STD = 1e-12

WORST_SCORE = float("-inf")


@dataclass(frozen=True)
class ProxyParams:
    """Score constants: log smoothing t and the class-count threshold tau."""

    t: float = 1e-5
    tau: int = 100

    def __post_init__(self):
        if not self.t > 0:
            raise ValueError("t must be positive")
        if self.tau < 1:
            raise ValueError("tau must be >= 1")


@dataclass
class ClassCorr:
    """Pearson correlation matrix between the Jacobian rows of one class."""

    class_id: int
    sigma: np.ndarray


@dataclass(frozen=True)
class ProxyScore:
    """Final score plus the per-class E values it was built from."""

    value: float
    per_class: tuple = ()

    def __post_init__(self):
        # numpy scalars (e.g. a proxy-map entry) are stored as Python floats
        object.__setattr__(self, "value", float(self.value))

    @classmethod
    def sentinel(cls) -> "ProxyScore":
        return cls(value=WORST_SCORE, per_class=())

    @property
    def is_sentinel(self) -> bool:
        return self.value == WORST_SCORE


def per_class_correlation(jac: JacobianBatch) -> list[ClassCorr]:
    """Correlation matrices for every class with >= 2 rows, by class id.

    A row whose standard deviation across D falls below 1e-12 poisons its
    off-diagonal entries with NaN; the diagonal stays 1.  Degeneracy is
    encoded, never raised, so the sentinel rule can act downstream.
    """
    out = []
    for class_id in np.unique(jac.labels):
        rows = jac.J[jac.labels == class_id]
        if rows.shape[0] < 2:
            continue
        centered = rows - rows.mean(axis=1, keepdims=True)
        std = np.sqrt((centered**2).mean(axis=1))
        with np.errstate(divide="ignore", invalid="ignore"):
            cov = centered @ centered.T / rows.shape[1]
            sigma = cov / np.outer(std, std)
        sigma = np.clip(sigma, -1.0, 1.0)
        bad = std < _DEGENERATE_STD
        if bad.any():
            sigma[bad, :] = np.nan
            sigma[:, bad] = np.nan
        np.fill_diagonal(sigma, 1.0)
        out.append(ClassCorr(class_id=int(class_id), sigma=sigma))
    return out


def eval_matrix(corr: ClassCorr, params: ProxyParams) -> float:
    """Condense one correlation matrix: sum of ln(|sigma|+t) over all
    entries, divided by the square root of the entry count.  Non-finite
    entries propagate to a non-finite result."""
    sigma = corr.sigma
    return float(np.sum(np.log(np.abs(sigma) + params.t)) / np.sqrt(sigma.size))


def score(e_values, K: int, params: ProxyParams) -> float:
    """Combine per-class values into z.

    K counts every class present in the batch (including ones too small to
    score); with K <= tau, z is the sum of |e_w|, otherwise the pairwise
    absolute differences of e normalized by len(e).  Empty e yields the
    worst-sentinel.
    """
    e = np.asarray(list(e_values), dtype=np.float64)
    if e.size == 0:
        return WORST_SCORE
    if K <= params.tau:
        return float(np.sum(np.abs(e)))
    diffs = np.abs(e[:, None] - e[None, :])
    return float(np.sum(np.triu(diffs, k=1)) / e.size)


def score_arch(
    arch: ArchEncoding,
    batch: np.ndarray,
    labels,
    cfg: SkeletonConfig,
    params: ProxyParams,
    rng: RngStream,
) -> ProxyScore:
    """Build the network, take the input Jacobian, and score it.

    Returns the worst-sentinel if the Jacobian holds non-finite values, no
    class has two samples, or any correlation/E value is non-finite, so
    degenerate genotypes can never win a selection.
    """
    net = build_network(arch, cfg, rng)
    jac = input_jacobian(net, batch, labels)
    if not np.all(np.isfinite(jac.J)):
        return ProxyScore.sentinel()
    corrs = per_class_correlation(jac)
    if not corrs:
        return ProxyScore.sentinel()
    if any(not np.all(np.isfinite(c.sigma)) for c in corrs):
        return ProxyScore.sentinel()
    e = [eval_matrix(c, params) for c in corrs]
    if not all(np.isfinite(e)):
        return ProxyScore.sentinel()
    z = score(e, K=len(np.unique(jac.labels)), params=params)
    if not np.isfinite(z):
        return ProxyScore.sentinel()
    return ProxyScore(value=z, per_class=tuple(e))
