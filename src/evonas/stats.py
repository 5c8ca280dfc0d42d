"""Small statistics toolkit: Welch's t-test, Kendall's tau-b, mean/std.

Only numpy and the standard library: the t-test's p-value is a regularized
incomplete beta function by continued fraction, and tau-b counts its
discordant pairs with a bottom-up merge sort in O(n log n) (Knight 1966).
`TauAgainst` measures many x against one y, recounting only the pairs
that can have changed since its last count.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["welch_ttest", "kendall_tau", "TauAgainst", "mean_std"]

_TINY = 1e-300  # stands in for a zero Lentz denominator
_CF_EPS = 1e-15
_CF_MAX_TERMS = 10_000


def _beta_cf(a: float, b: float, x: float) -> float:
    """The continued fraction cf in I_x(a, b) = x**a (1-x)**b / (a B(a, b)) * cf,
    by the modified Lentz method; it converges fast for x < (a+1) / (a+b+2)."""
    h, c, d = 1.0, math.inf, 1.0
    for m in range(_CF_MAX_TERMS):
        odd = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))
        even = (m + 1) * (b - m - 1) * x / ((a + 2 * m + 1) * (a + 2 * m + 2))
        for num in (odd, even):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > _TINY else _TINY)
            c = 1.0 + num / c
            c = c if abs(c) > _TINY else _TINY
            h *= c * d
        if abs(c * d - 1.0) < _CF_EPS:
            return h
    raise ArithmeticError(f"incomplete beta continued fraction did not converge (a={a}, b={b}, x={x})")


def _t_two_sided_p(t: float, df: float) -> float:
    """P(|T| >= |t|) for Student's t with `df` degrees of freedom.

    That is I_x(df/2, 1/2) at x = df / (df + t**2).  Both logs of the
    prefactor x**a (1-x)**b are log1p forms, so neither loses digits as x
    nears 0 or 1.
    Within 1e-11 of scipy.special.stdtr over df in [1, 1e4] and |t| <= 60,
    and within 1e-14 of the closed forms at df 1 and 2; for larger df the
    lgamma terms cost about eps * lgamma(df / 2) of relative accuracy.
    """
    if math.isnan(t) or math.isnan(df):
        return math.nan
    t2 = t * t
    if t2 == 0.0:
        return 1.0
    if math.isinf(t2):
        return 0.0
    a, b = 0.5 * df, 0.5
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    front = math.exp(-a * math.log1p(t2 / df) - b * math.log1p(df / t2) - log_beta)
    x = df / (df + t2)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, t2 / (df + t2)) / b


def welch_ttest(a, b) -> tuple[float, float]:
    """Welch's unequal-variance t statistic and two-sided p-value.

    Degrees of freedom follow Welch-Satterthwaite; the p-value comes from
    the t-distribution survival function.  Requires two samples of size
    >= 2 with nonzero variance in at least one of them.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.size < 2 or b.size < 2:
        raise ValueError("welch_ttest needs at least 2 observations per sample")
    va = a.var(ddof=1)
    vb = b.var(ddof=1)
    if va == 0.0 and vb == 0.0:
        raise ValueError("welch_ttest is undefined for two zero-variance samples")
    sa = va / a.size
    sb = vb / b.size
    t = float((a.mean() - b.mean()) / math.sqrt(sa + sb))
    df = float((sa + sb) ** 2 / (sa**2 / (a.size - 1) + sb**2 / (b.size - 1)))
    return t, _t_two_sided_p(t, df)


def _dense_ranks(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(order, ranks): the sorting permutation of `v` and its 0-based ranks,
    in which equal values share a rank and no rank is skipped."""
    order = np.argsort(v)
    ranked = v[order]
    ranks = np.empty(v.size, dtype=np.int64)
    ranks[order] = np.concatenate(([0], np.cumsum(ranked[1:] != ranked[:-1])))
    return order, ranks


def _tied_pairs(run_lengths: np.ndarray) -> int:
    return int((run_lengths * (run_lengths - 1) // 2).sum())


def _discordant_pairs(y: np.ndarray, bits: int) -> int:
    """Pairs i < j with y[i] > y[j], for integers 0 <= y < 2**bits.

    Bottom-up merge sort: at width w, every right block of w merges with the
    left block before it in one sort of (block pair, value, side) keys, left
    before right on equal values.  A right element then moves left by the
    number of left elements above it, so the pairs the level resolves are
    the positions of right elements before the merge minus those after it.
    """
    n = y.size
    dtype = np.int32 if n << (bits + 1) <= np.iinfo(np.int32).max else np.int64
    pos = np.arange(n, dtype=dtype)
    y = y.astype(dtype)
    mask = (1 << bits) - 1
    count = 0
    level = 0
    while 1 << level < n:
        side = (pos >> level) & 1
        merged = np.sort((pos >> (level + 1) << (bits + 1)) | (y << 1) | side)
        count += int((pos * side).sum(dtype=np.int64) - (pos * (merged & 1)).sum(dtype=np.int64))
        y = (merged >> 1) & mask
        level += 1
    return count


# An incremental recount is taken while at most this share of the elements
# moved; past it, two merge sorts of the moved set cost about a full count.
_MAX_MOVED_SHARE = 0.25


class TauAgainst:
    """Kendall's tau-b of many x against one fixed y, each count exact.

    `y` is ranked once.  After a count in which x has no ties, the order of
    x and its discordant pairs are kept, and the next x is recounted only
    among the elements that moved (see `_recount`).  Any tie in x, or a
    moved set above `_MAX_MOVED_SHARE`, falls back to the full count.
    Results do not depend on the call history: every call returns
    kendall_tau(x, y).
    """

    def __init__(self, y):
        y = np.asarray(y, dtype=np.float64)
        n = y.size
        self._shape = y.shape
        self._total = n * (n - 1) // 2
        self._ry = None if np.isnan(y).any() else _dense_ranks(y)[1]
        if self._ry is not None:
            self._y_ties = _tied_pairs(np.bincount(self._ry))
            self._bits = int(self._ry.max()).bit_length()
        self._order = None  # order of the last x counted, while it had no ties
        self._discordant = 0

    def __call__(self, x) -> float:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != self._shape:
            raise ValueError(f"x of shape {x.shape} against y of shape {self._shape}")
        total = self._total
        if self._ry is None or self._y_ties == total or np.isnan(x).any():
            return math.nan
        x_ties = joint_ties = 0
        if self._order is None or not self._recount(x):
            x_ties, joint_ties = self._count(x)
            if x_ties == total:
                return math.nan
        # total = concordant + discordant + x_ties + y_ties - joint ties
        con_minus_dis = total - x_ties - self._y_ties + joint_ties - 2 * self._discordant
        tau = con_minus_dis / math.sqrt(total - x_ties) / math.sqrt(total - self._y_ties)
        return min(1.0, max(-1.0, tau))

    def _count(self, x: np.ndarray) -> tuple[int, int]:
        """Count every pair; returns (x ties, joint ties)."""
        order, rx = _dense_ranks(x)
        x_ties = _tied_pairs(np.bincount(rx))
        bits = self._bits
        if x_ties:
            joint = np.sort((rx << bits) | self._ry)  # by x rank, then y rank
            runs = np.diff(np.flatnonzero(np.concatenate(([True], joint[1:] != joint[:-1], [True]))))
            ys, joint_ties = joint & ((1 << bits) - 1), _tied_pairs(runs)
        else:
            ys, joint_ties = self._ry[order], 0
        self._discordant = _discordant_pairs(ys, bits)
        self._order = None if x_ties else order
        return x_ties, joint_ties

    def _recount(self, x: np.ndarray) -> bool:
        """Update the count from the last order; False if it cannot.

        With `q` the new values in the last order, element k is in place when
        max(q[:k]) < q[k] < min(q[k+1:]): it keeps its order against every
        other element, so a pair can change order only if neither of its
        elements is in place.  The moved elements fill their positions in
        new-value order, and the discordant pairs change by those among the
        moved set in its new order minus those in its old order.  A tie in
        the new values can only fall between two moved elements.
        """
        order = self._order
        q = x[order]
        before = np.concatenate(([-np.inf], np.maximum.accumulate(q)[:-1]))
        after = np.concatenate((np.minimum.accumulate(q[::-1])[-2::-1], [np.inf]))
        moved = np.flatnonzero(~((before < q) & (q < after)))
        if moved.size > _MAX_MOVED_SHARE * q.size:
            return False
        old = order[moved]
        new = old[np.argsort(q[moved])]
        values = x[new]
        if (values[1:] == values[:-1]).any():
            return False
        ry, bits = self._ry, self._bits
        self._discordant += _discordant_pairs(ry[new], bits) - _discordant_pairs(ry[old], bits)
        order[moved] = new
        return True


def kendall_tau(x, y) -> float:
    """Kendall's tau-b (tie-corrected) rank correlation over all pairs.

    The pair counts are exact integers and the final formula is scipy's, so
    the value equals scipy.stats.kendalltau(x, y, variant="b") bit for bit.
    A NaN in either input, or an input whose values are all equal, gives
    NaN; infinities rank as values.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError(f"kendall_tau needs equal-length 1-D inputs, got {x.shape} vs {y.shape}")
    if x.size < 2:
        raise ValueError("kendall_tau needs at least 2 observations")
    return TauAgainst(y)(x)


def mean_std(values) -> tuple[float, float]:
    """Mean and sample standard deviation (ddof=1; 0.0 for a single value)."""
    values = np.asarray(values, dtype=np.float64)
    std = float(values.std(ddof=1)) if values.size > 1 else 0.0
    return float(values.mean()), std
