import itertools
import math

import numpy as np
import pytest
from scipy import special as scipy_special
from scipy import stats as scipy_stats

from evonas.stats import TauAgainst, _t_two_sided_p, kendall_tau, mean_std, welch_ttest

# Fixture computed with two independent implementations (scipy.stats
# ttest_ind(equal_var=False) and an mpmath transcription of the Welch
# formulas); both agree to 12 digits.
WELCH_A = [27.5, 21.0, 19.0, 23.6, 17.0, 17.9, 16.9, 20.1, 21.9, 22.6, 23.1, 19.6, 19.0, 21.7, 21.4]
WELCH_B = [27.1, 22.0, 20.8, 23.4, 23.4, 23.5, 25.8, 22.0, 24.8, 20.2, 21.9, 22.8, 23.2]
WELCH_T = -2.588576618385
WELCH_P = 0.015894777836


def brute_force_tau_b(x, y):
    """Tau-b by enumerating every pair, the textbook way."""
    n = len(x)
    concordant = discordant = ties_x = ties_y = 0
    for i, j in itertools.combinations(range(n), 2):
        dx = x[i] - x[j]
        dy = y[i] - y[j]
        if dx == 0 and dy == 0:
            ties_x += 1
            ties_y += 1
        elif dx == 0:
            ties_x += 1
        elif dy == 0:
            ties_y += 1
        elif dx * dy > 0:
            concordant += 1
        else:
            discordant += 1
    n0 = n * (n - 1) / 2
    return (concordant - discordant) / math.sqrt((n0 - ties_x) * (n0 - ties_y))


def test_welch_identical_samples():
    t, p = welch_ttest([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert t == 0.0
    assert p == 1.0


def test_welch_fixture():
    t, p = welch_ttest(WELCH_A, WELCH_B)
    assert abs(t - WELCH_T) < 1e-6
    assert abs(p - WELCH_P) < 1e-6


def test_welch_matches_scipy_on_random_samples():
    rng = np.random.default_rng(4)
    for _ in range(50):
        a = rng.normal(size=rng.integers(2, 30))
        b = rng.normal(loc=rng.normal(), size=rng.integers(2, 30))
        t, p = welch_ttest(a, b)
        ref = scipy_stats.ttest_ind(a, b, equal_var=False)
        assert abs(t - ref.statistic) < 1e-10
        assert abs(p - ref.pvalue) < 1e-10


def test_welch_scale_invariance():
    t, p = welch_ttest(WELCH_A, WELCH_B)
    t10, p10 = welch_ttest(np.multiply(WELCH_A, 10), np.multiply(WELCH_B, 10))
    assert abs(t - t10) < 1e-12
    assert abs(p - p10) < 1e-12


def test_welch_symmetry():
    t, p = welch_ttest(WELCH_A, WELCH_B)
    t2, p2 = welch_ttest(WELCH_B, WELCH_A)
    assert abs(t + t2) < 1e-12
    assert abs(p - p2) < 1e-12


def test_welch_degenerate_inputs():
    with pytest.raises(ValueError):
        welch_ttest([1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        welch_ttest([3.0, 3.0], [5.0, 5.0])


def test_tau_identity_and_reversal():
    x = [3.0, 1.0, 4.0, 1.5, 9.0]
    assert abs(kendall_tau(x, x) - 1.0) < 1e-12
    assert abs(kendall_tau(x, [-v for v in x]) + 1.0) < 1e-12


def test_tau_fixture():
    assert abs(kendall_tau([1, 2, 3, 4], [1, 3, 2, 4]) - 4.0 / 6.0) < 1e-12


def test_tau_matches_brute_force_with_ties():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(3, 40))
        x = rng.integers(0, 6, size=n).astype(float)
        y = rng.integers(0, 6, size=n).astype(float)
        if np.all(x == x[0]) or np.all(y == y[0]):
            continue
        assert abs(kendall_tau(x, y) - brute_force_tau_b(x, y)) < 1e-12


def test_tau_monotone_transform_invariance():
    rng = np.random.default_rng(2)
    x = rng.normal(size=60)
    y = rng.normal(size=60)
    base = kendall_tau(x, y)
    assert abs(kendall_tau(np.exp(x), y) - base) < 1e-12
    assert abs(kendall_tau(x, 3 * y + 7) - base) < 1e-12


def test_tau_length_mismatch():
    with pytest.raises(ValueError):
        kendall_tau([1, 2, 3], [1, 2])


def test_mean_std():
    m, s = mean_std([2.0, 4.0, 6.0])
    assert m == 4.0
    assert abs(s - 2.0) < 1e-12
    assert mean_std([5.0]) == (5.0, 0.0)


# scipy is a test-only reference: the package itself does not import it


def _scipy_tau(x, y) -> float:
    return float(scipy_stats.kendalltau(x, y, variant="b").statistic)


def _same(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


def test_tau_equals_scipy_exactly_on_random_inputs():
    rng = np.random.default_rng(20)
    sizes = np.unique(np.geomspace(2, 15625, 60).astype(int))
    for n in sizes:
        x = rng.normal(size=n)
        cases = [
            (x, x * rng.normal() + rng.normal(size=n)),  # continuous
            (rng.integers(0, 3, n).astype(float), rng.integers(0, 7, n).astype(float)),  # heavy ties
            (np.round(x, 1), np.round(x + rng.normal(size=n), 1)),  # some ties
            (x, -x),
        ]
        for a, b in cases:
            assert _same(kendall_tau(a, b), _scipy_tau(a, b)), n


def test_tau_nan_all_tied_and_infinite_inputs_follow_scipy():
    cases = [
        ([1.0, 2.0, np.nan, 4.0], [1.0, 2.0, 3.0, 4.0]),
        ([1.0, 2.0, 3.0], [np.nan, 1.0, 2.0]),
        ([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]),
        ([1.0, 2.0, 3.0], [5.0, 5.0, 5.0]),
        ([1.0, 2.0], [1.0, 1.0]),
        ([np.inf, 1.0, -np.inf, 2.0], [1.0, 2.0, 3.0, 4.0]),
        ([np.inf, np.inf, 1.0], [1.0, 2.0, 3.0]),
        ([0.0, -0.0, 1.0], [1.0, 2.0, 3.0]),
    ]
    for x, y in cases:
        assert _same(kendall_tau(x, y), _scipy_tau(x, y)), (x, y)
    assert math.isnan(kendall_tau([1.0, 2.0, np.nan, 4.0], [1.0, 2.0, 3.0, 4.0]))
    assert math.isnan(kendall_tau([3.0] * 5, [1.0, 2.0, 3.0, 4.0, 5.0]))


def test_tau_rejects_bad_shapes_and_sizes():
    with pytest.raises(ValueError):
        kendall_tau([[1.0, 2.0]], [[1.0, 2.0]])
    with pytest.raises(ValueError):
        kendall_tau([1.0], [1.0])


def test_tau_against_each_call_equals_kendall_tau():
    """One TauAgainst over a sequence of x: large and small moves, a repeat,
    a tie made inside the moved set, NaN and constant x; each call equals a
    fresh kendall_tau whatever came before."""
    rng = np.random.default_rng(5)
    y = rng.integers(0, 40, size=500).astype(float)
    base, eta = rng.normal(size=500), rng.normal(size=500)
    xs = [base + amp * eta for amp in (0.0, 4.0, 2.0, 1.0, 1.5, 1.25, 1.3, 1.2999, 1.2999, 0.01)]
    order = np.argsort(xs[-1])
    tied = xs[-1].copy()
    tied[order[100]] = tied[order[103]]  # moves four elements, two of them now equal
    xs += [xs[-1], tied, xs[-1], np.where(np.arange(500) == 7, np.nan, xs[-1]), xs[-2], np.ones(500), xs[3]]
    tau = TauAgainst(y)
    for k, x in enumerate(xs):
        assert _same(tau(x), kendall_tau(x, y)), k
    with pytest.raises(ValueError):
        tau(np.ones(499))


def test_t_p_value_matches_scipy_stdtr_on_grid():
    worst = 0.0
    for df in np.geomspace(1.0, 1e4, 41):
        for t in np.linspace(0.0, 60.0, 241):
            ref = 2.0 * scipy_special.stdtr(df, -t)
            worst = max(worst, abs(_t_two_sided_p(float(t), float(df)) - ref))
            worst = max(worst, abs(_t_two_sided_p(-float(t), float(df)) - ref))
    assert worst <= 1e-10


def test_t_p_value_matches_closed_forms():
    # df = 1 (Cauchy) and df = 2 have elementary tails; these pin small |t|
    # too, where stdtr itself is off by up to 3e-9 at df = 1
    for t in np.geomspace(1e-12, 1e6, 91):
        t = float(t)
        assert abs(_t_two_sided_p(t, 1.0) - (1.0 - 2.0 / math.pi * math.atan(t))) < 1e-14
        assert abs(_t_two_sided_p(t, 2.0) - (1.0 - t / math.sqrt(2.0 + t * t))) < 1e-14
    assert _t_two_sided_p(0.0, 3.5) == 1.0
    assert math.isnan(_t_two_sided_p(math.nan, 3.0))
