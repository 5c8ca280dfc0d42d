import math

import numpy as np
import pytest

from evonas.cellspace import ArchEncoding, OpKind, random_arch
from evonas.rng import RngStream
from evonas.tensornet import JacobianBatch, SkeletonConfig
from evonas.zeroproxy import (
    ClassCorr,
    ProxyParams,
    ProxyScore,
    WORST_SCORE,
    eval_matrix,
    per_class_correlation,
    score,
    score_arch,
)

PARAMS = ProxyParams()
SMALL = SkeletonConfig(input_channels=2, input_hw=8, stem_channels=4, num_classes=5)


def jac(rows, labels):
    return JacobianBatch(J=np.asarray(rows, dtype=float), labels=np.asarray(labels))


def test_proxy_params_validation():
    with pytest.raises(ValueError):
        ProxyParams(t=0.0)
    with pytest.raises(ValueError):
        ProxyParams(tau=0)
    assert PARAMS.t == 1e-5
    assert PARAMS.tau == 100


def test_identical_rows_perfect_correlation():
    row = [1.0, -2.0, 3.0, 0.5]
    (corr,) = per_class_correlation(jac([row, row], [0, 0]))
    assert np.allclose(corr.sigma, [[1, 1], [1, 1]], rtol=0, atol=1e-12)


def test_negated_rows_anticorrelation():
    row = np.array([1.0, -2.0, 3.0, 0.5])
    (corr,) = per_class_correlation(jac([row, -row], [4, 4]))
    assert corr.class_id == 4
    assert np.allclose(corr.sigma, [[1, -1], [-1, 1]], rtol=0, atol=1e-12)


def test_correlation_matches_textbook_pearson():
    rng = np.random.default_rng(3)
    rows = rng.normal(size=(3, 8))
    (corr,) = per_class_correlation(jac(rows, [1, 1, 1]))
    # direct covariance / stddev computation
    expected = np.empty((3, 3))
    for i in range(3):
        for j in range(3):
            xi = rows[i] - rows[i].mean()
            xj = rows[j] - rows[j].mean()
            expected[i, j] = (xi * xj).mean() / (xi.std() * xj.std())
    assert np.allclose(corr.sigma, expected, rtol=0, atol=1e-12)
    assert np.allclose(corr.sigma, corr.sigma.T, rtol=0, atol=1e-15)


def test_small_classes_omitted():
    out = per_class_correlation(jac(np.eye(4), [0, 1, 1, 2]))
    assert [c.class_id for c in out] == [1]


def test_degenerate_row_marks_off_diagonal():
    rows = [[1.0, 1.0, 1.0, 1.0], [0.5, -0.5, 1.5, 2.0], [2.0, 1.0, 0.0, -1.0]]
    (corr,) = per_class_correlation(jac(rows, [0, 0, 0]))
    assert np.array_equal(np.diag(corr.sigma), np.ones(3))
    assert np.isnan(corr.sigma[0, 1]) and np.isnan(corr.sigma[1, 0])
    assert np.isnan(corr.sigma[0, 2]) and np.isnan(corr.sigma[2, 0])
    assert np.isfinite(corr.sigma[1, 2])


def test_eval_matrix_single_entry():
    value = eval_matrix(ClassCorr(0, np.array([[1.0]])), PARAMS)
    assert abs(value - 9.99995000040e-06) < 1e-15


def test_eval_matrix_two_by_two():
    value = eval_matrix(ClassCorr(0, np.array([[1.0, 0.5], [0.5, 1.0]])), PARAMS)
    expected = (2 * math.log(1 + 1e-5) + 2 * math.log(0.5 + 1e-5)) / 2
    assert abs(value - expected) < 1e-12
    assert abs(value - (-0.693117)) < 1e-5


def test_eval_matrix_all_zeros():
    value = eval_matrix(ClassCorr(0, np.zeros((2, 2))), PARAMS)
    assert abs(value - 2 * math.log(1e-5)) < 1e-12
    assert abs(value - (-23.02585)) < 1e-4


def test_eval_matrix_propagates_non_finite():
    sigma = np.array([[1.0, np.nan], [np.nan, 1.0]])
    assert math.isnan(eval_matrix(ClassCorr(0, sigma), PARAMS))


def test_eval_matrix_permutation_invariant():
    rng = np.random.default_rng(8)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        m = rng.uniform(-1, 1, size=(n, n))
        sigma = (m + m.T) / 2
        np.fill_diagonal(sigma, 1.0)
        perm = rng.permutation(n)
        assert abs(
            eval_matrix(ClassCorr(0, sigma), PARAMS)
            - eval_matrix(ClassCorr(0, sigma[np.ix_(perm, perm)]), PARAMS)
        ) < 1e-12


def test_score_single_class():
    assert score([-5.0], K=1, params=PARAMS) == 5.0


def test_score_sum_branch():
    assert score([-1.0, -3.0], K=2, params=PARAMS) == 4.0


def test_score_pairwise_branch():
    params = ProxyParams(tau=2)
    assert abs(score([1.0, 2.0, 4.0], K=3, params=params) - 2.0) < 1e-12


def test_score_empty_is_sentinel():
    assert score([], K=0, params=PARAMS) == WORST_SCORE


def test_score_monotone_in_magnitudes():
    rng = np.random.default_rng(5)
    e = rng.normal(size=6)
    base = score(e, K=6, params=PARAMS)
    for w in range(6):
        bigger = e.copy()
        bigger[w] *= 1.5
        assert score(bigger, K=6, params=PARAMS) >= base


def test_sentinel_orders_below_everything():
    assert ProxyScore.sentinel().value < -1e300
    assert ProxyScore.sentinel().is_sentinel
    assert not ProxyScore(0.0).is_sentinel


@pytest.mark.parametrize("value, per_class", [(math.nan, ()), (math.inf, ()), (1.0, (math.nan,))])
def test_non_finite_proxy_score_is_sentinel(value, per_class):
    ps = ProxyScore(value, per_class=per_class)
    assert ps.is_sentinel
    assert ps.per_class == ()


def batch_and_labels(seed, n_classes=3, per_class=2):
    batch = RngStream(seed, ("zp-batch",)).normal(
        size=(n_classes * per_class, SMALL.input_channels, SMALL.input_hw, SMALL.input_hw)
    )
    labels = np.repeat(np.arange(n_classes), per_class)
    return batch, labels


def test_score_arch_zeroize_sentinel():
    batch, labels = batch_and_labels(0)
    arch = ArchEncoding((OpKind.ZEROIZE,) * 6)
    result = score_arch(arch, batch, labels, SMALL, PARAMS, RngStream(1, ("net",)))
    assert result.is_sentinel


def test_score_arch_deterministic():
    batch, labels = batch_and_labels(2)
    arch = random_arch(RngStream(3))
    a = score_arch(arch, batch, labels, SMALL, PARAMS, RngStream(4, ("net",)))
    b = score_arch(arch, batch, labels, SMALL, PARAMS, RngStream(4, ("net",)))
    assert a == b
    assert not a.is_sentinel
    assert len(a.per_class) == 3


def test_score_arch_matches_straight_line_reimplementation():
    # independent chain: numpy corrcoef + explicit formula transcription
    from evonas.tensornet import build_network, input_jacobian

    batch, labels = batch_and_labels(6, n_classes=4, per_class=3)
    for arch_seed in range(5):
        arch = random_arch(RngStream(arch_seed, ("sa",)))
        result = score_arch(arch, batch, labels, SMALL, PARAMS, RngStream(7, ("net",)))
        if result.is_sentinel:
            continue
        net = build_network(arch, SMALL, RngStream(7, ("net",)))
        J = input_jacobian(net, batch, labels).J
        e = []
        for k in np.unique(labels):
            sigma = np.corrcoef(J[labels == k])
            e.append(np.sum(np.log(np.abs(sigma) + 1e-5)) / np.sqrt(sigma.size))
        k_count = len(np.unique(labels))
        if k_count <= PARAMS.tau:
            z = float(np.sum(np.abs(e)))
        else:
            z = float(
                sum(abs(e[i] - e[j]) for i in range(len(e)) for j in range(i + 1, len(e)))
                / len(e)
            )
        assert abs(z - result.value) <= 1e-9 * max(1.0, abs(z))


def test_score_arch_invariant_under_batch_permutation():
    batch, labels = batch_and_labels(8, n_classes=3, per_class=3)
    arch = random_arch(RngStream(9))
    perm = np.random.default_rng(10).permutation(len(labels))
    a = score_arch(arch, batch, labels, SMALL, PARAMS, RngStream(11, ("net",)))
    b = score_arch(arch, batch[perm], labels[perm], SMALL, PARAMS, RngStream(11, ("net",)))
    assert abs(a.value - b.value) < 1e-9


def test_score_arch_sentinel_when_no_class_qualifies():
    # every class is a singleton, so no correlation matrix can be formed
    batch, _ = batch_and_labels(12, n_classes=4, per_class=2)
    arch = random_arch(RngStream(13))
    result = score_arch(
        arch, batch[:5], np.arange(5), SMALL, PARAMS, RngStream(14, ("net",))
    )
    assert result.is_sentinel


def test_score_arch_non_finite_jacobian_is_sentinel(monkeypatch):
    # one NaN pixel reaches every Jacobian row through batch norm; the score
    # must stop at the Jacobian check, before any correlation is formed
    import evonas.zeroproxy as zeroproxy

    batch, labels = batch_and_labels(15)
    batch[0, 0, 3, 4] = np.nan
    arch = ArchEncoding((OpKind.CONV3X3,) * 6)

    def unreachable(jac):
        raise AssertionError("a non-finite Jacobian reached per_class_correlation")

    monkeypatch.setattr(zeroproxy, "per_class_correlation", unreachable)
    result = score_arch(arch, batch, labels, SMALL, PARAMS, RngStream(16, ("net",)))
    assert result.is_sentinel and result.per_class == ()
