import numpy as np
import pytest

from evonas.cellspace import ArchEncoding, OpKind, random_arch
from evonas.rng import RngStream
from numpy.lib.stride_tricks import sliding_window_view

from evonas.tensornet import (
    Cell,
    JacobianBatch,
    SkeletonConfig,
    _AvgPool3x3,
    _conv_backward_input,
    _conv_forward,
    _edge_module,
    build_network,
    finite_diff_jacobian,
    forward,
    input_jacobian,
    relu_kink_margin,
)

ALL_ZERO = ArchEncoding((OpKind.ZEROIZE,) * 6)
ALL_SKIP = ArchEncoding((OpKind.SKIP_CONNECT,) * 6)

SMALL = SkeletonConfig(input_channels=2, input_hw=8, stem_channels=4, num_classes=5)


def small_batch(seed, n=3, cfg=SMALL):
    return RngStream(seed, ("batch",)).normal(
        size=(n, cfg.input_channels, cfg.input_hw, cfg.input_hw)
    )


def test_skeleton_config_validation():
    with pytest.raises(ValueError):
        SkeletonConfig(input_hw=10)  # not divisible by 2**(stages-1)
    with pytest.raises(ValueError):
        SkeletonConfig(stem_channels=0)
    assert SkeletonConfig().input_dim == 3 * 16 * 16


def test_jacobian_batch_validation():
    with pytest.raises(ValueError):
        JacobianBatch(J=np.zeros((1, 4)), labels=np.array([0]))
    with pytest.raises(ValueError):
        JacobianBatch(J=np.zeros((3, 4)), labels=np.array([0, 1]))


def test_all_skip_cell_quadruples_input():
    # node1 = x, node2 = x + node1, node3 = x + node1 + node2 = 4x
    cell = Cell([_edge_module(OpKind.SKIP_CONNECT, 4, 1e-5, None) for _ in range(6)])
    x = RngStream(0).normal(size=(2, 4, 8, 8))
    y, _ = cell.forward(x)
    assert np.allclose(y, 4.0 * x, rtol=0, atol=1e-12)


def test_all_zero_cell_outputs_zero():
    cell = Cell([_edge_module(OpKind.ZEROIZE, 4, 1e-5, None) for _ in range(6)])
    x = RngStream(1).normal(size=(2, 4, 8, 8))
    y, _ = cell.forward(x)
    assert np.array_equal(y, np.zeros_like(x))


def test_build_deterministic_parameters():
    arch = random_arch(RngStream(5))
    net_a = build_network(arch, SMALL, RngStream(7, ("init",)))
    net_b = build_network(arch, SMALL, RngStream(7, ("init",)))
    flat_a = _collect_weights(net_a)
    flat_b = _collect_weights(net_b)
    assert len(flat_a) == len(flat_b) > 0
    for wa, wb in zip(flat_a, flat_b):
        assert np.array_equal(wa, wb)


def _collect_weights(net):
    out = []

    def visit(block):
        if hasattr(block, "w"):
            out.append(block.w)
        for sub in getattr(block, "layers", []) + getattr(block, "ops", []):
            visit(sub)

    for block in net.blocks:
        visit(block)
    return out


def test_forward_shapes_and_batch_checks():
    arch = random_arch(RngStream(6))
    net = build_network(arch, SMALL, RngStream(8, ("init",)))
    logits = forward(net, small_batch(0))
    assert logits.shape == (3, SMALL.num_classes)
    with pytest.raises(ValueError):
        forward(net, small_batch(0)[:1])  # N must be >= 2
    with pytest.raises(ValueError):
        forward(net, np.zeros((3, 2, 4, 4)))


def test_zeroize_network_constant_logits():
    net = build_network(ALL_ZERO, SMALL, RngStream(9, ("init",)))
    a = forward(net, small_batch(1))
    b = forward(net, small_batch(2))
    # the cell kills all input dependence: logits identical across samples
    assert np.allclose(a, a[0], rtol=0, atol=1e-12)
    assert np.allclose(a, b, rtol=0, atol=1e-12)


def test_forward_permutation_equivariance():
    arch = random_arch(RngStream(10))
    net = build_network(arch, SMALL, RngStream(11, ("init",)))
    batch = small_batch(3, n=4)
    perm = [2, 0, 3, 1]
    assert np.allclose(
        forward(net, batch[perm]), forward(net, batch)[perm], rtol=0, atol=1e-12
    )


def test_forward_duplicated_batch():
    arch = random_arch(RngStream(12))
    net = build_network(arch, SMALL, RngStream(13, ("init",)))
    batch = small_batch(4, n=3)
    base = forward(net, batch)
    doubled = forward(net, np.concatenate([batch, batch]))
    assert np.allclose(doubled[:3], base, rtol=0, atol=1e-10)
    assert np.allclose(doubled[3:], base, rtol=0, atol=1e-10)


def test_zeroize_network_zero_jacobian():
    net = build_network(ALL_ZERO, SMALL, RngStream(14, ("init",)))
    jac = input_jacobian(net, small_batch(5), [0, 1, 2])
    assert np.array_equal(jac.J, np.zeros_like(jac.J))


def test_jacobian_labels_validated():
    net = build_network(ALL_SKIP, SMALL, RngStream(15, ("init",)))
    with pytest.raises(ValueError):
        input_jacobian(net, small_batch(6), [0, 1])
    with pytest.raises(ValueError):
        input_jacobian(net, small_batch(6), [0, 1, SMALL.num_classes])


def test_jacobian_matches_finite_differences():
    arch = random_arch(RngStream(16))
    net = build_network(arch, SMALL, RngStream(17, ("init",)))
    batch = small_batch(7)
    # margin beyond the step: no kink inside any central-difference interval
    assert relu_kink_margin(net, batch) > 2e-4
    jac = input_jacobian(net, batch, [0, 1, 2])
    fd = finite_diff_jacobian(net, batch, 1e-4)
    err = np.linalg.norm(jac.J - fd) / np.linalg.norm(fd)
    assert err <= 1e-3


def test_jacobian_permutation_equivariance():
    arch = random_arch(RngStream(18))
    net = build_network(arch, SMALL, RngStream(19, ("init",)))
    batch = small_batch(8, n=4)
    labels = np.array([0, 1, 2, 0])
    perm = [3, 1, 0, 2]
    jac = input_jacobian(net, batch, labels)
    jac_p = input_jacobian(net, batch[perm], labels[perm])
    assert np.allclose(jac_p.J, jac.J[perm], rtol=0, atol=1e-12)
    assert np.array_equal(jac_p.labels, labels[perm])


def test_finite_diff_zero_network():
    net = build_network(ALL_ZERO, SMALL, RngStream(20, ("init",)))
    fd = finite_diff_jacobian(net, small_batch(9, n=2), 1e-4)
    assert np.array_equal(fd, np.zeros_like(fd))
    with pytest.raises(ValueError):
        finite_diff_jacobian(net, small_batch(9, n=2), 0.0)


def test_finite_diff_quadratic_convergence_on_smooth_net():
    # pool/skip edges only; seeds chosen so no preactivation sits within
    # the largest step of a ReLU kink, keeping the error purely quadratic
    cfg = SkeletonConfig(input_channels=2, input_hw=8, stem_channels=4, num_classes=4)
    arch = ArchEncoding(
        (OpKind.AVGPOOL3X3, OpKind.SKIP_CONNECT, OpKind.AVGPOOL3X3,
         OpKind.SKIP_CONNECT, OpKind.AVGPOOL3X3, OpKind.SKIP_CONNECT)
    )
    net = build_network(arch, cfg, RngStream(927, ("init",)))
    batch = RngStream(27, ("b",)).normal(size=(2, 2, 8, 8))
    assert relu_kink_margin(net, batch) > 4e-3
    J = input_jacobian(net, batch, [0, 1]).J
    err_coarse = np.linalg.norm(finite_diff_jacobian(net, batch, 2e-3) - J)
    err_fine = np.linalg.norm(finite_diff_jacobian(net, batch, 1e-3) - J)
    assert 2.5 < err_coarse / err_fine < 6.0


def test_benchmark_scale_config_builds():
    cfg = SkeletonConfig(input_hw=32, stem_channels=16, cells_per_stage=2)
    arch = random_arch(RngStream(21))
    net = build_network(arch, cfg, RngStream(22, ("init",)))
    batch = RngStream(23).normal(size=(2, 3, 32, 32))
    assert forward(net, batch).shape == (2, 10)


# ---------------------------------------------------------------------------
# kernels against the reference kernels they replaced


def reference_conv_backward_input(gy, w, x_shape, stride, pad):
    n, c, h, width = x_shape
    kh, kw = w.shape[2:]
    ho, wo = gy.shape[2:]
    gxp = np.zeros((n, c, h + 2 * pad, width + 2 * pad))
    # tap (i, j) of the kernel scatters gy onto a strided slice of the input
    g_all = np.tensordot(gy, w, axes=(1, 0))  # (n, ho, wo, c, kh, kw)
    for i in range(kh):
        for j in range(kw):
            gxp[:, :, i : i + stride * ho : stride, j : j + stride * wo : stride] += (
                g_all[..., i, j].transpose(0, 3, 1, 2)
            )
    if pad:
        return gxp[:, :, pad : pad + h, pad : pad + width]
    return gxp


def reference_avgpool_forward(x):
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    win = sliding_window_view(xp, (3, 3), axis=(2, 3))
    return win.mean(axis=(4, 5))


def reference_avgpool_backward(x_shape, gy):
    n, c, h, w = x_shape
    gxp = np.zeros((n, c, h + 2, w + 2))
    for i in range(3):
        for j in range(3):
            gxp[:, :, i : i + h, j : j + w] += gy
    return gxp[:, :, 1 : 1 + h, 1 : 1 + w] / 9.0


SKELETONS = {
    "small": SMALL,
    "desk": SkeletonConfig(),
    "wide": SkeletonConfig(input_hw=32, stem_channels=16, cells_per_stage=1),
}


def layer_configs():
    """Every conv and pooling shape a skeleton builds, as pytest params.

    Conv: (c_in, c_out, hw, k, stride); pooling: (channels, hw).
    """
    out = []
    for name, cfg in SKELETONS.items():
        c, hw = cfg.stem_channels, cfg.input_hw
        out.append(pytest.param(name, "conv", (cfg.input_channels, c, hw, 3, 1), id=f"{name}-stem"))
        for stage in range(cfg.num_stages):
            for k in (1, 3):
                out.append(pytest.param(name, "conv", (c, c, hw, k, 1), id=f"{name}-s{stage}-conv{k}x{k}"))
            out.append(pytest.param(name, "pool", (c, hw), id=f"{name}-s{stage}-pool"))
            if stage < cfg.num_stages - 1:
                out.append(pytest.param(name, "conv", (c, 2 * c, hw, 3, 2), id=f"{name}-s{stage}-reduce"))
                c, hw = 2 * c, hw // 2
    return out


def assert_same(new, old):
    assert new.shape == old.shape
    assert np.max(np.abs(new - old)) <= 1e-12 * np.max(np.abs(old))


@pytest.mark.parametrize("skeleton,kind,shape", layer_configs())
def test_kernels_match_reference(skeleton, kind, shape):
    stream = RngStream(31, ("kernels", skeleton) + shape)
    n = 4
    if kind == "pool":
        c, hw = shape
        x = stream.normal(size=(n, c, hw, hw))
        gy = stream.normal(size=(n, c, hw, hw))
        pool = _AvgPool3x3()
        y, cache = pool.forward(x)
        assert_same(y, reference_avgpool_forward(x))
        assert_same(pool.backward(cache, gy), reference_avgpool_backward(x.shape, gy))
        return
    c_in, c_out, hw, k, stride = shape
    pad = (k - 1) // 2
    ho = (hw + 2 * pad - k) // stride + 1
    w = stream.normal(size=(c_out, c_in, k, k))
    gy = stream.normal(size=(n, c_out, ho, ho))
    x_shape = (n, c_in, hw, hw)
    gx = _conv_backward_input(gy, w, x_shape, stride, pad)
    assert gx.flags.c_contiguous
    assert_same(gx, reference_conv_backward_input(gy, w, x_shape, stride, pad))


@pytest.mark.parametrize("k,stride", [(1, 1), (3, 1), (3, 2)])
def test_conv_backward_is_adjoint_of_forward(k, stride):
    stream = RngStream(32, ("adjoint", k, stride))
    pad = (k - 1) // 2
    x = stream.normal(size=(3, 4, 8, 8))
    w = stream.normal(size=(6, 4, k, k))
    y = _conv_forward(x, w, stride, pad)
    gy = stream.normal(size=y.shape)
    lhs = np.vdot(y, gy)
    rhs = np.vdot(x, _conv_backward_input(gy, w, x.shape, stride, pad))
    assert abs(lhs - rhs) <= 1e-12 * np.vdot(np.abs(y), np.abs(gy))
