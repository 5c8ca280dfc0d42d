import math
import os
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from evonas.cellspace import EDGES, ArchEncoding, OpKind, canonical, enumerate_all, random_arch
from evonas.rng import RngStream
from evonas.zeroproxy import ProxyParams, score_arch
from numpy.lib.stride_tricks import sliding_window_view

import evonas.tensornet as tensornet
from evonas.tensornet import (
    _BLOCK_BYTES,
    _OUT,
    _WS,
    JacobianBatch,
    Network,
    SkeletonConfig,
    _AvgPool3x3,
    _axis_taps,
    _bn_backward,
    _bn_forward,
    _box3,
    _conv_backward_input,
    _conv_forward,
    _ConvBN,
    _he_conv,
    _Head,
    _Identity,
    _ReLU,
    _shift,
    build_network,
    finite_diff_jacobian,
    forward,
    input_jacobian,
    relu_kink_margin,
)

ALL_ZERO = ArchEncoding((OpKind.ZEROIZE,) * 6)
ALL_SKIP = ArchEncoding((OpKind.SKIP_CONNECT,) * 6)

N1, SK, C1, C3, PL = OpKind.ZEROIZE, OpKind.SKIP_CONNECT, OpKind.CONV1X1, OpKind.CONV3X3, OpKind.AVGPOOL3X3
# edge order (0->1), (0->2), (1->2), (0->3), (1->3), (2->3); a skip edge copies a slot that is read
# again, so two slots hold one buffer: in the forward pass, and (a skip into a node an earlier
# edge also feeds) in the gradient's
SHARED_SLOT = {
    "skip-shares-a-slot": ArchEncoding((SK, C3, C1, SK, C3, PL)),
    "skips-and-one-conv": ArchEncoding((SK, SK, SK, SK, C3, SK)),
}

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
    net = build_network(ALL_SKIP, SMALL, RngStream(0, ("init",)))
    cell = net.steps[1:7]  # after the stem's one step
    assert all(isinstance(layer, _Identity) for layer, _, _ in cell)
    # run the cell alone: its input slot becomes the input, node 3 the output;
    # _run takes NCHW and leaves the cell output channel-major
    renumber = {cell[0][1]: 0, cell[-1][2]: _OUT}
    alone = Network(ALL_SKIP, SMALL, [(l, renumber.get(s, s), renumber.get(d, d)) for l, s, d in cell])
    x = RngStream(0).normal(size=(2, 4, 8, 8))
    assert np.allclose(alone._run(x), 4.0 * x.transpose(1, 0, 2, 3), rtol=0, atol=1e-12)


def test_all_zero_cell_outputs_zero():
    net = build_network(ALL_ZERO, SMALL, RngStream(1, ("init",)))
    assert net.steps == []
    logits = forward(net, small_batch(1))
    assert np.array_equal(logits, np.zeros((3, SMALL.num_classes)))


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
    return [layer.w for layer, _, _ in net.steps if hasattr(layer, "w")]


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
    for labels in ([0, 1.7, 2], np.array([0, 1, 2]) + 0.7):  # read as [0, 1, 2] and [0, 1, 2] by a truncating cast
        with pytest.raises(ValueError):
            input_jacobian(net, small_batch(6), labels)
        with pytest.raises(ValueError):
            JacobianBatch(J=np.zeros((3, 4)), labels=labels)


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
    for step in (0.0, -1e-4, math.nan, math.inf):
        with pytest.raises(ValueError):
            finite_diff_jacobian(net, small_batch(9, n=2), step)


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
# the NCHW layers the channel-major ones replaced, frozen as references


def ref_conv_forward(x, w, stride, pad):
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    kh, kw = w.shape[2:]
    win = sliding_window_view(x, (kh, kw), axis=(2, 3))[:, :, ::stride, ::stride]
    return np.einsum("nchwij,ocij->nohw", win, w, optimize=True)


def ref_conv_backward_input(gy, w, x_shape, stride, pad):
    n, c, h, width = x_shape
    o, _, kh, kw = w.shape
    ho, wo = gy.shape[2:]
    # all taps in one GEMM, laid out (c, kh, kw, n, ho, wo): each tap's block
    # is contiguous, and tap (i, j) scatters onto a strided slice of the input
    taps = w.reshape(o, -1).T @ gy.transpose(1, 0, 2, 3).reshape(o, -1)
    taps = taps.reshape(c, kh, kw, n, ho, wo)
    gxp = np.zeros((c, n, h + 2 * pad, width + 2 * pad))
    for i in range(kh):
        for j in range(kw):
            gxp[:, :, i : i + stride * ho : stride, j : j + stride * wo : stride] += taps[:, i, j]
    return np.ascontiguousarray(gxp[:, :, pad : pad + h, pad : pad + width].transpose(1, 0, 2, 3))


def ref_box3(x):
    """Zero-padded 3x3 box sum, separably: rows, then columns."""
    rows = x.copy()
    rows[:, :, 1:] += x[:, :, :-1]
    rows[:, :, :-1] += x[:, :, 1:]
    out = rows.copy()
    out[..., 1:] += rows[..., :-1]
    out[..., :-1] += rows[..., 1:]
    return out


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


class RefConv:
    def __init__(self, weight, stride, pad):
        self.w = weight
        self.stride = stride
        self.pad = pad

    def forward(self, x):
        return ref_conv_forward(x, self.w, self.stride, self.pad), x.shape

    def backward(self, cache, gy):
        return ref_conv_backward_input(gy, self.w, cache, self.stride, self.pad)


class RefBatchNorm:
    """Batch-statistics normalization: no affine, no running stats."""

    def __init__(self, eps):
        self.eps = eps

    def forward(self, x):
        mu = x.mean(axis=(0, 2, 3), keepdims=True)
        var = x.var(axis=(0, 2, 3), keepdims=True)
        inv = 1.0 / np.sqrt(var + self.eps)
        xhat = (x - mu) * inv
        return xhat, (xhat, inv)

    def backward(self, cache, gy):
        xhat, inv = cache
        m1 = gy.mean(axis=(0, 2, 3), keepdims=True)
        m2 = (gy * xhat).mean(axis=(0, 2, 3), keepdims=True)
        return inv * (gy - m1 - xhat * m2)


class RefReLU:
    def forward(self, x):
        mask = x > 0
        return np.where(mask, x, 0.0), mask

    def backward(self, cache, gy):
        return np.where(cache, gy, 0.0)


class RefAvgPool3x3:
    """3x3 average pooling, stride 1, pad 1, always dividing by 9.

    The box sum is symmetric, so the backward pass is the same pooling.
    """

    def forward(self, x):
        return ref_box3(x) / 9.0, None

    def backward(self, cache, gy):
        return ref_box3(gy) / 9.0


class RefIdentity:
    def forward(self, x):
        return x, None

    def backward(self, cache, gy):
        return gy


class RefGlobalAvgPool:
    def forward(self, x):
        return x.mean(axis=(2, 3)), x.shape

    def backward(self, cache, gy):
        n, c, h, w = cache
        return np.broadcast_to(gy[:, :, None, None], (n, c, h, w)) / (h * w)


class RefLinear:
    def __init__(self, weight):
        self.w = weight  # (num_classes, channels)

    def forward(self, x):
        return x @ self.w.T, None

    def backward(self, cache, gy):
        return gy @ self.w


# ---------------------------------------------------------------------------
# channel-major kernels against the NCHW layers, through transposes


def cnhw(a):
    return np.ascontiguousarray(a.transpose(1, 0, 2, 3))


SKELETONS = {
    "small": SMALL,
    "desk": SkeletonConfig(),
    "wide": SkeletonConfig(input_hw=32, stem_channels=16, cells_per_stage=1),
}


def layer_configs():
    """Every conv, pooling, batch norm and ReLU shape a skeleton builds, as
    pytest params.

    Conv: (c_in, c_out, hw, k, stride); the others: (channels, hw).  The
    stem's and a reduction's batch norm have the shape of the stage they
    feed.
    """
    out = []
    for name, cfg in SKELETONS.items():
        c, hw = cfg.stem_channels, cfg.input_hw
        out.append(pytest.param(name, "conv", (cfg.input_channels, c, hw, 3, 1), id=f"{name}-stem"))
        for stage in range(cfg.num_stages):
            for k in (1, 3):
                out.append(pytest.param(name, "conv", (c, c, hw, k, 1), id=f"{name}-s{stage}-conv{k}x{k}"))
            for kind in ("pool", "bn", "relu"):
                out.append(pytest.param(name, kind, (c, hw), id=f"{name}-s{stage}-{kind}"))
            if stage < cfg.num_stages - 1:
                out.append(pytest.param(name, "conv", (c, 2 * c, hw, 3, 2), id=f"{name}-s{stage}-reduce"))
                c, hw = 2 * c, hw // 2
        out.append(pytest.param(name, "gap", (c, hw), id=f"{name}-gap"))
    return out


def assert_same(new, old):
    assert new.shape == old.shape
    assert np.max(np.abs(new - old)) <= 1e-12 * np.max(np.abs(old))


ELEMENTWISE = {
    "pool": (_AvgPool3x3, RefAvgPool3x3),
    "relu": (_ReLU, RefReLU),
}


@pytest.mark.parametrize("skeleton,kind,shape", layer_configs())
def test_kernels_match_reference(skeleton, kind, shape):
    stream = RngStream(31, ("kernels", skeleton) + shape)
    n = 4
    if kind in ELEMENTWISE:
        c, hw = shape
        x = stream.normal(size=(n, c, hw, hw))
        gy = stream.normal(size=(n, c, hw, hw))
        live, ref = (make() for make in ELEMENTWISE[kind])
        y, cache = live.forward(cnhw(x), False)
        ref_y, ref_cache = ref.forward(x)
        assert_same(y, cnhw(ref_y))
        assert_same(live.backward(cache, cnhw(gy), False), cnhw(ref.backward(ref_cache, gy)))
        if kind == "pool":  # and against the sliding-window definition
            assert_same(y, cnhw(reference_avgpool_forward(x)))
            assert_same(live.backward(cache, cnhw(gy), False), cnhw(reference_avgpool_backward(x.shape, gy)))
        return
    if kind == "bn":  # the functions `_ConvBN` calls, in place over its conv's output
        c, hw = shape
        x, gy = stream.normal(size=(n, c, hw, hw)), stream.normal(size=(n, c, hw, hw))
        y = cnhw(x)
        inv = _bn_forward(y, 1e-5)
        ref_y, ref_cache = RefBatchNorm(1e-5).forward(x)
        assert_same(y, cnhw(ref_y))
        assert_same(_bn_backward(y, inv, cnhw(gy)), cnhw(RefBatchNorm(1e-5).backward(ref_cache, gy)))
        return
    if kind == "gap":  # the head: pooling, then the classifier
        c, hw = shape
        classes = SKELETONS[skeleton].num_classes
        x, w = stream.normal(size=(n, c, hw, hw)), stream.normal(size=(classes, c))
        gy = stream.normal(size=(n, classes))
        head, pool, linear = _Head(w), RefGlobalAvgPool(), RefLinear(w)
        y, cache = head.forward(cnhw(x), False)
        pooled, pool_cache = pool.forward(x)
        ref_y, _ = linear.forward(pooled)
        assert_same(y, ref_y)
        assert_same(head.backward(cache, gy, False), cnhw(pool.backward(pool_cache, linear.backward(None, gy))))
        return
    c_in, c_out, hw, k, stride = shape
    pad = (k - 1) // 2
    ho = (hw + 2 * pad - k) // stride + 1
    w = stream.normal(size=(c_out, c_in, k, k))
    gy = stream.normal(size=(n, c_out, ho, ho))
    x = stream.normal(size=(n, c_in, hw, hw))
    assert_same(_conv_forward(cnhw(x), w, stride, pad), cnhw(ref_conv_forward(x, w, stride, pad)))
    gx = _conv_backward_input(cnhw(gy), w, (c_in, n, hw, hw), stride, pad)
    assert gx.flags.c_contiguous
    assert_same(gx, cnhw(ref_conv_backward_input(gy, w, x.shape, stride, pad)))
    assert_same(gx, cnhw(reference_conv_backward_input(gy, w, x.shape, stride, pad)))
    # and with its batch norm, as one `_ConvBN` step
    conv, bn = RefConv(w, stride, pad), RefBatchNorm(1e-5)
    z, conv_cache = conv.forward(x)
    ref_y, bn_cache = bn.forward(z)
    layer = _ConvBN(w, stride, pad, 1e-5)
    y, cache = layer.forward(cnhw(x), False)
    assert_same(y, cnhw(ref_y))
    assert_same(layer.backward(cache, cnhw(gy), False), cnhw(conv.backward(conv_cache, bn.backward(bn_cache, gy))))


@pytest.mark.parametrize("k,stride", [(1, 1), (3, 1), (3, 2)])
def test_conv_backward_is_adjoint_of_forward(k, stride):
    stream = RngStream(32, ("adjoint", k, stride))
    pad = (k - 1) // 2
    x = stream.normal(size=(4, 3, 8, 8))  # (c, n, h, w)
    w = stream.normal(size=(6, 4, k, k))
    y = _conv_forward(x, w, stride, pad)
    gy = stream.normal(size=y.shape)
    lhs = np.vdot(y, gy)
    rhs = np.vdot(x, _conv_backward_input(gy, w, x.shape, stride, pad))
    assert abs(lhs - rhs) <= 1e-12 * np.vdot(np.abs(y), np.abs(gy))


# (k, stride, channels, hw) -> the sample blocks a batch of 7 walks, forward and input gradient: a 3x3
# stride-1 conv (c -> c channels) takes row taps, every other conv im2col
UNEVEN_BLOCKS = {
    (1, 1, 40, 32): ([3, 3, 1], [3, 3, 1]),
    (3, 1, 16, 16): ([5, 2], [5, 2]),
    (3, 1, 16, 20): ([3, 3, 1], [3, 3, 1]),
    (1, 2, 40, 64): ([3, 3, 1], [1] * 7),
    (3, 2, 16, 32): ([3, 3, 1], [3, 3, 1]),
}


def blocks_walked(monkeypatch):
    """The sample-block sizes of each `_blocked` call from here on, one list per call."""
    walked, blocked = [], tensornet._blocked

    def spy(lead, n, tail):
        buf, blocks = blocked(lead, n, tail)
        walked.append([b.stop - b.start for b in blocks])
        return buf, blocks

    monkeypatch.setattr(tensornet, "_blocked", spy)
    return walked


@pytest.mark.parametrize("k,stride,c,hw", list(UNEVEN_BLOCKS))
def test_conv_kernels_over_uneven_sample_blocks(k, stride, c, hw, monkeypatch):
    stream = RngStream(33, ("blocks", k, stride))
    n, pad = 7, (k - 1) // 2
    ho = (hw + 2 * pad - k) // stride + 1
    if stride == 1:  # the input gradient runs the forward kernel on gy, at hw
        assert ho == hw
    x = stream.normal(size=(n, c, hw, hw))
    w = stream.normal(size=(c, c, k, k))
    gy = stream.normal(size=(n, c, ho, ho))
    walked = blocks_walked(monkeypatch)
    y = _conv_forward(cnhw(x), w, stride, pad)
    gx = _conv_backward_input(cnhw(gy), w, (c, n, hw, hw), stride, pad)
    assert walked == [blocks for blocks in UNEVEN_BLOCKS[k, stride, c, hw] if blocks]
    assert_same(y, cnhw(ref_conv_forward(x, w, stride, pad)))
    assert_same(gx, cnhw(ref_conv_backward_input(gy, w, x.shape, stride, pad)))
    lhs, rhs = np.vdot(y, cnhw(gy)), np.vdot(cnhw(x), gx)
    assert abs(lhs - rhs) <= 1e-12 * np.vdot(np.abs(y), np.abs(cnhw(gy)))


# (c, o) on each side of o = 2c, few channels to many (as a stem's 3 to 16) and back: every 3x3
# stride-1 conv, forward (3 -> 4, 2 -> 6) and input gradient (4 -> 3, 6 -> 2), takes row taps
STRIDE1_CHANNELS = [(3, 4), (2, 6)]


@pytest.mark.parametrize("block_bytes", [1, 20000, _BLOCK_BYTES])
@pytest.mark.parametrize("hw", [1, 2, 5, 7, 9])
@pytest.mark.parametrize("k,stride", [(1, 1), (3, 1), (1, 2), (3, 2)])
def test_phase_kernels_match_reference(k, stride, hw, block_bytes, monkeypatch):
    """Every input phase, flat shift and wrapped edge: odd and even sizes down
    to 1 (a 1x1 stride-2 conv leaves three phases no tap reads), over blocks
    of one sample, of a few (7 samples walk uneven blocks) and of all seven;
    a 3x3 stride-1 conv through row taps, never im2col.  At c == o every
    same-shape forward, 1x1 included, and every stride-1 gradient, runs
    again written over its input (`out=x`, `out=gy`) and must give the same
    bits: the kernel follows from the geometry alone."""
    monkeypatch.setattr(tensornet, "_BLOCK_BYTES", block_bytes)
    calls, row_taps = [], tensornet._row_taps
    monkeypatch.setattr(tensornet, "_row_taps", lambda x, w, y: calls.append(w.shape) or row_taps(x, w, y))
    n, pad = 7, (k - 1) // 2
    ho = (hw + 2 * pad - k) // stride + 1
    for c, o in STRIDE1_CHANNELS + [(3, 3)]:
        stream = RngStream(50, ("phases", k, stride, hw, c, o))
        x = stream.normal(size=(n, c, hw, hw))
        w = stream.normal(size=(o, c, k, k))
        gy = stream.normal(size=(n, o, ho, ho))
        y = _conv_forward(cnhw(x), w, stride, pad).copy()
        assert_same(y, cnhw(ref_conv_forward(x, w, stride, pad)))
        gx = _conv_backward_input(cnhw(gy), w, (c, n, hw, hw), stride, pad).copy()
        assert_same(gx, cnhw(ref_conv_backward_input(gy, w, x.shape, stride, pad)))
        if y.shape == (c, n, hw, hw):
            xc = cnhw(x)
            assert _conv_forward(xc, w, stride, pad, out=xc) is xc and np.array_equal(xc, y)
        if stride == 1 and gx.shape == (o, n, ho, ho):
            gc = cnhw(gy)
            assert _conv_backward_input(gc, w, (c, n, hw, hw), stride, pad, out=gc) is gc and np.array_equal(gc, gx)
    same = [(3, 3, 3, 3)] * 4  # (3, 3): forward and gradient, each out of place and over its input
    assert calls == ([(4, 3, 3, 3), (3, 4, 3, 3), (6, 2, 3, 3), (2, 6, 3, 3)] + same if (k, stride) == (3, 1) else [])


@pytest.mark.parametrize("pad", [0, 1, 2])
@pytest.mark.parametrize("k,stride", [(1, 1), (3, 1), (1, 2), (3, 2)])
def test_axis_taps_match_brute_force(k, stride, pad):
    """Each tap's outputs are exactly those whose input ``stride * o + i - pad``
    lies inside the axis, its input slice lists those inputs, and its phase
    and offset split ``i - pad``; wherever the table does not raise."""
    for size in range(1, 10):
        out = (size + 2 * pad - k) // stride + 1
        if out < 1:
            continue
        try:
            taps = _axis_taps(size, k, stride, pad, out)
        except ValueError:
            continue
        assert len(taps) == k
        for i, (r, q, outs, ins) in enumerate(taps):
            inside = [o for o in range(out) if 0 <= stride * o + i - pad < size]
            assert list(range(out))[outs] == inside
            assert list(range(size))[ins] == [stride * o + i - pad for o in inside]
            assert i - pad == stride * q + r and 0 <= r < stride


@pytest.mark.parametrize("n", [0, 1, 2, 3, 5])
def test_flat_shift_stays_inside_the_block(n):
    """A shift as long as the block or longer copies nothing, and never wraps through a negative index."""
    for d in range(-7, 8):
        to, fr = _shift(d, n)
        inside = [k for k in range(n) if 0 <= k + d < n]
        assert list(range(n))[to] == inside
        assert list(range(n))[fr] == [k + d for k in inside]


def test_unsupported_conv_geometry_raises():
    with pytest.raises(ValueError):  # the last phase row lies past every output
        _conv_forward(np.zeros((2, 2, 8, 8)), np.zeros((2, 2, 3, 3)), 2, 0)


def test_stride2_gradient_with_wide_padding():
    """3x3, stride 2, pad 2, 8 to 5: input phase (0, 0) sums four taps, each
    at its own shift, and phase (1, 1) takes one; every phase is shorter than the output."""
    stream = RngStream(34, ("pad2",))
    x, w = stream.normal(size=(3, 2, 8, 8)), stream.normal(size=(4, 2, 3, 3))
    y = _conv_forward(cnhw(x), w, 2, 2)
    gy = stream.normal(size=(3, 4, 5, 5))
    gx = _conv_backward_input(cnhw(gy), w, (2, 3, 8, 8), 2, 2)
    assert_same(y, cnhw(ref_conv_forward(x, w, 2, 2)))
    assert_same(gx, cnhw(ref_conv_backward_input(gy, w, x.shape, 2, 2)))
    lhs, rhs = np.vdot(y, cnhw(gy)), np.vdot(cnhw(x), gx)
    assert abs(lhs - rhs) <= 1e-12 * np.vdot(np.abs(y), np.abs(cnhw(gy)))


POISON_CASES = [(hw, k, stride) for hw in (1, 2, 5, 8) for k, stride in ((1, 1), (3, 1), (1, 2), (3, 2))]


@pytest.mark.parametrize("hw,k,stride", POISON_CASES)
def test_conv_kernels_write_everything_they_read(hw, k, stride):
    """With the block buffer and the result buffers the workspace hands out
    filled with NaN, both kernels give the clean call's bits: no phase,
    padding or wrapped position is read unwritten."""
    n, pad = 5, (k - 1) // 2
    ho = (hw + 2 * pad - k) // stride + 1
    for c, o in STRIDE1_CHANNELS:
        stream = RngStream(51, ("poison", hw, k, stride, c, o))
        x, w = stream.normal(size=(c, n, hw, hw)), stream.normal(size=(o, c, k, k))
        gy = stream.normal(size=(o, n, ho, ho))

        def run(poison):
            if poison:
                _WS.block = np.full(_BLOCK_BYTES // 8, np.nan)  # the size a first block takes
                _WS.keep(np.full(gy.shape, np.nan))
                _WS.keep(np.full(x.shape, np.nan))
            y = _conv_forward(x, w, stride, pad).copy()
            return y, _conv_backward_input(gy, w, x.shape, stride, pad).copy()

        clean, poisoned = in_fresh_thread(run, False), in_fresh_thread(run, True)
        assert all(np.array_equal(a, b) for a, b in zip(clean, poisoned))


@pytest.mark.parametrize("skeleton", ["desk", "wide"])
def test_scoring_over_a_poisoned_workspace(skeleton):
    """A warm scoring whose kept buffers and block hold NaN (True for masks)
    gives a clean scoring's Jacobian, bit for bit."""
    cfg = SKELETONS[skeleton]
    batch = RngStream(52, ("poison", skeleton)).normal(size=(6, cfg.input_channels, cfg.input_hw, cfg.input_hw))
    labels = np.arange(6) % cfg.num_classes
    nets = [build_network(arch, cfg, RngStream(53, ("init",)))
            for arch in (ArchEncoding((OpKind.CONV3X3,) * 6), random_arch(RngStream(54)), random_arch(RngStream(55)))]

    def rescore():
        want = [input_jacobian(net, batch, labels).J for net in nets]
        got = []
        for net in nets:
            _WS.block.fill(np.nan)
            for kept in _WS.kept.values():
                for buf in kept.values():
                    buf.fill(np.nan if buf.dtype == np.float64 else True)
            got.append(input_jacobian(net, batch, labels).J)
        return want, got

    want, got = in_fresh_thread(rescore)
    assert all(np.array_equal(a, b) for a, b in zip(want, got))


def traced_peak(fn, *args):
    """(result, peak bytes allocated while `fn` ran, beyond its start)."""
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("stride", [1, 2])
def test_conv_kernels_allocate_their_result_and_one_block(stride):
    """At the wide skeleton's stage-0 shape a whole-batch im2col buffer is
    23.6 MB; each kernel holds one sample block instead."""
    c, n, hw, k, pad = 16, 20, 32, 3, 1
    o, ho = c * stride, hw // stride
    stream = RngStream(34, ("alloc", stride))
    x = stream.normal(size=(c, n, hw, hw))
    w = stream.normal(size=(o, c, k, k))
    gy = stream.normal(size=(o, n, ho, ho))
    block = max(_BLOCK_BYTES, 8 * c * k * k * ho * ho)  # at least one sample
    slack = 3 * 8 * np.getbufsize() + (64 << 10)  # a strided tap add's ufunc buffers, and small arrays
    y, peak = traced_peak(_conv_forward, x, w, stride, pad)
    assert peak <= y.nbytes + block + slack
    gx, peak = traced_peak(_conv_backward_input, gy, w, x.shape, stride, pad)
    assert peak <= gx.nbytes + block + slack


def test_batch_norm_allocates_nothing_activation_sized():
    """At the wide skeleton's stage-0 shape (a 2.6 MB activation) batch norm
    works in place: its variance and mean(gy * xhat) are row dot products."""
    stream = RngStream(56, ("bn",))
    x, gy = stream.normal(size=(16, 20, 32, 32)), stream.normal(size=(16, 20, 32, 32))

    def peaks():
        inv, forward_peak = traced_peak(_bn_forward, x, 1e-5)
        _, backward_peak = traced_peak(_bn_backward, x, inv, gy)
        return forward_peak, backward_peak

    slack = 3 * 8 * np.getbufsize() + (64 << 10)  # ufunc buffers, and per-channel arrays
    assert max(in_fresh_thread(peaks)) <= slack < x.nbytes // 8


def test_box3_over_uneven_channel_blocks():
    """At the wide skeleton's stage-0 shape (16 channels of 20 32x32 samples,
    blocks of 6 channels) a box sum walks blocks of 6, 6 and 4 channels; it
    holds its result and one block of row sums, not two activation-sized
    copies."""
    c, n, hw = 16, 20, 32
    assert _BLOCK_BYTES // (8 * n * hw * hw) == 6
    x = RngStream(37, ("box3",)).normal(size=(c, n, hw, hw))
    slack = 3 * 8 * np.getbufsize() + (64 << 10)  # strided adds' ufunc buffers, and small arrays
    y, peak = traced_peak(_box3, x)
    assert np.array_equal(y, ref_box3(x) / 9.0)
    assert peak <= y.nbytes + _BLOCK_BYTES + slack


@pytest.mark.parametrize("shape", [(3, 2, 1, 5), (3, 2, 5, 1), (2, 3, 1, 1), (2, 3, 2, 2), (4, 2, 2, 7), (5, 1, 7, 2)])
def test_box3_where_the_flat_shift_wraps(shape):
    """Rows and columns of length 1 or 2 are all edge: every output there is rewritten."""
    x = RngStream(38, ("box3",) + shape).normal(size=shape)
    y = _box3(x)
    assert np.array_equal(y, ref_box3(x) / 9.0)
    assert_same(y, cnhw(reference_avgpool_forward(cnhw(x))))


def in_fresh_thread(fn, *args):
    """fn(*args) in a new thread: its workspace starts empty (a cold scoring)."""
    with ThreadPoolExecutor(max_workers=1) as pool:
        return pool.submit(fn, *args).result()


def on_helper(fn, *args):
    """fn(*args) on the thread that runs a split batch's second half."""
    return tensornet._helper().submit(fn, *args).result()


def empty_helper_workspace():
    """Drop the helper thread's kept buffers: its next half-batch scoring is cold too."""
    on_helper(_WS.__init__)


def held_bytes():
    """Bytes the calling thread's workspace holds: its kept buffers and its block."""
    return sum(buf.nbytes for kept in _WS.kept.values() for buf in kept.values()) + _WS.block.nbytes


def test_jacobian_peak_is_the_tape_plus_two_activations():
    """Traced peak of one cold wide scoring of the all-3x3 cell (a fresh
    thread: an empty workspace), from its shapes.

    When backprop starts the tape holds every batch norm's float64 output
    and every ReLU's bool mask; as backprop pops them their buffers serve
    the gradients that follow (batch norm and conv gradients are written
    over them).  On top of the full tape the peak holds at most two stage-0
    activations (a kernel's input and result) and one conv block.  The
    batch splits: each half's thread, both with empty workspaces, holds its
    half of the tape and of those activations, and its own block.
    """
    n = 20
    net, batch, labels = wide_all_3x3(n)
    tape, sizes = wide_all_3x3_tape(n)
    empty_helper_workspace()
    _, peak = in_fresh_thread(traced_peak, input_jacobian, net, batch, labels)
    assert peak <= tape + 2 * 8 * sizes[0] + _BLOCK_BYTES


def wide_all_3x3_tape(n):
    """Bytes of the all-3x3 cell's tape at the wide skeleton, and each stage's activation size."""
    cfg = SKELETONS["wide"]
    sizes = [n * cfg.stem_channels * cfg.input_hw ** 2 // 2 ** s for s in range(cfg.num_stages)]
    cells = sum(6 * 8 * e + 3 * e for e in sizes)  # six conv edges, three shared ReLUs
    reductions = sum(e + 8 * e_next for e, e_next in zip(sizes, sizes[1:]))
    return 8 * sizes[0] + cells + reductions + sizes[-1], sizes  # stem, ..., head ReLU


def test_workspace_holds_one_tape_after_many_genotypes():
    """After 60 random genotypes and then the all-3x3 cell at the wide
    skeleton, the workspace holds no more than that cell's tape and one
    block: ReLU outputs, node sums and same-shape conv outputs are written
    over inputs nothing else holds, so the forward pass needs no buffer
    beyond those it keeps for the tape, besides transient ones.  The batch
    splits, so each of the two threads holds its half's tape and a block."""
    cfg = SKELETONS["wide"]
    net, batch, labels = wide_all_3x3()
    archs = [random_arch(RngStream(57, ("tape", k))) for k in range(60)]

    def held():
        for arch in archs:
            input_jacobian(build_network(arch, cfg, RngStream(58, ("init",))), batch, labels)
        input_jacobian(net, batch, labels)
        return held_bytes()

    block = max(_BLOCK_BYTES, 8 * cfg.stem_channels * 9 * cfg.input_hw ** 2)  # one stage-0 im2col sample
    first = in_fresh_thread(held)
    assert first <= wide_all_3x3_tape(20)[0] + block
    assert max(first, on_helper(held_bytes)) <= wide_all_3x3_tape(10)[0] + block


def test_take_skips_a_kept_buffer_something_still_holds():
    """`take` hands out a kept buffer only once no name and no view holds it."""

    def takes():
        viewed = _WS.keep(np.empty((4, 6)))
        view, owner = viewed.reshape(2, 12), id(viewed)  # a view holds the kept buffer
        del viewed
        named = _WS.keep(np.empty(30))
        held = [_WS.take((4, 6)), _WS.take((30,))]
        del view
        freed = _WS.take((4, 6))
        return owner, named, held, freed

    owner, named, held, freed = in_fresh_thread(takes)
    assert id(held[0]) != owner and held[1] is not named
    assert id(freed) == owner and freed.shape == (4, 6)


def wide_all_3x3(n=20):
    cfg = SKELETONS["wide"]
    net = build_network(ArchEncoding((OpKind.CONV3X3,) * 6), cfg, RngStream(35, ("init",)))
    batch = RngStream(36).normal(size=(n, cfg.input_channels, cfg.input_hw, cfg.input_hw))
    return net, batch, np.arange(n) % cfg.num_classes


def test_warm_scoring_allocates_a_tenth_of_a_cold_one():
    """The workspace keeps one scoring's tape buffers for the next: scoring
    the same skeleton again takes nearly every buffer from it.  The batch
    splits, so the cold scoring starts with both halves' threads empty."""
    net, batch, labels = wide_all_3x3()
    empty_helper_workspace()

    def cold_then_warm():
        _, cold = traced_peak(input_jacobian, net, batch, labels)
        input_jacobian(net, batch, labels)
        _, warm = traced_peak(input_jacobian, net, batch, labels)
        return cold, warm

    cold, warm = in_fresh_thread(cold_then_warm)
    assert warm < 0.1 * cold


def test_returned_jacobian_outlives_later_scorings():
    net, batch, labels = wide_all_3x3(n=6)
    jac = input_jacobian(net, batch, labels)
    first = jac.J.copy()
    other = build_network(random_arch(RngStream(40)), SKELETONS["wide"], RngStream(41, ("init",)))
    for k in range(20):
        input_jacobian(other if k % 2 else net, batch, labels)
    assert np.array_equal(jac.J, first)


def test_returned_jacobian_of_a_one_channel_input_outlives_later_scorings():
    """With one input and one stem channel the returned Jacobian is a view of
    the stem conv's input gradient, which a workspace could hand out again."""
    cfg = replace(SMALL, input_channels=1, stem_channels=1)
    nets = [build_network(arch, cfg, RngStream(59, ("init",))) for arch in (ALL_SKIP, random_arch(RngStream(60)))]
    batch, labels = small_batch(61, n=4, cfg=cfg), [0, 1, 0, 1]
    jac = input_jacobian(nets[0], batch, labels).J
    first = jac.copy()
    for net in nets * 3:
        input_jacobian(net, batch, labels)
    assert np.array_equal(jac, first)


def test_a_skip_copy_is_not_written_over():
    """Node 1 is a skip copy of node 0, whose last read is its conv edge's ReLU
    (edge 0->3 is none): that ReLU must not write over node 0, which node 1
    still reads.  The stem's output is a tape entry, so only a forward pass
    without a tape could write over it; in a second cell per stage node 0 is
    a node sum, which the scoring's forward pass could write over too."""
    cfg = replace(SMALL, cells_per_stage=2)
    arch = ArchEncoding((SK, C3, C1, N1, C3, SK))
    net = build_network(arch, cfg, RngStream(60, ("init",)))
    blocks = ref_build_network(arch, cfg, RngStream(60, ("init",)))
    batch = small_batch(61, n=4, cfg=cfg)
    logits = batch
    for block in blocks:
        logits, _ = block.forward(logits)
    assert_same(forward(net, batch), logits)
    assert_same(input_jacobian(net, batch, [0, 1, 0, 1]).J, ref_jacobian(blocks, batch))


def test_workspace_keeps_one_skeletons_buffers():
    cfg = SKELETONS["desk"]
    desk = (build_network(ArchEncoding((OpKind.CONV3X3,) * 6), cfg, RngStream(45, ("init",))),
            RngStream(46).normal(size=(20, cfg.input_channels, cfg.input_hw, cfg.input_hw)), np.arange(20) % 10)

    def kept_bytes(*jobs):
        for job in jobs:
            input_jacobian(*job)
        return sum(buf.nbytes for kept in _WS.kept.values() for buf in kept.values())

    assert in_fresh_thread(kept_bytes, wide_all_3x3(), desk) == in_fresh_thread(kept_bytes, desk) > 0


def test_threads_score_with_their_own_workspaces():
    """More scoring threads than cores, switching often, give the Jacobians one thread gives."""
    nets = [build_network(random_arch(RngStream(47, ("threads", k))), SMALL, RngStream(48)) for k in range(4)]
    batch, labels = small_batch(49, n=6), np.arange(6) % SMALL.num_classes
    want = [input_jacobian(net, batch, labels).J for net in nets]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            futures = [pool.submit(lambda net: input_jacobian(net, batch, labels).J, net) for net in nets * 6]
            got = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert all(np.array_equal(j, w) for j, w in zip(got, want * 6))


# ---------------------------------------------------------------------------
# one batch on two threads


def counted_halves(monkeypatch):
    """Record (half, thread) of every half a split runs."""
    halves = []
    run = tensornet._Pair.run

    def counted(pair, index, *args):
        halves.append((index, threading.current_thread().name))
        return run(pair, index, *args)

    monkeypatch.setattr(tensornet._Pair, "run", counted)
    return halves


def wide_batch(n, seed=62):
    cfg = SKELETONS["wide"]
    return RngStream(seed, ("split", n)).normal(size=(n, cfg.input_channels, cfg.input_hw, cfg.input_hw))


def whole(fn, *args):
    """fn(*args) with no batch split."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tensornet, "_SPLIT_BYTES", float("inf"))
        return fn(*args)


def close(got, want):
    return np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


needs_blas = pytest.mark.skipif(tensornet._blas() is None, reason="needs OpenBLAS's thread control")


def test_blas_thread_control_is_found_where_numpy_links_openblas():
    """Without it the halves run at OpenBLAS's own thread count each, slower
    on two CPUs, and the `needs_blas` tests only skip."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except TypeError:
        pytest.skip("np.show_config has no mode= before numpy 1.26")
    if "openblas" not in blas.lower():
        pytest.skip(f"numpy links {blas}")
    assert tensornet._blas() is not None


@pytest.mark.parametrize("n", [20, 19])
def test_a_wide_batch_runs_in_halves_on_two_threads(n, monkeypatch):
    """A wide batch runs its first n // 2 samples on the calling thread and
    the rest on the helper; its Jacobian and logits repeat bit for bit and
    agree with the whole batch's run to rounding (the batch-norm sums are
    added per half)."""
    cfg = SKELETONS["wide"]
    batch, labels = wide_batch(n), np.arange(n) % cfg.num_classes
    halves = counted_halves(monkeypatch)
    for k in range(4):
        net = build_network(random_arch(RngStream(63, ("split", k))), cfg, RngStream(64, ("init",)))
        halves.clear()
        got = input_jacobian(net, batch, labels).J, forward(net, batch)
        assert sorted(halves) == sorted([(0, "MainThread"), (1, on_helper(lambda: threading.current_thread().name))] * 2)
        assert all(np.array_equal(a, b) for a, b in zip(got, (input_jacobian(net, batch, labels).J, forward(net, batch))))
        want = whole(input_jacobian, net, batch, labels).J, whole(forward, net, batch)
        assert all(close(a, b) for a, b in zip(got, want))


def test_a_desk_batch_runs_on_one_thread(monkeypatch):
    cfg = SKELETONS["desk"]
    assert 8 * cfg.stem_channels * 30 * cfg.input_hw ** 2 <= tensornet._SPLIT_BYTES
    halves = counted_halves(monkeypatch)
    net = build_network(random_arch(RngStream(68)), cfg, RngStream(69, ("init",)))
    input_jacobian(net, RngStream(70).normal(size=(30, 3, 16, 16)), np.arange(30) % 10)
    assert halves == []


@needs_blas
@pytest.mark.parametrize("failing", [0, 1])
def test_an_error_in_either_half_reaches_the_caller(failing, monkeypatch):
    """The failing half breaks the barrier, so its partner stops at its next
    swap instead of waiting; the caller gets the failing half's error, and
    the BLAS thread count (1 during the split) reads its old value after."""
    get, _ = tensornet._blas()
    before = get()
    net = build_network(ArchEncoding((OpKind.CONV3X3,) * 6), SKELETONS["wide"], RngStream(71, ("init",)))
    batch, labels = wide_batch(20), np.arange(20) % 10
    want = input_jacobian(net, batch, labels).J
    assert get() == before
    bn_backward, during = tensornet._bn_backward, []

    def failing_bn_backward(*args):
        during.append(get())
        if tensornet._WS.index == failing:
            raise ArithmeticError(f"half {failing}")
        return bn_backward(*args)

    monkeypatch.setattr(tensornet, "_bn_backward", failing_bn_backward)
    with pytest.raises(ArithmeticError, match=f"half {failing}"):
        input_jacobian(net, batch, labels)
    assert set(during) == {1} and get() == before
    monkeypatch.undo()
    assert np.array_equal(input_jacobian(net, batch, labels).J, want)  # the helper is free again


def test_a_split_without_blas_thread_control_runs_at_blas_own_count(monkeypatch):
    """Without OpenBLAS's thread control a wide batch still runs in halves,
    each at OpenBLAS's own thread count."""
    cfg = SKELETONS["wide"]
    net = build_network(random_arch(RngStream(72)), cfg, RngStream(73, ("init",)))
    batch, labels = wide_batch(20), np.arange(20) % 10
    want = input_jacobian(net, batch, labels).J
    monkeypatch.setattr(tensornet, "_blas", lambda: None)
    halves = counted_halves(monkeypatch)
    assert close(input_jacobian(net, batch, labels).J, want)
    assert sorted(i for i, _ in halves) == [0, 1]


def test_a_gemm_on_another_thread_during_splits_keeps_its_bits():
    """The BLAS pin holds for the whole process while a split runs: a GEMM
    another thread runs meanwhile is computed at one BLAS thread, gives the
    bits it gives alone, and finishes."""
    a, b = RngStream(78).normal(size=(2, 256, 256))
    want, stop, got = a @ b, threading.Event(), []

    def products():
        while not stop.is_set():
            got.append(a @ b)

    cfg = SKELETONS["wide"]
    net = build_network(random_arch(RngStream(79)), cfg, RngStream(80, ("init",)))
    batch, labels = wide_batch(20), np.arange(20) % 10
    other = threading.Thread(target=products)
    other.start()
    try:
        for _ in range(3):
            input_jacobian(net, batch, labels)
    finally:
        stop.set()
        other.join(timeout=60)
    assert not other.is_alive() and got
    assert all(np.array_equal(g, want) for g in got)


def test_callers_scoring_at_once_get_the_sequential_bits():
    """One split runs at a time: a caller arriving during it waits, then
    splits its own batch.  More callers than CPUs, switching often."""
    cfg = SKELETONS["wide"]
    nets = [build_network(random_arch(RngStream(74, ("callers", k))), cfg, RngStream(75, ("init",))) for k in range(4)]
    batch, labels = wide_batch(20), np.arange(20) % 10
    want = [input_jacobian(net, batch, labels).J for net in nets]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=3) as pool:
            futures = [pool.submit(lambda net: input_jacobian(net, batch, labels).J, net) for net in nets * 3]
            got = [future.result(timeout=300) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert all(np.array_equal(g, w) for g, w in zip(got, want * 3))


@needs_blas
@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_a_fork_waits_for_a_running_split(monkeypatch):
    """A fork while another thread's split holds OpenBLAS at one thread
    waits for the split to end, so the child keeps the count from before."""
    get, _ = tensornet._blas()
    want, entered, release = get(), threading.Event(), threading.Event()
    if want < 2:
        pytest.skip("OpenBLAS runs at one thread: the hold does not show")
    bn_forward = tensornet._bn_forward

    def held_bn_forward(*args):
        if tensornet._WS.index == 1:
            entered.set()
            release.wait(timeout=60)
        return bn_forward(*args)

    net = build_network(random_arch(RngStream(81)), SKELETONS["wide"], RngStream(82, ("init",)))
    monkeypatch.setattr(tensornet, "_bn_forward", held_bn_forward)
    scoring = threading.Thread(target=input_jacobian, args=(net, wide_batch(20), np.arange(20) % 10))
    scoring.start()
    try:
        assert entered.wait(timeout=60) and get() == 1  # the helper's half waits; the hold is on
        threading.Timer(0.2, release.set).start()  # ends the split while this thread forks
        pid = os.fork()
        if pid == 0:
            os._exit(min(get(), 100))
        assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == want
    finally:
        release.set()
        scoring.join(timeout=60)
    assert not scoring.is_alive() and get() == want


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_a_forked_child_splits_with_its_own_helper():
    """The parent's helper thread does not run in a forked child; the
    child's first split starts a helper of its own instead of waiting."""
    cfg = SKELETONS["wide"]
    net = build_network(random_arch(RngStream(76)), cfg, RngStream(77, ("init",)))
    batch, labels = wide_batch(20), np.arange(20) % 10
    want = input_jacobian(net, batch, labels).J  # the parent's helper runs
    pid = os.fork()
    if pid == 0:
        ok = False
        try:
            ok = np.array_equal(input_jacobian(net, batch, labels).J, want)
        finally:
            os._exit(0 if ok else 1)
    for _ in range(1200):
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        threading.Event().wait(0.05)
    else:
        os.kill(pid, 9)
        os.waitpid(pid, 0)
        pytest.fail("the forked child's scoring did not finish")
    assert os.waitstatus_to_exitcode(status) == 0


def workspace_cases():
    """(skeleton, genotypes): random ones, the all-3x3 and all-pool cells,
    two whose slots share a buffer, an empty program, and a sentinel whose
    conv reaches no logit."""
    dead_conv = ArchEncoding((OpKind.CONV3X3,) + (OpKind.ZEROIZE,) * 5)
    sample = [random_arch(RngStream(42, ("ws", k))) for k in range(6)]
    archs = sample + [ArchEncoding((op,) * 6) for op in (OpKind.CONV3X3, OpKind.AVGPOOL3X3)] + list(SHARED_SLOT.values())
    archs += [ALL_ZERO, dead_conv]
    return [pytest.param(name, archs, id=name) for name in ("desk", "wide")]


@pytest.mark.parametrize("skeleton,archs", workspace_cases())
def test_cold_and_warm_scorings_agree(skeleton, archs):
    """Every genotype's Jacobian is the same bits whether its thread's
    workspace is empty or holds the buffers of the scorings before it (and
    matches the nested network's), and scoring A, then B, then A again
    gives A's Jacobian both times."""
    cfg = SKELETONS[skeleton]
    batch = RngStream(43, ("ws", skeleton)).normal(size=(20, cfg.input_channels, cfg.input_hw, cfg.input_hw))
    labels = np.arange(20) % cfg.num_classes
    nets = [build_network(arch, cfg, RngStream(44, ("init",))) for arch in archs]
    sentinel = score_arch(archs[-1], batch, labels, cfg, ProxyParams(), RngStream(44, ("init",)))
    assert not nets[-1].steps and sentinel.is_sentinel
    warm = [input_jacobian(net, batch, labels).J for net in nets]
    for arch, net, j in zip(archs, nets, warm):
        assert np.array_equal(in_fresh_thread(input_jacobian, net, batch, labels).J, j)
        want = ref_jacobian(ref_build_network(arch, cfg, RngStream(44, ("init",))), batch)
        assert np.max(np.abs(j - want)) <= 1e-12 * np.max(np.abs(want))
    for a, b in zip(nets, nets[1:]):
        first = input_jacobian(a, batch, labels).J
        input_jacobian(b, batch, labels)
        assert np.array_equal(input_jacobian(a, batch, labels).J, first)


# ---------------------------------------------------------------------------
# the step program against the nested NCHW cell network it replaced


class RefZero:
    def forward(self, x):
        return np.zeros_like(x), None

    def backward(self, cache, gy):
        return np.zeros_like(gy)


class RefChain:
    """Sequential composition of layers sharing the layer protocol."""

    def __init__(self, layers):
        self.layers = layers

    def forward(self, x):
        caches = []
        for layer in self.layers:
            x, cache = layer.forward(x)
            caches.append(cache)
        return x, caches

    def backward(self, caches, gy):
        for layer, cache in zip(reversed(self.layers), reversed(caches)):
            gy = layer.backward(cache, gy)
        return gy


class RefCell:
    """DAG of 6 edge operations over 4 nodes; node j sums its incoming edges."""

    def __init__(self, edge_modules):
        self.ops = list(edge_modules)

    def forward(self, x):
        nodes = [x, None, None, None]
        caches = []
        for k, (src, dest) in enumerate(EDGES):
            y, cache = self.ops[k].forward(nodes[src])
            caches.append(cache)
            nodes[dest] = y if nodes[dest] is None else nodes[dest] + y
        return nodes[3], caches

    def backward(self, caches, gy):
        gnodes = [None, None, None, gy]
        # EDGES is topologically sorted by (dest, src): reversed order has
        # every node's outgoing gradients complete before it propagates.
        for k in reversed(range(len(EDGES))):
            src, dest = EDGES[k]
            g = self.ops[k].backward(caches[k], gnodes[dest])
            gnodes[src] = g if gnodes[src] is None else gnodes[src] + g
        return gnodes[0]


def ref_edge_module(op, channels, eps, rng):
    if op == OpKind.ZEROIZE:
        return RefZero()
    if op == OpKind.SKIP_CONNECT:
        return RefIdentity()
    if op == OpKind.AVGPOOL3X3:
        return RefAvgPool3x3()
    k = 1 if op == OpKind.CONV1X1 else 3
    conv = RefConv(_he_conv(rng, channels, channels, k), stride=1, pad=(k - 1) // 2)
    return RefChain([RefReLU(), conv, RefBatchNorm(eps)])


def ref_build_network(arch, cfg, rng):
    """Blocks of the nested NCHW network: stem, cells, reductions, head.  It
    runs dead edges too, but a dead conv edge draws its weights from a
    stream of its own, so that `rng` serves live edges only, as in the
    network."""
    eps, live, dead = cfg.bn_eps, live_edges(arch), RngStream(0, ("dead edges",))
    blocks = []
    channels = cfg.stem_channels
    stem_conv = RefConv(_he_conv(rng, channels, cfg.input_channels, 3), stride=1, pad=1)
    blocks.append(RefChain([stem_conv, RefBatchNorm(eps)]))
    for stage in range(cfg.num_stages):
        for _ in range(cfg.cells_per_stage):
            blocks.append(RefCell([ref_edge_module(op, channels, eps, rng if k in live else dead)
                                   for k, op in enumerate(arch.edge_ops)]))
        if stage < cfg.num_stages - 1:
            red_conv = RefConv(_he_conv(rng, 2 * channels, channels, 3), stride=2, pad=1)
            blocks.append(RefChain([RefReLU(), red_conv, RefBatchNorm(eps)]))
            channels *= 2
    std = np.sqrt(2.0 / channels)
    classifier = RefLinear(rng.normal(0.0, std, size=(cfg.num_classes, channels)))
    blocks.append(RefChain([RefReLU(), RefGlobalAvgPool(), classifier]))
    return blocks


def ref_jacobian(blocks, batch):
    tape = []
    x = batch
    for block in blocks:
        x, cache = block.forward(x)
        tape.append(cache)
    gy = np.ones_like(x)
    for block, cache in zip(reversed(blocks), reversed(tape)):
        gy = block.backward(cache, gy)
    return gy.reshape(batch.shape[0], -1)


def fed_nodes(arch):
    """Cell nodes that get a signal from the cell input."""
    fed = {0}
    for (src, dst), op in zip(EDGES, arch.edge_ops):
        if op != OpKind.ZEROIZE and src in fed:
            fed.add(dst)
    return fed


def live_edges(arch):
    """Edges on a path from the cell input to a cell output that is not identically zero."""
    fed = fed_nodes(arch)
    if 3 not in fed:
        return set()
    reaches = {3}
    for (src, dst), op in reversed(list(zip(EDGES, arch.edge_ops))):
        if op != OpKind.ZEROIZE and dst in reaches:
            reaches.add(src)
    return {
        k for k, ((src, dst), op) in enumerate(zip(EDGES, arch.edge_ops))
        if op != OpKind.ZEROIZE and src in fed and dst in reaches
    }


def ref_live_weights(blocks, arch):
    """The reference's weights in draw order, without dead conv edges; none
    at all when the cell output is identically zero."""
    live = live_edges(arch)
    if not live:
        return []
    out = []
    for block in blocks:
        if isinstance(block, RefCell):
            out += [op.layers[1].w for k, op in enumerate(block.ops) if k in live and isinstance(op, RefChain)]
        else:
            out += [layer.w for layer in block.layers if hasattr(layer, "w")]
    return out


STRATIFIED = {
    "dead-source": ArchEncoding((N1, C3, C3, SK, C1, PL)),  # node 1 gets no signal
    "dead-destination": ArchEncoding((C3, C1, C3, SK, SK, N1)),  # node 2 never reaches node 3
    "zero-output": ArchEncoding((C3, C1, C3, N1, N1, N1)),
    "zero-output-dead-convs": ArchEncoding((N1, N1, C3, N1, C1, C3)),
    "two-conv-out": ArchEncoding((C1, PL, C3, SK, C3, C1)),  # node 1 feeds two convs
    **SHARED_SLOT,
}


def equivalence_cases():
    out = []
    for name, n_random in (("small", 12), ("desk", 6), ("wide", 2)):
        for label, arch in STRATIFIED.items():
            out.append(pytest.param(name, arch, id=f"{name}-{label}"))
        stream = RngStream(41, ("equivalence", name))
        for i in range(n_random):
            out.append(pytest.param(name, random_arch(stream), id=f"{name}-random{i}"))
    return out


def assert_matches_nested(skeleton, arch, n):
    """Check the step program's Jacobian of a batch of n against the nested network's; returns both networks."""
    cfg = SKELETONS[skeleton]
    net = build_network(arch, cfg, RngStream(42, ("init", skeleton)))
    blocks = ref_build_network(arch, cfg, RngStream(42, ("init", skeleton)))
    batch = small_batch(43, n=n, cfg=cfg)
    got = input_jacobian(net, batch, np.arange(n) % 2).J
    want = ref_jacobian(blocks, batch)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    return net, blocks


@pytest.mark.parametrize("skeleton,arch", equivalence_cases())
def test_step_program_matches_nested_network(skeleton, arch):
    net, blocks = assert_matches_nested(skeleton, arch, 4)
    weights = _collect_weights(net)
    expected = ref_live_weights(blocks, arch)
    assert len(weights) == len(expected)
    for w, ref in zip(weights, expected):
        assert np.array_equal(w, ref)


@pytest.mark.parametrize("skeleton,arch", equivalence_cases())
def test_split_program_matches_nested_network(skeleton, arch, monkeypatch):
    """With every batch split, an odd batch's two halves (2 and 3 samples)
    on two threads give the nested network's Jacobian."""
    monkeypatch.setattr(tensornet, "_SPLIT_BYTES", 0)
    halves = counted_halves(monkeypatch)
    assert_matches_nested(skeleton, arch, 5)
    assert sorted(i for i, _ in halves) == [0, 1]


def test_zero_output_genotypes_are_empty_programs():
    zero = [arch for arch in enumerate_all() if 3 not in fed_nodes(arch)]
    assert len(zero) == 341
    batch = small_batch(44, n=4)
    labels = [0, 0, 1, 1]
    for arch in zero:
        net = build_network(arch, SMALL, RngStream(45, ("init",)))
        assert net.steps == []
        assert np.array_equal(input_jacobian(net, batch, labels).J, np.zeros((4, SMALL.input_dim)))
        got = score_arch(arch, batch, labels, SMALL, ProxyParams(), RngStream(45, ("init",)))
        assert got.is_sentinel


class ZeroDraws:
    """Stands in for the init stream where only a program's structure matters."""

    def normal(self, loc, scale, size):
        return np.zeros(size)


def test_every_program_is_conv_bn_relu_pool_identity_steps_and_one_head():
    """Over all 15625 genotypes on the small skeleton: every conv is one
    `_ConvBN` step reading the stem's input or a ReLU's output, and a
    program's `_ConvBN` steps are the stem, the reductions and the live
    conv edges, as in the nested network."""
    empty = 0
    for arch in enumerate_all():
        steps = build_network(arch, SMALL, ZeroDraws()).steps
        heads = [dst for layer, _, dst in steps if isinstance(layer, _Head)]
        relus = {dst for layer, _, dst in steps if isinstance(layer, _ReLU)}
        convs = [src for layer, src, _ in steps if isinstance(layer, _ConvBN)]
        ref_weights = ref_live_weights(ref_build_network(arch, SMALL, ZeroDraws()), arch)
        assert all(isinstance(layer, (_ReLU, _ConvBN, _AvgPool3x3, _Identity, _Head)) for layer, _, _ in steps)
        assert heads == ([_OUT] if ref_weights else [])
        assert all(src == 0 or src in relus for src in convs)
        assert len(convs) == sum(w.ndim == 4 for w in ref_weights)  # conv weights, not the classifier's
        empty += not steps
    assert empty == 341


def program_structure(arch):
    """Each step's layer kind, weight shape, stride, padding and slots, on the small skeleton."""
    return [(type(layer).__name__, getattr(getattr(layer, "w", None), "shape", None), getattr(layer, "stride", None),
             getattr(layer, "pad", None), src, dst) for layer, src, dst in build_network(arch, SMALL, ZeroDraws()).steps]


def test_canonical_over_the_whole_space():
    """Over all 15625 genotypes: `canonical` is idempotent, with 9445 classes;
    its live edges are the reference's; exactly the 341 genotypes it maps to
    0 build empty programs; and a genotype builds its class's step program."""
    classes, zero = set(), 0
    for arch in enumerate_all():
        live = canonical(arch)
        assert canonical(live) == live
        assert {k for k, op in enumerate(live.edge_ops) if op != OpKind.ZEROIZE} == live_edges(arch)
        structure = program_structure(arch)
        assert structure == program_structure(live)
        assert (structure == []) == (live == 0)
        classes.add(live)
        zero += live == 0
    assert (len(classes), zero) == (9445, 341)


@pytest.mark.parametrize("skeleton", ["desk", "wide"])
def test_a_genotype_scores_as_its_computation(skeleton, monkeypatch):
    """A genotype and its canonical form, each on one stream, build the same
    network, weights included, whose `arch` is the canonical form, and score
    bit for bit the same: the dead-edge genotypes and random ones with a dead
    edge, on a desk batch and on a wide one that splits."""
    cfg, n = SKELETONS[skeleton], {"desk": 30, "wide": 20}[skeleton]
    batch, labels = small_batch(51, n=n, cfg=cfg), np.arange(n) % cfg.num_classes
    stream = RngStream(52, ("computation", skeleton))
    dead = (arch for arch in iter(lambda: random_arch(stream), None) if canonical(arch) != arch)
    archs = [STRATIFIED[k] for k in ("dead-source", "dead-destination", "zero-output-dead-convs")]
    halves = counted_halves(monkeypatch)
    for arch in archs + [next(dead) for _ in range(3)]:
        live = canonical(arch)
        a, b = (build_network(g, cfg, RngStream(53, ("init", skeleton))) for g in (arch, live))
        assert a.arch == b.arch == live
        assert [(type(layer), src, dst) for layer, src, dst in a.steps] == \
            [(type(layer), src, dst) for layer, src, dst in b.steps]
        assert len(_collect_weights(a)) == len(_collect_weights(b))
        assert all(np.array_equal(wa, wb) for wa, wb in zip(_collect_weights(a), _collect_weights(b)))
        scores = [score_arch(g, batch, labels, cfg, ProxyParams(), RngStream(53, ("init", skeleton))) for g in (arch, live)]
        assert scores[0] == scores[1]
    assert bool(halves) == (skeleton == "wide")


def test_relu_kink_margin_is_min_over_run_relus():
    seen = []

    class SpyReLU(_ReLU):
        def forward(self, x, owned):
            seen.append(float(np.min(np.abs(x))))
            return super().forward(x, owned)

    batch = small_batch(46)
    for arch in STRATIFIED.values():
        net = build_network(arch, SMALL, RngStream(47, ("init",)))
        spied = Network(arch, SMALL, [(SpyReLU() if isinstance(l, _ReLU) else l, s, d) for l, s, d in net.steps])
        seen.clear()
        margin = relu_kink_margin(spied, batch)
        assert margin == (min(seen) if seen else np.inf)


def test_relu_kink_margin_settings_agree():
    # a run ReLU never sees a structural zero, so skipping exact zeros
    # changes nothing; every 25th genotype plus the stratified ones
    batch = small_batch(48)
    archs = list(enumerate_all())[::25] + list(STRATIFIED.values())
    for arch in archs:
        net = build_network(arch, SMALL, RngStream(49, ("init",)))
        assert relu_kink_margin(net, batch, positive_only=True) == relu_kink_margin(net, batch)
