"""Minimal float64 tensor network: forward pass and input-batch Jacobian.

Tensors are C-contiguous float64 numpy arrays.  A Network is instantiated
from a genotype plus an outer skeleton, its convolution weights drawn once
at construction and never updated; the only gradient ever computed is the
gradient of the total logit sum with respect to the input batch, via
hand-written reverse-mode rules for each layer (including the cross-sample
coupling introduced by batch-statistics normalization).

Layout.  Activations are channel-major, ``(C, N, H, W)``, from stem to
head: ``Network._run`` transposes the NCHW batch once on entry,
``Network._backprop`` its gradient once on exit, and global average pooling
hands ``(N, C)`` to the classifier.  The public functions speak NCHW.

Kernels.  A convolution walks the batch in sample blocks: it fills an
im2col buffer ``(c, kh, kw, m, ho, wo)`` of at most ``_BLOCK_BYTES`` (at
least one sample) tap by tap from the unpadded input, and ``W (o,
c*kh*kw) @ cols`` writes the block's slice of the output.  The buffer is
allocated and zeroed once per call; the taps never write the padding, so
it stays zero from block to block.  A stride-1 conv's input gradient is
the same kernel run on the output gradient with flipped, transposed
weights; a stride-2 one is ``W^T @ gy`` per block in the same layout, each
tap's block added back where it was read.  Transient memory per kernel is
thus its result plus one block, whatever the batch size.  Batch norm
reduces each channel over one contiguous row, scales the centred values in
place and backpropagates in one buffer.  ReLU caches a bool mask and
multiplies the gradient by it.  3x3 average pooling is a separable box sum
divided by 9 in place, its row sums taken one sample block at a time; the
box is symmetric, so its backward pass is the same operation.
``_backprop`` pops each layer cache off the tape as it uses it, so the
forward pass's caches are freed as the gradient advances.

Layer protocol: ``forward(x) -> (y, cache)``, ``backward(cache, gy) -> gx``.

A Network is one straight-line program of steps ``(layer, src, dst)``,
each adding ``layer(slot[src])`` into slot ``dst``.  ``build_network``
emits one ReLU step per cell node with conv out-edges, then keeps only the
steps on an input-to-logits path: the others add exact zeros or reach no
logit.  A genotype whose cell output is identically zero leaves an empty
program, with zero logits and Jacobian.  ``_run`` is the only forward loop
(on request it records each ReLU step's smallest |input|, to detect
near-kink inputs before comparing against finite differences) and
``_backprop`` the same walk reversed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .cellspace import EDGES, ArchEncoding, OpKind
from .config import ConfigError, check_fields
from .rng import RngStream

__all__ = [
    "SkeletonConfig",
    "Network",
    "JacobianBatch",
    "build_network",
    "forward",
    "input_jacobian",
    "finite_diff_jacobian",
    "relu_kink_margin",
]


@dataclass(frozen=True)
class SkeletonConfig:
    """Outer network skeleton around the searched cell.

    Defaults are desk-scale (one Jacobian evaluation runs in milliseconds);
    benchmark-scale values (16 stem channels, 5 cells per stage, 32x32
    inputs) are plain field overrides.
    """

    input_channels: int = 3
    input_hw: int = 16
    stem_channels: int = 8
    cells_per_stage: int = 1
    num_stages: int = 3
    num_classes: int = 10
    bn_eps: float = 1e-5

    def __post_init__(self):
        check_fields(self)
        if self.input_hw % 2 ** (self.num_stages - 1) != 0:
            raise ConfigError(f"input_hw={self.input_hw} must be divisible by "
                              f"2**(num_stages-1)={2 ** (self.num_stages - 1)}")

    @property
    def input_dim(self) -> int:
        return self.input_channels * self.input_hw * self.input_hw


@dataclass
class JacobianBatch:
    """N x D Jacobian of the total logit sum, one row per input sample."""

    J: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.J = np.asarray(self.J, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.J.ndim != 2:
            raise ValueError(f"J must be 2-D, got shape {self.J.shape}")
        if self.J.shape[0] < 2:
            raise ValueError("Jacobian batch needs at least 2 samples")
        if self.labels.shape != (self.J.shape[0],):
            raise ValueError(
                f"labels shape {self.labels.shape} does not match {self.J.shape[0]} rows"
            )


# ---------------------------------------------------------------------------
# convolution primitives


def _spans(size, k, stride, pad, out):
    """Per kernel offset i along one axis: the outputs o it reaches and the
    inputs ``o * stride + i - pad`` they read, the zero padding left out."""
    for i in range(k):
        lo = max(0, -((i - pad) // stride))
        hi = max(lo, min(out, (size - 1 - i + pad) // stride + 1))
        yield i, slice(lo, hi), slice(lo * stride + i - pad, hi * stride + i - pad, stride)


def _taps(x_shape, w_shape, stride, pad, ho, wo):
    """Per kernel tap (i, j): i, j, the output rows and columns it reaches
    and the input rows and columns they read."""
    rows = list(_spans(x_shape[2], w_shape[2], stride, pad, ho))
    cols = list(_spans(x_shape[3], w_shape[3], stride, pad, wo))
    return [(i, j, oy, ox, iy, ix) for i, oy, iy in rows for j, ox, ix in cols]


_BLOCK_BYTES = 1 << 20  # bound on a conv kernel's im2col or taps buffer


def _blocked(c, kh, kw, n, ho, wo, make):
    """One (c, kh, kw, m, ho, wo) buffer of at most _BLOCK_BYTES (but m >= 1)
    from `make`, and the sample slices of the batch it serves in turn."""
    m = min(n, max(1, _BLOCK_BYTES // (8 * c * kh * kw * ho * wo)))
    return make((c, kh, kw, m, ho, wo)), [slice(s, min(s + m, n)) for s in range(0, n, m)]


def _conv_forward(x, w, stride, pad):
    c, n, h, width = x.shape
    o, _, kh, kw = w.shape
    ho, wo = (h + 2 * pad - kh) // stride + 1, (width + 2 * pad - kw) // stride + 1
    y = np.empty((o, n, ho, wo))
    w2 = w.reshape(o, -1)
    cols, blocks = _blocked(c, kh, kw, n, ho, wo, np.zeros)  # taps never write the padding
    taps = _taps(x.shape, w.shape, stride, pad, ho, wo)
    for b in blocks:
        blk = cols[:, :, :, : b.stop - b.start]
        for i, j, oy, ox, iy, ix in taps:
            blk[:, i, j, :, oy, ox] = x[:, b, iy, ix]
        np.matmul(w2, blk.reshape(c * kh * kw, -1), out=y[:, b].reshape(o, -1))
    return y


def _conv_backward_input(gy, w, x_shape, stride, pad):
    o, c, kh, kw = w.shape
    if stride == 1:  # the forward kernel on gy, with flipped, transposed weights
        return _conv_forward(gy, w.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1], 1, kh - 1 - pad)
    _, n, ho, wo = gy.shape
    gx = np.zeros(x_shape)
    w2 = w.reshape(o, -1).T
    buf, blocks = _blocked(c, kh, kw, n, ho, wo, np.empty)
    taps = _taps(x_shape, w.shape, stride, pad, ho, wo)
    for b in blocks:
        blk = buf[:, :, :, : b.stop - b.start]
        np.matmul(w2, gy[:, b].reshape(o, -1), out=blk.reshape(c * kh * kw, -1))
        for i, j, oy, ox, iy, ix in taps:
            gx[:, b, iy, ix] += blk[:, i, j, :, oy, ox]
    return gx


def _box3(x):
    """Zero-padded 3x3 box mean, separably: rows into one sample block of at
    most _BLOCK_BYTES, then columns into the result, then / 9."""
    c, n, h, w = x.shape
    out = np.empty(x.shape)
    buf, blocks = _blocked(c, 1, 1, n, h, w, np.empty)
    for b in blocks:
        rows, xb, ob = buf[:, 0, 0, : b.stop - b.start], x[:, b], out[:, b]
        rows[:, :, 0] = xb[:, :, 0]
        np.add(xb[:, :, 1:], xb[:, :, :-1], out=rows[:, :, 1:])
        rows[:, :, :-1] += xb[:, :, 1:]
        ob[..., 0] = rows[..., 0]
        np.add(rows[..., 1:], rows[..., :-1], out=ob[..., 1:])
        ob[..., :-1] += rows[..., 1:]
    out /= 9.0
    return out


# ---------------------------------------------------------------------------
# layers


class _Conv:
    def __init__(self, weight, stride, pad):
        self.w = weight
        self.stride = stride
        self.pad = pad

    def forward(self, x):
        return _conv_forward(x, self.w, self.stride, self.pad), x.shape

    def backward(self, cache, gy):
        return _conv_backward_input(gy, self.w, cache, self.stride, self.pad)


class _BatchNorm:
    """Batch-statistics normalization: no affine, no running stats."""

    def __init__(self, eps):
        self.eps = eps

    def forward(self, x):
        rows = x.reshape(x.shape[0], -1)
        xhat = rows - rows.mean(axis=1, keepdims=True)
        inv = 1.0 / np.sqrt(np.square(xhat).mean(axis=1, keepdims=True) + self.eps)
        xhat *= inv
        return xhat.reshape(x.shape), (xhat, inv)

    def backward(self, cache, gy):
        xhat, inv = cache
        rows = gy.reshape(xhat.shape)
        gx = rows * xhat
        np.multiply(xhat, gx.mean(axis=1, keepdims=True), out=gx)
        np.subtract(rows, gx, out=gx)
        gx -= rows.mean(axis=1, keepdims=True)
        gx *= inv
        return gx.reshape(gy.shape)


class _ReLU:
    def forward(self, x):
        return np.maximum(x, 0.0), x > 0

    def backward(self, cache, gy):
        return gy * cache


class _AvgPool3x3:
    """3x3 average pooling, stride 1, pad 1, always dividing by 9.

    The box sum is symmetric, so the backward pass is the same pooling.
    """

    def forward(self, x):
        return _box3(x), None

    def backward(self, cache, gy):
        return _box3(gy)


class _Identity:
    def forward(self, x):
        return x, None

    def backward(self, cache, gy):
        return gy


class _GlobalAvgPool:
    def forward(self, x):
        return x.mean(axis=(2, 3)).T, x.shape

    def backward(self, cache, gy):
        return np.broadcast_to(gy.T[:, :, None, None], cache) / (cache[2] * cache[3])


class _Linear:
    def __init__(self, weight):
        self.w = weight  # (num_classes, channels)

    def forward(self, x):
        return x @ self.w.T, None

    def backward(self, cache, gy):
        return gy @ self.w


_OUT = 1  # slot of the logits; slot 0 holds the input batch


def _prune(steps):
    """The steps on an input-to-logits path.  Every write to a slot
    precedes every read of it, so one sweep each way suffices."""
    fed = {0}
    for _, src, dst in steps:
        if src in fed:
            fed.add(dst)
    needed = {_OUT}
    kept = []
    for step in reversed(steps):
        _, src, dst = step
        if src in fed and dst in needed:
            kept.append(step)
            needed.add(src)
    return kept[::-1]


@dataclass
class Network:
    """Immutable step program built from (arch, cfg, init stream)."""

    arch: ArchEncoding
    cfg: SkeletonConfig
    steps: list = field(repr=False)

    def _check_batch(self, batch: np.ndarray) -> np.ndarray:
        batch = np.asarray(batch, dtype=np.float64)
        expected = (self.cfg.input_channels, self.cfg.input_hw, self.cfg.input_hw)
        if batch.ndim != 4 or batch.shape[1:] != expected:
            raise ValueError(f"batch shape {batch.shape} incompatible with (N, {expected})")
        if batch.shape[0] < 2:
            raise ValueError("batch-statistics normalization needs N >= 2")
        return batch

    def _run(self, x, tape=None, margins=None):
        """Logits of NCHW `x`; fills `tape` with step caches and `margins`
        with ReLU kink margins.  Each slot is dropped after its last read."""
        last_read = {src: i for i, (_, src, _) in enumerate(self.steps)}
        slots = {0: np.ascontiguousarray(x.transpose(1, 0, 2, 3))}
        for i, (layer, src, dst) in enumerate(self.steps):
            h = slots.pop(src) if last_read[src] == i else slots[src]
            if margins is not None and isinstance(layer, _ReLU):
                margins.append(float(np.min(np.abs(h))))
            y, cache = layer.forward(h)
            if tape is not None:
                tape.append(cache)
            slots[dst] = slots[dst] + y if dst in slots else y
        return slots[_OUT] if _OUT in slots else np.zeros((x.shape[0], self.cfg.num_classes))

    def _backprop(self, tape, gy, x_shape):
        """NCHW input gradient for logit gradient `gy`.  Each slot's gradient
        is dropped after its first writer, the last step to read it."""
        first_write = {dst: i for i, (_, _, dst) in reversed(list(enumerate(self.steps)))}
        grads = {_OUT: gy}
        for i in reversed(range(len(self.steps))):
            layer, src, dst = self.steps[i]
            g = layer.backward(tape.pop(), grads.pop(dst) if first_write[dst] == i else grads[dst])
            grads[src] = grads[src] + g if src in grads else g
        return grads[0].transpose(1, 0, 2, 3) if 0 in grads else np.zeros(x_shape)


def _he_conv(rng, c_out, c_in, k):
    std = math.sqrt(2.0 / (c_in * k * k))
    return rng.normal(0.0, std, size=(c_out, c_in, k, k))


def build_network(arch: ArchEncoding, cfg: SkeletonConfig, rng: RngStream) -> Network:
    """Instantiate the skeleton with `arch` in every cell slot.

    Layout: stem (3x3 conv + batch norm), `num_stages` stages of
    `cells_per_stage` cells, a reduction block (ReLU, stride-2 3x3 conv
    doubling channels, batch norm) between stages, then ReLU, global average
    pooling and a dense classifier.  A cell's conv edge is ReLU, conv,
    batch norm; conv edges from one node share its ReLU.  Weights are
    zero-mean normal with std sqrt(2 / fan_in), no biases, drawn for every
    conv edge in layout order before dead steps are pruned.
    """
    eps = cfg.bn_eps
    steps: list = []
    fresh = itertools.count(2)

    def emit(layer, src, dst=None):
        dst = next(fresh) if dst is None else dst
        steps.append((layer, src, dst))
        return dst

    channels = cfg.stem_channels
    stem_conv = _Conv(_he_conv(rng, channels, cfg.input_channels, 3), stride=1, pad=1)
    x = emit(_BatchNorm(eps), emit(stem_conv, 0))
    for stage in range(cfg.num_stages):
        for _ in range(cfg.cells_per_stage):
            nodes = [x, next(fresh), next(fresh), next(fresh)]
            relu = {}
            for (src, dst), op in zip(EDGES, arch.edge_ops):
                if op == OpKind.SKIP_CONNECT:
                    emit(_Identity(), nodes[src], nodes[dst])
                elif op == OpKind.AVGPOOL3X3:
                    emit(_AvgPool3x3(), nodes[src], nodes[dst])
                elif op != OpKind.ZEROIZE:
                    k = 1 if op == OpKind.CONV1X1 else 3
                    conv = _Conv(_he_conv(rng, channels, channels, k), stride=1, pad=(k - 1) // 2)
                    if src not in relu:
                        relu[src] = emit(_ReLU(), nodes[src])
                    emit(_BatchNorm(eps), emit(conv, relu[src]), nodes[dst])
            x = nodes[3]
        if stage < cfg.num_stages - 1:
            red_conv = _Conv(_he_conv(rng, 2 * channels, channels, 3), stride=2, pad=1)
            x = emit(_BatchNorm(eps), emit(red_conv, emit(_ReLU(), x)))
            channels *= 2
    std = math.sqrt(2.0 / channels)
    classifier = _Linear(rng.normal(0.0, std, size=(cfg.num_classes, channels)))
    emit(classifier, emit(_GlobalAvgPool(), emit(_ReLU(), x)), _OUT)
    return Network(arch=arch, cfg=cfg, steps=_prune(steps))


def forward(net: Network, batch: np.ndarray) -> np.ndarray:
    """Logits (N, num_classes); batch statistics come from `batch` itself."""
    return net._run(net._check_batch(batch))


def input_jacobian(net: Network, batch: np.ndarray, labels) -> JacobianBatch:
    """Row i is d(total logit sum)/d(sample i), flattened to length D.

    The total sum runs over all samples and classes, so each row includes
    the coupling through batch statistics.  Non-finite values are passed
    through for the consumer to detect.
    """
    batch = net._check_batch(batch)
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (batch.shape[0],):
        raise ValueError(f"labels shape {labels.shape} does not match batch of {batch.shape[0]}")
    if labels.size and (labels.min() < 0 or labels.max() >= net.cfg.num_classes):
        raise ValueError("labels must lie in [0, num_classes)")
    tape: list = []
    logits = net._run(batch, tape=tape)
    gx = net._backprop(tape, np.ones_like(logits), batch.shape)
    return JacobianBatch(J=gx.reshape(batch.shape[0], -1), labels=labels)


def finite_diff_jacobian(net: Network, batch: np.ndarray, step: float) -> np.ndarray:
    """Central-difference estimate of the same N x D matrix, entry by entry."""
    if step <= 0:
        raise ValueError("step must be positive")
    batch = net._check_batch(batch)
    n = batch.shape[0]
    flat = batch.reshape(n, -1)
    out = np.empty_like(flat)
    work = flat.copy()
    for i in range(n):
        for d in range(flat.shape[1]):
            orig = work[i, d]
            work[i, d] = orig + step
            s_plus = net._run(work.reshape(batch.shape)).sum()
            work[i, d] = orig - step
            s_minus = net._run(work.reshape(batch.shape)).sum()
            work[i, d] = orig
            out[i, d] = (s_plus - s_minus) / (2.0 * step)
    return out


def relu_kink_margin(net: Network, batch: np.ndarray, positive_only: bool = False) -> float:
    """Smallest |preactivation| reaching any ReLU step the network runs;
    guards finite-difference checks.

    Pruning drops every ReLU that would see a structural zero or feed no
    path to the logits; neither kind of kink can disturb a
    finite-difference comparison.  `positive_only` skips exact zeros, which
    a ReLU the network runs meets only by accident, so both settings agree.
    """
    margins: list = []
    net._run(net._check_batch(batch), margins=margins)
    if positive_only:
        margins = [m for m in margins if m > 0.0]
    return min(margins) if margins else math.inf
