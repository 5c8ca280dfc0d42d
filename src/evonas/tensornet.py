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

Kernels.  A convolution fills an im2col block ``(c, kh, kw, m, ho, wo)``
of at most ``_BLOCK_BYTES`` (m >= 1 samples) tap by tap, zeroing only the
padding strips no tap writes, and ``W @ cols`` writes those samples'
output.  A stride-1 conv's input gradient is that kernel on the output
gradient with flipped, transposed weights; a stride-2 one adds ``W^T @
gy`` per block back where each tap read.  Batch norm normalizes its
conv's output in place (its tape entry) and writes its gradient over it.
ReLU caches a bool mask.  3x3 average pooling, its own backward pass,
sums blocks of whole channels: each 3-tap sum is two shifted adds over
the flat block, the first and last row (column), where the shift wraps,
rewritten.  Each thread's workspace keeps its block buffer and, for the
next scoring, its tape entries' buffers, until the skeleton or batch
shape changes.  A result takes a kept buffer of its size and dtype that
``sys.getrefcount`` shows unreferenced, else a new one; a layer given an
``owned`` gradient (nothing else holds it) writes its result over it.

Layer protocol: ``forward(x) -> (y, cache)``, ``backward(cache, gy, owned) -> gx``.

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
import sys
import threading
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


_BLOCK_BYTES = 1 << 20  # bound on a kernel's block: a conv's im2col or taps, or whole channels


class _Workspace(threading.local):
    """One thread's buffers kept for the next scoring: tape entries' by (size, dtype) and id, and a block."""

    def __init__(self, key=None):
        self.key, self.kept, self.block = key, {}, np.empty(0)

    def take(self, shape, dtype=np.float64):
        """A kept buffer of `shape`'s size and `dtype` no view holds, as `shape`; else a new one."""
        for buf in self.kept.get((math.prod(shape), np.dtype(dtype)), {}).values():
            if sys.getrefcount(buf) == _ALONE + 1:  # + the workspace's reference
                return buf.reshape(shape)
        return np.empty(shape, dtype)

    def keep(self, a):
        """Keep the buffer behind `a`, a tape entry, for later scorings; returns `a`."""
        owner = a if a.base is None else a.base
        self.kept.setdefault((owner.size, owner.dtype), {})[id(owner)] = owner
        return a


def _alone():
    a = np.empty(0)  # one local name holds it, as in `take` and `_backprop`
    return sys.getrefcount(a)


_ALONE = _alone()  # measured: what a call argument adds to the count differs between Python versions
_WS = _Workspace()


def _blocked(lead, n, tail):
    """The thread's block buffer as ``lead + (m,) + tail``, at most
    _BLOCK_BYTES (but m >= 1), and the slices of range(n) it serves in turn."""
    size = math.prod(lead) * math.prod(tail)
    m = min(n, max(1, _BLOCK_BYTES // (8 * size)))
    if _WS.block.size < m * size:
        _WS.block = np.empty(max(m * size, _BLOCK_BYTES // 8))
    return _WS.block[: m * size].reshape(lead + (m,) + tail), [slice(s, min(s + m, n)) for s in range(0, n, m)]


def _conv_forward(x, w, stride, pad, out=None):
    c, n, h, width = x.shape
    o, _, kh, kw = w.shape
    ho, wo = (h + 2 * pad - kh) // stride + 1, (width + 2 * pad - kw) // stride + 1
    y = _WS.take((o, n, ho, wo)) if out is None else out  # out may be x: blocks are read before written
    w2 = w.reshape(o, -1)
    cols, blocks = _blocked((c, kh, kw), n, (ho, wo))
    taps = _taps(x.shape, w.shape, stride, pad, ho, wo)
    for i, j, oy, ox, _, _ in taps:  # zero the padding strips no tap writes
        t = cols[:, i, j]
        t[:, :, : oy.start] = t[:, :, oy.stop :] = t[..., : ox.start] = t[..., ox.stop :] = 0.0
    for b in blocks:
        blk = cols[:, :, :, : b.stop - b.start]
        for i, j, oy, ox, iy, ix in taps:
            blk[:, i, j, :, oy, ox] = x[:, b, iy, ix]
        np.matmul(w2, blk.reshape(c * kh * kw, -1), out=y[:, b].reshape(o, -1))
    return y


def _conv_backward_input(gy, w, x_shape, stride, pad, out=None):
    o, c, kh, kw = w.shape
    if stride == 1:  # the forward kernel on gy, with flipped, transposed weights
        return _conv_forward(gy, w.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1], 1, kh - 1 - pad, out)
    _, n, ho, wo = gy.shape
    gx = _WS.take(x_shape)
    gx.fill(0.0)
    w2 = w.reshape(o, -1).T
    buf, blocks = _blocked((c, kh, kw), n, (ho, wo))
    taps = _taps(x_shape, w.shape, stride, pad, ho, wo)
    for b in blocks:
        blk = buf[:, :, :, : b.stop - b.start]
        np.matmul(w2, gy[:, b].reshape(o, -1), out=blk.reshape(c * kh * kw, -1))
        for i, j, oy, ox, iy, ix in taps:
            gx[:, b, iy, ix] += blk[:, i, j, :, oy, ox]
    return gx


def _sum3(a, out, k, s):
    """Contiguous `out` = 3-tap sums ``(a[i] + a[i-1]) + a[i+1]`` of `a` along an axis of length k, stride s."""
    fa, fo, a, out = a.reshape(-1), out.reshape(-1), a.reshape(-1, k, s), out.reshape(-1, k, s)
    if k == 1:
        return np.copyto(out, a)
    fo[:s] = fa[:s]  # the first slice is rewritten below, but never read unset
    np.add(fa[s:], fa[:-s], out=fo[s:])
    fo[:-s] += fa[s:]
    np.add(a[:, 0], a[:, 1], out=out[:, 0])
    np.add(a[:, -1], a[:, -2], out=out[:, -1])


def _box3(x):
    """Zero-padded 3x3 box mean per block of whole channels: rows, then columns, then / 9."""
    c, n, h, w = x.shape
    out = _WS.take(x.shape)
    buf, blocks = _blocked((), c, (n, h, w))
    for b in blocks:
        rows, ob = buf[: b.stop - b.start], out[b]
        _sum3(x[b], rows, h, w)
        _sum3(rows, ob, w, 1)
        ob /= 9.0
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

    def backward(self, cache, gy, owned):
        out = gy if owned and gy.shape == cache else None  # the input gradient written over gy
        return _conv_backward_input(gy, self.w, cache, self.stride, self.pad, out)


class _BatchNorm:
    """Batch-statistics normalization, no affine or running stats, in place over its conv's output."""

    def __init__(self, eps):
        self.eps = eps

    def forward(self, x):
        rows = x.reshape(x.shape[0], -1)
        rows -= rows.mean(axis=1, keepdims=True)
        inv = 1.0 / np.sqrt(np.square(rows, out=_WS.take(rows.shape)).mean(axis=1, keepdims=True) + self.eps)
        rows *= inv
        return _WS.keep(rows).reshape(x.shape), (rows, inv)

    def backward(self, cache, gy, owned):
        gx, inv = cache  # xhat
        rows = gy.reshape(gx.shape)
        buf, blocks = _blocked((), len(gx), gx.shape[1:])  # mean(rows * xhat) per channel, in channel blocks
        gx *= np.concatenate([np.multiply(rows[b], gx[b], out=buf[: b.stop - b.start]).mean(axis=1, keepdims=True)
                              for b in blocks])
        np.subtract(rows, gx, out=gx)
        gx -= rows.mean(axis=1, keepdims=True)
        gx *= inv
        return gx.reshape(gy.shape)


class _ReLU:
    def forward(self, x):
        return np.maximum(x, 0.0, out=_WS.take(x.shape)), _WS.keep(np.greater(x, 0.0, out=_WS.take(x.shape, bool)))

    def backward(self, cache, gy, owned):
        return np.multiply(gy, cache, out=gy if owned else _WS.take(gy.shape))


class _AvgPool3x3:
    """3x3 average pooling, stride 1, pad 1, always dividing by 9.

    The box sum is symmetric, so the backward pass is the same pooling.
    """

    def forward(self, x):
        return _box3(x), None

    def backward(self, cache, gy, owned):
        return _box3(gy)


class _Identity:
    def forward(self, x):
        return x, None

    def backward(self, cache, gy, owned):
        return gy


class _GlobalAvgPool:
    def forward(self, x):
        return x.mean(axis=(2, 3)).T, x.shape

    def backward(self, cache, gy, owned):
        return np.divide(np.broadcast_to(gy.T[:, :, None, None], cache), cache[2] * cache[3], out=_WS.take(cache))


class _Linear:
    def __init__(self, weight):
        self.w = weight  # (num_classes, channels)

    def forward(self, x):
        return x @ self.w.T, None

    def backward(self, cache, gy, owned):
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
        if _WS.key != (self.cfg, x.shape):  # keep one skeleton's buffers only
            _WS.__init__((self.cfg, x.shape))
        last_read = {src: i for i, (_, src, _) in enumerate(self.steps)}
        slots = {0: np.ascontiguousarray(x.transpose(1, 0, 2, 3))}
        for i, (layer, src, dst) in enumerate(self.steps):
            h = slots.pop(src) if last_read[src] == i else slots[src]
            if margins is not None and isinstance(layer, _ReLU):
                margins.append(float(np.min(np.abs(h))))
            y, cache = layer.forward(h)
            if tape is not None:
                tape.append(cache)
            slots[dst] = np.add(slots[dst], y, out=_WS.take(y.shape)) if dst in slots else y
        return slots[_OUT] if _OUT in slots else np.zeros((x.shape[0], self.cfg.num_classes))

    def _backprop(self, tape, gy, x_shape):
        """NCHW input gradient for logit gradient `gy`.  Each slot's gradient
        is dropped after its first writer, the last step to read it."""
        first_write = {dst: i for i, (_, _, dst) in reversed(list(enumerate(self.steps)))}
        grads = {_OUT: gy}
        for i in reversed(range(len(self.steps))):
            layer, src, dst = self.steps[i]
            gy = grads.pop(dst) if first_write[dst] == i else grads[dst]
            owned = sys.getrefcount(gy) == _ALONE  # read before gy is pushed as an argument
            g = layer.backward(tape.pop(), gy, owned)
            grads[src] = np.add(grads[src], g, out=_WS.take(g.shape)) if src in grads else g
            del g  # a summand's buffer is free for the next step
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
