"""Minimal float64 tensor network: forward pass and input-batch Jacobian.

Tensors are C-contiguous float64 numpy arrays.  A Network is instantiated
from a genotype plus an outer skeleton, its convolution weights drawn once
at construction and never updated; the only gradient ever computed is the
gradient of the total logit sum with respect to the input batch, via
hand-written reverse-mode rules for each layer (including the cross-sample
coupling introduced by batch-statistics normalization).

Layers: ``_ConvBN``, a conv and the batch norm that follows every conv
(stem, conv edges, reductions); ``_ReLU``, ``_AvgPool3x3``, ``_Identity``;
and ``_Head``, global average pooling and the dense classifier.

Layout.  Activations are channel-major, ``(C, N, H, W)``, from stem to
head: ``Network._run`` transposes the NCHW batch once on entry,
``input_jacobian`` its gradient once on exit, and the head's pooling
hands ``(N, C)`` to its classifier.  The public functions speak NCHW.

Kernels.  A convolution fills an im2col block ``(c, kh, kw, m, ho, wo)``
of at most ``_BLOCK_BYTES`` (m >= 1 samples) and ``W @ cols`` writes those
samples' output.  Each tap is one strided copy straight from the input;
zero writes, one per row (column) of taps once per call, cover the
padding.  A 1x1 stride-1 conv not written over its input is one GEMM
over the input, no copy.  A 3x3 stride-1 pad-1 conv from c to
o < 2c channels takes row taps instead: its block holds the three
column taps, ``(c, 3, m, h, w)`` (3c rows where im2col has 9c), and one
GEMM's product with each kernel row (3o rows); the outer rows' products,
their last (first) image row zeroed, are added into the middle row's by
flat shifts of one image row, which is copied to the output.  From few
channels to many (o >= 2c, as a stem's 3 to 16) the 3o rows and their
adds cost more than the 6c saved, and im2col stays.  A stride-1 conv's
input gradient is the forward kernel on the output gradient with
flipped, transposed weights; a stride-2 one is one GEMM per sample
block, ``W^T gy``, giving every tap's product, whose flat shifts each
input phase ``(i - pad) mod stride`` adds up (first zeroing the rows and
columns it never reads, onto which they wrap) and copies into place.
Batch norm normalizes its conv's output in place (the ``_ConvBN`` tape
entry), takes the variance and ``mean(gy * xhat)`` as row dot products,
and writes its gradient over that entry, the conv's input gradient in
turn over that.  ReLU caches a bool mask.  3x3 average pooling, its own
backward pass, sums blocks of whole channels: each 3-tap sum is two
shifted adds over the flat block, the first and last row (column), where
the shift wraps, rewritten.  Each thread's workspace
keeps its block buffer and, for the next scoring, its tape entries'
buffers, until the skeleton or batch shape changes.  A result takes a
kept buffer of its shape and dtype that ``sys.getrefcount`` shows
unreferenced, else a new one.  One rule, ``_Workspace.sole``, says when
a buffer may be written over: it owns its memory and only one name (and
the workspace) holds it.  A ReLU or a same-shape conv given an ``owned``
input or gradient writes its result over it, and a sum goes over a
summand so held, so the workspace keeps no buffer beyond the tape's.

Layer protocol: ``forward(x, owned) -> (y, cache)``, ``backward(cache, gy, owned) -> gx``.

A Network is one straight-line program of steps ``(layer, src, dst)``,
each adding ``layer(slot[src])`` into slot ``dst``.  ``build_network``
emits one ReLU step per cell node with conv out-edges, then keeps only the
steps on an input-to-logits path: the others add exact zeros or reach no
logit.  A genotype whose cell output is identically zero leaves an empty
program, with zero logits and Jacobian.  ``_walk`` is the one loop over a
program: ``_run`` walks its steps (on request recording each ReLU step's
smallest |input|, to detect near-kink inputs before comparing against
finite differences) and ``input_jacobian`` walks them reversed, each
step's slots swapped, popping the tape.
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
        if self.bn_eps < 0:
            raise ConfigError(f"bn_eps must be >= 0, got {self.bn_eps!r}")
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


_BLOCK_BYTES = 1 << 20  # bound on a kernel's block: a conv's im2col or taps, or whole channels


class _Workspace(threading.local):
    """One thread's buffers kept for the next scoring: tape entries' by (shape, dtype) and id, and a block."""

    def __init__(self, key=None):
        self.key, self.kept, self.block = key, {}, np.empty(0)

    def take(self, shape, dtype=np.float64):
        """A kept buffer of `shape` and `dtype` nothing else holds; else a new one."""
        for buf in self.kept.get((shape, np.dtype(dtype)), {}).values():
            if sys.getrefcount(buf) == _ALONE + 1:  # + the workspace's reference
                return buf
        return np.empty(shape, dtype)

    def sole(self, refs, a):
        """Whether `a` owns its buffer and only one local name, on which
        ``sys.getrefcount`` read `refs`, and the workspace hold it."""
        return a.base is None and refs == _ALONE + (id(a) in self.kept.get((a.shape, a.dtype), {}))

    def keep(self, a):
        """Keep `a`, a tape entry that owns its buffer, for later scorings; returns `a`."""
        self.kept.setdefault((a.shape, a.dtype), {})[id(a)] = a
        return a


def _alone():
    a = np.empty(0)  # one local name holds it, as in `take` and `_walk`
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


def _phase_taps(size, k, stride, pad, out):
    """Per kernel offset i along one axis, (r, q) with ``i - pad == stride * q + r``:
    its output o reads element o + q of input phase r (``x[r::stride]``).
    Each phase read fits in `out`."""
    taps = [divmod(i - pad, stride)[::-1] for i in range(k)]
    if any(len(range(r, size, stride)) > out for r, _ in taps):
        raise ValueError(f"no phase im2col for kernel {k}, stride {stride}, pad {pad} over {size} to {out}")
    return taps


def _clear(a, keep):
    """Zero `a` along its last axis outside the slice `keep`."""
    if keep.start:
        a[..., : keep.start] = 0.0
    if keep.stop < a.shape[-1]:
        a[..., keep.stop :] = 0.0


def _shift(d, n):
    """Slices (to, fr) of range(n) with ``fr[k] = to[k] + d``: the flat shift
    by d that stays inside the block; one longer than the block copies nothing."""
    k = max(0, n - abs(d))
    return slice(max(0, -d), max(0, -d) + k), slice(max(0, d), max(0, d) + k)


def _span(size, r, q, stride, out):
    """The outputs o of range(out) whose element o + q of input phase r
    (``x[r::stride]``) lies in range(size), and the input indices they read."""
    lo = max(0, -q)
    hi = max(lo, min(out, len(range(r, size, stride)) - q))
    return slice(lo, hi), slice(r + stride * (lo + q), r + stride * (hi + q), stride)


def _row_taps(x, w, y):
    """3x3, stride 1, pad 1: per sample block the three column taps, ``(c, 3)``
    rows, and one GEMM for the three kernel rows; the outer rows' results are
    added into the middle row's by flat shifts of one image row."""
    c, n, h, width = x.shape
    o = w.shape[0]
    wr = w.transpose(2, 0, 1, 3).reshape(3 * o, 3 * c)  # per kernel row, (o, (c, kw))
    buf, blocks = _blocked((), n, (3 * (c + o) * h * width,))
    for b in blocks:
        blk = buf[: b.stop - b.start].reshape(3 * (c + o), -1)  # a leading slice: dense for a short block too
        cols, rows, src = blk[: 3 * c], blk[3 * c :], x[:, b].reshape(c, -1)
        taps = cols.reshape(c, 3, -1)
        for j in range(3):
            to, fr = _shift(j - 1, src.shape[1])
            taps[:, j, to] = src[:, fr]
        taps = taps.reshape(c, 3, -1, h, width)
        taps[:, 0, ..., 0] = taps[:, 2, ..., -1] = 0.0  # padding, where the shift wrapped
        np.matmul(wr, cols, out=rows)
        top, mid, bottom = rows.reshape(3, o, -1, h, width)
        top[:, :, -1] = bottom[:, :, 0] = 0.0  # rows shifted out of their image
        flat = rows.reshape(3, -1)  # flat adds: numpy buffers a strided add, at 4-5x the time
        flat[1, width:] += flat[0, :-width]
        flat[1, :-width] += flat[2, width:]
        y[:, b] = mid  # y may be x: its block is in cols
    return y


def _conv_forward(x, w, stride, pad, out=None):
    c, n, h, width = x.shape
    o, _, kh, kw = w.shape
    ho, wo = (h + 2 * pad - kh) // stride + 1, (width + 2 * pad - kw) // stride + 1
    # `out`, if of the result's shape, takes the result; it may be x: blocks are read before written
    y = out if out is not None and out.shape == (o, n, ho, wo) else _WS.take((o, n, ho, wo))
    if (kh, kw, stride, pad) == (3, 3, 1, 1) and o < 2 * c:  # 3c + 3o rows per position, not 9c
        return _row_taps(x, w, y)
    w2 = w.reshape(o, -1)
    if kh == kw == 1 and stride == 1 and pad == 0 and y is not x:  # one tap, the input itself
        np.matmul(w2, x.reshape(c, -1), out=y.reshape(o, -1))
        return y
    rows, cols = _phase_taps(h, kh, stride, pad, ho), _phase_taps(width, kw, stride, pad, wo)
    buf, blocks = _blocked((c, kh, kw), n, (ho, wo))
    ys, xs = [_span(h, r, q, stride, ho) for r, q in rows], [_span(width, r, q, stride, wo) for r, q in cols]
    for i, (oy, _) in enumerate(ys):  # zero the padding no tap copy writes, once
        buf[:, i, :, :, : oy.start] = buf[:, i, :, :, oy.stop :] = 0.0
    for j, (ox, _) in enumerate(xs):
        buf[:, :, j, ..., : ox.start] = buf[:, :, j, ..., ox.stop :] = 0.0
    for b in blocks:
        taps = buf[:, :, :, : b.stop - b.start]
        for i, (oy, iy) in enumerate(ys):  # each tap one strided copy straight from the input
            for j, (ox, ix) in enumerate(xs):
                taps[:, i, j, :, oy, ox] = x[:, b, iy, ix]
        np.matmul(w2, taps.reshape(c * kh * kw, -1), out=y[:, b].reshape(o, -1))
    return y


def _conv_backward_input(gy, w, x_shape, stride, pad, out=None):
    """The input gradient; at stride 1 `out` serves as in `_conv_forward`."""
    o, c, kh, kw = w.shape
    if stride == 1:  # the forward kernel on gy, with flipped, transposed weights
        return _conv_forward(gy, w.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1], 1, kh - 1 - pad, out)
    # input phase (ri, rj) at (a, b) sums W[:, :, i, j]^T gy[a - qi, b - qj] over the taps that read it:
    # one GEMM gives every tap's product, and each phase sums its taps' by flat shifts of -(qi wo + qj)
    _, n, ho, wo = gy.shape
    h, width = x_shape[2:]
    rows, cols = _phase_taps(h, kh, stride, pad, ho), _phase_taps(width, kw, stride, pad, wo)
    ys, xs = [_span(h, r, q, stride, ho)[0] for r, q in rows], [_span(width, r, q, stride, wo)[0] for r, q in cols]
    phases = [(ri, rj, [(i, j, -(qi * wo + qj)) for i, (r, qi) in enumerate(rows) if r == ri
                        for j, (r2, qj) in enumerate(cols) if r2 == rj])
              for ri, rj in itertools.product(range(stride), repeat=2)]
    wt = w.transpose(2, 3, 1, 0).reshape(-1, o)  # rows (kh, kw, c): each tap's product is one flat run
    gx = _WS.take(x_shape)
    buf, blocks = _blocked((), n, ((kh * kw + 1) * c * ho * wo,))
    for b in blocks:
        blk = buf[: b.stop - b.start].reshape((kh * kw + 1) * c, -1)  # a leading slice: dense for a short block too
        np.matmul(wt, gy[:, b].reshape(o, -1), out=blk[:-c])
        z, acc = blk[:-c].reshape(kh, kw, -1, ho, wo), blk[-c:].reshape(-1)
        for i, oy in enumerate(ys):  # zero the rows and columns no element of a tap's phase reads:
            _clear(z[i].swapaxes(2, 3), oy)  # the flat shifts wrap onto exactly these
        for j, ox in enumerate(xs):
            _clear(z[:, j], ox)
        for ri, rj, taps in phases:
            for t, (i, j, d) in enumerate(taps):
                to, fr = _shift(d, acc.size)
                if t:
                    acc[to] += z[i, j].reshape(-1)[fr]
                else:  # assigned, and zero where the shift leaves the block
                    acc[to] = z[i, j].reshape(-1)[fr]
                    _clear(acc, to)
            ph = gx[:, b, ri::stride, rj::stride]
            ph[...] = acc.reshape(c, -1, ho, wo)[:, :, : ph.shape[2], : ph.shape[3]] if taps else 0.0
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


def _bn_forward(y, eps):
    """Batch-statistics normalization of `y` in place, no affine or running
    stats; returns the per-channel ``1 / std`` its backward needs."""
    rows = y.reshape(y.shape[0], -1)
    rows -= rows.mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(np.einsum("ij,ij->i", rows, rows)[:, None] / rows.shape[1] + eps)
    rows *= inv
    return inv


def _bn_backward(xhat, inv, gy):
    """The normalization's input gradient, written over its output `xhat`; returns it."""
    gx, rows = xhat.reshape(xhat.shape[0], -1), gy.reshape(xhat.shape[0], -1)
    gx *= np.einsum("ij,ij->i", rows, gx)[:, None] / gx.shape[1]  # mean(gy * xhat) per channel
    np.subtract(rows, gx, out=gx)
    gx -= rows.mean(axis=1, keepdims=True)
    gx *= inv
    return xhat


class _ConvBN:
    """A convolution and the batch norm of its output, normalized in place (its tape entry)."""

    def __init__(self, weight, stride, pad, eps):
        self.w, self.stride, self.pad, self.eps = weight, stride, pad, eps

    def forward(self, x, owned):
        y = _conv_forward(x, self.w, self.stride, self.pad, x if owned else None)
        return _WS.keep(y), (x.shape, y, _bn_forward(y, self.eps))

    def backward(self, cache, gy, owned):
        shape, y, inv = cache
        return _conv_backward_input(_bn_backward(y, inv, gy), self.w, shape, self.stride, self.pad, y)


class _ReLU:
    def forward(self, x, owned):
        mask = _WS.keep(np.greater(x, 0.0, out=_WS.take(x.shape, bool)))
        return np.maximum(x, 0.0, out=x if owned else _WS.take(x.shape)), mask

    def backward(self, cache, gy, owned):
        return np.multiply(gy, cache, out=gy if owned else _WS.take(gy.shape))


class _AvgPool3x3:
    """3x3 average pooling, stride 1, pad 1, always dividing by 9.

    The box sum is symmetric, so the backward pass is the same pooling.
    """

    def forward(self, x, owned):
        return _box3(x), None

    def backward(self, cache, gy, owned):
        return _box3(gy)


class _Identity:
    def forward(self, x, owned):
        return x, None

    def backward(self, cache, gy, owned):
        return gy


class _Head:
    """Global average pooling, then the dense classifier."""

    def __init__(self, weight):
        self.w = weight  # (num_classes, channels)

    def forward(self, x, owned):
        return x.mean(axis=(2, 3)).T @ self.w.T, x.shape

    def backward(self, cache, gy, owned):
        g = (gy @ self.w).T[:, :, None, None]
        return np.divide(np.broadcast_to(g, cache), cache[2] * cache[3], out=_WS.take(cache))


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


def _walk(steps, slots, apply):
    """Run `steps` over `slots`: step ``(layer, a, b)`` adds ``apply(layer, slots[a], owned)``
    into slot b.  A slot is dropped after its last read.  `owned`, and where a sum goes,
    follow the one rule ``_WS.sole``: a buffer one name (and the workspace) holds."""
    last_read = {a: i for i, (_, a, _) in enumerate(steps)}
    for i, (layer, a, b) in enumerate(steps):
        h = slots.pop(a) if last_read[a] == i else slots[a]
        owned = _WS.sole(sys.getrefcount(h), h)  # read before h is pushed as an argument
        y = apply(layer, h, owned)
        del h  # no name outlives its step: a buffer only its slot holds may be written over
        if b in slots:  # the sum goes over a summand nothing else holds
            s = slots.pop(b)
            out = (s if _WS.sole(sys.getrefcount(s), s) else
                   y if _WS.sole(sys.getrefcount(y), y) else _WS.take(y.shape))
            y = np.add(s, y, out=out)
            del s, out
        slots[b] = y
        del y
    return slots


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
        """Logits of NCHW `x`; fills `tape` with step caches, `margins` with ReLU kink margins."""
        if _WS.key != (self.cfg, x.shape):  # keep one skeleton's buffers only
            _WS.__init__((self.cfg, x.shape))

        def apply(layer, h, owned):
            if margins is not None and isinstance(layer, _ReLU):
                margins.append(float(np.min(np.abs(h))))
            y, cache = layer.forward(h, owned)
            if tape is not None:
                tape.append(cache)
            return y

        slots = _walk(self.steps, {0: np.ascontiguousarray(x.transpose(1, 0, 2, 3))}, apply)
        return slots[_OUT] if _OUT in slots else np.zeros((x.shape[0], self.cfg.num_classes))


def _he_conv(rng, c_out, c_in, k):
    std = math.sqrt(2.0 / (c_in * k * k))
    return rng.normal(0.0, std, size=(c_out, c_in, k, k))


def build_network(arch: ArchEncoding, cfg: SkeletonConfig, rng: RngStream) -> Network:
    """Instantiate the skeleton with `arch` in every cell slot.

    Layout: stem (3x3 conv + batch norm), `num_stages` stages of
    `cells_per_stage` cells, a reduction block (ReLU, stride-2 3x3 conv
    doubling channels, batch norm) between stages, then ReLU and the head:
    global average pooling and a dense classifier.  A cell's conv edge is
    ReLU, conv, batch norm; conv edges from one node share its ReLU.  Each
    conv and its batch norm are one ``_ConvBN`` step.  Weights are
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
    x = emit(_ConvBN(_he_conv(rng, channels, cfg.input_channels, 3), 1, 1, eps), 0)
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
                    conv = _ConvBN(_he_conv(rng, channels, channels, k), 1, (k - 1) // 2, eps)
                    if src not in relu:
                        relu[src] = emit(_ReLU(), nodes[src])
                    emit(conv, relu[src], nodes[dst])
            x = nodes[3]
        if stage < cfg.num_stages - 1:
            x = emit(_ConvBN(_he_conv(rng, 2 * channels, channels, 3), 2, 1, eps), emit(_ReLU(), x))
            channels *= 2
    std = math.sqrt(2.0 / channels)
    emit(_Head(rng.normal(0.0, std, size=(cfg.num_classes, channels))), emit(_ReLU(), x), _OUT)
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
    back = [(layer, b, a) for layer, a, b in reversed(net.steps)]  # each step's gradient flows from b to a
    grads = _walk(back, {_OUT: np.ones_like(logits)}, lambda layer, g, owned: layer.backward(tape.pop(), g, owned))
    gx = grads[0].transpose(1, 0, 2, 3) if 0 in grads else np.zeros(batch.shape)
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
