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

Halves.  A batch whose stem activation (``stem_channels * N * H * W``
float64s) exceeds ``_SPLIT_BYTES`` runs as two halves, the first n // 2
samples and the rest (``_split``): this thread runs the first, one
persistent helper thread the second, and their rows (logits, Jacobian
rows) are stacked.  Samples meet only in batch norm, whose per-channel
sums (the mean, the variance's sum of squares, and backward's sums of
``gy * xhat`` and ``gy``) are the first half's sum plus the second's,
over the whole batch's count: each half hands its sums to a two-party
barrier (``_Pair``), whose action adds them once both halves wait.  One
split runs at a time.  While it runs, OpenBLAS is held at one thread
through its ``openblas_set_num_threads`` (found by ctypes in the library
numpy links), for the whole process, and restored after (a fork waits
for that, or its child would keep the hold); without that function the
halves run at OpenBLAS's own thread count.  Smaller batches run whole.

Kernels.  A convolution fills an im2col block ``(c, kh, kw, m, ho, wo)``
of at most ``_BLOCK_BYTES`` (m >= 1 samples) and ``W @ cols`` writes those
samples' output.  Each tap is one strided copy straight from the input;
zero writes, one per row (column) of taps once per call, cover the
padding.  A 1x1 stride-1 conv not written over its input is one GEMM
over the input, no copy.  Every 3x3 stride-1 pad-1 conv, c to o
channels, takes row taps instead: its block holds the three column taps,
``(c, 3, m, h, w)`` (3c rows where im2col has 9c), and one GEMM's
product with each kernel row (3o rows); the outer rows' products, their
last (first) image row zeroed, are added into the middle row's by flat
shifts of one image row, which is copied to the output.  That leaves
im2col to stride-2 forwards and a 1x1 conv written over its input.  A
stride-1 conv's input gradient is the forward kernel on the output
gradient with flipped, transposed weights; a stride-2 one is one GEMM per
sample block, ``W^T gy``, giving every tap's product, whose flat shifts
each input phase ``(i - pad) mod stride`` adds up (first zeroing the rows
and columns it never reads, onto which they wrap) and copies into place.
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
builds it from ``canonical(arch)`` alone, kept as the network's `arch`:
a dead edge gets neither a step nor weights.  ``_walk`` is
the one loop over a program: ``_run`` walks its steps (on request
recording each ReLU step's smallest |input|, to detect near-kink inputs
before comparing with finite differences) and ``input_jacobian`` walks
them reversed, each step's slots swapped, popping the tape.
"""

from __future__ import annotations

import ctypes
import functools
import itertools
import math
import os
import sys
import threading
from dataclasses import dataclass, field

import numpy as np

from .cellspace import EDGES, ArchEncoding, OpKind, canonical
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
        if self.J.ndim != 2:
            raise ValueError(f"J must be 2-D, got shape {self.J.shape}")
        if self.J.shape[0] < 2:
            raise ValueError("Jacobian batch needs at least 2 samples")
        self.labels = _int_labels(self.labels, self.J.shape[0])


def _int_labels(labels, n):
    """`labels` as n int64s; a label the cast would change, such as 1.7, fails."""
    cast = np.asarray(labels).astype(np.int64)
    if cast.shape != (n,) or not np.array_equal(cast, labels):
        raise ValueError(f"labels must be {n} integers, got {np.asarray(labels)!r}")
    return cast


# ---------------------------------------------------------------------------
# convolution primitives


_BLOCK_BYTES = 1 << 20  # bound on a kernel's block: a conv's im2col or taps, or whole channels


class _Workspace(threading.local):
    """One thread's buffers kept for the next scoring: tape entries' by (shape, dtype) and id, and a block;
    and, while it runs half of a split batch, that half's `index` (0 or 1) and its `pair`."""

    pair, index = None, 0  # no split: class defaults, which resetting the buffers leaves alone

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


def _rows(a):
    return a.reshape(a.shape[0], -1)


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
    if (kh, kw, stride, pad) == (3, 3, 1, 1):  # 3c + 3o rows per position, not 9c
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


def _batch_means(shape, *sums):
    """Per-channel means over the whole batch of a channel-major `shape` from
    this thread's per-channel `sums`.  In a split, the pair's barrier adds
    the first half's sums and the second's, over the whole batch's count."""
    c, n, h, w = shape
    if _WS.pair is not None:
        sums, n = _WS.pair.add(sums), _WS.pair.n
    return [s / (n * h * w) for s in sums]


def _bn_forward(y, eps):
    """Batch-statistics normalization of `y` in place, no affine or running
    stats; returns the per-channel ``1 / std`` its backward needs."""
    rows = _rows(y)
    mean, = _batch_means(y.shape, rows.sum(axis=1))
    rows -= mean[:, None]
    var, = _batch_means(y.shape, np.einsum("ij,ij->i", rows, rows))
    inv = 1.0 / np.sqrt(var[:, None] + eps)
    rows *= inv
    return inv


def _bn_backward(xhat, inv, gy):
    """The normalization's input gradient, written over its output `xhat`; returns it."""
    gx, rows = _rows(xhat), _rows(gy)
    dot, mean = _batch_means(xhat.shape, np.einsum("ij,ij->i", rows, gx), rows.sum(axis=1))
    gx *= dot[:, None]
    np.subtract(rows, gx, out=gx)
    gx -= mean[:, None]
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
    """Immutable step program built from (canonical arch, cfg, init stream)."""

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
    zero-mean normal with std sqrt(2 / fan_in), no biases, drawn in layout
    order.  All is built from ``canonical(arch)``, kept as the network's
    `arch`: a dead edge gets no step and no weights.
    """
    arch = canonical(arch)
    if not arch:  # genotype 0: the cell output is identically zero
        return Network(arch=arch, cfg=cfg, steps=[])
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
                    if src not in relu:
                        relu[src] = emit(_ReLU(), nodes[src])
                    emit(_ConvBN(_he_conv(rng, channels, channels, k), 1, (k - 1) // 2, eps), relu[src], nodes[dst])
            x = nodes[3]
        if stage < cfg.num_stages - 1:
            x = emit(_ConvBN(_he_conv(rng, 2 * channels, channels, 3), 2, 1, eps), emit(_ReLU(), x))
            channels *= 2
    std = math.sqrt(2.0 / channels)
    emit(_Head(rng.normal(0.0, std, size=(cfg.num_classes, channels))), emit(_ReLU(), x), _OUT)
    return Network(arch=arch, cfg=cfg, steps=steps)


# ---------------------------------------------------------------------------
# one batch on two threads


class _Pair(threading.Barrier):
    """Two threads, each running the step program on one half of a batch of n.
    Each half's batch norm hands its sums to `add` and waits; the barrier's
    action, run once both wait, adds the first half's and the second's."""

    def __init__(self, n):
        super().__init__(2, action=self._add)
        self.n, self.parts = n, [None, None]

    def _add(self):
        self.sums = [s1 + s2 for s1, s2 in zip(*self.parts)]

    def run(self, index, fn, *args):
        _WS.pair, _WS.index = self, index
        try:
            return fn(*args)
        except BaseException:
            self.abort()  # the partner's next `add` raises instead of waiting forever
            raise
        finally:
            _WS.pair = None

    def add(self, sums):
        """Both halves' `sums` added, in batch order.  The next action, which
        replaces them, waits until both halves have read these."""
        self.parts[_WS.index] = sums
        self.wait()
        return self.sums


@functools.cache
def _blas():
    """The loaded OpenBLAS's (get, set) thread-count functions, or None."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    try:
        lib = ctypes.CDLL(umath.__file__)  # a symbol lookup also searches the libraries it links
    except OSError:
        return None
    for prefix, suffix in (("scipy_", "64_"), ("", "64_"), ("", "")):
        get, set_ = (getattr(lib, f"{prefix}openblas_{verb}_num_threads{suffix}", None) for verb in ("get", "set"))
        if get is not None and set_ is not None:
            get.argtypes, get.restype, set_.argtypes, set_.restype = [], ctypes.c_int, [ctypes.c_int], None
            return get, set_
    return None


@functools.cache
def _helper():
    """The executor of the helper thread, made at the first split."""
    from concurrent.futures import ThreadPoolExecutor  # not imported with the package: only a split needs it

    return ThreadPoolExecutor(1, thread_name_prefix="evonas-half")


_SPLITTING = threading.Lock()  # one split at a time uses the helper
if hasattr(os, "register_at_fork"):  # a child keeps no split's BLAS hold and makes its own helper
    os.register_at_fork(before=_SPLITTING.acquire, after_in_parent=_SPLITTING.release,
                        after_in_child=lambda: (_SPLITTING.release(), _helper.cache_clear()))

# Stem activation above which a batch splits, apart from _BLOCK_BYTES.
# One score_arch on two CPUs (median over random genotypes, three
# processes): the desk batch (0.49 MB) took 13.7-15.5 ms in halves against
# 10.9-11.7 ms whole, the wide one (2.6 MB) 37-47 ms against 51-54 ms.
# Moving it changes which batches split, and with that their scores' bits.
_SPLIT_BYTES = 1 << 20


def _split(fn, net, x):
    """``fn(net, x)``, rows per sample of NCHW batch `x` (n >= 2).  A batch whose
    stem activation exceeds ``_SPLIT_BYTES`` runs its first n // 2 samples
    on this thread and the rest on the helper thread, and their rows are
    stacked.  A split waits for one already running, and a fork for a running
    split (so a fork from inside a half deadlocks).  While the halves run,
    OpenBLAS is held at one thread for the whole process (every thread's
    GEMMs), when its thread control is found, and restored after."""
    if 8 * net.cfg.stem_channels * x[0, 0].size * len(x) <= _SPLIT_BYTES:
        return fn(net, x)
    with _SPLITTING:
        get, set_ = _blas() or (lambda: 0, lambda threads: None)
        threads = get()
        set_(1)  # two threads at two BLAS threads each run slower on two CPUs than at one
        try:
            pair, h = _Pair(len(x)), len(x) // 2
            second = _helper().submit(pair.run, 1, fn, net, x[h:])
            try:
                first = pair.run(0, fn, net, x[:h])
            except threading.BrokenBarrierError:
                second.result()  # the helper's error broke the barrier: raise it
                raise
            finally:
                second.exception()  # wait for the helper either way
            return np.concatenate((first, second.result()))
        finally:
            set_(threads)


def _jacobian(net, x):
    """The input-gradient rows of NCHW `x`, on this thread."""
    tape: list = []
    logits = net._run(x, tape=tape)
    back = [(layer, b, a) for layer, a, b in reversed(net.steps)]  # each step's gradient flows from b to a
    grads = _walk(back, {_OUT: np.ones_like(logits)}, lambda layer, g, owned: layer.backward(tape.pop(), g, owned))
    gx = grads[0].transpose(1, 0, 2, 3) if 0 in grads else np.zeros(x.shape)
    return gx.reshape(len(x), -1)


def forward(net: Network, batch: np.ndarray) -> np.ndarray:
    """Logits (N, num_classes); batch statistics come from `batch` itself."""
    return _split(Network._run, net, net._check_batch(batch))


def input_jacobian(net: Network, batch: np.ndarray, labels) -> JacobianBatch:
    """Row i is d(total logit sum)/d(sample i), flattened to length D.

    The total sum runs over all samples and classes, so each row includes
    the coupling through batch statistics.  Non-finite values are passed
    through for the consumer to detect.  A batch whose stem activation
    exceeds ``_SPLIT_BYTES`` runs as two halves on two threads (`_split`).
    """
    batch = net._check_batch(batch)
    labels = _int_labels(labels, len(batch))
    if labels.min() < 0 or labels.max() >= net.cfg.num_classes:
        raise ValueError("labels must lie in [0, num_classes)")
    return JacobianBatch(J=_split(_jacobian, net, batch), labels=labels)


def finite_diff_jacobian(net: Network, batch: np.ndarray, step: float) -> np.ndarray:
    """Central-difference estimate of the same N x D matrix, entry by entry."""
    if not 0 < step < math.inf:
        raise ValueError("step must be positive and finite")
    batch = net._check_batch(batch)
    n = batch.shape[0]
    flat = batch.reshape(n, -1)
    out = np.empty_like(flat)
    work = flat.copy()
    for i in range(n):
        for d in range(flat.shape[1]):
            orig = work[i, d]
            work[i, d] = orig + step
            s_plus = _split(Network._run, net, work.reshape(batch.shape)).sum()
            work[i, d] = orig - step
            s_minus = _split(Network._run, net, work.reshape(batch.shape)).sum()
            work[i, d] = orig
            out[i, d] = (s_plus - s_minus) / (2.0 * step)
    return out


def relu_kink_margin(net: Network, batch: np.ndarray, positive_only: bool = False) -> float:
    """Smallest |preactivation| reaching any ReLU step the network runs;
    guards finite-difference checks.

    No ReLU is built that would see a structural zero or feed no logit
    (``net.arch`` is canonical).  `positive_only` skips exact zeros, which
    a ReLU the network runs meets only by accident, so both settings agree.
    """
    margins: list = []
    _split(lambda net, x: net._run(x, margins=margins), net, net._check_batch(batch))
    if positive_only:
        margins = [m for m in margins if m > 0.0]
    return min(margins) if margins else math.inf
