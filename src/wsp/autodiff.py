"""Dense-tensor algebra with reverse-mode automatic differentiation.

The graph is define-by-run: every operation on grad-requiring tensors records
its parents and a backward closure on the output tensor. ``backward`` linearises
the graph reachable from a scalar into a :class:`Tape` (parents always precede
children) and replays it once in reverse, accumulating gradients in tape order
so repeated backward passes are bit-for-bit identical.

Values are float64. Float32 leaves do not give a float32 path: the loss's
weights are float64, so the loss is float64 and so are the gradients, or a mix
of float32 and float64 (ROADMAP, "Measured, not pursued").
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ContractError, NonFiniteError

_uid_counter = itertools.count()


class Tensor:
    """A dense multi-dimensional array that can participate in a tape.

    ``data`` is treated as immutable while a graph built from it is alive;
    in-place parameter updates are only legal between forward passes.
    """

    __slots__ = ("data", "requires_grad", "uid", "_parents", "_backward_fn", "_op")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype.kind != "f":
            arr = arr.astype(np.float64)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.uid = next(_uid_counter)
        self._parents: tuple[Tensor, ...] = ()
        self._backward_fn: Callable[[np.ndarray], Sequence[np.ndarray | None]] | None = None
        self._op: str | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() requires a single element, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = f" op={self._op}" if self._op else ""
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad}{tag})"


def make_op(
    data: np.ndarray,
    parents: Iterable[Tensor],
    backward_fn: Callable[[np.ndarray], Sequence[np.ndarray | None]],
    op: str,
) -> Tensor:
    """Wrap an op result, recording it on the graph iff a parent needs grad.

    ``backward_fn`` maps the output gradient to one gradient (or None) per
    parent. Extension point for fused ops defined outside this module.
    """
    parents = tuple(parents)
    out = Tensor(data, requires_grad=any(p.requires_grad for p in parents))
    if out.requires_grad:
        out._parents = parents
        out._backward_fn = backward_fn
        out._op = op
    return out


class Tape:
    """Topologically ordered list of the nodes reachable from a root.

    Built by iterative post-order traversal of parent links, so every node's
    parents precede it and each node appears exactly once.
    """

    def __init__(self, root: Tensor):
        self.nodes: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                self.nodes.append(node)
                continue
            if node.uid in seen:
                continue
            seen.add(node.uid)
            stack.append((node, True))
            for parent in reversed(node._parents):
                if parent.uid not in seen:
                    stack.append((parent, False))

    def __len__(self) -> int:
        return len(self.nodes)


class GradientMap:
    """Leaf gradients keyed by tensor uid; any other tensor reads as zero."""

    def __init__(self, grads: dict[int, np.ndarray]):
        self._grads = grads

    def wrt(self, t: Tensor) -> np.ndarray:
        g = self._grads.get(t.uid)
        if g is None:
            return np.zeros_like(t.data)
        return g


def backward(scalar: Tensor) -> GradientMap:
    """Reverse-mode pass from a single-element tensor.

    Returns the map of the gradients of the requires_grad leaves reachable
    from ``scalar``, the one place a gradient is kept. An interior node's
    gradient is dropped as soon as it has reached the node's parents, so at
    most one frontier of interior gradients is alive at a time. Leaves that
    never reached the tape are reported as zero by the map. The graph itself
    is left intact, so a second pass gives the same gradients.
    """
    if scalar.data.size != 1:
        raise ContractError(f"backward() needs a scalar, got shape {scalar.shape}")
    tape = Tape(scalar)
    grads: dict[int, np.ndarray] = {scalar.uid: np.ones_like(scalar.data)}
    for node in reversed(tape.nodes):
        if node._backward_fn is None:
            continue
        gout = grads.pop(node.uid, None)
        if gout is None:
            continue
        parent_grads = node._backward_fn(gout)
        for parent, g in zip(node._parents, parent_grads):
            if g is None or not parent.requires_grad:
                continue
            acc = grads.get(parent.uid)
            grads[parent.uid] = g if acc is None else acc + g
    return GradientMap(grads)


# ---------------------------------------------------------------------------
# Primitive operations
# ---------------------------------------------------------------------------


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Row-batched dense layer: out[r, c] = sum_k x[r, k] w[k, c] + b[c]."""
    if x.data.ndim != 2 or w.data.ndim != 2 or b.data.ndim != 1:
        raise ContractError(
            f"affine expects x:2d, w:2d, b:1d, got {x.shape}, {w.shape}, {b.shape}"
        )
    if x.shape[1] != w.shape[0] or w.shape[1] != b.shape[0]:
        raise ContractError(f"affine dimension mismatch: {x.shape} @ {w.shape} + {b.shape}")
    out = x.data @ w.data + b.data

    def bwd(g):
        gx = g @ w.data.T if x.requires_grad else None
        return gx, x.data.T @ g, g.sum(axis=0)

    return make_op(out, (x, w, b), bwd, "affine")


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0
    return make_op(np.where(mask, x.data, 0.0), (x,), lambda g: (g * mask,), "relu")


def sum_all(x: Tensor) -> Tensor:
    out = np.asarray(x.data.sum(), dtype=x.data.dtype)
    return make_op(out, (x,), lambda g: (np.broadcast_to(g, x.shape).astype(x.data.dtype),), "sum_all")


def l2_normalize(x: Tensor) -> Tensor:
    """Scale each row of a matrix to unit Euclidean norm."""
    if x.data.ndim != 2:
        raise ContractError(f"l2_normalize expects a matrix, got {x.shape}")
    norms = np.sqrt((x.data * x.data).sum(axis=1, keepdims=True))
    if np.any(norms == 0.0):
        raise ContractError("l2_normalize: zero row")
    if not np.isfinite(norms).all():  # no direction to keep: a row norm overflowed, or a row holds NaN
        raise NonFiniteError("l2_normalize: non-finite row norm")
    y = x.data / norms

    def bwd(g):
        inner = (g * y).sum(axis=1, keepdims=True)
        return ((g - y * inner) / norms,)

    return make_op(y, (x,), bwd, "l2_normalize")


def _conv(x: np.ndarray, k: np.ndarray, stride: int, need_gx: bool):
    """Valid cross-correlation of a channels-last B,H,W,C batch with an F,C,kh,kw kernel.

    Returns the B,hout,wout,F output and ``grads(gcols)``, which maps the
    output gradient as a (B*hout*wout, F) matrix to (input gradient in
    channels-last layout, or None unless ``need_gx``; kernel gradient). The
    im2col columns are ordered (c, u, v), the kernel's own order, so both
    passes are single BLAS GEMMs.
    """
    if x.ndim != 4 or k.ndim != 4:
        raise ContractError(f"conv expects 4-d input and kernel, got {x.shape}, {k.shape}")
    if stride < 1:
        raise ContractError(f"stride must be >= 1, got {stride}")
    batch, h, w, cin = x.shape
    fout, kc, kh, kw = k.shape
    if kc != cin:
        raise ContractError(f"kernel channels {kc} != input channels {cin}")
    if kh > h or kw > w:
        raise ContractError(f"kernel {kh}x{kw} larger than input {h}x{w}")
    windows = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(1, 2))[:, ::stride, ::stride]
    hout, wout = windows.shape[1:3]
    cols = windows.reshape(batch * hout * wout, cin * kh * kw)
    kmat = k.reshape(fout, cin * kh * kw)
    out = (cols @ kmat.T).reshape(batch, hout, wout, fout)

    def grads(gcols):
        gk = (gcols.T @ cols).reshape(k.shape)
        if not need_gx:
            return None, gk
        # One GEMM per kernel tap, added into the strided input positions in tap order. With one
        # input channel a tap's product would be a BLAS matrix-vector product, whose sums can differ
        # from the matrix-matrix kernel's in the last bit, so all taps then come from one GEMM.
        every_tap = (gcols @ kmat).reshape(batch, hout, wout, cin, kh, kw) if cin == 1 else None
        gx = np.zeros(x.shape, dtype=x.dtype)
        for u in range(kh):
            for v in range(kw):
                if every_tap is None:
                    tap = (gcols @ k[:, :, u, v]).reshape(batch, hout, wout, cin)
                else:
                    tap = every_tap[..., u, v]
                gx[:, u : u + stride * hout : stride, v : v + stride * wout : stride] += tap
        return gx, gk

    return out, grads


def conv2d(x: Tensor, k: Tensor, stride: int = 1) -> Tensor:
    """Valid cross-correlation of a B,C,H,W batch with an F,C,k,k kernel; B,F,hout,wout out.

    The channels-first form of the convolution inside ``conv_bias_relu``.
    """
    if x.data.ndim != 4:
        raise ContractError(f"conv2d expects 4-d input and kernel, got {x.shape}, {k.shape}")
    out, grads = _conv(x.data.transpose(0, 2, 3, 1), k.data, stride, x.requires_grad)

    def bwd(g):
        gx, gk = grads(g.transpose(0, 2, 3, 1).reshape(-1, k.shape[0]))
        return (None if gx is None else gx.transpose(0, 3, 1, 2)), gk

    return make_op(np.ascontiguousarray(out.transpose(0, 3, 1, 2)), (x, k), bwd, "conv2d")


def conv_bias_relu(x: Tensor, k: Tensor, b: Tensor, stride: int = 1) -> Tensor:
    """One conv stage: relu(conv(x, k) + b) on a channels-last B,H,W,C batch, as one op.

    The output stays channels-last (B, hout, wout, F). For the backward pass
    the op keeps only the im2col columns and one ReLU mask.
    """
    if b.data.ndim != 1 or k.data.ndim != 4 or b.shape[0] != k.shape[0]:
        raise ContractError(f"bias {b.shape} incompatible with kernel {k.shape}")
    out, grads = _conv(x.data, k.data, stride, x.requires_grad)
    out += b.data
    mask = out > 0
    np.copyto(out, 0.0, where=~mask)

    def bwd(g):
        g = g * mask
        gx, gk = grads(g.reshape(-1, k.shape[0]))
        # Summed per (view, channel) over a contiguous H*W run, then over views: numpy's pairwise
        # order for a channels-first array, on which the checkpoint bytes depend.
        gb = np.ascontiguousarray(g.transpose(0, 3, 1, 2)).sum(axis=(0, 2, 3))
        return gx, gk, gb

    return make_op(out, (x, k, b), bwd, "conv_bias_relu")


def channels_last(x: Tensor) -> Tensor:
    """A B,C,H,W batch as B,H,W,C (a view, no copy)."""
    if x.data.ndim != 4:
        raise ContractError(f"channels_last expects 4-d input, got {x.shape}")
    return make_op(x.data.transpose(0, 2, 3, 1), (x,), lambda g: (g.transpose(0, 3, 1, 2),), "channels_last")


def spatial_mean(x: Tensor) -> Tensor:
    """Global average pool of a channels-last batch: B,H,W,C -> B,C."""
    if x.data.ndim != 4:
        raise ContractError(f"spatial_mean expects 4-d input, got {x.shape}")
    _, h, w, _ = x.shape
    # Averaged per (view, channel) over a contiguous H*W run, in the same pairwise order as the bias gradient.
    out = np.ascontiguousarray(x.data.transpose(0, 3, 1, 2)).mean(axis=(2, 3))

    def bwd(g):
        return (np.broadcast_to(g[:, None, None, :], x.shape) / (h * w),)

    return make_op(out, (x,), bwd, "spatial_mean")


# ---------------------------------------------------------------------------
# Finite-difference oracle
# ---------------------------------------------------------------------------


def finite_diff_gradient(f: Callable[[Tensor], Tensor], x: Tensor, eps: float = 1e-5) -> Tensor:
    """Central-difference gradient of a scalar-valued function at ``x``.

    Independent of the tape: every probe point is evaluated through a fresh
    non-grad tensor.
    """
    if eps <= 0:
        raise ContractError(f"eps must be positive, got {eps}")
    base = np.array(x.data, dtype=np.float64)
    flat = base.reshape(-1)
    grad = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        f_plus = f(Tensor(base.copy())).item()
        flat[i] = orig - eps
        f_minus = f(Tensor(base.copy())).item()
        flat[i] = orig
        grad[i] = (f_plus - f_minus) / (2.0 * eps)
    return Tensor(grad.reshape(base.shape))


def max_relative_error(a: np.ndarray, b: np.ndarray) -> float:
    """Largest per-entry deviation, relative to the gradient magnitude.

    The denominator is floored at 1 so near-zero gradients are compared
    absolutely instead of amplifying finite-difference round-off.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    scale = max(1.0, float(np.abs(a).max(initial=0.0)), float(np.abs(b).max(initial=0.0)))
    return float(np.abs(a - b).max(initial=0.0)) / scale
