"""Primitive tensor ops with forward and backward, real- and meta-aware.

Every NN module in ``repro.nn`` builds its manual forward/backward out of
these primitives, so meta-mode dispatch (shape propagation without data)
lives in exactly one place. Results inherit the first operand's device.

Precision convention: half-precision matmuls accumulate in float32 and cast
the result back to float16, matching tensor-core semantics (and keeping the
ZeRO == DDP equivalence tests meaningful at fp16).

Kernel rules (docs/ARCHITECTURE.md, "Numerics contract"): no ``**`` with an
exponent other than 2 on arrays (``np.power`` is ~150x a multiply), a
result never aliases an input, and a GEMM operand is C-contiguous. The
second rule is what lets the up-casts use ``astype(copy=False)`` (a no-op
at fp32) and the kernels work in place on their own temporaries;
``reshape`` and ``transpose`` are accounted as views (no device memory),
and only ``reshape``'s result shares its input's host memory. The third
is why ``transpose`` copies on the host: a strided operand moves
``matmul`` results by ULPs.

A paper-scale meta step called these ~13 000 times before the block tape
(``repro.nn.tape``) re-issued its repeated blocks, and a real-data step
still calls them for every block, so the module reads
meta-ness as ``t.data is None`` (``Tensor.is_meta`` is a property call) and
builds every result through ``_result`` — ``tensor.op_result``, the trusted
constructor. That is this module's side of a contract: each op hands it a
shape that is a tuple of Python ints (derived from operand shapes, or
normalised here when the caller supplies it), an ``np.dtype`` instance
tensors support (an operand's, a promotion of operands', ``_F32``, or a
caller's dtype passed through ``supported_dtype``) and, in real mode, an
``np.ndarray`` of exactly that dtype and shape — every narrowing cast is
written out in the op, none is left to the constructor.

fp16 saturates to inf, as hardware does: the arithmetic a loss-scale
overflow step drives past fp16 range — in ``matmul`` (where an inf also
meets a zero weight), ``add``, ``scale``, ``sum_to`` and ``layernorm_grad``
— runs under ``np.errstate``, and the test suite turns any other
``RuntimeWarning`` into an error.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from repro.tensor.tensor import Tensor, op_result as _result, supported_dtype

SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
#: what the causal mask writes over future positions: -1e4, not -inf,
#: keeps fp16 finite, as real mixed-precision kernels do
MASK_FILL = -1e4
_F16 = np.dtype(np.float16)
_F32 = np.dtype(np.float32)


def _any_meta(*tensors: Tensor) -> bool:
    for t in tensors:
        if t.data is None:
            return True
    return False


def _compute_dtype(dtype: np.dtype) -> np.dtype:
    """Internal accumulation dtype: fp16 math runs in fp32 (tensor-core /
    mixed-precision convention); wider dtypes keep their own precision."""
    return np.promote_types(dtype, np.float32)


def _broadcast_shape(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """``np.broadcast_shapes`` of two shapes; numpy is only asked when
    neither is a suffix of the other (equal shapes, a bias under a batch
    and a 2-D weight under batch dims all are)."""
    if a == b or not b or a[-len(b):] == b:
        return a
    if not a or b[-len(a):] == a:
        return b
    return tuple(np.broadcast_shapes(a, b))


# -- shape ops ----------------------------------------------------------------


def reshape(x: Tensor, shape: tuple[int, ...], tag: str = "reshape") -> Tensor:
    shape = tuple(map(int, shape))
    if -1 in shape:
        known = 1
        for s in shape:
            if s != -1:
                known *= s
        shape = tuple([x.size // known if s == -1 else s for s in shape])
    size = 1
    for s in shape:
        size *= s
    if size != x.size:
        raise ValueError(f"cannot reshape {x.shape} ({x.size}) to {shape}")
    data = None if x.data is None else x.data.reshape(shape)
    # Reshape is a metadata op on the device: a view, not an allocation.
    return _result(x, data, shape, x.dtype, tag, alloc=False)


def transpose(x: Tensor, axes: tuple[int, ...], tag: str = "transpose") -> Tensor:
    """Transpose, accounted as a view: device GEMM kernels take transpose
    flags, so no device memory is reserved. The host copies it into a
    C-contiguous array all the same: numpy's ``matmul`` does not sum a
    strided operand in the order it sums a contiguous one (a 32-wide
    linear layer fed ``W.T`` as a view moves most outputs by an ULP), and
    every pinned loss and master-weight digest would move with it."""
    shape = tuple(map(x.shape.__getitem__, axes))
    data = None if x.data is None else x.data.transpose(axes).copy()
    return _result(x, data, shape, x.dtype, tag, alloc=False)


def index_axis0(x: Tensor, i: int, tag: str = "index0") -> Tensor:
    """x[i] along the first axis (QKV split helper)."""
    if not 0 <= i < x.shape[0]:
        raise IndexError(f"index {i} out of range for axis-0 size {x.shape[0]}")
    shape = x.shape[1:]
    data = None if x.data is None else x.data[i, ...].copy()  # an array even from 1-D x
    return _result(x, data, shape, x.dtype, tag)


def stack_axis0(tensors: list[Tensor], tag: str = "stack0") -> Tensor:
    """Inverse of index_axis0: stack equal-shaped tensors on a new axis 0."""
    if not tensors:
        raise ValueError("stack_axis0 needs at least one tensor")
    first = tensors[0]
    if any(t.shape != first.shape or t.dtype != first.dtype for t in tensors):
        raise ValueError("stack_axis0 needs uniform shapes and dtypes")
    shape = (len(tensors),) + first.shape
    if _any_meta(*tensors):
        return _result(first, None, shape, first.dtype, tag)
    return _result(first, np.stack([t.data for t in tensors]), shape, first.dtype, tag)


# -- matmul -------------------------------------------------------------------


def _matmul_shape(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    if len(a) < 2 or len(b) < 2:
        raise ValueError(f"matmul needs >=2-D operands, got {a} @ {b}")
    if a[-1] != b[-2]:
        raise ValueError(f"matmul inner dims mismatch: {a} @ {b}")
    return _broadcast_shape(a[:-2], b[:-2]) + (a[-2], b[-1])


def matmul(a: Tensor, b: Tensor, tag: str = "matmul") -> Tensor:
    """Batched matmul; fp16 inputs accumulate in fp32 (tensor-core style)."""
    shape = _matmul_shape(a.shape, b.shape)
    out_dtype = a.dtype if a.dtype == b.dtype else np.result_type(a.dtype, b.dtype)
    if a.data is None or b.data is None:
        return _result(a, None, shape, out_dtype, tag)
    if a.dtype == np.float16 or b.dtype == np.float16:
        # fp16 saturates to inf, as hardware does; an inf meeting a zero
        # weight is NaN, which the loss scaler reads as overflow.
        with np.errstate(over="ignore", invalid="ignore"):
            acc = a.data.astype(np.float32, copy=False) @ b.data.astype(np.float32, copy=False)
            return _result(a, acc.astype(out_dtype, copy=False), shape, out_dtype, tag)
    return _result(a, a.data @ b.data, shape, out_dtype, tag)


# -- elementwise --------------------------------------------------------------


def add(a: Tensor, b: Tensor, tag: str = "add") -> Tensor:
    shape = _broadcast_shape(a.shape, b.shape)
    dtype = a.dtype if a.dtype == b.dtype else np.result_type(a.dtype, b.dtype)
    if a.data is None or b.data is None:
        return _result(a, None, shape, dtype, tag)
    if dtype == _F16:
        with np.errstate(over="ignore"):  # fp16 saturates to inf, as hardware does
            return _result(a, a.data + b.data, shape, dtype, tag)
    return _result(a, (a.data + b.data).astype(dtype, copy=False), shape, dtype, tag)


def scale(x: Tensor, factor: float, tag: str = "scale") -> Tensor:
    """Multiply by a scalar in the compute dtype (an fp16 tensor scaled by
    a factor beyond fp16 range saturates only after the multiply, matching
    mixed-precision loss-scaling semantics)."""
    if x.data is None:
        return _result(x, None, x.shape, x.dtype, tag)
    ct = _compute_dtype(x.dtype)
    with np.errstate(over="ignore"):  # loss-scale overflow saturates to inf
        data = (x.data.astype(ct, copy=False) * ct.type(factor)).astype(x.dtype, copy=False)
    return _result(x, data, x.shape, x.dtype, tag)


def sum_to(x: Tensor, shape: tuple[int, ...], tag: str = "sum_to") -> Tensor:
    """Reduce-sum ``x`` down to a broadcast-compatible ``shape`` (bias grads).

    Accumulates in the compute dtype (fp32 for fp16 inputs, like real
    reduction kernels) and casts back, saturating on overflow.
    """
    shape = tuple(map(int, shape))
    if x.data is None:
        return _result(x, None, shape, x.dtype, tag)
    data = x.data.astype(_compute_dtype(x.dtype), copy=False)
    # Sum away leading dims, then broadcasted (size-1) dims.
    while data.ndim > len(shape):
        data = data.sum(axis=0)
    for axis, s in enumerate(shape):
        if s == 1 and data.shape[axis] != 1:
            data = data.sum(axis=axis, keepdims=True)
    if data.shape != shape:
        raise ValueError(f"cannot sum {x.shape} to {shape}")
    if data is x.data:  # nothing was reduced and nothing was cast
        data = data.copy()
    with np.errstate(over="ignore"):  # fp16 saturates to inf, as hardware does
        return _result(x, data.astype(x.dtype, copy=False), shape, x.dtype, tag)


# -- GELU (tanh approximation, as in GPT-2) -----------------------------------


def gelu(x: Tensor, tag: str = "gelu") -> Tensor:
    if x.data is None:
        return _result(x, None, x.shape, x.dtype, tag)
    x32 = x.data.astype(_compute_dtype(x.dtype), copy=False)
    # 0.5 * x * (1 + tanh(c * (x + 0.044715 * x^3))), in place on ``t``
    t = x32 * x32
    t *= x32
    t *= 0.044715
    t += x32
    t *= SQRT_2_OVER_PI
    np.tanh(t, out=t)
    t += 1.0
    y = 0.5 * x32
    y *= t
    return _result(x, y.astype(x.dtype, copy=False), x.shape, x.dtype, tag)


def gelu_grad(x: Tensor, dy: Tensor, tag: str = "gelu_grad") -> Tensor:
    if x.data is None or dy.data is None:
        return _result(x, None, x.shape, dy.dtype, tag)
    ct = _compute_dtype(np.promote_types(x.dtype, dy.dtype))
    x32 = x.data.astype(ct, copy=False)
    # dy * (0.5 * (1 + tanh(u)) + 0.5 * x * sech^2(u) * u'),
    # u = c * (x + 0.044715 * x^3), u' = c * (1 + 3 * 0.044715 * x^2)
    du = x32 * x32
    t = du * x32
    t *= 0.044715
    t += x32
    t *= SQRT_2_OVER_PI
    np.tanh(t, out=t)
    du *= 3 * 0.044715
    du += 1.0
    du *= SQRT_2_OVER_PI
    sech2 = t * t
    np.subtract(1.0, sech2, out=sech2)
    right = 0.5 * x32
    right *= sech2
    right *= du
    t += 1.0
    t *= 0.5
    t += right
    t *= dy.data.astype(ct, copy=False)
    return _result(x, t.astype(dy.dtype, copy=False), x.shape, dy.dtype, tag)


# -- softmax ------------------------------------------------------------------


def softmax(x: Tensor, tag: str = "softmax") -> Tensor:
    """Numerically stable softmax over the last axis, computed in fp32."""
    if x.data is None:
        return _result(x, None, x.shape, x.dtype, tag)
    x32 = x.data.astype(_compute_dtype(x.dtype), copy=False)
    e = x32 - x32.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return _result(x, e.astype(x.dtype, copy=False), x.shape, x.dtype, tag)


def softmax_grad(y: Tensor, dy: Tensor, tag: str = "softmax_grad") -> Tensor:
    """Backward through softmax given its *output* y: dx = y*(dy - sum(dy*y))."""
    if y.data is None or dy.data is None:
        return _result(y, None, y.shape, dy.dtype, tag)
    ct = _compute_dtype(np.promote_types(y.dtype, dy.dtype))
    y32 = y.data.astype(ct, copy=False)
    dy32 = dy.data.astype(ct, copy=False)
    dot = (dy32 * y32).sum(axis=-1, keepdims=True)
    dx = dy32 - dot
    dx *= y32
    return _result(y, dx.astype(dy.dtype, copy=False), y.shape, dy.dtype, tag)


# -- causal mask ---------------------------------------------------------------


@functools.lru_cache(maxsize=8)
def _causal_mask(s: int) -> np.ndarray:
    """Strictly-upper-triangular (future) positions of an (s, s) score
    matrix. Built once per sequence length and shared by every rank
    thread, so it is read-only; bounded because generation walks through
    every length up to the context size."""
    mask = np.triu(np.ones((s, s), dtype=bool), k=1)
    mask.flags.writeable = False
    return mask


def causal_mask_fill(scores: Tensor, tag: str = "mask") -> Tensor:
    """Fill strictly-upper-triangular (future) positions of the last two
    dims with ``MASK_FILL``."""
    s = scores.shape[-1]
    if scores.shape[-2] != s:
        raise ValueError(f"causal mask needs square last dims, got {scores.shape}")
    if scores.data is None:
        return _result(scores, None, scores.shape, scores.dtype, tag)
    data = scores.data.copy()
    np.copyto(data, scores.dtype.type(MASK_FILL), where=_causal_mask(s))
    return _result(scores, data, scores.shape, scores.dtype, tag)


def causal_mask_zero_grad(dscores: Tensor, tag: str = "mask_grad") -> Tensor:
    """Zero gradients flowing into masked positions."""
    s = dscores.shape[-1]
    if dscores.data is None:
        return _result(dscores, None, dscores.shape, dscores.dtype, tag)
    data = dscores.data.copy()
    np.copyto(data, 0, where=_causal_mask(s))
    return _result(dscores, data, dscores.shape, dscores.dtype, tag)


# -- layer norm ----------------------------------------------------------------


def layernorm(
    x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5, tag: str = "ln"
) -> tuple[Tensor, Tensor, Tensor]:
    """LayerNorm over the last axis; returns (y, mean, rstd) for backward.

    Statistics are computed in fp32 regardless of input dtype (standard
    mixed-precision practice; LayerNorm in fp16 is numerically fragile).
    """
    stat_shape = x.shape[:-1] + (1,)
    ct = _compute_dtype(x.dtype)
    if _any_meta(x, gamma, beta):
        y = _result(x, None, x.shape, x.dtype, tag)
        mean = _result(x, None, stat_shape, ct, tag + ".mean")
        rstd = _result(x, None, stat_shape, ct, tag + ".rstd")
        return y, mean, rstd
    n = x.shape[-1]
    x32 = x.data.astype(ct, copy=False)
    # ``np.mean`` and ``np.var`` bitwise — the same reduction and division
    # by the count — without their Python wrappers, and with ``x - mean``
    # computed once for the variance and the output.
    mean32 = np.add.reduce(x32, axis=-1, keepdims=True)
    mean32 /= n
    y32 = x32 - mean32
    var32 = np.add.reduce(y32 * y32, axis=-1, keepdims=True)
    var32 /= n
    rstd32 = 1.0 / np.sqrt(var32 + eps)
    y32 *= rstd32
    y32 *= gamma.data.astype(ct, copy=False)
    y32 += beta.data.astype(ct, copy=False)
    y = _result(x, y32.astype(x.dtype, copy=False), x.shape, x.dtype, tag)
    mean = _result(x, mean32, stat_shape, ct, tag + ".mean")
    rstd = _result(x, rstd32, stat_shape, ct, tag + ".rstd")
    return y, mean, rstd


def layernorm_grad(
    x: Tensor,
    gamma: Tensor,
    mean: Tensor,
    rstd: Tensor,
    dy: Tensor,
    tag: str = "ln_grad",
) -> tuple[Tensor, Tensor, Tensor]:
    """Returns (dx, dgamma, dbeta); the parameter gradients are fp32 for
    every input dtype (cast down from the compute dtype at fp64)."""
    feat_shape = (x.shape[-1],)
    if _any_meta(x, gamma, mean, rstd, dy):
        dx = _result(x, None, x.shape, dy.dtype, tag + ".dx")
        dgamma = _result(x, None, feat_shape, _F32, tag + ".dgamma")
        dbeta = _result(x, None, feat_shape, _F32, tag + ".dbeta")
        return dx, dgamma, dbeta
    n = x.shape[-1]
    ct = _compute_dtype(np.promote_types(x.dtype, dy.dtype))
    x32 = x.data.astype(ct, copy=False)
    dy32 = dy.data.astype(ct, copy=False)
    xhat = x32 - mean.data
    xhat *= rstd.data
    dgamma32 = np.add.reduce((dy32 * xhat).reshape(-1, n), axis=0).astype(_F32, copy=False)
    dbeta32 = np.add.reduce(dy32.reshape(-1, n), axis=0).astype(_F32, copy=False)
    dxhat = dy32 * gamma.data.astype(ct, copy=False)
    # rstd * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)), the means
    # as in ``layernorm``, in place on one temporary in the same order.
    mean_dxhat = np.add.reduce(dxhat, axis=-1, keepdims=True)
    mean_dxhat /= n
    mean_prod = np.add.reduce(dxhat * xhat, axis=-1, keepdims=True)
    mean_prod /= n
    dx32 = dxhat - mean_dxhat
    xhat *= mean_prod
    dx32 -= xhat
    dx32 *= rstd.data
    with np.errstate(over="ignore"):  # fp16 saturates to inf, as hardware does
        dx = _result(x, dx32.astype(dy.dtype, copy=False), x.shape, dy.dtype, tag + ".dx")
    dgamma = _result(x, dgamma32, feat_shape, _F32, tag + ".dgamma")
    dbeta = _result(x, dbeta32, feat_shape, _F32, tag + ".dbeta")
    return dx, dgamma, dbeta


# -- embedding -----------------------------------------------------------------


def embedding_lookup(table: Tensor, ids: Tensor, tag: str = "embed") -> Tensor:
    shape = ids.shape + (table.shape[-1],)
    # Device propagation: prefer the table's device, but fall back to the
    # ids' device so ZeRO stage-3 models (whose parameters live off-device
    # until materialized) still produce device-accounted activations.
    ref = table if table.device is not None else ids
    if table.data is None or ids.data is None:
        return _result(ref, None, shape, table.dtype, tag)
    data = table.data[ids.data]
    return _result(ref, data, shape, table.dtype, tag)


def embedding_grad(table: Tensor, ids: Tensor, dy: Tensor, tag: str = "embed_grad") -> Tensor:
    """Scatter-add dy rows into a table-shaped gradient (fp32 accumulation)."""
    if _any_meta(table, ids, dy):
        return _result(table, None, table.shape, _F32, tag)
    grad = np.zeros(table.shape, dtype=np.float32)
    rows = dy.data.reshape(-1, dy.shape[-1]).astype(np.float32, copy=False)
    np.add.at(grad, ids.data.reshape(-1), rows)
    return _result(table, grad, table.shape, _F32, tag)


# -- cross entropy ---------------------------------------------------------------


def cross_entropy(logits: Tensor, targets: Tensor) -> tuple[Tensor, Tensor]:
    """Mean token-level cross entropy. Returns (loss_scalar, probs_for_backward).

    ``logits``: (N, V) fp16/fp32; ``targets``: (N,) int. Loss is fp32,
    tagged ``loss``; the probabilities ``loss.probs``.
    """
    n, v = logits.shape
    ct = _compute_dtype(logits.dtype)
    if logits.data is None or targets.data is None:
        loss = _result(logits, None, (), ct, "loss")
        probs = _result(logits, None, (n, v), ct, "loss.probs")
        return loss, probs
    x32 = logits.data.astype(ct, copy=False)
    probs32 = x32 - x32.max(axis=-1, keepdims=True)
    np.exp(probs32, out=probs32)
    probs32 /= probs32.sum(axis=-1, keepdims=True)
    picked = probs32[np.arange(n), targets.data]
    loss32 = np.asarray(-np.log(np.maximum(picked, 1e-30)).mean(), dtype=ct)
    loss = _result(logits, loss32, (), ct, "loss")
    probs = _result(logits, probs32, (n, v), ct, "loss.probs")
    return loss, probs


def cross_entropy_grad(probs: Tensor, targets: Tensor, dtype=np.float16) -> Tensor:
    """d(mean CE)/dlogits = (probs - onehot)/N, cast to the model dtype and
    tagged ``loss.dlogits``."""
    n, v = probs.shape
    dtype = supported_dtype(dtype)
    if probs.data is None or targets.data is None:
        return _result(probs, None, (n, v), dtype, "loss.dlogits")
    grad = probs.data.copy()
    grad[np.arange(n), targets.data] -= 1.0
    grad /= n
    return _result(probs, grad.astype(dtype, copy=False), (n, v), dtype, "loss.dlogits")
