"""Dense float64 tensors with reverse-mode automatic differentiation.

A ``Tensor`` wraps a numpy array. While attached to a ``GradTape`` every
operation on it is recorded, and a single reverse sweep over the tape
yields exact gradients for all watched leaves. Everything is eager,
single threaded and double precision; the target scale is small research
models, not production throughput.

Plain numpy arrays and Python scalars mix freely with tensors in every
op; they are treated as constants and receive no gradient.
"""

from __future__ import annotations

import numpy as np

from .exceptions import ContractError, DegenerateBatchError, ShapeError, TapeError


class GradTape:
    """Append-only record of differentiable operations.

    Nodes are appended in execution order, so every node's parents sit at
    lower indices and one reverse sweep implements backpropagation. A tape
    is meant to live for a single forward/backward cycle on one thread.
    """

    def __init__(self):
        self._parents: list[tuple[int, ...]] = []
        self._grad_fns: list[tuple] = []
        self._watched: list[Tensor] = []

    def __len__(self):
        return len(self._parents)

    def _record(self, parents, grad_fns):
        self._parents.append(tuple(parents))
        self._grad_fns.append(tuple(grad_fns))
        return len(self._parents) - 1

    def watch(self, t: "Tensor") -> "Tensor":
        """Attach ``t`` as a leaf so ``backward`` can report its gradient."""
        if t.tape is self:
            return t
        if t.tape is not None:
            raise TapeError("tensor is already attached to another tape")
        t.node = self._record((), ())
        t.tape = self
        self._watched.append(t)
        return t

    def release(self):
        """Detach every watched leaf so the tensors can join a future tape."""
        for t in self._watched:
            t.tape = None
            t.node = None
        self._watched.clear()


class Tensor:
    """Float64 array, optionally attached to a node of a gradient tape."""

    __slots__ = ("array", "tape", "node")

    def __init__(self, data, tape: GradTape | None = None, node: int | None = None):
        # order="C" keeps 0-d scalars 0-d; ascontiguousarray would promote them
        arr = np.asarray(data, dtype=np.float64, order="C")
        if arr.size == 0:
            raise ShapeError(f"zero-size tensor with shape {arr.shape}")
        self.array = arr
        self.tape = tape
        self.node = node

    @property
    def shape(self) -> tuple[int, ...]:
        return self.array.shape

    @property
    def ndim(self) -> int:
        return self.array.ndim

    @property
    def data(self) -> np.ndarray:
        """Flat row-major view of the storage."""
        return self.array.reshape(-1)

    def item(self) -> float:
        if self.array.size != 1:
            raise ShapeError(f"item() needs a single element, shape is {self.shape}")
        return float(self.array)

    def detach(self) -> "Tensor":
        """Copy of the values with no tape attachment."""
        return Tensor(self.array.copy())

    def __repr__(self):
        return f"Tensor(shape={self.shape}, attached={self.tape is not None})"

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)


class Gradients:
    """Result of a backward pass, indexable by watched or recorded tensors."""

    def __init__(self, tape: GradTape, values: list):
        self._tape = tape
        self._values = values

    def __getitem__(self, t: Tensor) -> np.ndarray:
        if not isinstance(t, Tensor) or t.tape is not self._tape or t.node is None:
            raise TapeError("tensor is not attached to the tape this pass ran on")
        g = self._values[t.node]
        if g is None:
            return np.zeros(t.shape)
        return g


def _as_array(x) -> np.ndarray:
    if isinstance(x, Tensor):
        return x.array
    return np.asarray(x, dtype=np.float64)


def _tape_of(operands) -> GradTape | None:
    tape = None
    for op in operands:
        if isinstance(op, Tensor) and op.tape is not None:
            if tape is None:
                tape = op.tape
            elif tape is not op.tape:
                raise TapeError("operands live on different tapes")
    return tape


def _make(arr, *parent_specs) -> Tensor:
    """Build the op result, recording grad closures for attached parents."""
    tape = _tape_of([p for p, _ in parent_specs])
    if tape is None:
        return Tensor(arr)
    parents = []
    fns = []
    for p, fn in parent_specs:
        if isinstance(p, Tensor) and p.tape is not None:
            parents.append(p.node)
            fns.append(fn)
    node = tape._record(parents, fns)
    return Tensor(arr, tape, node)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient down to ``shape``, undoing numpy broadcasting."""
    if grad.shape == tuple(shape):
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def add(a, b) -> Tensor:
    aa, ba = _as_array(a), _as_array(b)
    return _make(
        aa + ba,
        (a, lambda g, s=aa.shape: _unbroadcast(g, s)),
        (b, lambda g, s=ba.shape: _unbroadcast(g, s)),
    )


def sub(a, b) -> Tensor:
    aa, ba = _as_array(a), _as_array(b)
    return _make(
        aa - ba,
        (a, lambda g, s=aa.shape: _unbroadcast(g, s)),
        (b, lambda g, s=ba.shape: _unbroadcast(-g, s)),
    )


def mul(a, b) -> Tensor:
    aa, ba = _as_array(a), _as_array(b)
    return _make(
        aa * ba,
        (a, lambda g: _unbroadcast(g * ba, aa.shape)),
        (b, lambda g: _unbroadcast(g * aa, ba.shape)),
    )


def div(a, b) -> Tensor:
    aa, ba = _as_array(a), _as_array(b)
    return _make(
        aa / ba,
        (a, lambda g: _unbroadcast(g / ba, aa.shape)),
        (b, lambda g: _unbroadcast(-g * aa / (ba * ba), ba.shape)),
    )


def neg(a) -> Tensor:
    aa = _as_array(a)
    return _make(-aa, (a, lambda g: -g))


def sqrt(a) -> Tensor:
    aa = _as_array(a)
    out = np.sqrt(aa)
    return _make(out, (a, lambda g: g * (0.5 / out)))


def absolute(a) -> Tensor:
    aa = _as_array(a)
    return _make(np.abs(aa), (a, lambda g: g * np.sign(aa)))


def relu(a) -> Tensor:
    aa = _as_array(a)
    mask = aa > 0
    return _make(np.where(mask, aa, 0.0), (a, lambda g: g * mask))


def matmul(a, b) -> Tensor:
    aa, ba = _as_array(a), _as_array(b)
    if aa.ndim < 2 or ba.ndim < 2:
        raise ShapeError(f"matmul needs ndim >= 2 operands, got {aa.shape} x {ba.shape}")
    if aa.shape[-1] != ba.shape[-2]:
        raise ShapeError(f"matmul inner extents differ: {aa.shape} x {ba.shape}")
    out = np.matmul(aa, ba)

    def da(g):
        return _unbroadcast(np.matmul(g, np.swapaxes(ba, -1, -2)), aa.shape)

    def db(g):
        return _unbroadcast(np.matmul(np.swapaxes(aa, -1, -2), g), ba.shape)

    return _make(out, (a, da), (b, db))


def transpose(a, axes) -> Tensor:
    aa = _as_array(a)
    axes = tuple(axes)
    return _make(aa.transpose(axes), (a, lambda g: g.transpose(np.argsort(axes))))


def reshape(a, shape) -> Tensor:
    aa = _as_array(a)
    return _make(aa.reshape(shape), (a, lambda g, s=aa.shape: g.reshape(s)))


def concat(tensors, axis: int) -> Tensor:
    arrs = [_as_array(t) for t in tensors]
    out = np.concatenate(arrs, axis=axis)
    axis = axis % out.ndim
    offsets = np.cumsum([0] + [arr.shape[axis] for arr in arrs])
    specs = []
    for i, t in enumerate(tensors):
        lo, hi = int(offsets[i]), int(offsets[i + 1])

        def fn(g, lo=lo, hi=hi):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(lo, hi)
            return g[tuple(sl)]

        specs.append((t, fn))
    return _make(out, *specs)


def reduce_sum(a, axis=None, keepdims: bool = False) -> Tensor:
    aa = _as_array(a)
    out = np.sum(aa, axis=axis, keepdims=keepdims)

    def fn(g):
        gg = g
        if axis is not None and not keepdims:
            gg = np.expand_dims(gg, axis)
        return np.broadcast_to(gg, aa.shape)

    return _make(np.asarray(out), (a, fn))


def reduce_mean(a, axis=None, keepdims: bool = False) -> Tensor:
    aa = _as_array(a)
    out = np.mean(aa, axis=axis, keepdims=keepdims)
    count = aa.size / max(np.asarray(out).size, 1)

    def fn(g):
        gg = g
        if axis is not None and not keepdims:
            gg = np.expand_dims(gg, axis)
        return np.broadcast_to(gg, aa.shape) / count

    return _make(np.asarray(out), (a, fn))


def reduce_max(a) -> Tensor:
    """Global maximum; the subgradient flows to the first maximal element."""
    aa = _as_array(a)
    idx = np.unravel_index(int(np.argmax(aa)), aa.shape)
    out = np.asarray(aa[idx])

    def fn(g):
        z = np.zeros_like(aa)
        z[idx] = g
        return z

    return _make(out, (a, fn))


def softmax(a, axis: int = -1) -> Tensor:
    aa = _as_array(a)
    if not -aa.ndim <= axis < aa.ndim:
        raise ShapeError(f"softmax axis {axis} out of bounds for shape {aa.shape}")
    e = np.exp(aa - aa.max(axis=axis, keepdims=True))
    s = e / e.sum(axis=axis, keepdims=True)

    def fn(g):
        return s * (g - np.sum(g * s, axis=axis, keepdims=True))

    return _make(s, (a, fn))


def layer_norm(x, gain, bias, eps: float = 1e-6) -> Tensor:
    """Normalize the last axis to zero mean, unit variance, then scale and shift."""
    xa, ga, ba = _as_array(x), _as_array(gain), _as_array(bias)
    d = xa.shape[-1]
    if ga.shape != (d,) or ba.shape != (d,):
        raise ShapeError(f"gain/bias must have shape ({d},), got {ga.shape} and {ba.shape}")
    # sum / d is what mean() computes, without its per-call Python overhead
    xc = xa - xa.sum(axis=-1, keepdims=True) / d
    var = (xc * xc).sum(axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = xhat * ga + ba

    def dx(g):
        gx = g * ga
        return inv * (
            gx
            - gx.mean(axis=-1, keepdims=True)
            - xhat * np.mean(gx * xhat, axis=-1, keepdims=True)
        )

    def dgain(g):
        return np.sum(g * xhat, axis=tuple(range(g.ndim - 1)))

    def dbias(g):
        return np.sum(g, axis=tuple(range(g.ndim - 1)))

    return _make(out, (x, dx), (gain, dgain), (bias, dbias))


def cross_entropy(logits, targets, pad_id: int = 0) -> Tensor:
    """Mean negative log-likelihood over non-pad target positions.

    ``logits`` has one trailing vocabulary axis beyond the target shape.
    Positions whose target equals ``pad_id`` contribute neither to the sum
    nor to the averaging count.
    """
    la = _as_array(logits)
    t = np.asarray(targets)
    if not np.issubdtype(t.dtype, np.integer):
        raise ContractError(f"targets must be integers, got dtype {t.dtype}")
    if la.ndim != t.ndim + 1 or la.shape[:-1] != t.shape:
        raise ShapeError(f"logits {la.shape} do not extend targets {t.shape}")
    vocab = la.shape[-1]
    if t.min() < 0 or t.max() >= vocab:
        raise ContractError(f"target ids must lie in [0, {vocab}), got [{t.min()}, {t.max()}]")
    mask = t != pad_id
    count = int(mask.sum())
    if count == 0:
        raise DegenerateBatchError("every target position is padding")
    z = la - la.max(axis=-1, keepdims=True)
    lse = np.log(np.sum(np.exp(z), axis=-1))
    picked = np.take_along_axis(z, t[..., None], axis=-1)[..., 0]
    loss = np.asarray((lse - picked)[mask].sum() / count)

    def fn(g):
        p = np.exp(z - lse[..., None])
        at_target = np.take_along_axis(p, t[..., None], axis=-1) - 1.0
        np.put_along_axis(p, t[..., None], at_target, axis=-1)
        p *= mask[..., None]
        return p * (g / count)

    return _make(loss, (logits, fn))


def embedding(table, ids) -> Tensor:
    """Row gather from a [V, D] table by an integer id array."""
    ta = _as_array(table)
    ids = np.asarray(ids)
    if not np.issubdtype(ids.dtype, np.integer):
        raise ContractError(f"ids must be integers, got dtype {ids.dtype}")
    if ids.min() < 0 or ids.max() >= ta.shape[0]:
        raise ContractError(f"ids must lie in [0, {ta.shape[0]}), got [{ids.min()}, {ids.max()}]")
    out = ta[ids]

    def fn(g):
        z = np.zeros_like(ta)
        np.add.at(z, ids, g)
        return z

    return _make(out, (table, fn))


def dropout(x, p: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; identity when p == 0."""
    if not 0.0 <= p < 1.0:
        raise ContractError(f"dropout rate must lie in [0, 1), got {p}")
    if p == 0.0:
        return x if isinstance(x, Tensor) else Tensor(x)
    xa = _as_array(x)
    keep = rng.random(xa.shape) >= p
    scale = 1.0 / (1.0 - p)
    return _make(
        np.where(keep, xa * scale, 0.0),
        (x, lambda g: np.where(keep, g * scale, 0.0)),
    )


def stop_gradient(x) -> Tensor:
    """Value copy that blocks gradient flow."""
    return Tensor(_as_array(x).copy())


def straight_through(x, values) -> Tensor:
    """Tensor carrying ``values`` whose gradient passes to ``x`` unchanged."""
    va = _as_array(values)
    xa = _as_array(x)
    if va.shape != xa.shape:
        raise ShapeError(f"straight-through shapes differ: {xa.shape} vs {va.shape}")
    return _make(va.copy(), (x, lambda g: g))


def backward(loss: Tensor) -> Gradients:
    """Reverse sweep from a scalar loss; returns gradients for the whole tape.

    Visits each recorded node exactly once in reverse execution order and
    accumulates contributions with addition, so the result is deterministic
    bit for bit across repeated runs on the same tape.
    """
    if not isinstance(loss, Tensor) or loss.array.ndim != 0:
        raise ContractError("backward needs a 0-d scalar tensor")
    if loss.tape is None or loss.node is None:
        raise TapeError("loss is not attached to a gradient tape")
    tape = loss.tape
    values: list = [None] * len(tape)
    values[loss.node] = np.ones((), dtype=np.float64)
    for idx in range(loss.node, -1, -1):
        g = values[idx]
        if g is None:
            continue
        for pidx, fn in zip(tape._parents[idx], tape._grad_fns[idx]):
            contrib = fn(g)
            if values[pidx] is None:
                values[pidx] = np.array(contrib, dtype=np.float64)
            else:
                values[pidx] += contrib
    return Gradients(tape, values)
