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

import math
from typing import NamedTuple

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
        self._backwards: list = []
        self._watched: list[Tensor] = []

    def __len__(self):
        return len(self._parents)

    def _record(self, parents, backward):
        """Append a node; ``backward(g)`` yields the gradient of each of
        ``parents`` in order, given the node's gradient ``g`` (None for a
        leaf)."""
        self._parents.append(tuple(parents))
        self._backwards.append(backward)
        return len(self._parents) - 1

    def watch(self, t: "Tensor") -> "Tensor":
        """Attach ``t`` as a leaf so ``backward`` can report its gradient."""
        if t.tape is self:
            return t
        if t.tape is not None:
            raise TapeError("tensor is already attached to another tape")
        t.node = self._record((), None)
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


def tensors_in_one_buffer(shapes, values) -> list[Tensor]:
    """Tensors whose arrays are consecutive views of one new contiguous
    float64 buffer, in the order of ``shapes``, each filled from the
    matching entry of ``values`` (an iterable, consumed in order).

    The views are the storage: write them in place, never rebind them.
    """
    sizes = [math.prod(shape) for shape in shapes]
    buffer = np.empty(sum(sizes))
    out = []
    lo = 0
    for shape, size, value in zip(shapes, sizes, values):
        view = buffer[lo : lo + size].reshape(shape)
        view[...] = value
        out.append(Tensor(view))
        lo += size
    return out


def stacked_view(arrays) -> np.ndarray:
    """Arrays of one shape that lie back to back in one buffer, as
    ``tensors_in_one_buffer`` lays them out, as one [n, ...] view of it."""
    first = arrays[0]
    view = np.lib.stride_tricks.as_strided(
        first, (len(arrays),) + first.shape, (first.nbytes,) + first.strides, writeable=False
    )
    if not first.flags.c_contiguous or any(a.shape != first.shape or _address(a) != _address(v) for a, v in zip(arrays, view)):
        raise ContractError("the arrays do not lie back to back in one buffer")
    return view


def _address(a: np.ndarray) -> int:
    return a.__array_interface__["data"][0]


class Gradients:
    """Result of a backward pass, indexable by the watched leaves of its tape.

    The watched leaves' gradients live in one flat buffer, ``flat``, one
    range per leaf in the order the leaves were watched. Each lookup
    returns that leaf's range: a writable array that shares no memory
    with any parameter or with another leaf's gradient; a leaf the loss
    does not reach reads zeros. The sweep frees every recorded (non-leaf)
    node's gradient once it has been passed on, so looking one up raises
    ``TapeError`` rather than reading a freed slot as zeros.
    """

    def __init__(self, tape: GradTape, values: list, flat: np.ndarray):
        self._tape = tape
        self._values = values
        self.flat = flat

    def __getitem__(self, t: Tensor) -> np.ndarray:
        if not isinstance(t, Tensor) or t.tape is not self._tape or t.node is None:
            raise TapeError("tensor is not attached to the tape this pass ran on")
        if self._tape._parents[t.node]:
            raise TapeError("gradients of recorded tensors are freed by the sweep; watch a leaf instead")
        return self._values[t.node]


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
    """Build the op result from (parent, grad closure) pairs; the node's
    backward calls the attached parents' closures in order, one at a time.
    It holds the closures, never the specs, so no parent Tensor is kept."""
    tape = _tape_of([p for p, _ in parent_specs])
    if tape is None:
        return Tensor(arr)
    nodes, fns = zip(*[(p.node, fn) for p, fn in parent_specs if isinstance(p, Tensor) and p.tape is not None])
    node = tape._record(nodes, lambda g: (fn(g) for fn in fns))
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
    return _make(np.maximum(aa, 0.0), (a, lambda g: g * mask))


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


def linear(x, w, b=None) -> Tensor:
    """``x[..., k] @ w[k, n] + b`` as one node.

    The forward is a single 2-D GEMM over all leading axes of ``x``; the
    backward is one GEMM for each of ``dx`` and ``dw`` and one column sum
    for ``db``. ``b`` may be None.
    """
    xa, wa = _as_array(x), _as_array(w)
    if xa.ndim < 1 or wa.ndim != 2 or xa.shape[-1] != wa.shape[0]:
        raise ShapeError(f"linear needs x[..., k] and w[k, n], got {xa.shape} and {wa.shape}")
    n = wa.shape[1]
    if b is not None and _as_array(b).shape != (n,):
        raise ShapeError(f"linear bias must have shape ({n},), got {_as_array(b).shape}")
    x2 = xa.reshape(-1, wa.shape[0])
    out = x2 @ wa
    specs = [
        (x, lambda g: (g.reshape(-1, n) @ wa.T).reshape(xa.shape)),
        (w, lambda g: x2.T @ g.reshape(-1, n)),
    ]
    if b is not None:
        out += _as_array(b)
        specs.append((b, lambda g: g.reshape(-1, n).sum(axis=0)))
    return _make(out.reshape(xa.shape[:-1] + (n,)), *specs)


def affine(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``x @ w + b`` on plain arrays, the bias added in place. A stacked
    ``w`` [n, k, m] with ``b`` [n, 1, m] projects ``x`` n ways in one call."""
    out = x @ w
    out += b
    return out


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


# the reductions' and cross_entropy's backwards keep their input's shape,
# not the input, so the input is freed with its Tensor
def reduce_sum(a, axis=None, keepdims: bool = False) -> Tensor:
    aa = _as_array(a)
    out = np.sum(aa, axis=axis, keepdims=keepdims)
    shape = aa.shape

    def fn(g):
        gg = g
        if axis is not None and not keepdims:
            gg = np.expand_dims(gg, axis)
        return np.broadcast_to(gg, shape)

    return _make(np.asarray(out), (a, fn))


def reduce_mean(a, axis=None, keepdims: bool = False) -> Tensor:
    aa = _as_array(a)
    out = np.mean(aa, axis=axis, keepdims=keepdims)
    count = aa.size / max(np.asarray(out).size, 1)
    shape = aa.shape

    def fn(g):
        gg = g
        if axis is not None and not keepdims:
            gg = np.expand_dims(gg, axis)
        return np.broadcast_to(gg, shape) / count

    return _make(np.asarray(out), (a, fn))


def reduce_max(a) -> Tensor:
    """Global maximum; the subgradient flows to the first maximal element."""
    aa = _as_array(a)
    shape = aa.shape
    idx = np.unravel_index(int(np.argmax(aa)), shape)
    out = np.asarray(aa[idx])

    def fn(g):
        z = np.zeros(shape)
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


def layer_norm_forward(x: np.ndarray, gain: np.ndarray, bias: np.ndarray, eps: float):
    """``layer_norm``'s forward on plain arrays, unchecked: the output,
    the normalized input and the inverse standard deviation."""
    d = x.shape[-1]
    # np.add.reduce is what sum() and mean() call, without their Python wrappers
    xhat = x - np.add.reduce(x, axis=-1, keepdims=True) / d
    inv = np.add.reduce(xhat * xhat, axis=-1, keepdims=True)
    inv /= d
    inv += eps
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    xhat *= inv
    out = xhat * gain
    out += bias
    return out, xhat, inv


def _layer_norm_dx(g: np.ndarray, gain: np.ndarray, xhat: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """The input gradient of a layer norm given its output gradient ``g``."""
    d = g.shape[-1]
    gx = g * gain
    return inv * (
        gx
        - gx.sum(axis=-1, keepdims=True) / d
        - xhat * ((gx * xhat).sum(axis=-1, keepdims=True) / d)
    )


def layer_norm(x, gain, bias, eps: float = 1e-6) -> Tensor:
    """Normalize the last axis to zero mean, unit variance, then scale and shift."""
    xa, ga, ba = _as_array(x), _as_array(gain), _as_array(bias)
    _check_norm(xa, ga, ba)
    out, xhat, inv = layer_norm_forward(xa, ga, ba, eps)
    lead = tuple(range(xa.ndim - 1))
    return _make(
        out,
        (x, lambda g: _layer_norm_dx(g, ga, xhat, inv)),
        (gain, lambda g: np.sum(g * xhat, axis=lead)),
        (bias, lambda g: np.sum(g, axis=lead)),
    )


def _check_norm(xa: np.ndarray, ga: np.ndarray, ba: np.ndarray):
    d = xa.shape[-1]
    if ga.shape != (d,) or ba.shape != (d,):
        raise ShapeError(f"gain/bias must have shape ({d},), got {ga.shape} and {ba.shape}")


def cross_entropy(logits, targets, rows: slice | None = None) -> Tensor:
    """Mean negative log-likelihood over non-pad target positions.

    ``logits`` has one trailing vocabulary axis beyond the target shape.
    Positions whose target is the pad id 0 contribute neither to the sum
    nor to the averaging count. With ``rows``, only that range of the
    first axis of ``logits`` is scored against ``targets``; the other
    rows get zero gradient.
    """
    full = _as_array(logits)
    la = full if rows is None else full[rows]
    t = np.asarray(targets)
    if not np.issubdtype(t.dtype, np.integer):
        raise ContractError(f"targets must be integers, got dtype {t.dtype}")
    if la.ndim != t.ndim + 1 or la.shape[:-1] != t.shape:
        raise ShapeError(f"logits {la.shape} do not extend targets {t.shape}")
    vocab = la.shape[-1]
    if t.min() < 0 or t.max() >= vocab:
        raise ContractError(f"target ids must lie in [0, {vocab}), got [{t.min()}, {t.max()}]")
    mask = t != 0
    count = int(mask.sum())
    if count == 0:
        raise DegenerateBatchError("every target position is padding")
    z = la - la.max(axis=-1, keepdims=True)
    lse = np.log(np.sum(np.exp(z), axis=-1))
    picked = np.take_along_axis(z, t[..., None], axis=-1)[..., 0]
    loss = np.asarray((lse - picked)[mask].sum() / count)
    shape = full.shape

    def fn(g):
        p = np.exp(z - lse[..., None])
        at_target = np.take_along_axis(p, t[..., None], axis=-1) - 1.0
        np.put_along_axis(p, t[..., None], at_target, axis=-1)
        p *= mask[..., None]
        p *= g / count
        if rows is None:
            return p
        spread = np.zeros(shape)
        spread[rows] = p
        return spread

    return _make(loss, (logits, fn))


def embedding(table, ids, scale: float = 1.0, shift=None) -> Tensor:
    """Row gather from a [V, D] table by an integer id array, as one node.

    The gathered rows are multiplied by ``scale``, then the constant
    ``shift`` (broadcast to the result; no gradient) is added.
    """
    ta = _as_array(table)
    ids = np.asarray(ids)
    if not np.issubdtype(ids.dtype, np.integer):
        raise ContractError(f"ids must be integers, got dtype {ids.dtype}")
    if ids.min() < 0 or ids.max() >= ta.shape[0]:
        raise ContractError(f"ids must lie in [0, {ta.shape[0]}), got [{ids.min()}, {ids.max()}]")
    out = ta[ids]
    if scale != 1.0:
        out *= scale
    if shift is not None:
        out += shift
    shape = ta.shape

    def fn(g):
        z = np.zeros(shape)
        np.add.at(z, ids, g * scale if scale != 1.0 else g)
        return z

    return _make(out, (table, fn))


def pack(x, mask) -> Tensor:
    """The rows of ``x[B, T, ...]`` at the True entries of the [B, T]
    ``mask``, in row-major order: a packed [N, ...] tensor."""
    xa = _as_array(x)
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 2 or xa.shape[:2] != mask.shape:
        raise ShapeError(f"mask {mask.shape} does not cover the leading axes of {xa.shape}")
    shape = xa.shape

    def fn(g):
        z = np.zeros(shape)
        z[mask] = g
        return z

    return _make(xa[mask], (x, fn))


def unpack(rows, mask) -> Tensor:
    """Inverse of ``pack``: [B, T, ...] with ``rows`` at the True entries
    of ``mask`` and zeros everywhere else."""
    ra = _as_array(rows)
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 2 or ra.shape[0] != mask.sum():
        raise ShapeError(f"{ra.shape[0]} rows do not fill the {int(mask.sum())} entries of the mask")
    out = np.zeros(mask.shape + ra.shape[1:])
    out[mask] = ra
    return _make(out, (rows, lambda g: g[mask]))


def segment_mean(x, counts) -> Tensor:
    """Means of consecutive runs of rows: row ``i`` of the result averages
    the next ``counts[i]`` rows of ``x[N, D]``."""
    xa = _as_array(x)
    counts = np.asarray(counts)
    if xa.ndim != 2 or counts.ndim != 1 or counts.sum() != xa.shape[0] or counts.min() < 1:
        raise ShapeError(f"runs of {counts.tolist()} rows do not partition {xa.shape}")
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    inv = (1.0 / counts)[:, None]
    out = np.add.reduceat(xa, starts, axis=0) * inv
    return _make(out, (x, lambda g: np.repeat(g * inv, counts, axis=0)))


class RowIndex(NamedTuple):
    """A [B, T] boolean mask and ``np.nonzero`` of it, the (row, column)
    indices its packed rows scatter to and gather from. A pass derives it
    once per mask (``row_index``); every sublayer of the pass and every
    backward then reuses it."""

    mask: np.ndarray
    at: tuple[np.ndarray, np.ndarray]


def row_index(mask) -> RowIndex:
    """The ``RowIndex`` of a [B, T] mask."""
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 2:
        raise ShapeError(f"a row mask must be [B, T], got {mask.shape}")
    return RowIndex(mask, np.nonzero(mask))


def _heads(rows: np.ndarray, index: RowIndex, num_heads: int) -> np.ndarray:
    """Packed rows [N, d] of ``index``'s True entries as zero-padded heads [B, h, T, d / h]."""
    (b, t), d = index.mask.shape, rows.shape[-1]
    dense = np.zeros((b, t, d))
    dense[index.at] = rows
    return dense.reshape(b, t, num_heads, d // num_heads).transpose(0, 2, 1, 3)


def _rows(heads: np.ndarray, index: RowIndex) -> np.ndarray:
    """Inverse of ``_heads``: the rows [N, d] of ``index``'s True entries."""
    b, h, t, dh = heads.shape
    return heads.transpose(0, 2, 1, 3)[index.at].reshape(-1, h * dh)


def attend(q: np.ndarray, k: np.ndarray, v: np.ndarray, bias):
    """Scaled dot-product attention of queries, keys and values split
    into heads, ``q`` [B, h, Tq, dh] over ``k`` and ``v`` [B, h, Tk, dh];
    forward only. ``bias`` (or None) is added to the scaled scores and
    broadcasts to [B, h, Tq, Tk]. Returns the context heads [B, h, Tq, dh]
    and the softmax weights.
    """
    weights = q @ k.swapaxes(-1, -2)
    weights *= q.shape[-1] ** -0.5
    if bias is not None:
        weights += bias
    # the reduces that max() and sum() call, without their Python wrappers
    weights -= np.maximum.reduce(weights, axis=-1, keepdims=True)
    np.exp(weights, out=weights)
    weights /= np.add.reduce(weights, axis=-1, keepdims=True)
    return weights @ v, weights


def ffn_forward(h: np.ndarray, w1: np.ndarray, b1: np.ndarray, w2: np.ndarray, b2: np.ndarray, act):
    """Feed-forward rows ``act(h @ w1 + b1) @ w2 + b2`` on plain arrays;
    returns the output and the activation's output."""
    r = act(affine(h, w1, b1))
    return affine(r, w2, b2), r


def _relu_array(a: np.ndarray) -> np.ndarray:
    # through the module's ``relu``, so a wrapper installed there sees the
    # feed-forward sublayers' activations too
    return relu(a).array


# an attention sublayer's weights, in the order ``attention`` takes them
ATTENTION_WEIGHTS = ("wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo")
# a feed-forward sublayer's weights, in the order ``ffn_sublayer`` takes them
FFN_WEIGHTS = ("w1", "b1", "w2", "b2")


def _joint_node(out, parents, all_grads) -> Tensor:
    """The op result ``out`` as one node whose backward computes every
    input's gradient in one pass: ``parents`` are (name, value) pairs, and
    ``all_grads(g, wanted)`` returns a dict of the gradient of each wanted
    name, the names of the parents on a tape. The backward hands them out
    in the parents' order, each once. The closures hold arrays only, never
    a Tensor, so a tape is freed as soon as its last Tensor goes.
    """
    tape = _tape_of([p for _, p in parents])
    if tape is None:
        return Tensor(out)
    names, nodes = zip(*[(name, p.node) for name, p in parents if isinstance(p, Tensor) and p.tape is not None])
    wanted = set(names)
    node = tape._record(nodes, lambda g: map(all_grads(g, wanted).pop, names))
    return Tensor(out, tape, node)


def _attention_rows(qa, kva, q_at: RowIndex, kv_at: RowIndex, bias, weights, num_heads: int, fused: bool):
    """One multi-head attention over packed rows on plain arrays: the
    output rows and ``grads(g, wanted, qa, kva)``, the backward for
    ``_joint_node`` under the names of ``ATTENTION_WEIGHTS`` plus "h" (the
    query rows; with ``fused``, the rows that are also keys and values)
    and "kv". The backward is handed the query and key/value rows again
    rather than holding them, so a caller that can rebuild them need not
    keep them; it projects them again too, so it holds only the softmax
    weights. The rows' masks come as their ``row_index``."""
    if not isinstance(q_at, RowIndex) or not isinstance(kv_at, RowIndex):
        raise ContractError("attention takes each mask as its row_index")
    if len(weights) != 8:
        raise ShapeError(f"attention needs 8 weights, got {len(weights)}")
    wq, bq, wk, bk, wv, bv, wo, bo = weights
    d = wq.shape[0]
    if qa.ndim != 2 or kva.ndim != 2 or qa.shape[1] != d or kva.shape[1] != d:
        raise ShapeError(f"attention needs [N, {d}] rows, got {qa.shape} and {kva.shape}")
    q_shape, kv_shape = q_at.mask.shape, kv_at.mask.shape
    if qa.shape[0] != q_at.at[0].size or kva.shape[0] != kv_at.at[0].size or q_shape[0] != kv_shape[0]:
        raise ShapeError(f"rows {qa.shape[0]}/{kva.shape[0]} do not fill masks {q_shape}/{kv_shape}")
    if d % num_heads != 0:
        raise ShapeError(f"width {d} not divisible by {num_heads} heads")

    def split(qa, kva):
        # the projected q/k/v rows as zero-padded heads; it closes over the
        # weights and masks only, never over a projected array
        q, k, v = affine(qa, wq, bq), affine(kva, wk, bk), affine(kva, wv, bv)
        return _heads(q, q_at, num_heads), _heads(k, kv_at, num_heads), _heads(v, kv_at, num_heads)

    ctx, probs = attend(*split(qa, kva), bias)
    out = affine(_rows(ctx, q_at), wo, bo)

    def grads(g, wanted, qa, kva):
        # the node keeps only the softmax weights: the projections are redone
        # on the rows handed in, by the same calls, so they are the same bits
        qh, kh, vh = split(qa, kva)
        dctx = _heads(g @ wo.T, q_at, num_heads)
        dprobs = dctx @ vh.swapaxes(-1, -2)
        dscores = probs * (dprobs - np.sum(dprobs * probs, axis=-1, keepdims=True))
        dscores *= qh.shape[-1] ** -0.5
        rows = {
            "o": (_rows(probs @ vh, q_at), g),
            "q": (qa, _rows(dscores @ kh, q_at)),
            "k": (kva, _rows(dscores.swapaxes(-1, -2) @ qh, kv_at)),
            "v": (kva, _rows(probs.swapaxes(-1, -2) @ dctx, kv_at)),
        }
        got = {}
        for name, (x, dy) in rows.items():
            if "w" + name in wanted:
                got["w" + name] = x.T @ dy
            if "b" + name in wanted:
                got["b" + name] = dy.sum(axis=0)
        dq, dk, dv = rows["q"][1], rows["k"][1], rows["v"][1]
        if fused:
            if "h" in wanted:
                got["h"] = dq @ wq.T + (dk @ wk.T + dv @ wv.T)
        else:
            if "h" in wanted:
                got["h"] = dq @ wq.T
            if "kv" in wanted:
                got["kv"] = dk @ wk.T + dv @ wv.T
        return got

    return out, grads


def attention(q_in, kv_in, q_mask, kv_mask, bias, weights, num_heads: int) -> Tensor:
    """One multi-head attention sublayer over packed rows, as one node.

    ``q_in`` [Nq, d] holds the query-side inputs at the True entries of
    the [B, Tq] ``q_mask`` and ``kv_in`` [Nk, d] the key/value-side
    inputs at those of the [B, Tk] ``kv_mask``, both in row-major order;
    self-attention passes the same tensor twice. Each mask comes as its
    ``row_index``. ``weights`` follow ``ATTENTION_WEIGHTS``. The
    rows are projected, the queries, keys and values scattered into zeros
    of [B, h, T, d / h] for ``attend``, and the context rows projected by
    ``wo``. Pad keys are zero vectors, so ``bias`` must mask them.
    Returns [Nq, d].
    """
    fused = q_in is kv_in
    qa, kva = _as_array(q_in), _as_array(kv_in)
    out, grads = _attention_rows(qa, kva, q_mask, kv_mask, bias, [_as_array(w) for w in weights], num_heads, fused)
    parents = [("h", q_in), ("kv", None if fused else kv_in), *zip(ATTENTION_WEIGHTS, weights)]
    return _joint_node(out, parents, lambda g, wanted: grads(g, wanted, qa, kva))


def _sublayer(x, kv, norm, named_weights, eps: float, rate: float, rng, body) -> Tensor:
    """``x + dropout(body(layer_norm(x)))`` over rows [N, d], as one node
    whose parents are ``x``, ``kv`` (None for none), the norm's gain and
    bias, and the (name, weight) pairs ``named_weights``. ``body(h)``
    returns its output rows and its backward ``grads(g, wanted, h)``,
    which is handed ``h`` again, names the gradient of ``h`` "h" and
    computes those of "kv" and the weights; the node's backward adds "x",
    "gain" and "bias".

    The node does not hold ``h``: its backward rebuilds it from the
    normalized input, which the norm's own gradient keeps anyway, by the
    two operations that end ``layer_norm_forward``, so it is the same bits.
    """
    xa, ga, ba = _as_array(x), _as_array(norm[0]), _as_array(norm[1])
    if xa.ndim != 2:
        raise ShapeError(f"a sublayer needs rows [N, d], got {xa.shape}")
    _check_norm(xa, ga, ba)
    if not 0.0 <= rate < 1.0:
        raise ContractError(f"dropout rate must lie in [0, 1), got {rate}")
    h, xhat, inv = layer_norm_forward(xa, ga, ba, eps)
    out, body_grads = body(h)
    undrop = None
    if rate > 0.0 and rng is not None:
        # drawn where a dropout node after the sublayer would draw it
        out, undrop = _dropout_forward(out, rate, rng)
    y = xa + out

    def grads(g, wanted):
        rebuilt = xhat * ga
        rebuilt += ba
        needs_h = bool(wanted & {"x", "gain", "bias"})
        got = body_grads(g if undrop is None else undrop(g), wanted | {"h"} if needs_h else wanted, rebuilt)
        if needs_h:
            dh = got.pop("h")
            if "x" in wanted:
                got["x"] = g + _layer_norm_dx(dh, ga, xhat, inv)
            if "gain" in wanted:
                got["gain"] = np.sum(dh * xhat, axis=(0,))
            if "bias" in wanted:
                got["bias"] = np.sum(dh, axis=(0,))
        return got

    parents = [("x", x), ("kv", kv), ("gain", norm[0]), ("bias", norm[1]), *named_weights]
    return _joint_node(y, parents, grads)


def attention_sublayer(x, kv, q_mask, kv_mask, bias, norm, weights, num_heads: int, eps: float,
                       rate: float = 0.0, rng: np.random.Generator | None = None) -> Tensor:
    """The pre-norm attention sublayer ``x + attention(layer_norm(x), kv)``
    over packed rows, as one node; ``kv`` None is self-attention over
    ``layer_norm(x)``. ``norm`` is the layer norm's (gain, bias), and the
    other arguments are ``attention``'s. With ``rate`` > 0 and an ``rng``,
    the attention output passes an inverted dropout before the residual
    add. The backward keeps the arithmetic of the layer_norm, attention,
    dropout and add nodes this replaces, so the gradients are the same bits.
    """
    w = [_as_array(t) for t in weights]
    # the array, not the Tensor: the backward reads the cross-attention keys
    # and values, and a closure that held a Tensor would keep its tape alive
    kva = None if kv is None else _as_array(kv)

    def body(h):
        out, grads = _attention_rows(h, h if kva is None else kva, q_mask, kv_mask, bias, w, num_heads, kva is None)
        return out, lambda g, wanted, h: grads(g, wanted, h, h if kva is None else kva)

    return _sublayer(x, kv, norm, zip(ATTENTION_WEIGHTS, weights), eps, rate, rng, body)


def ffn_sublayer(x, norm, weights, eps: float, rate: float = 0.0, rng: np.random.Generator | None = None) -> Tensor:
    """The pre-norm feed-forward sublayer ``x + relu(layer_norm(x) @ w1 +
    b1) @ w2 + b2`` over rows [N, d], as one node. ``weights`` follow
    ``FFN_WEIGHTS``; ``norm``, ``rate`` and ``rng`` are as in
    ``attention_sublayer``. The forward ReLU is this module's ``relu``.
    """
    w1, b1, w2, b2 = (_as_array(t) for t in weights)

    def body(h):
        out, r = ffn_forward(h, w1, b1, w2, b2, _relu_array)

        def grads(g, wanted, h):
            got = {}
            if "w2" in wanted:
                got["w2"] = r.T @ g
            if "b2" in wanted:
                got["b2"] = g.sum(axis=0)
            if wanted & {"h", "w1", "b1"}:
                da = (g @ w2.T) * (r > 0)
                if "w1" in wanted:
                    got["w1"] = h.T @ da
                if "b1" in wanted:
                    got["b1"] = da.sum(axis=0)
                if "h" in wanted:
                    got["h"] = da @ w1.T
            return got

        return out, grads

    return _sublayer(x, None, norm, zip(FFN_WEIGHTS, weights), eps, rate, rng, body)


def dropout(x, p: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; identity when p == 0."""
    if not 0.0 <= p < 1.0:
        raise ContractError(f"dropout rate must lie in [0, 1), got {p}")
    if p == 0.0:
        return x if isinstance(x, Tensor) else Tensor(x)
    out, back = _dropout_forward(_as_array(x), p, rng)
    return _make(out, (x, back))


def _dropout_forward(a: np.ndarray, p: float, rng: np.random.Generator):
    """Inverted dropout of ``a`` on plain arrays: the output and its backward."""
    keep = rng.random(a.shape) >= p
    scale = 1.0 / (1.0 - p)
    return np.where(keep, a * scale, 0.0), lambda g: np.where(keep, g * scale, 0.0)


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


def backward(loss: Tensor, out: np.ndarray | None = None) -> Gradients:
    """Reverse sweep from a scalar loss; returns gradients for the whole tape.

    Visits each recorded node exactly once in reverse execution order and
    accumulates contributions with addition, so the result is deterministic
    bit for bit across repeated runs on the same tape.

    A recorded node's gradient is dropped as soon as it has been passed on
    to its parents, so the sweep holds only the gradients still in flight
    plus those of the leaves. A recorded node's contributions are stored
    as its backward yields them and summed out of place, so a
    contribution that aliases another slot (``add`` passes ``g`` itself to
    both operands) is never written through; no backward may modify its
    ``g`` in place. The leaves' gradients are written into one flat
    buffer, a leaf's first contribution copied into its range and later
    ones added in place, which keeps the arrays handed out by
    ``Gradients`` private and writable. ``out``, a contiguous flat
    float64 array of the leaves' total size, receives them in place of a
    new buffer.
    """
    if not isinstance(loss, Tensor) or loss.array.ndim != 0:
        raise ContractError("backward needs a 0-d scalar tensor")
    if loss.tape is None or loss.node is None:
        raise TapeError("loss is not attached to a gradient tape")
    tape = loss.tape
    size = sum(t.array.size for t in tape._watched)
    if out is None:
        out = np.empty(size)
    elif out.shape != (size,) or out.dtype != np.float64 or not out.flags.c_contiguous:
        raise ShapeError(f"gradient buffer must be contiguous float64 of shape ({size},), got {out.dtype} {out.shape}")
    slots = {}
    lo = 0
    for t in tape._watched:
        slots[t.node] = out[lo : lo + t.array.size].reshape(t.shape)
        lo += t.array.size
    values: list = [None] * len(tape)
    values[loss.node] = np.ones((), dtype=np.float64)
    parents = tape._parents
    for idx in range(loss.node, -1, -1):
        g = values[idx]
        if g is None or not parents[idx]:
            continue
        values[idx] = None
        for pidx, contrib in zip(parents[idx], tape._backwards[idx](g)):
            if not parents[pidx]:
                if values[pidx] is None:
                    values[pidx] = slots[pidx]
                    np.copyto(values[pidx], contrib)
                else:
                    values[pidx] += contrib
            elif values[pidx] is not None:
                values[pidx] = values[pidx] + contrib
            else:
                values[pidx] = contrib
    for node, slot in slots.items():
        if values[node] is None:
            slot.fill(0.0)
            values[node] = slot
    return Gradients(tape, values, out)
