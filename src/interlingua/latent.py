"""Shared latent space: pooling, alignment distances, vector quantization.

Sentence representations from different language encoders are compared
here. Two differentiable distances are provided: one derived from the
per-dimension Pearson correlation across the batch, and the maximum
absolute elementwise difference. An optional decomposed quantizer snaps
per-token states onto a cartesian product of small codebooks while
passing gradients straight through.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .exceptions import ConfigError, DegenerateBatchError, ShapeError
from .seeding import derive_rng
from .tensor import Tensor

# keeps the correlation denominator finite on near-constant dimensions
CORR_EPS = 1e-8

# weight of the encoder commitment term relative to the codebook term
COMMITMENT_BETA = 0.25


def pool(raw: Tensor, pad_mask) -> Tensor:
    """Mean over non-pad time steps, per sentence."""
    mask = np.asarray(pad_mask, dtype=bool)
    if raw.ndim != 3 or mask.shape != raw.shape[:2]:
        raise ShapeError(f"raw {raw.shape} and mask {mask.shape} do not align")
    counts = mask.sum(axis=1)
    if np.any(counts == 0):
        rows = np.flatnonzero(counts == 0)
        raise DegenerateBatchError(f"rows {rows.tolist()} contain only padding")
    weighted = T.mul(raw, mask[:, :, None].astype(np.float64))
    return T.mul(T.reduce_sum(weighted, axis=1), (1.0 / counts)[:, None])


def _check_pair(hx, hy):
    ax, ay = T._as_array(hx), T._as_array(hy)
    if ax.shape != ay.shape:
        raise ShapeError(f"latent shapes differ: {ax.shape} vs {ay.shape}")
    return ax, ay


def corr_distance(hx, hy) -> Tensor:
    """One minus the mean per-dimension batch correlation, differentiable.

    Both inputs are [B, D] pooled representations over the same batch of
    sentence pairs. Each dimension is centered across the batch; its
    correlation is the normalized covariance, and dimensions that are
    constant in either input contribute zero correlation through the
    epsilon guard rather than dividing by zero.
    """
    ax, ay = _check_pair(hx, hy)
    if ax.ndim != 2 or ax.shape[0] < 2:
        raise DegenerateBatchError(f"correlation needs [B>=2, D] inputs, got {ax.shape}")
    cx = T.sub(hx, T.reduce_mean(hx, axis=0, keepdims=True))
    cy = T.sub(hy, T.reduce_mean(hy, axis=0, keepdims=True))
    num = T.reduce_sum(T.mul(cx, cy), axis=0)
    sx = T.reduce_sum(T.mul(cx, cx), axis=0)
    sy = T.reduce_sum(T.mul(cy, cy), axis=0)
    per_dim = T.div(num, T.sqrt(T.add(T.mul(sx, sy), CORR_EPS)))
    return T.sub(1.0, T.reduce_mean(per_dim))


def correlation(hx, hy) -> float:
    """Scalar batch correlation diagnostic; 1.0 means perfectly aligned."""
    return 1.0 - float(corr_distance(Tensor(T._as_array(hx)), Tensor(T._as_array(hy))).array)


def max_distance(hx, hy) -> Tensor:
    """Largest absolute elementwise difference, differentiable."""
    hx_a, hy_a = _check_pair(hx, hy)
    if hx_a.size == 0:
        raise ShapeError("empty latents")
    return T.reduce_max(T.absolute(T.sub(hx, hy)))


@dataclass
class Codebook:
    """Decomposed quantizer: n independent tables over equal slices of D.

    Each table holds ``entries`` learnable rows of width D / n. A vector is
    quantized per slice to its nearest row, so the representable set is the
    cartesian product of the tables: entries ** n distinct vectors.
    """

    tables: list[Tensor] = field(repr=False)
    n_tables: int
    entries: int
    sub_dim: int

    @property
    def d_model(self) -> int:
        return self.n_tables * self.sub_dim


def init_codebook(n_tables: int, entries: int, d_model: int, seed: int = 0) -> Codebook:
    if n_tables < 1 or entries < 1:
        raise ConfigError(f"need at least one table and one entry, got {n_tables}/{entries}")
    if d_model % n_tables != 0:
        raise ConfigError(f"{n_tables} tables do not divide width {d_model}")
    sub = d_model // n_tables
    rng = derive_rng(seed, "codebook")
    tables = [Tensor(rng.normal(0.0, sub ** -0.5, size=(entries, sub))) for _ in range(n_tables)]
    return Codebook(tables=tables, n_tables=n_tables, entries=entries, sub_dim=sub)


def quantize(cb: Codebook, x) -> tuple[Tensor, np.ndarray, Tensor, Tensor]:
    """Snap ``x[..., D]`` onto the codebook, slice by slice.

    Returns the straight-through output (values of the selected rows,
    gradient of the identity), the integer selection indices [..., n],
    the codebook loss pulling rows toward the (frozen) inputs, and the
    commitment loss pulling inputs toward the (frozen) rows. Nearest
    neighbor ties resolve to the lowest row index.
    """
    xa = T._as_array(x)
    if xa.shape[-1] != cb.d_model:
        raise ShapeError(f"input width {xa.shape[-1]} != codebook width {cb.d_model}")
    lead = xa.shape[:-1]
    slices = xa.reshape(*lead, cb.n_tables, cb.sub_dim)
    indices = np.empty(lead + (cb.n_tables,), dtype=np.int64)
    picked = []
    for j, table in enumerate(cb.tables):
        rows = table.array  # [K, sub]
        part = slices[..., j, :]  # [..., sub]
        d2 = np.sum((part[..., None, :] - rows) ** 2, axis=-1)  # [..., K]
        idx = np.argmin(d2, axis=-1)
        indices[..., j] = idx
        picked.append(T.embedding(table, idx))
    selected = T.concat(picked, axis=-1)  # [..., D], gradient reaches the tables
    quantized = T.straight_through(x, selected.array)
    code_err = T.sub(xa, selected)  # inputs frozen, rows move
    codebook_loss = T.reduce_mean(T.mul(code_err, code_err))
    commit_err = T.sub(x, selected.array)  # rows frozen, inputs move
    commitment_loss = T.reduce_mean(T.mul(commit_err, commit_err))
    return quantized, indices, codebook_loss, commitment_loss
