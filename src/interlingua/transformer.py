"""Per-language transformer autoencoders sharing one latent width.

Each language owns an encoder, a decoder and its own embeddings; nothing
is shared between languages except the dimensionality of the encoder
output, which is what lets any decoder consume any encoder's states.
Blocks are pre-norm residual, attention masks are additive, and decoding
is greedy. Training and teacher forcing run through the tape-based
tensor core, one node per pre-norm sublayer; a greedy step runs the same
block on plain arrays, off the tape, through those nodes' array-level
forwards.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import tensor as T
from .exceptions import (
    CompatibilityError,
    ConfigError,
    ContractError,
    DegenerateBatchError,
    LengthError,
)
from .seeding import derive_rng
from .tensor import Tensor

PAD_ID = 0
BOS_ID = 1
EOS_ID = 2
UNK_ID = 3
RESERVED_TOKENS = ("<pad>", "<bos>", "<eos>", "<unk>")

# additive mask bias; large enough that masked scores underflow to exactly
# zero weight after the max-shifted softmax in float64
MASK_BIAS = -1e9

LN_EPS = 1e-6


@dataclass
class ModelConfig:
    """Architecture hyperparameters shared by every language module."""

    num_blocks: int = 2
    num_heads: int = 2
    d_model: int = 32
    d_ff: int | None = None
    vocab_size: int = 512
    max_len: int = 50
    dropout: float = 0.0

    def __post_init__(self):
        if self.d_ff is None:
            self.d_ff = 4 * self.d_model
        if self.num_blocks < 1 or self.num_heads < 1:
            raise ConfigError("need at least one block and one head")
        if self.d_model % self.num_heads != 0:
            raise ConfigError(f"d_model {self.d_model} not divisible by {self.num_heads} heads")
        if self.d_model % 2 != 0:
            raise ConfigError("d_model must be even for sinusoidal positions")
        if self.vocab_size <= len(RESERVED_TOKENS):
            raise ConfigError(f"vocab_size must exceed the {len(RESERVED_TOKENS)} reserved ids")
        if self.max_len < 2:
            raise ConfigError("max_len must be at least 2")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must lie in [0, 1), got {self.dropout}")


def positional_encoding(max_len: int, d_model: int) -> Tensor:
    """Sinusoidal position table: sine on even dims, cosine on odd dims,
    wavelengths geometric from 2*pi up to 10000*2*pi."""
    if d_model % 2 != 0:
        raise ConfigError("d_model must be even for sinusoidal positions")
    pos = np.arange(max_len, dtype=np.float64)[:, None]
    dim = np.arange(0, d_model, 2, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, dim / d_model)
    pe = np.zeros((max_len, d_model))
    pe[:, 0::2] = np.sin(angle)
    pe[:, 1::2] = np.cos(angle)
    return Tensor(pe)


def _glorot(rng, shape: tuple[int, int]) -> np.ndarray:
    limit = math.sqrt(6.0 / (shape[0] + shape[1]))
    return rng.uniform(-limit, limit, size=shape)


def _zeros(rng, shape) -> np.ndarray:
    return np.zeros(shape)


def _ones(rng, shape) -> np.ndarray:
    return np.ones(shape)


class LanguageModule:
    """Encoder, decoder and embeddings for a single language.

    Parameters start from a seeded random init, or, when ``arrays`` is
    given, from ``arrays(name, shape)`` for each parameter (a checkpoint
    load), without drawing the random init at all. They are views of one
    contiguous buffer, in ``_layout`` order.
    """

    def __init__(
        self, language: str, config: ModelConfig, vocab_size: int | None = None, seed: int = 0, arrays=None
    ):
        if not language:
            raise ConfigError("language tag must be non-empty")
        self.language = language
        self.config = config
        self.vocab_size = int(vocab_size if vocab_size is not None else config.vocab_size)
        if self.vocab_size <= len(RESERVED_TOKENS):
            raise ConfigError("vocabulary too small for the reserved ids")
        self._pe = positional_encoding(config.max_len, config.d_model).array
        rng = derive_rng(seed, "module", language) if arrays is None else None
        layout = self._layout()
        values = (init(rng, shape) if arrays is None else arrays(name, shape) for name, shape, init in layout)
        tensors = T.tensors_in_one_buffer([shape for _, shape, _ in layout], values)
        self.params: dict[str, Tensor] = {name: t for (name, _, _), t in zip(layout, tensors)}

    def __deepcopy__(self, memo):
        # rebuilt through ``arrays`` so the copy keeps the one-buffer storage
        config = copy.deepcopy(self.config, memo)
        return LanguageModule(self.language, config, self.vocab_size, arrays=lambda name, _: self.params[name].array)

    def _layout(self) -> list[tuple[str, tuple, Callable]]:
        """(name, shape, initializer) of every parameter, in init and checkpoint order."""
        cfg = self.config
        d, dff, v = cfg.d_model, cfg.d_ff, self.vocab_size
        layout = [("emb", (v, d), lambda rng, shape: rng.normal(0.0, d ** -0.5, size=shape))]
        for side in ("enc", "dec"):
            sublayers = ("self.", "cross.") if side == "dec" else ("self.",)
            norms = ("ln1.", "ln2.", "ln3.")[: len(sublayers) + 1]
            for i in range(cfg.num_blocks):
                pre = f"{side}.{i}."
                for sub in sublayers:
                    layout += [(pre + sub + n, (d, d), _glorot) for n in ("wq", "wk", "wv", "wo")]
                    layout += [(pre + sub + n, (d,), _zeros) for n in ("bq", "bk", "bv", "bo")]
                for norm in norms:
                    layout += [(pre + norm + "gain", (d,), _ones), (pre + norm + "bias", (d,), _zeros)]
                layout += [
                    (pre + "ffn.w1", (d, dff), _glorot),
                    (pre + "ffn.b1", (dff,), _zeros),
                    (pre + "ffn.w2", (dff, d), _glorot),
                    (pre + "ffn.b2", (d,), _zeros),
                ]
            layout += [(f"{side}.final.gain", (d,), _ones), (f"{side}.final.bias", (d,), _zeros)]
        layout.append(("out_proj", (d, v), _glorot))
        return layout


def pad_mask(tokens: np.ndarray) -> np.ndarray:
    """Boolean [B, T] mask, True where the token is real."""
    return np.asarray(tokens) != PAD_ID


def _check_tokens(module: LanguageModule, tokens, what: str) -> np.ndarray:
    tok = np.asarray(tokens)
    if not np.issubdtype(tok.dtype, np.integer):
        raise ContractError(f"{what} tokens must be integers, got dtype {tok.dtype}")
    if tok.ndim != 2:
        raise ContractError(f"{what} tokens must be [B, T], got shape {tok.shape}")
    if tok.shape[1] > module.config.max_len:
        raise LengthError(
            f"{what} length {tok.shape[1]} exceeds max_len {module.config.max_len}"
        )
    if tok.min() < 0 or tok.max() >= module.vocab_size:
        raise ContractError(
            f"{what} ids must lie in [0, {module.vocab_size}), got [{tok.min()}, {tok.max()}]"
        )
    return tok


def _attention(p: dict, prefix: str, norm: str, x, kv, q_mask, kv_mask, bias, cfg: ModelConfig, rng):
    """The pre-norm attention sublayer ``x + attention(layer_norm(x), kv)``
    over packed rows, one tape node; ``kv`` None is self-attention."""
    weights = [p[prefix + name] for name in T.ATTENTION_WEIGHTS]
    return T.attention_sublayer(
        x, kv, q_mask, kv_mask, bias, _norm(p, norm), weights, cfg.num_heads, LN_EPS, cfg.dropout, rng
    )


def _ffn(p: dict, prefix: str, norm: str, x, cfg: ModelConfig, rng):
    """The pre-norm feed-forward sublayer ``x + ffn(layer_norm(x))``, one tape node."""
    weights = [p[prefix + name] for name in T.FFN_WEIGHTS]
    return T.ffn_sublayer(x, _norm(p, norm), weights, LN_EPS, cfg.dropout, rng)


def _norm(p: dict, prefix: str) -> tuple:
    return p[prefix + "gain"], p[prefix + "bias"]


def _ln(p: dict, prefix: str, x):
    return T.layer_norm(x, *_norm(p, prefix), eps=LN_EPS)


def _key_bias(mask: np.ndarray) -> np.ndarray:
    """[B, T] boolean key mask to an additive [B, 1, 1, T] bias."""
    return np.where(mask, 0.0, MASK_BIAS)[:, None, None, :]


def _causal_bias(t: int) -> np.ndarray:
    bias = np.triu(np.full((t, t), MASK_BIAS), k=1)
    return bias[None, None, :, :]


def _maybe_dropout(x, rate: float, rng):
    if rate > 0.0 and rng is not None:
        return T.dropout(x, rate, rng)
    return x


def _embed(module: LanguageModule, tok: np.ndarray, rows: T.RowIndex):
    """Packed rows [N, d] of the real tokens (the True entries of the
    ``rows`` mask): scaled embeddings plus the position of each, its column."""
    if not rows.at[0].size:
        raise DegenerateBatchError("every position of the batch is padding")
    return T.embedding(module.params["emb"], tok[rows.at], math.sqrt(module.config.d_model), module._pe[rows.at[1]])


def encode(module: LanguageModule, tokens, dropout_rng=None) -> Tensor:
    """The latent of ``tokens``: states [N, d_model] of the real positions
    only, the rows of ``pad_mask(tokens)`` in row-major order. Pad
    positions are never computed and never influence real ones; the mask
    travels with the rows to any decoder.
    """
    cfg = module.config
    tok = _check_tokens(module, tokens, "source")
    p = module.params
    mask = pad_mask(tok)
    rows = T.row_index(mask)
    bias = _key_bias(mask)
    x = _maybe_dropout(_embed(module, tok, rows), cfg.dropout, dropout_rng)
    for i in range(cfg.num_blocks):
        pre = f"enc.{i}."
        x = _attention(p, pre + "self.", pre + "ln1.", x, None, rows, rows, bias, cfg, dropout_rng)
        x = _ffn(p, pre + "ffn.", pre + "ln2.", x, cfg, dropout_rng)
    return _ln(p, "enc.final.", x)


def _check_latent(module: LanguageModule, latent, src_mask) -> tuple[Tensor, np.ndarray]:
    """The latent rows [N, d_model] as a Tensor and their [B, S] source
    mask, checked against the decoder: one row per True mask entry."""
    cfg = module.config
    la = latent if isinstance(latent, Tensor) else Tensor(latent)
    if la.ndim != 2 or la.shape[-1] != cfg.d_model:
        raise CompatibilityError(
            f"latent shape {la.shape} incompatible with d_model {cfg.d_model}"
        )
    src_mask = np.asarray(src_mask, dtype=bool)
    if src_mask.ndim != 2 or la.shape[0] != src_mask.sum():
        raise CompatibilityError(f"source mask {src_mask.shape} does not cover latent {la.shape}")
    return la, src_mask


def decode_teacher_forced(
    module: LanguageModule, latent, src_mask, target_in, dropout_rng=None, packed: bool = False
) -> Tensor:
    """Logits [B, T, V] for the shifted target given a latent.

    The latent is the rows [N, d_model] of ``src_mask``'s real positions,
    as ``encode`` returns them, from any language's encoder whose width
    matches d_model. Only the real positions of ``target_in`` are
    computed; its pad positions read 0. With ``packed`` the logits come
    back as the rows [N, V] of ``target_in``'s real positions instead:
    training scores those rows directly, where spreading them to
    [B, T, V] would cost a zero-filled copy and its gather per pass.
    """
    la, src_mask = _check_latent(module, latent, src_mask)
    tok = _check_tokens(module, target_in, "target")
    if tok.shape[0] != src_mask.shape[0]:
        raise CompatibilityError(
            f"batch mismatch: latent has {src_mask.shape[0]} rows, target has {tok.shape[0]}"
        )
    cfg, p = module.config, module.params
    mask = pad_mask(tok)
    rows, src_rows = T.row_index(mask), T.row_index(src_mask)
    causal, cross_bias = _causal_bias(tok.shape[1]), _key_bias(src_mask)
    x = _maybe_dropout(_embed(module, tok, rows), cfg.dropout, dropout_rng)
    for i in range(cfg.num_blocks):
        pre = f"dec.{i}."
        x = _attention(p, pre + "self.", pre + "ln1.", x, None, rows, rows, causal, cfg, dropout_rng)
        x = _attention(p, pre + "cross.", pre + "ln2.", x, la, rows, src_rows, cross_bias, cfg, dropout_rng)
        x = _ffn(p, pre + "ffn.", pre + "ln3.", x, cfg, dropout_rng)
    logits = T.linear(_ln(p, "dec.final.", x), p["out_proj"])
    return logits if packed else T.unpack(logits, mask)


# a decoder block's matrices and vectors in the order _greedy_step reads
# them; "self.wqkv" and "self.b" are the stacked q, k, v projections
_STEP_MATRICES = ("self.wqkv", "self.wo", "cross.wq", "cross.wo", "ffn.w1", "ffn.w2")
_STEP_VECTORS = (
    "ln1.gain", "ln1.bias", "self.b", "self.bo", "ln2.gain", "ln2.bias", "cross.bq", "cross.bo",
    "ln3.gain", "ln3.bias", "ffn.b1", "ffn.b2",
)


def _bind_decoder(module: LanguageModule, batch: int) -> tuple:
    """The decoder's arrays, bound once per ``greedy_decode`` so that no
    step looks a parameter up by name: the embedding table, each block's
    ``_STEP_MATRICES``, each block's cross-attention key/value
    projection and the output projection; and apart, the vectors
    (``_STEP_VECTORS`` per block, then the final norm's) repeated
    for ``batch`` rows on their second-to-last axis. numpy adds or
    multiplies operands of one shape on a fast path that a broadcast row
    misses, and the elementwise results are the same bits. Self-attention's
    wq, wk, wv and bq, bk, bv, and cross-attention's wk, wv and bk, bv,
    lie back to back in the module's buffer and are bound as stacked
    views of it.
    """
    a = {name: t.array for name, t in module.params.items()}

    def stacked(prefix, names):
        w = T.stacked_view([a[prefix + "w" + n] for n in names])
        return w, T.stacked_view([a[prefix + "b" + n] for n in names])

    def rows(v):
        return np.repeat(v[..., None, :], batch, axis=-2)

    matrices, cross_kv, vectors = [], [], []
    for i in range(module.config.num_blocks):
        pre = f"dec.{i}."
        a[pre + "self.wqkv"], a[pre + "self.b"] = stacked(pre + "self.", "qkv")
        matrices.append([a[pre + n] for n in _STEP_MATRICES])
        vectors.append([rows(a[pre + n]) for n in _STEP_VECTORS])
        w, b = stacked(pre + "cross.", "kv")
        cross_kv.append((w, b[:, None]))
    vectors.append([rows(a["dec.final.gain"]), rows(a["dec.final.bias"])])
    return (a["emb"], matrices, cross_kv, a["out_proj"]), vectors


def _first_rows(vectors: list, b: int) -> list:
    """The repeated vectors of ``_bind_decoder`` cut to their first ``b`` rows."""
    return [[np.ascontiguousarray(v[..., :b, :]) for v in block] for block in vectors]


def _relu_in_place(a: np.ndarray) -> np.ndarray:
    return np.maximum(a, 0.0, out=a)


def _attend_rows(q, k, v, bias, wo, bo) -> np.ndarray:
    """Attention of one query per row, ``q`` [B, h, 1, d / h], projected
    back to rows [B, d] by ``wo`` and ``bo``."""
    ctx, _ = T.attend(q, k, v, bias)
    return T.affine(ctx.reshape(q.shape[0], -1), wo, bo)


def _greedy_step(module: LanguageModule, bound: tuple, vectors: list, tok: np.ndarray, step: int, cache, cross,
                 cross_bias) -> np.ndarray:
    """Logits [B, V] of one greedy step, on the arrays ``_bind_decoder``
    bound, its vectors cut to the B working rows: ``tok`` [B] holds each
    working row's newest token, at position ``step``. Block i's
    self-attention keys and values of that position are written to
    ``cache[i, :, :, :, step]``; ``cross`` holds the latent's keys and
    values, split into heads like the cache. The block is the training
    one's sublayers through their array-level forwards, with the residual
    adds and the ReLU in place.
    """
    emb, matrices, _, out_proj = bound
    b, heads = tok.shape[0], module.config.num_heads
    shape = (b, heads, 1, module.config.d_model // heads)
    x = emb[tok]
    x *= math.sqrt(module.config.d_model)
    x += module._pe[step]
    for i, ((wqkv, wo, wq, cross_wo, w1, w2), (g1, c1, bqkv, bo, g2, c2, bq, cross_bo, g3, c3, b1, b2)) in enumerate(
        zip(matrices, vectors)
    ):
        qkv = T.affine(T.layer_norm_forward(x, g1, c1, LN_EPS)[0], wqkv, bqkv).reshape(3, *shape)
        cache[i, :, :, :, step] = qkv[1:, :, :, 0]
        x += _attend_rows(qkv[0], cache[i, 0, :, :, : step + 1], cache[i, 1, :, :, : step + 1], None, wo, bo)
        q = T.affine(T.layer_norm_forward(x, g2, c2, LN_EPS)[0], wq, bq).reshape(shape)
        x += _attend_rows(q, cross[i, 0], cross[i, 1], cross_bias, cross_wo, cross_bo)
        x += T.ffn_forward(T.layer_norm_forward(x, g3, c3, LN_EPS)[0], w1, b1, w2, b2, _relu_in_place)
    return T.layer_norm_forward(x, *vectors[-1], LN_EPS)[0] @ out_proj


def greedy_decode(module: LanguageModule, latent, src_mask, max_steps: int) -> list[list[int]]:
    """Argmax decoding from a bos seed; stops per row at eos or max_steps.

    Returns generated ids per row, excluding the seed and including the
    terminating eos when one was produced. Pad and bos can never be
    emitted. Ties in the argmax resolve to the lowest id.

    The latent is the rows [N, d_model] of ``src_mask``'s real
    positions, as ``encode`` returns them. Their cross-attention keys and
    values are projected once and scattered into heads. Each step embeds
    only the newest token, whose query attends over the cached
    self-attention keys and values of the positions up to it, so no step
    re-decodes the prefix. Rows leave the working batch when they
    emit eos. Steps run off the tape, on plain arrays bound once per
    call, through the same layer-norm, projection, ``tensor.attend`` and
    feed-forward forwards as the training path.
    """
    if max_steps < 1:
        raise ContractError(f"max_steps must be positive, got {max_steps}")
    cfg = module.config
    if max_steps > cfg.max_len:
        raise LengthError(f"max_steps {max_steps} exceeds the position table ({cfg.max_len})")
    la, src_mask = _check_latent(module, latent, src_mask)
    batch, heads = src_mask.shape[0], cfg.num_heads
    bound, vectors = _bind_decoder(module, batch)
    # [num_blocks, 2, B, h, S, d / h] like the cache, so dropping rows is one index
    src_rows = T.row_index(src_mask)
    cross = np.array([[T._heads(kv, src_rows, heads) for kv in T.affine(la.array, *wb)] for wb in bound[2]])
    # repeated for each head, like the vectors: the scores add it on the fast path
    cross_bias = np.repeat(_key_bias(src_mask), heads, axis=1)
    cache = np.empty((cfg.num_blocks, 2, batch, heads, max_steps, cfg.d_model // heads))
    rows = np.arange(batch)  # original index of each working row
    tok = np.full(batch, BOS_ID, dtype=np.int64)
    out = np.full((batch, max_steps), PAD_ID, dtype=np.int64)
    lengths = np.full(batch, max_steps)
    for step in range(max_steps):
        logits = _greedy_step(module, bound, vectors, tok, step, cache, cross, cross_bias)
        logits[:, PAD_ID] = -np.inf
        logits[:, BOS_ID] = -np.inf
        tok = logits.argmax(axis=-1)
        out[rows, step] = tok
        live = tok != EOS_ID
        if not live.all():
            lengths[rows[~live]] = step + 1
            rows, tok, cross_bias = rows[live], tok[live], cross_bias[live]
            cross, cache = cross[:, :, live], cache[:, :, live]
            if rows.size == 0:
                break
            vectors = _first_rows(vectors, rows.size)
    return [row[:n] for row, n in zip(out.tolist(), lengths.tolist())]
