"""Per-language transformer autoencoders sharing one latent width.

Each language owns an encoder, a decoder and its own embeddings; nothing
is shared between languages except the dimensionality of the encoder
output, which is what lets any decoder consume any encoder's states.
Blocks are pre-norm residual, attention masks are additive, and decoding
is greedy. All math runs through the tape-based tensor core, so the same
forward code serves training and inference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .exceptions import (
    CompatibilityError,
    ConfigError,
    ContractError,
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


def _glorot(rng, fan_in: int, fan_out: int) -> np.ndarray:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


class LanguageModule:
    """Encoder, decoder and embeddings for a single language."""

    def __init__(self, language: str, config: ModelConfig, vocab_size: int | None = None, seed: int = 0):
        if not language:
            raise ConfigError("language tag must be non-empty")
        self.language = language
        self.config = config
        self.vocab_size = int(vocab_size if vocab_size is not None else config.vocab_size)
        if self.vocab_size <= len(RESERVED_TOKENS):
            raise ConfigError("vocabulary too small for the reserved ids")
        self.params: dict[str, Tensor] = {}
        self._pe = positional_encoding(config.max_len, config.d_model).array
        self._init_params(derive_rng(seed, "module", language))

    def _init_params(self, rng):
        cfg = self.config
        d, dff, v = cfg.d_model, cfg.d_ff, self.vocab_size
        p = self.params
        p["emb"] = Tensor(rng.normal(0.0, d ** -0.5, size=(v, d)))
        for side, blocks in (("enc", cfg.num_blocks), ("dec", cfg.num_blocks)):
            for i in range(blocks):
                pre = f"{side}.{i}."
                self._init_attention(rng, pre + "self.", d)
                if side == "dec":
                    self._init_attention(rng, pre + "cross.", d)
                self._init_ln(pre + "ln1.", d)
                self._init_ln(pre + "ln2.", d)
                if side == "dec":
                    self._init_ln(pre + "ln3.", d)
                p[pre + "ffn.w1"] = Tensor(_glorot(rng, d, dff))
                p[pre + "ffn.b1"] = Tensor(np.zeros(dff))
                p[pre + "ffn.w2"] = Tensor(_glorot(rng, dff, d))
                p[pre + "ffn.b2"] = Tensor(np.zeros(d))
            self._init_ln(f"{side}.final.", d)
        p["out_proj"] = Tensor(_glorot(rng, d, v))

    def _init_attention(self, rng, prefix: str, d: int):
        for name in ("wq", "wk", "wv", "wo"):
            self.params[prefix + name] = Tensor(_glorot(rng, d, d))
        for name in ("bq", "bk", "bv", "bo"):
            self.params[prefix + name] = Tensor(np.zeros(d))

    def _init_ln(self, prefix: str, d: int):
        self.params[prefix + "gain"] = Tensor(np.ones(d))
        self.params[prefix + "bias"] = Tensor(np.zeros(d))


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


def _project(p: dict, prefix: str, x, name: str):
    """One of an attention layer's input projections: ``name`` is q, k or v."""
    return T.add(T.matmul(x, p[prefix + "w" + name]), p[prefix + "b" + name])


def _attend(p: dict, prefix: str, q, k, v, bias, num_heads: int):
    """Projected queries [B, Tq, d] over projected keys and values [B, Tk, d].

    Splits heads, scales and masks the scores (``bias`` may be None),
    then applies the softmax, the context and the output projection.
    """
    b, tq, d = q.shape
    tk = k.shape[1]
    dh = d // num_heads
    q = T.transpose(T.reshape(q, (b, tq, num_heads, dh)), (0, 2, 1, 3))
    k = T.transpose(T.reshape(k, (b, tk, num_heads, dh)), (0, 2, 3, 1))
    v = T.transpose(T.reshape(v, (b, tk, num_heads, dh)), (0, 2, 1, 3))
    scores = T.mul(T.matmul(q, k), dh ** -0.5)
    if bias is not None:
        scores = T.add(scores, bias)
    weights = T.softmax(scores, axis=-1)
    ctx = T.matmul(weights, v)
    ctx = T.reshape(T.transpose(ctx, (0, 2, 1, 3)), (b, tq, d))
    return T.add(T.matmul(ctx, p[prefix + "wo"]), p[prefix + "bo"])


def _attention(p: dict, prefix: str, q_in, kv_in, bias, num_heads: int):
    q = _project(p, prefix, q_in, "q")
    k = _project(p, prefix, kv_in, "k")
    v = _project(p, prefix, kv_in, "v")
    return _attend(p, prefix, q, k, v, bias, num_heads)


def _ffn(p: dict, prefix: str, x):
    h = T.relu(T.add(T.matmul(x, p[prefix + "w1"]), p[prefix + "b1"]))
    return T.add(T.matmul(h, p[prefix + "w2"]), p[prefix + "b2"])


def _ln(p: dict, prefix: str, x):
    return T.layer_norm(x, p[prefix + "gain"], p[prefix + "bias"], eps=LN_EPS)


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


def _embed(module: LanguageModule, tok: np.ndarray, start: int = 0):
    """Scaled token embeddings plus the positions ``start, start + 1, ...``."""
    x = T.mul(T.embedding(module.params["emb"], tok), math.sqrt(module.config.d_model))
    return T.add(x, module._pe[start : start + tok.shape[1]])


def encode(module: LanguageModule, tokens, dropout_rng=None) -> Tensor:
    """Per-token states [B, T, d_model]; pad positions never influence real ones."""
    cfg = module.config
    tok = _check_tokens(module, tokens, "source")
    p = module.params
    bias = _key_bias(pad_mask(tok))
    x = _maybe_dropout(_embed(module, tok), cfg.dropout, dropout_rng)
    for i in range(cfg.num_blocks):
        pre = f"enc.{i}."
        h = _ln(p, pre + "ln1.", x)
        x = T.add(x, _maybe_dropout(_attention(p, pre + "self.", h, h, bias, cfg.num_heads), cfg.dropout, dropout_rng))
        h = _ln(p, pre + "ln2.", x)
        x = T.add(x, _maybe_dropout(_ffn(p, pre + "ffn.", h), cfg.dropout, dropout_rng))
    return _ln(p, "enc.final.", x)


def _check_latent(module: LanguageModule, latent, src_mask) -> tuple[Tensor, np.ndarray]:
    """The latent as a Tensor and its source mask, checked against the decoder."""
    cfg = module.config
    la = latent if isinstance(latent, Tensor) else Tensor(latent)
    if la.ndim != 3 or la.shape[-1] != cfg.d_model:
        raise CompatibilityError(
            f"latent shape {la.shape} incompatible with d_model {cfg.d_model}"
        )
    src_mask = np.asarray(src_mask, dtype=bool)
    if src_mask.shape != la.shape[:2]:
        raise CompatibilityError(f"source mask {src_mask.shape} does not cover latent {la.shape}")
    return la, src_mask


def _cross_kv(module: LanguageModule, la) -> list:
    """Each decoder block's cross-attention keys and values of the latent."""
    prefixes = [f"dec.{i}.cross." for i in range(module.config.num_blocks)]
    return [(_project(module.params, pre, la, "k"), _project(module.params, pre, la, "v")) for pre in prefixes]


def _decoder_logits(
    module: LanguageModule, x, cross_kv, cross_bias, self_bias, dropout_rng=None, cache=None, step: int = 0
):
    """Decoder blocks, final norm and output projection over embedded targets.

    ``cross_kv[i]`` holds block i's keys and values of the latent. With a
    ``cache`` [num_blocks, 2, B, max_steps, d_model], ``x`` is the single
    position ``step``: its self-attention keys and values are stored at
    ``step`` and its query attends over the cached positions 0..step.
    """
    cfg = module.config
    p = module.params
    x = _maybe_dropout(x, cfg.dropout, dropout_rng)
    for i in range(cfg.num_blocks):
        pre = f"dec.{i}."
        h = _ln(p, pre + "ln1.", x)
        q = _project(p, pre + "self.", h, "q")
        k = _project(p, pre + "self.", h, "k")
        v = _project(p, pre + "self.", h, "v")
        if cache is not None:
            cache[i, 0, :, step] = k.array[:, 0]
            cache[i, 1, :, step] = v.array[:, 0]
            k, v = cache[i, 0, :, : step + 1], cache[i, 1, :, : step + 1]
        x = T.add(x, _maybe_dropout(_attend(p, pre + "self.", q, k, v, self_bias, cfg.num_heads), cfg.dropout, dropout_rng))
        h = _ln(p, pre + "ln2.", x)
        q = _project(p, pre + "cross.", h, "q")
        k, v = cross_kv[i]
        x = T.add(x, _maybe_dropout(_attend(p, pre + "cross.", q, k, v, cross_bias, cfg.num_heads), cfg.dropout, dropout_rng))
        h = _ln(p, pre + "ln3.", x)
        x = T.add(x, _maybe_dropout(_ffn(p, pre + "ffn.", h), cfg.dropout, dropout_rng))
    x = _ln(p, "dec.final.", x)
    return T.matmul(x, p["out_proj"])


def decode_teacher_forced(module: LanguageModule, latent, src_mask, target_in, dropout_rng=None) -> Tensor:
    """Logits [B, T, V] for the shifted target given encoder states.

    The latent may come from any language's encoder as long as its width
    matches d_model; the source pad mask must travel with it.
    """
    la, src_mask = _check_latent(module, latent, src_mask)
    tok = _check_tokens(module, target_in, "target")
    if tok.shape[0] != la.shape[0]:
        raise CompatibilityError(
            f"batch mismatch: latent has {la.shape[0]} rows, target has {tok.shape[0]}"
        )
    return _decoder_logits(
        module, _embed(module, tok), _cross_kv(module, la), _key_bias(src_mask),
        _causal_bias(tok.shape[1]), dropout_rng,
    )


def greedy_decode(module: LanguageModule, latent, src_mask, max_steps: int) -> list[list[int]]:
    """Argmax decoding from a bos seed; stops per row at eos or max_steps.

    Returns generated ids per row, excluding the seed and including the
    terminating eos when one was produced. Pad and bos can never be
    emitted. Ties in the argmax resolve to the lowest id.

    The latent's cross-attention keys and values are projected once.
    Each step embeds only the newest token, whose query attends over the
    cached self-attention keys and values of the positions up to it, so
    no step re-decodes the prefix. Rows leave the working batch when they
    emit eos.
    """
    if max_steps < 1:
        raise ContractError(f"max_steps must be positive, got {max_steps}")
    cfg = module.config
    if max_steps > cfg.max_len:
        raise LengthError(f"max_steps {max_steps} exceeds the position table ({cfg.max_len})")
    # forward only, off any tape and without dropout
    la, src_mask = _check_latent(module, Tensor(T._as_array(latent)), src_mask)
    batch = la.shape[0]
    # [num_blocks, 2, B, S, d_model] like the cache, so dropping rows is one index
    cross = np.array([[k.array, v.array] for k, v in _cross_kv(module, la)])
    cross_bias = _key_bias(src_mask)
    cache = np.empty((cfg.num_blocks, 2, batch, max_steps, cfg.d_model))
    rows = np.arange(batch)  # original index of each working row
    tok = np.full((batch, 1), BOS_ID, dtype=np.int64)
    outs: list[list[int]] = [[] for _ in range(batch)]
    for step in range(max_steps):
        x = _embed(module, tok, step)
        logits = _decoder_logits(module, x, cross, cross_bias, None, cache=cache, step=step).array[:, 0]
        logits[:, PAD_ID] = -np.inf
        logits[:, BOS_ID] = -np.inf
        nxt = logits.argmax(axis=-1)
        for row, token in zip(rows, nxt):
            outs[row].append(int(token))
        live = nxt != EOS_ID
        if not live.all():
            rows, nxt, cross_bias = rows[live], nxt[live], cross_bias[live]
            cross, cache = cross[:, :, live], cache[:, :, live]
            if rows.size == 0:
                break
        tok = nxt[:, None]
    return outs
