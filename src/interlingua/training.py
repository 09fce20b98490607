"""Joint training of language modules against a shared latent space.

One optimization step encodes both sides of a parallel batch once,
decodes four ways (two reconstructions, two cross translations), adds a
differentiable distance between the pooled latents, and applies Adam.
Batches are sampled statelessly from (seed, step), so training resumed
from a checkpoint continues bit-exactly where the original run would
have gone. Checkpoints are a deterministic binary container.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field, replace
from typing import Callable

import numpy as np

from . import tensor as T
from .data import ParallelCorpus, expect_end, header_field, read_array, read_header, write_header
from .exceptions import (
    CheckpointError,
    CompatibilityError,
    ConfigError,
    DivergenceError,
)
from .latent import COMMITMENT_BETA, Codebook, corr_distance, init_codebook, max_distance, pool, quantize
from .seeding import derive_rng
from .tensor import GradTape, Tensor, backward
from .transformer import (
    BOS_ID,
    PAD_ID,
    LanguageModule,
    ModelConfig,
    decode_teacher_forced,
    encode,
    pad_mask,
)

DISTANCE_MODES = ("corr", "max", "none")

CHECKPOINT_MAGIC = b"ULRC"
CHECKPOINT_VERSION = 1
# the checkpoint header's magic: file type, then the format version
_CHECKPOINT_LEAD = CHECKPOINT_MAGIC + CHECKPOINT_VERSION.to_bytes(4, "little")


@dataclass
class TrainConfig:
    learning_rate: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.98
    adam_eps: float = 1e-9
    batch_size: int = 16
    max_steps: int = 1000
    distance_mode: str = "corr"
    quantize: bool = False
    vq_tables: int = 4
    vq_entries: int = 64
    commitment_beta: float = COMMITMENT_BETA
    loss_weights: tuple[float, ...] = (1.0, 1.0, 1.0, 1.0, 1.0)
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")
        if not 0 <= self.beta1 < 1 or not 0 <= self.beta2 < 1:
            raise ConfigError("adam betas must lie in [0, 1)")
        if self.distance_mode not in DISTANCE_MODES:
            raise ConfigError(f"distance_mode must be one of {DISTANCE_MODES}")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be positive")
        if self.distance_mode == "corr" and self.batch_size < 2:
            raise ConfigError("correlation distance needs batch_size >= 2")
        if self.max_steps < 1:
            raise ConfigError("max_steps must be positive")
        self.loss_weights = tuple(float(w) for w in self.loss_weights)
        if len(self.loss_weights) != 5:
            raise ConfigError("loss_weights must have five entries")


@dataclass
class TrainState:
    step: int = 0
    moments: dict[str, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)
    history: list[dict] = field(default_factory=list)


@dataclass
class System:
    """Trained language modules plus the optional shared quantizer."""

    config: ModelConfig
    modules: dict[str, LanguageModule]
    codebook: Codebook | None = None
    vocab_hashes: dict[str, str] = field(default_factory=dict)

    @property
    def languages(self) -> tuple[str, ...]:
        return tuple(self.modules)

    def named_parameters(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for lang, module in self.modules.items():
            for name, t in module.params.items():
                out[f"{lang}/{name}"] = t
        if self.codebook is not None:
            for j, table in enumerate(self.codebook.tables):
                out[f"codebook/{j}"] = table
        return out

    def parameter_hash(self) -> str:
        import hashlib

        h = hashlib.sha256()
        for name, t in sorted(self.named_parameters().items()):
            h.update(name.encode("utf-8"))
            h.update(np.ascontiguousarray(t.array, dtype="<f8").tobytes())
        return h.hexdigest()


def build_system(
    config: ModelConfig,
    vocab_sizes: dict[str, int],
    seed: int = 0,
    quantize_latent: bool = False,
    vq_tables: int = 4,
    vq_entries: int = 64,
) -> System:
    if len(vocab_sizes) < 1:
        raise ConfigError("need at least one language")
    modules = {
        lang: LanguageModule(lang, config, vocab_size=v, seed=seed)
        for lang, v in vocab_sizes.items()
    }
    codebook = None
    if quantize_latent:
        codebook = init_codebook(vq_tables, vq_entries, config.d_model, seed=seed)
    return System(config=config, modules=modules, codebook=codebook)


@dataclass
class PairBatch:
    """Padded id matrices for one language pair; rows end with eos."""

    lang_x: str
    lang_y: str
    x: np.ndarray
    y: np.ndarray


def make_batch(corpus: ParallelCorpus, indices) -> PairBatch:
    lang_x, lang_y = corpus.languages
    rows_x = [corpus.sequences[lang_x][i] for i in indices]
    rows_y = [corpus.sequences[lang_y][i] for i in indices]
    return PairBatch(lang_x, lang_y, _pad_rows(rows_x), _pad_rows(rows_y))


def _pad_rows(rows: list[np.ndarray]) -> np.ndarray:
    width = max(len(r) for r in rows)
    out = np.full((len(rows), width), PAD_ID, dtype=np.int64)
    for i, row in enumerate(rows):
        out[i, : len(row)] = row
    return out


def sample_batch(corpus: ParallelCorpus, batch_size: int, seed: int, step: int) -> PairBatch:
    """Stateless draw for a given step, so schedules replay exactly on resume."""
    n = len(corpus)
    if n == 0:
        raise ConfigError("corpus is empty")
    rng = derive_rng(seed, "batch", step)
    if batch_size >= n:
        indices = rng.permutation(n)
    else:
        indices = rng.choice(n, size=batch_size, replace=False)
    return make_batch(corpus, indices)


def shift_targets(tokens: np.ndarray) -> np.ndarray:
    """Teacher-forcing input: bos then the sequence with eos dropped off the end."""
    out = np.full_like(tokens, PAD_ID)
    out[:, 0] = BOS_ID
    out[:, 1:] = tokens[:, :-1]
    return out


def joint_loss(
    batch: PairBatch, system: System, cfg: TrainConfig, dropout_rng=None
) -> tuple[Tensor, dict]:
    """Five-term objective over one parallel batch.

    Each encoder runs once; its states feed both the matching decoder
    (reconstruction) and the other language's decoder (translation). The
    distance term compares pooled pre-quantization latents. Returns the
    scalar total and a float breakdown whose weighted sum reproduces the
    total exactly; the breakdown always carries a measured correlation
    distance diagnostic, whatever the configured mode. Dropout (at the
    model's rate) applies only when ``dropout_rng`` is given.
    """
    for lang in (batch.lang_x, batch.lang_y):
        if lang not in system.modules:
            raise CompatibilityError(f"batch language {lang!r} not in system {system.languages}")
    if cfg.quantize and system.codebook is None:
        raise ConfigError("quantization enabled but the system has no codebook")
    mx, my = system.modules[batch.lang_x], system.modules[batch.lang_y]
    mask_x, mask_y = pad_mask(batch.x), pad_mask(batch.y)

    hx = encode(mx, batch.x, dropout_rng)
    hy = encode(my, batch.y, dropout_rng)
    pooled_x = pool(hx, mask_x)
    pooled_y = pool(hy, mask_y)

    vq = None
    if cfg.quantize:
        dec_x, _, code_x, commit_x = quantize(system.codebook, hx)
        dec_y, _, code_y, commit_y = quantize(system.codebook, hy)
        vq = T.add(
            T.add(code_x, code_y),
            T.mul(T.add(commit_x, commit_y), cfg.commitment_beta),
        )
    else:
        dec_x, dec_y = hx, hy

    in_x, in_y = shift_targets(batch.x), shift_targets(batch.y)
    l_xx = T.cross_entropy(decode_teacher_forced(mx, dec_x, mask_x, in_x, dropout_rng), batch.x)
    l_yy = T.cross_entropy(decode_teacher_forced(my, dec_y, mask_y, in_y, dropout_rng), batch.y)
    l_xy = T.cross_entropy(decode_teacher_forced(my, dec_x, mask_x, in_y, dropout_rng), batch.y)
    l_yx = T.cross_entropy(decode_teacher_forced(mx, dec_y, mask_y, in_x, dropout_rng), batch.x)

    if cfg.distance_mode == "corr":
        dist = corr_distance(pooled_x, pooled_y)
    elif cfg.distance_mode == "max":
        dist = max_distance(pooled_x, pooled_y)
    else:
        dist = Tensor(0.0)

    # the diagnostic reuses the distance term when it already is the correlation
    corr = dist if cfg.distance_mode == "corr" else corr_distance(
        Tensor(pooled_x.array), Tensor(pooled_y.array)
    )

    w = cfg.loss_weights
    total = T.mul(l_xx, w[0])
    total = T.add(total, T.mul(l_yy, w[1]))
    total = T.add(total, T.mul(l_xy, w[2]))
    total = T.add(total, T.mul(l_yx, w[3]))
    total = T.add(total, T.mul(dist, w[4]))
    if vq is not None:
        total = T.add(total, vq)

    components = {
        "l_xx": l_xx.item(),
        "l_yy": l_yy.item(),
        "l_xy": l_xy.item(),
        "l_yx": l_yx.item(),
        "distance": dist.item(),
        "corr_distance": float(corr.array),
    }
    if vq is not None:
        components["vq"] = vq.item()
    return total, components


def weighted_component_sum(components: dict, cfg: TrainConfig) -> float:
    """Recombine a breakdown the same way joint_loss does, term by term."""
    w = cfg.loss_weights
    total = components["l_xx"] * w[0]
    total = total + components["l_yy"] * w[1]
    total = total + components["l_xy"] * w[2]
    total = total + components["l_yx"] * w[3]
    total = total + components["distance"] * w[4]
    if "vq" in components:
        total = total + components["vq"]
    return total


def train_step(
    state: TrainState,
    system: System,
    batch: PairBatch,
    cfg: TrainConfig,
    trainable: set[str] | None = None,
) -> dict:
    """One forward/backward/Adam cycle; mutates state and system in place.

    ``trainable`` restricts which named parameters receive updates; frozen
    parameters still participate in the forward pass as constants, so
    gradients flow through them to trainable ancestors.
    """
    t0 = time.perf_counter()
    params = system.named_parameters()
    if trainable is None:
        names = list(params)
    else:
        unknown = trainable - set(params)
        if unknown:
            raise ConfigError(f"unknown trainable parameters: {sorted(unknown)}")
        names = [n for n in params if n in trainable]
    tape = GradTape()
    try:
        for n in names:
            tape.watch(params[n])
        # stateless masks keyed like the batch draw, so resume stays exact
        dropout_rng = derive_rng(cfg.seed, "dropout", state.step)
        loss, components = joint_loss(batch, system, cfg, dropout_rng)
        loss_value = loss.item()
        if not np.isfinite(loss_value):
            raise DivergenceError(
                f"loss became non-finite at step {state.step + 1}: {components}",
                components=components,
            )
        grads = backward(loss)
        state.step += 1
        _adam_update(state, params, names, grads, cfg)
    finally:
        tape.release()
    components["loss"] = loss_value
    components["step"] = state.step
    components["wall_time"] = time.perf_counter() - t0
    state.history.append(components)
    return components


def _adam_update(state, params, names, grads, cfg: TrainConfig):
    t = state.step
    b1, b2 = cfg.beta1, cfg.beta2
    bias1 = 1.0 - b1 ** t
    bias2 = 1.0 - b2 ** t
    for n in names:
        p = params[n]
        g = grads[p]
        if n not in state.moments:
            state.moments[n] = (np.zeros_like(p.array), np.zeros_like(p.array))
        m, v = state.moments[n]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        p.array -= cfg.learning_rate * (m / bias1) / (np.sqrt(v / bias2) + cfg.adam_eps)


def train(
    system: System,
    state: TrainState,
    corpus: ParallelCorpus,
    cfg: TrainConfig,
    log_fn: Callable[[dict], None] | None = None,
    trainable: set[str] | None = None,
) -> TrainState:
    """Run from the state's current step up to cfg.max_steps."""
    while state.step < cfg.max_steps:
        batch = sample_batch(corpus, cfg.batch_size, cfg.seed, state.step)
        report = train_step(state, system, batch, cfg, trainable=trainable)
        if log_fn is not None:
            log_fn(report)
    return state


# parameter tables indexed by vocabulary ids; never copied between languages
VOCAB_INDEXED_PARAMS = ("emb", "out_proj")


def add_language(
    system: System,
    new: LanguageModule,
    corpus: ParallelCorpus,
    cfg: TrainConfig,
    log_fn: Callable[[dict], None] | None = None,
    finetune_all: bool = False,
    warm_start: bool = True,
) -> tuple[System, TrainState]:
    """Attach a new language by training it against one frozen pretrained side.

    The corpus pairs an existing language with the new one. The objective
    keeps the new language's reconstruction, both cross translations and
    the distance term; the pretrained module's own reconstruction is
    weighted out. Unless ``finetune_all`` is set, every pretrained
    parameter (codebook included) stays bit-identical.

    With ``warm_start`` (the default) the new module's attention, feed
    forward and normalization weights start as copies of the anchor
    module's trained values; only the vocabulary-indexed tables (token
    embeddings, output projection) keep their fresh initialization. A new
    module started inside the anchor's latent geometry lands far closer
    to the other pretrained decoders than a cold random stack, whose
    extension training satisfies the anchor-pair objective while drifting
    off the latent layout the frozen decoders expect.
    """
    if new.language in system.modules:
        raise ConfigError(f"language {new.language!r} already present")
    if new.config.d_model != system.config.d_model:
        raise CompatibilityError(
            f"new module width {new.config.d_model} != system width {system.config.d_model}"
        )
    anchor, fresh = corpus.languages
    if fresh != new.language:
        raise CompatibilityError(
            f"corpus pairs {corpus.languages}, expected second side {new.language!r}"
        )
    if anchor not in system.modules:
        raise CompatibilityError(f"anchor language {anchor!r} not in system {system.languages}")

    if warm_start:
        donor = system.modules[anchor].params
        for name, target in new.params.items():
            if name in VOCAB_INDEXED_PARAMS or name not in donor:
                continue
            if donor[name].array.shape == target.array.shape:
                target.array[...] = donor[name].array

    system.modules[new.language] = new
    w = cfg.loss_weights
    run_cfg = replace(cfg, loss_weights=(0.0, w[1], w[2], w[3], w[4]))
    trainable = None
    if not finetune_all:
        trainable = {name for name in system.named_parameters() if name.startswith(f"{new.language}/")}
    state = TrainState()
    train(system, state, corpus, run_cfg, log_fn=log_fn, trainable=trainable)
    return system, state


def save_checkpoint(
    system: System,
    state: TrainState,
    path,
    vocab_hashes: dict[str, str] | None = None,
    train_config: TrainConfig | None = None,
):
    """Deterministic binary: magic, version, json header, little-endian f8 blobs.

    Saving the result of a load reproduces the file byte for byte.
    """
    params = system.named_parameters()
    moment_names = [n for n in params if n in state.moments]
    arrays: list[tuple[str, np.ndarray]] = [(n, t.array) for n, t in params.items()]
    for n in moment_names:
        m, v = state.moments[n]
        arrays.append((f"adam_m/{n}", m))
        arrays.append((f"adam_v/{n}", v))
    header = {
        "version": CHECKPOINT_VERSION,
        "model_config": asdict(system.config),
        "train_config": asdict(train_config) if train_config else None,
        "languages": list(system.languages),
        "vocab_sizes": {lang: m.vocab_size for lang, m in system.modules.items()},
        "vocab_hashes": vocab_hashes if vocab_hashes is not None else system.vocab_hashes,
        "quantizer": None
        if system.codebook is None
        else {"n_tables": system.codebook.n_tables, "entries": system.codebook.entries},
        "step": state.step,
        "arrays": [[name, list(arr.shape)] for name, arr in arrays],
    }
    with open(path, "wb") as fh:
        write_header(fh, _CHECKPOINT_LEAD, header)
        for _, arr in arrays:
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_checkpoint(
    path, expected_vocab_hashes: dict[str, str] | None = None
) -> tuple[System, TrainState, TrainConfig | None]:
    with open(path, "rb") as fh:
        header = read_header(fh, _CHECKPOINT_LEAD, path)
        stored_hashes = header_field(header, "vocab_hashes", dict, path, str)
        if expected_vocab_hashes is not None:
            for lang, want in expected_vocab_hashes.items():
                got = stored_hashes.get(lang)
                if got != want:
                    raise CheckpointError(
                        f"vocabulary hash mismatch for {lang!r}: checkpoint has {got}, caller has {want}"
                    )
        languages = header_field(header, "languages", list, path, str)
        vocab_sizes = header_field(header, "vocab_sizes", dict, path, int)
        q = header_field(header, "quantizer", (dict, type(None)), path, int)
        step = header_field(header, "step", int, path)
        arrays = header_field(header, "arrays", list, path, list)
        if not all(len(entry) == 2 and isinstance(entry[0], str) for entry in arrays):
            raise CheckpointError(f"damaged header in {path}: field 'arrays' is mistyped")
        model_fields = header_field(header, "model_config", dict, path)
        train_fields = header_field(header, "train_config", (dict, type(None)), path)
        try:
            config = ModelConfig(**model_fields)
            train_config = None if train_fields is None else TrainConfig(**train_fields)
        except (TypeError, ValueError, ConfigError) as err:
            raise CheckpointError(f"damaged header in {path}: {err}") from None
        modules = {
            lang: LanguageModule(lang, config, vocab_size=header_field(vocab_sizes, lang, int, path))
            for lang in languages
        }
        codebook = None
        if q is not None:
            codebook = init_codebook(
                header_field(q, "n_tables", int, path), header_field(q, "entries", int, path), config.d_model
            )
        system = System(
            config=config, modules=modules, codebook=codebook, vocab_hashes=dict(stored_hashes)
        )
        params = system.named_parameters()
        state = TrainState(step=step)
        loaded: dict[str, np.ndarray] = {}
        for name, shape in arrays:
            loaded[name] = read_array(fh, "<f8", shape, path).copy()
        expect_end(fh, path)
        for name, t in params.items():
            if name not in loaded:
                raise CheckpointError(f"checkpoint missing parameter {name}")
            if loaded[name].shape != t.array.shape:
                raise CheckpointError(
                    f"shape mismatch for {name}: {loaded[name].shape} vs {t.array.shape}"
                )
            t.array[...] = loaded[name]
        for name in params:
            m_key, v_key = f"adam_m/{name}", f"adam_v/{name}"
            if m_key in loaded:
                state.moments[name] = (loaded[m_key], loaded[v_key])
    return system, state, train_config
