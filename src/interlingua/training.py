"""Joint training of language modules against a shared latent space.

One optimization step encodes both sides of a parallel batch once,
runs each language's decoder once over its own latent and the partner's
stacked on the batch axis (a reconstruction and a cross translation),
adds a differentiable distance between the pooled latents, and applies
Adam.
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
from .data import ParallelCorpus, expect_end, header_field, read_array, read_header, replacing, write_header
from .exceptions import (
    CheckpointError,
    CompatibilityError,
    ConfigError,
    ContractError,
    DivergenceError,
)
from .latent import COMMITMENT_BETA, Codebook, corr_distance, init_codebook, max_distance, pool, quantize, stack_latents
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

# values per chunk of the Adam step: a chunk's parameters, gradients,
# moments and two scratch arrays stay in cache, where one pass over the
# whole buffer per numpy call would stream each array from memory again
ADAM_CHUNK = 32768


@dataclass
class TrainConfig:
    learning_rate: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.98
    adam_eps: float = 1e-9
    batch_size: int = 16
    max_steps: int = 1000
    distance_mode: str = "corr"
    # the codebook of a fresh system (build_system); training quantizes
    # whenever the system it trains has a codebook
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
    # Adam's (m, v) by parameter name; after a step, the trained names'
    # moments are views of one buffer laid out like the gradient buffer
    moments: dict[str, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)
    history: list[dict] = field(default_factory=list)
    # the trained tensors, and the layout of the Adam step built for them
    _adam: tuple | None = field(default=None, repr=False, compare=False)


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
        return {name: t for part in self.parameter_parts() for name, t in part.items()}

    def parameter_parts(self, languages: set[str] | None = None) -> list[dict[str, Tensor]]:
        """The named parameters of each module of ``languages`` (every
        module when None), then of the codebook when ``languages`` is None.
        Each part's tensors are the consecutive views of one buffer."""
        parts = [
            {f"{lang}/{name}": t for name, t in module.params.items()}
            for lang, module in self.modules.items()
            if languages is None or lang in languages
        ]
        if languages is None and self.codebook is not None:
            parts.append({f"codebook/{j}": table for j, table in enumerate(self.codebook.tables)})
        return parts

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
    (reconstruction) and the other language's decoder (translation). Each
    decoder runs once, over its own language's latent stacked with the
    partner's, and its logits split into the two cross-entropy terms. The
    distance term compares pooled pre-quantization latents. Returns the
    scalar total and a float breakdown whose weighted sum reproduces the
    total exactly; the breakdown always carries a measured correlation
    distance diagnostic, whatever the configured mode. The latents are
    quantized, adding the codebook term ``vq``, exactly when the system
    has a codebook. Dropout (at the model's rate) applies only when
    ``dropout_rng`` is given.
    """
    for lang in (batch.lang_x, batch.lang_y):
        if lang not in system.modules:
            raise CompatibilityError(f"batch language {lang!r} not in system {system.languages}")
    mx, my = system.modules[batch.lang_x], system.modules[batch.lang_y]
    mask_x, mask_y = pad_mask(batch.x), pad_mask(batch.y)

    # every position-wise op runs on the packed rows of the real positions
    hx = encode(mx, batch.x, dropout_rng)
    hy = encode(my, batch.y, dropout_rng)
    pooled_x = pool(hx, mask_x)
    pooled_y = pool(hy, mask_y)

    vq = None
    if system.codebook is not None:
        dec_x, _, code_x, commit_x = quantize(system.codebook, hx)
        dec_y, _, code_y, commit_y = quantize(system.codebook, hy)
        vq = T.add(
            T.add(code_x, code_y),
            T.mul(T.add(commit_x, commit_y), cfg.commitment_beta),
        )
    else:
        dec_x, dec_y = hx, hy

    # teacher forcing at the real target positions only: the eos a shifted
    # row feeds in after its last target becomes a pad, so no logit row is
    # computed without a target
    in_x = np.where(mask_x, shift_targets(batch.x), PAD_ID)
    in_y = np.where(mask_y, shift_targets(batch.y), PAD_ID)
    l_xx, l_yx = _decode_both(mx, (dec_x, mask_x), (dec_y, mask_y), in_x, batch.x[mask_x], dropout_rng)
    l_yy, l_xy = _decode_both(my, (dec_y, mask_y), (dec_x, mask_x), in_y, batch.y[mask_y], dropout_rng)

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
    total = _weighted(l_xx, w[0])
    total = T.add(total, _weighted(l_yy, w[1]))
    total = T.add(total, _weighted(l_xy, w[2]))
    total = T.add(total, _weighted(l_yx, w[3]))
    total = T.add(total, _weighted(dist, w[4]))
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


def _decode_both(module: LanguageModule, own, partner, target_in, targets, dropout_rng):
    """Cross entropies of one decoder fed from its own latent and from the
    partner's, in that order, from one teacher-forced pass over both
    latents stacked on the batch axis: the logit rows of the own-latent
    half come first."""
    latent, src_mask = stack_latents(own, partner)
    logits = decode_teacher_forced(
        module, latent, src_mask, np.concatenate([target_in, target_in]), dropout_rng, packed=True
    )
    n = targets.shape[0]
    return (
        T.cross_entropy(logits, targets, rows=slice(0, n)),
        T.cross_entropy(logits, targets, rows=slice(n, None)),
    )


def _weighted(term: Tensor, weight: float) -> Tensor:
    # a unit weight records no node: x * 1.0 == x bit for bit, as is its gradient
    return term if weight == 1.0 else T.mul(term, weight)


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

    ``trainable`` names the language modules that receive updates; None
    trains every module and the codebook. Frozen parameters still take
    part in the forward pass as constants, so gradients flow through them
    to trainable ancestors.
    """
    t0 = time.perf_counter()
    if trainable is not None and not trainable <= set(system.modules):
        raise ConfigError(f"unknown trainable languages: {sorted(trainable - set(system.modules))}")
    parts = system.parameter_parts(trainable)
    tape = GradTape()
    try:
        for part in parts:
            for t in part.values():
                tape.watch(t)
        # stateless masks keyed like the batch draw, so resume stays exact
        dropout_rng = derive_rng(cfg.seed, "dropout", state.step)
        loss, components = joint_loss(batch, system, cfg, dropout_rng)
        loss_value = loss.item()
        if not np.isfinite(loss_value):
            raise DivergenceError(
                f"loss became non-finite at step {state.step + 1}: {components}",
                components=components,
            )
        # the gradients land in the buffer kept with the moments, one
        # allocation per run: freeing a block that large every step raises
        # glibc's mmap threshold, and the heap then keeps tens of MB of
        # freed arrays resident (about 50 MB more peak RSS at d_model 128)
        _, buffers = _adam_layout(state, parts)
        grads = backward(loss, out=buffers[0])
        state.step += 1
        _adam_update(state, parts, grads, cfg)
    finally:
        tape.release()
    components["loss"] = loss_value
    components["step"] = state.step
    components["wall_time"] = time.perf_counter() - t0
    state.history.append(components)
    return components


def _adam_update(state, parts, grads, cfg: TrainConfig):
    """One Adam step over every trained part's buffer, chunk by chunk.

    ``grads`` must come from a tape that watched the tensors of ``parts``
    in order, so ``grads.flat`` and the moments share one layout.
    Each chunk evaluates the per-array update ``m = b1 m + (1 - b1) g``,
    ``v = b2 v + (1 - b2) g^2``, ``p -= lr (m / bias1) / (sqrt(v / bias2)
    + eps)`` operation by operation, so the result is the same bits.
    """
    t = state.step
    b1, b2 = cfg.beta1, cfg.beta2
    bias1 = 1.0 - b1 ** t
    bias2 = 1.0 - b2 ** t
    runs, buffers = _adam_layout(state, parts)
    scratch = np.empty((2, ADAM_CHUNK))
    for flat_p, lo, hi in runs:
        for start in range(lo, hi, ADAM_CHUNK):
            stop = min(start + ADAM_CHUNK, hi)
            p = flat_p[start - lo : stop - lo]
            g, m, v = grads.flat[start:stop], buffers[1, start:stop], buffers[2, start:stop]
            a, b = scratch[:, : stop - start]
            m *= b1
            np.multiply(1.0 - b1, g, out=a)
            m += a
            v *= b2
            np.multiply(g, g, out=a)
            np.multiply(1.0 - b2, a, out=a)
            v += a
            np.divide(v, bias2, out=a)
            np.sqrt(a, out=a)
            a += cfg.adam_eps
            np.divide(m, bias1, out=b)
            np.multiply(cfg.learning_rate, b, out=b)
            b /= a
            p -= b


def _adam_layout(state, parts):
    """Each part's buffer as (flat buffer, start, end in the gradient
    layout), and one [3, n] buffer in that layout: gradients, first and
    second moments.

    Built once for a set of trained tensors and kept on the state. The
    build copies any moments the state already holds (from earlier steps
    or a checkpoint) into the buffer and points ``state.moments`` at it.
    """
    tensors = [t for part in parts for t in part.values()]
    if state._adam is not None and state._adam[0] == tensors:
        return state._adam[1:]
    buffers = np.zeros((3, sum(t.array.size for t in tensors)))
    runs = []
    lo = 0
    for part in parts:
        flat = next(iter(part.values())).array.base
        start = lo
        for n, t in part.items():
            hi = lo + t.array.size
            m, v = buffers[1, lo:hi].reshape(t.shape), buffers[2, lo:hi].reshape(t.shape)
            if n in state.moments:
                m[...], v[...] = state.moments[n]
            state.moments[n] = (m, v)
            lo = hi
        # a part's tensors fill one flat buffer in order (tensors_in_one_buffer)
        if flat is None or flat.size != lo - start or any(t.array.base is not flat for t in part.values()):
            raise ContractError(f"{', '.join(part)} are not the views of one buffer")
        runs.append((flat, start, lo))
    state._adam = (tensors, runs, buffers)
    return runs, buffers


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


def attach_language(
    system: System, new: LanguageModule, corpus: ParallelCorpus, cfg: TrainConfig,
    finetune_all: bool, warm_start: bool,
) -> tuple[TrainConfig, set[str] | None]:
    """Attach a new language to train against one frozen pretrained side.

    The corpus pairs an existing language with the new one. Returns the
    config and the trainable languages (None for all) to train with. The
    config keeps the new language's reconstruction, both cross
    translations and the distance term, and weights out the pretrained
    module's own. Unless ``finetune_all`` is set, only the new module
    trains, so every pretrained parameter (codebook included) stays
    bit-identical.

    With ``warm_start`` the new module's attention, feed
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
    return run_cfg, None if finetune_all else {new.language}


def add_language(
    system: System, new: LanguageModule, corpus: ParallelCorpus, cfg: TrainConfig,
    finetune_all: bool = False, warm_start: bool = True,
) -> tuple[System, TrainState]:
    """``attach_language``, then ``train`` the result from step 0."""
    run_cfg, trainable = attach_language(system, new, corpus, cfg, finetune_all, warm_start)
    state = train(system, TrainState(), corpus, run_cfg, trainable=trainable)
    return system, state


def save_checkpoint(
    system: System,
    state: TrainState,
    path,
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
        "vocab_hashes": system.vocab_hashes,
        "quantizer": None
        if system.codebook is None
        else {"n_tables": system.codebook.n_tables, "entries": system.codebook.entries},
        "step": state.step,
        "arrays": [[name, list(arr.shape)] for name, arr in arrays],
    }
    with replacing(path) as fh:
        write_header(fh, _CHECKPOINT_LEAD, header)
        for _, arr in arrays:
            # the array's own bytes, with no copy when it is already "<f8"
            fh.write(memoryview(np.ascontiguousarray(arr, dtype="<f8")).cast("B"))


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
        # read-only views of the file's bytes: parameters are copied into
        # their module's buffer, moments into Adam's on the first step
        loaded: dict[str, np.ndarray] = {}
        for name, shape in arrays:
            loaded[name] = read_array(fh, "<f8", shape, path)
        expect_end(fh, path)

    def stored(name: str, shape) -> np.ndarray:
        if name not in loaded:
            raise CheckpointError(f"checkpoint missing parameter {name}")
        if loaded[name].shape != tuple(shape):
            raise CheckpointError(f"shape mismatch for {name}: {loaded[name].shape} vs {tuple(shape)}")
        # dropped once copied, so a load holds each parameter only once
        return loaded.pop(name)

    # modules and codebook are built from the stored arrays, with no random init
    modules = {
        lang: LanguageModule(
            lang, config, vocab_size=header_field(vocab_sizes, lang, int, path),
            arrays=lambda name, shape, lang=lang: stored(f"{lang}/{name}", shape),
        )
        for lang in languages
    }
    codebook = None
    if q is not None:
        n_tables, entries = header_field(q, "n_tables", int, path), header_field(q, "entries", int, path)
        sub = config.d_model // max(n_tables, 1)
        codebook = init_codebook(
            n_tables, entries, config.d_model,
            tables=[stored(f"codebook/{j}", (entries, sub)) for j in range(n_tables)],
        )
    system = System(config=config, modules=modules, codebook=codebook, vocab_hashes=dict(stored_hashes))
    state = TrainState(step=step)
    for name in system.named_parameters():
        m_key, v_key = f"adam_m/{name}", f"adam_v/{name}"
        if m_key in loaded:
            state.moments[name] = (loaded[m_key], loaded[v_key])
    return system, state, train_config
