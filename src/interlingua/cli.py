"""Command-line workflow: prepare data, train, extend, translate, report.

The config file is the single source of truth; command-line flags
override individual keys. Every artifact lands under the configured
output directory, raw inputs are never touched, and any command with a
fixed seed is bit-reproducible end to end. Failures exit nonzero with
one categorized line on stderr, ``error: <category>: <message>``.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import io
import json
import os
import socket
import sys
from collections import Counter
from pathlib import Path

from . import data as D
from .evaluation import (
    bleu,
    bleu_record,
    decode_corpus_side,
    format_table,
    interlingua_eval,
    report_record,
)
from .exceptions import ConfigError, InterlinguaError, LockError
from .training import (
    System,
    TrainConfig,
    TrainState,
    _pad_rows,
    attach_language,
    build_system,
    load_checkpoint,
    make_batch,
    save_checkpoint,
    train,
)
from .transformer import EOS_ID, LanguageModule, ModelConfig
from .viz import export_embeddings, language_silhouette, pca_project, render_scatter, save_dump

FINAL_CHECKPOINT = "checkpoint-final.ckpt"
EFFECTIVE_CONFIG = "effective-config.ini"
TRAIN_LOG = "train-log.jsonl"
LOCK_FILE = ".lock"

# each training command's step log, periodic checkpoint and final checkpoint
RUN_FILES = {
    "train": (TRAIN_LOG, "checkpoint-{step:06d}.ckpt", FINAL_CHECKPOINT),
    "add-language": ("extend-log.jsonl", "checkpoint-extended-{step:06d}.ckpt", "checkpoint-extended.ckpt"),
}


def ini_text(value) -> str:
    """A config dataclass default as INI text that ``setting`` reads back to it."""
    if isinstance(value, tuple):  # 17 significant digits read back exactly; 1.0 prints as 1
        return ",".join(f"{v:.17g}" for v in value)
    if isinstance(value, bool):
        return str(value).lower()
    return "" if value is None else str(value)


DEFAULTS: dict[str, dict[str, str]] = {
    "data": {
        "train_x": "",
        "train_y": "",
        "test_x": "",
        "test_y": "",
        "lang_x": "x",
        "lang_y": "y",
        "max_words": "50",
        "bpe_merges": "200",
        "vocab_cap": "512",
    },
    # vocab_size follows the prepared vocabularies
    "model": {f.name: ini_text(f.default) for f in dataclasses.fields(ModelConfig) if f.name != "vocab_size"},
    "train": {**{f.name: ini_text(f.default) for f in dataclasses.fields(TrainConfig)}, "checkpoint_every": "0"},
    "extend": {
        "new_lang": "",
        "anchor_lang": "",
        "train_anchor": "",
        "train_new": "",
        "finetune_all": "false",
        "warm_start": "true",
    },
    "output": {"dir": "run"},
}


# ---------------------------------------------------------------- config


def read_config(path: str | None, overrides: list[str]) -> tuple[configparser.ConfigParser, Path]:
    """Load defaults, the config file, then ``section.key=value`` overrides.

    Returns the parser and the base directory relative paths resolve
    against (the config file's directory, or the working directory when
    no file was given).
    """
    # no interpolation: a % in a value is a literal character
    cp = configparser.ConfigParser(interpolation=None)
    cp.read_dict(DEFAULTS)
    base = Path.cwd()
    if path is not None:
        file = Path(path)
        if not file.is_file():
            raise ConfigError(f"config file not found: {path}")
        try:
            cp.read_string(D.read_text(file), source=str(file))
        except configparser.Error as err:
            raise ConfigError(" ".join(str(err).split())) from None
        base = file.resolve().parent
    for section in cp.sections():
        if section not in DEFAULTS:
            raise ConfigError(f"unknown config section [{section}]")
        for key in cp[section]:
            if key not in DEFAULTS[section]:
                raise ConfigError(f"unknown config key {section}.{key}")
    for item in overrides or []:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"override must look like section.key=value, got {item!r}")
        target, value = item.split("=", 1)
        section, key = target.split(".", 1)
        if section not in DEFAULTS or key not in DEFAULTS[section]:
            raise ConfigError(f"unknown config key {section}.{key}")
        cp[section][key] = value
    return cp, base


def apply_sugar_flags(cp: configparser.ConfigParser, args):
    if getattr(args, "seed", None) is not None:
        cp["train"]["seed"] = str(args.seed)
    if getattr(args, "distance", None) is not None:
        cp["train"]["distance_mode"] = args.distance
    if getattr(args, "dvq", False):
        cp["train"]["quantize"] = "true"
    if getattr(args, "steps", None) is not None:
        cp["train"]["max_steps"] = str(args.steps)


def preamble(args) -> tuple[configparser.ConfigParser, Path, Path]:
    """Config, base directory and output directory of one command.

    Every command starts here, so the effective config is written before
    any command-specific check can fail.
    """
    cp, base = read_config(args.config, args.set)
    apply_sugar_flags(cp, args)
    out = _resolve(base, cp["output"]["dir"])
    out.mkdir(parents=True, exist_ok=True)
    echo_config(cp, base, out)
    return cp, base, out


def _resolve(base: Path, value: str) -> Path:
    p = Path(value)
    return p if p.is_absolute() else (base / p)


def require_file(path: Path, hint: str) -> Path:
    """``path`` when it is a file, else one config error that ends in ``hint``."""
    if not path.is_file():
        raise ConfigError(f"missing file {path}; {hint}")
    return path


def configured_file(base: Path, cp, section: str, key: str, required: bool = True) -> Path | None:
    """The existing file a config key names; None for an empty optional key."""
    value = cp[section][key].strip()
    if not value:
        if required:
            raise ConfigError(f"{section}.{key} is required")
        return None
    return require_file(_resolve(base, value), f"check {section}.{key}")


def language_pair(cp) -> tuple[str, str]:
    return cp["data"]["lang_x"], cp["data"]["lang_y"]


def echo_config(cp: configparser.ConfigParser, base: Path, out: Path):
    """Write the fully-resolved configuration next to the artifacts."""
    echo = configparser.ConfigParser(interpolation=None)
    echo.read_dict({s: dict(cp[s]) for s in cp.sections()})
    for section, key in (
        ("data", "train_x"),
        ("data", "train_y"),
        ("data", "test_x"),
        ("data", "test_y"),
        ("extend", "train_anchor"),
        ("extend", "train_new"),
    ):
        value = echo[section][key].strip()
        if value:
            echo[section][key] = str(_resolve(base, value))
    echo["output"]["dir"] = str(out)
    text = io.StringIO()
    echo.write(text)
    D.replace_text(out / EFFECTIVE_CONFIG, text.getvalue())


def setting(cp, section: str, key: str, kind: type):
    """One typed config value: ``int``, ``float``, ``bool``, ``str``, or
    ``tuple`` for a comma-separated list of floats. A malformed value is
    one config error that names ``section.key``."""
    value = cp[section][key]
    try:
        if kind is bool:
            return cp[section].getboolean(key)
        if kind is tuple:
            return tuple(float(w) for w in value.split(","))
        return kind(value)
    except ValueError as err:
        raise ConfigError(f"{section}.{key}: {err}") from None


def config_from(cp, section: str, cls, **given):
    """A config dataclass read from ``section``; ``given`` fields are not read.

    Each field is read as the type of its default. The one field whose
    default is None, ``model.d_ff``, is an int when its key is not empty.
    """
    for field in dataclasses.fields(cls):
        if field.name in given:
            continue
        if field.default is None:
            empty = not cp[section][field.name].strip()
            given[field.name] = None if empty else setting(cp, section, field.name, int)
        else:
            given[field.name] = setting(cp, section, field.name, type(field.default))
    return cls(**given)


class OutputLock:
    """Exclusive marker so two trainers never write one directory at once.

    The marker holds the owner's pid and host name. A marker whose pid no
    longer runs on this host is left over from a killed run: it is
    removed, with one line on stderr, and the lock is taken once more.
    Any other marker blocks. Two processes that find the same stale
    marker at the same moment can both get through.
    """

    def __init__(self, out: Path):
        self.path = out / LOCK_FILE

    def _take(self):
        fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        os.write(fd, f"{os.getpid()} {socket.gethostname()}\n".encode())
        os.close(fd)

    def __enter__(self):
        for attempt in range(2):
            try:
                self._take()
                return self
            except FileExistsError:
                # a marker that is not UTF-8 decodes to a holder that is not stale
                holder = self.path.read_bytes().decode("utf-8", "replace").strip()
            if attempt or not _is_stale(holder):
                break
            print(f"warning: removed stale lock {self.path} (pid {holder.split()[0]} is gone)", file=sys.stderr)
            self.path.unlink(missing_ok=True)
        raise LockError(
            f"output directory is locked by {self.path} "
            f"(held by pid and host {holder or '?'}; remove the file if that process is gone)"
        )

    def __exit__(self, *exc):
        self.path.unlink(missing_ok=True)
        return False


def _is_stale(holder: str) -> bool:
    """True when a lock marker names this host and a pid that is not running."""
    fields = holder.split()
    if len(fields) != 2 or not fields[0].isdecimal() or fields[1] != socket.gethostname():
        return False
    try:
        os.kill(int(fields[0]), 0)
    except ProcessLookupError:
        return True
    except (PermissionError, OverflowError):
        pass  # another user's process, or no valid pid
    return False


# ---------------------------------------------------------------- artifacts


def bpe_path(out: Path, lang: str) -> Path:
    return out / f"bpe-{lang}.txt"


def vocab_path(out: Path, lang: str) -> Path:
    return out / f"vocab-{lang}.txt"


def corpus_path(out: Path, split: str) -> Path:
    return out / f"corpus-{split}.bin"


def write_json(path: Path, obj):
    D.replace_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def learn_side(cp, text: Path) -> tuple[D.BpeModel, D.Vocabulary]:
    """Learn one language's BPE table and vocabulary from a text file. Both
    come from its word counts: each distinct word is segmented once."""
    words = D.word_counts(D.read_text(text).splitlines())
    model = D.learn_bpe(words, setting(cp, "data", "bpe_merges", int))
    pieces = Counter()
    for word, count in words.items():
        for piece in model.segment_word(word):
            pieces[piece] += count
    vocab = D.build_vocabulary([pieces], setting(cp, "data", "vocab_cap", int))
    return model, vocab


def save_side(out: Path, lang: str, model: D.BpeModel, vocab: D.Vocabulary):
    D.save_bpe(model, bpe_path(out, lang))
    vocab.save(vocab_path(out, lang))


def build_split(
    base: Path, texts: dict[str, Path], models, vocabs, max_words: int, max_len: int,
) -> D.ParallelCorpus:
    """Binarize one split from aligned text files keyed by language, first
    side first. Its source files are named relative to ``base``, the
    config file's directory, so the bytes do not depend on where it lives."""
    (lang_x, px), (lang_y, py) = texts.items()
    corpus = D.load_parallel(
        px, py, vocabs[lang_x], vocabs[lang_y], max_words=max_words,
        bpe_x=models[lang_x], bpe_y=models[lang_y], lang_x=lang_x, lang_y=lang_y, max_len=max_len,
    )
    corpus.provenance["source_files"] = {lang: os.path.relpath(f, base) for lang, f in texts.items()}
    return corpus


def save_split(command: str, out: Path, split: str, corpus: D.ParallelCorpus):
    D.save_corpus(corpus, corpus_path(out, split))
    print(f"{command}: {split}: kept {corpus.provenance['kept']} pairs, dropped {corpus.provenance['dropped']}")


def run_training(
    command: str, out: Path, system: System, state: TrainState, corpus: D.ParallelCorpus,
    cfg: TrainConfig, checkpoint_every: int, trainable: set[str] | None = None,
) -> Path:
    """Train up to ``cfg.max_steps`` with ``command``'s files (``RUN_FILES``):
    one sorted JSON line per step in its log, a checkpoint every
    ``checkpoint_every`` steps and progress on step 1 and every 50th.
    Returns the final checkpoint, saved at the end: when this run saved a
    periodic checkpoint at its last step, which holds the same bytes, the
    final one is a hard link to it."""
    log_name, periodic, final = RUN_FILES[command]
    # checkpoints record the codebook the system trains with: a resumed or
    # extended system brings its checkpoint's, whatever train.quantize says
    cb = system.codebook
    cfg = dataclasses.replace(cfg, quantize=cb is not None)
    if cb is not None:
        cfg = dataclasses.replace(cfg, vq_tables=cb.n_tables, vq_entries=cb.entries)

    saved = {}  # step -> periodic checkpoint saved by this run

    def after_step(report: dict):
        log.write(json.dumps(report, sort_keys=True) + "\n")
        log.flush()
        step = report["step"]
        if checkpoint_every > 0 and step % checkpoint_every == 0:
            saved[step] = out / periodic.format(step=step)
            save_checkpoint(system, state, saved[step], train_config=cfg)
        if step % 50 == 0 or step == 1:
            print(f"step {step}: loss {report['loss']:.4f} corr_distance {report['corr_distance']:.4f}")

    # a state past step 0 was resumed: its log so far is kept
    with open(out / log_name, "a" if state.step else "w", encoding="utf-8") as log:
        train(system, state, corpus, cfg, log_fn=after_step, trainable=trainable)
    if state.step not in saved or not _link_over(saved[state.step], out / final):
        save_checkpoint(system, state, out / final, train_config=cfg)
    return out / final


def _link_over(source: Path, target: Path) -> bool:
    """Hard-link ``source`` to a temporary name and rename that over
    ``target``; False, with ``target`` untouched, where the file system
    refuses the link. Every file writer renames a new file over its target,
    so no later write goes through the link into ``source``."""
    partial = target.with_name(f".{target.name}.partial")
    try:
        partial.unlink(missing_ok=True)
        os.link(source, partial)
    except OSError:
        return False
    os.replace(partial, target)
    return True


def load_vocabs(out: Path, languages) -> dict[str, D.Vocabulary]:
    """Vocabularies of prepared languages, whose BPE tables must exist too."""
    vocabs = {}
    for lang in languages:
        require_file(bpe_path(out, lang), "run prepare first")
        vocabs[lang] = D.Vocabulary.load(require_file(vocab_path(out, lang), "run prepare first"))
    return vocabs


def load_corpus(cp, out: Path, split: str) -> D.ParallelCorpus:
    """One prepared split, checked against the configured language pair and for pairs."""
    hint = "configure data.test_x/test_y and run prepare" if split == "test" else "run prepare first"
    corpus = D.read_corpus(require_file(corpus_path(out, split), hint))
    pair = language_pair(cp)
    if corpus.languages != pair:
        raise ConfigError(f"prepared corpus pairs {corpus.languages}, config names {pair}; run prepare")
    if len(corpus) == 0:
        raise ConfigError(f"the prepared {split} split holds no pairs; see data.max_words and model.max_len")
    return corpus


def load_system(args, out: Path, languages) -> tuple[System, dict[str, D.Vocabulary]]:
    """The checkpoint's system, verified against the on-disk vocabularies."""
    vocabs = load_vocabs(out, languages)
    if args.checkpoint:
        path = require_file(Path(args.checkpoint), "check --checkpoint")
    else:
        path = require_file(out / FINAL_CHECKPOINT, "train first or pass --checkpoint")
    expected = {lang: v.content_hash() for lang, v in vocabs.items()}
    system, _, _ = load_checkpoint(path, expected_vocab_hashes=expected)
    return system, vocabs


# ---------------------------------------------------------------- commands


def cmd_prepare(args) -> int:
    cp, base, out = preamble(args)
    train_x = configured_file(base, cp, "data", "train_x")
    train_y = configured_file(base, cp, "data", "train_y")
    test_x = configured_file(base, cp, "data", "test_x", required=False)
    test_y = configured_file(base, cp, "data", "test_y", required=False)
    if (test_x is None) != (test_y is None):
        raise ConfigError("test_x and test_y must be configured together")
    lang_x, lang_y = language_pair(cp)
    if lang_x == lang_y:
        raise ConfigError(f"lang_x and lang_y must differ, both are {lang_x!r}")
    # every input is read and checked before the first artifact is written,
    # so a bad file or value leaves the output directory as it was; max_len
    # is the longest id sequence, eos included, that the model will accept
    limits = {"max_words": setting(cp, "data", "max_words", int), "max_len": setting(cp, "model", "max_len", int)}
    models: dict[str, D.BpeModel] = {}
    vocabs: dict[str, D.Vocabulary] = {}
    for lang, path in ((lang_x, train_x), (lang_y, train_y)):
        models[lang], vocabs[lang] = learn_side(cp, path)
    splits = {
        split: build_split(base, {lang_x: px, lang_y: py}, models, vocabs, **limits)
        for split, px, py in (("train", train_x, train_y), ("test", test_x, test_y))
        if px
    }
    for lang in models:
        save_side(out, lang, models[lang], vocabs[lang])
        print(f"prepare: {lang}: {len(models[lang].merges)} merges, vocabulary {len(vocabs[lang])}")
    for split, corpus in splits.items():
        save_split(args.command, out, split, corpus)
    return 0


def cmd_train(args) -> int:
    cp, base, out = preamble(args)
    train_cfg = config_from(cp, "train", TrainConfig)
    checkpoint_every = setting(cp, "train", "checkpoint_every", int)
    vocabs = load_vocabs(out, language_pair(cp))
    corpus = load_corpus(cp, out, "train")
    hashes = {lang: v.content_hash() for lang, v in vocabs.items()}
    final = out / FINAL_CHECKPOINT

    with OutputLock(out):
        if args.resume:
            # the current [train] settings stay authoritative, except that the
            # checkpoint supplies the model and its codebook (so train.quantize
            # and vq_* shape a fresh system only), parameters, optimizer
            # moments, and the step counter
            resumed = require_file(final, "train first or drop --resume")
            system, state, _ = load_checkpoint(resumed, expected_vocab_hashes=hashes)
            if state.step >= train_cfg.max_steps:
                print(f"train: checkpoint already at step {state.step}, nothing to do")
                return 0
        else:
            if final.is_file():
                raise ConfigError(
                    f"{final} already exists; pass --resume to continue it or use a fresh output dir"
                )
            sizes = {lang: len(v) for lang, v in vocabs.items()}
            system = build_system(
                config_from(cp, "model", ModelConfig, vocab_size=max(sizes.values())),
                sizes,
                seed=train_cfg.seed,
                quantize_latent=train_cfg.quantize,
                vq_tables=train_cfg.vq_tables,
                vq_entries=train_cfg.vq_entries,
            )
            system.vocab_hashes = hashes
            state = TrainState()
        run_training(args.command, out, system, state, corpus, train_cfg, checkpoint_every)
    print(f"train: finished at step {state.step}, checkpoint {final}")
    return 0


def cmd_add_language(args) -> int:
    cp, base, out = preamble(args)
    new_lang = cp["extend"]["new_lang"].strip()
    if not new_lang:
        raise ConfigError("extend.new_lang is required")
    anchor_lang = cp["extend"]["anchor_lang"].strip() or cp["data"]["lang_x"]
    train_anchor = configured_file(base, cp, "extend", "train_anchor")
    train_new = configured_file(base, cp, "extend", "train_new")
    finetune_all = setting(cp, "extend", "finetune_all", bool)
    warm_start = setting(cp, "extend", "warm_start", bool)

    train_cfg = config_from(cp, "train", TrainConfig)
    checkpoint_every = setting(cp, "train", "checkpoint_every", int)
    with OutputLock(out):
        system, _ = load_system(args, out, language_pair(cp))
        if anchor_lang not in system.modules:
            raise ConfigError(f"anchor language {anchor_lang!r} not in checkpoint")
        if new_lang in system.modules:
            raise ConfigError(f"language {new_lang!r} already in checkpoint")

        models, vocabs = {}, load_vocabs(out, [anchor_lang])
        models[anchor_lang] = D.load_bpe(bpe_path(out, anchor_lang))
        models[new_lang], vocabs[new_lang] = learn_side(cp, train_new)
        corpus = build_split(
            base, {anchor_lang: train_anchor, new_lang: train_new}, models, vocabs,
            max_words=setting(cp, "data", "max_words", int), max_len=system.config.max_len,
        )
        save_side(out, new_lang, models[new_lang], vocabs[new_lang])
        save_split(args.command, out, f"extend-{new_lang}", corpus)
        module = LanguageModule(new_lang, system.config, vocab_size=len(vocabs[new_lang]), seed=train_cfg.seed)
        run_cfg, trainable = attach_language(system, module, corpus, train_cfg, finetune_all, warm_start)
        system.vocab_hashes[new_lang] = vocabs[new_lang].content_hash()
        target = run_training(
            args.command, out, system, TrainState(), corpus, run_cfg, checkpoint_every, trainable
        )
    frozen = "all parameters tuned" if finetune_all else "existing modules frozen"
    print(f"add-language: {new_lang} trained against {anchor_lang} ({frozen}), checkpoint {target}")
    return 0


def cmd_translate(args) -> int:
    cp, base, out = preamble(args)
    src, tgt = args.src, args.tgt
    system, vocabs = load_system(args, out, dict.fromkeys((src, tgt)))
    bpe_src = D.load_bpe(bpe_path(out, src))

    lines = D.read_text(require_file(Path(args.input), "check --input")).splitlines()
    output_path = Path(args.output) if args.output else out / f"translated-{src}-{tgt}.txt"
    if output_path.exists() and not output_path.is_file():
        # the output is renamed over its target, which would put a regular
        # file in place of a pipe or device
        raise ConfigError(f"--output {output_path} is not a regular file")
    if not lines:
        D.replace_text(output_path, "")
        print(f"translate: 0 lines -> {output_path}")
        return 0

    keep = system.config.max_len - 1  # room for the terminator
    encoded = [vocabs[src].encode(D.apply_bpe(bpe_src, line)) for line in lines]
    rows = [ids[:keep] + [EOS_ID] for ids in encoded]
    decoded = decode_corpus_side(system, tgt, src, _pad_rows(rows), vocabs[tgt])
    text = [D.detokenize(D.reverse_bpe(toks)) for toks in decoded]
    D.replace_text(output_path, "\n".join(text) + "\n")
    cut = sum(len(ids) > keep for ids in encoded)
    note = f" ({cut} truncated to {keep} subwords)" if cut else ""
    print(f"translate: {len(lines)} lines {src}->{tgt}{note} -> {output_path}")
    return 0


def cmd_eval(args) -> int:
    cp, base, out = preamble(args)
    lang_x, lang_y = language_pair(cp)
    system, vocabs = load_system(args, out, (lang_x, lang_y))
    corpus = load_corpus(cp, out, args.split)

    batch = make_batch(corpus, range(len(corpus)))
    by_lang = {batch.lang_x: batch.x, batch.lang_y: batch.y}
    records = {}
    for src, tgt in ((lang_x, lang_y), (lang_y, lang_x)):
        hyps = decode_corpus_side(system, tgt, src, by_lang[src], vocabs[tgt])
        refs = [vocabs[tgt].decode(row) for row in corpus.sequences[tgt]]
        report = bleu(hyps, refs)
        records[f"{src}_to_{tgt}"] = bleu_record(report)
        print(f"eval: {src}->{tgt} BLEU {report.score:.2f} (bp {report.brevity_penalty:.3f})")
    path = out / f"bleu-report-{args.split}.json"
    write_json(path, records)
    print(f"eval: report written to {path}")
    return 0


def cmd_interlingua_eval(args) -> int:
    cp, base, out = preamble(args)
    system, vocabs = load_system(args, out, language_pair(cp))
    corpus = load_corpus(cp, out, args.split)

    reports = interlingua_eval(system, corpus, vocabs)
    path = out / f"interlingua-report-{args.split}.json"
    write_json(path, [report_record(r) for r in reports])
    print(format_table(reports))
    print(f"interlingua-eval: report written to {path}")
    return 0


def cmd_viz(args) -> int:
    cp, base, out = preamble(args)
    system, _ = load_system(args, out, language_pair(cp))
    for split in args.split or ["train"]:
        dump = export_embeddings(system, load_corpus(cp, out, split))
        save_dump(dump, out / f"embeddings-{split}.tsv")
        proj = pca_project(dump)
        svg = out / f"viz-{split}.svg"
        render_scatter(proj, svg, pair_lines=args.pair_lines)
        lam1, lam2 = proj.explained_variance
        covered = (lam1 + lam2) / proj.total_variance if proj.total_variance > 0 else 0.0
        print(
            f"viz: {split}: {len(dump)} vectors -> {svg} "
            f"(variance covered {covered:.1%}, language silhouette {language_silhouette(proj):.3f})"
        )
    return 0


# ---------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="interlingua",
        description="train and inspect multilingual translators with a shared sentence space",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, checkpoint=False):
        p.add_argument("--config", help="path to the INI config file")
        p.add_argument(
            "--set", action="append", default=[], metavar="SECTION.KEY=VALUE",
            help="override one config value (repeatable)",
        )
        p.add_argument("--seed", type=int, help="override train.seed")
        if checkpoint:
            p.add_argument("--checkpoint", help="checkpoint file (default: the final one)")

    p = sub.add_parser("prepare", help="learn subwords, build vocabularies, binarize corpora")
    common(p)
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("train", help="train the language pair against the shared space")
    common(p)
    p.add_argument("--resume", action="store_true", help="continue from the final checkpoint")
    p.add_argument("--distance", choices=["corr", "max", "none"], help="latent distance term")
    p.add_argument("--dvq", action="store_true", help="give a fresh system a codebook that quantizes the latent")
    p.add_argument("--steps", type=int, help="override train.max_steps")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("add-language", help="extend a trained checkpoint with a new language")
    common(p, checkpoint=True)
    p.set_defaults(func=cmd_add_language)

    p = sub.add_parser("translate", help="greedy-decode a text file between two languages")
    common(p, checkpoint=True)
    p.add_argument("--src", required=True, help="source language tag")
    p.add_argument("--tgt", required=True, help="target language tag")
    p.add_argument("--input", required=True, help="input text file, one sentence per line")
    p.add_argument("--output", help="output file (default: under the output dir)")
    p.set_defaults(func=cmd_translate)

    p = sub.add_parser("eval", help="corpus BLEU for both translation directions")
    common(p, checkpoint=True)
    p.add_argument("--split", choices=["train", "test"], default="test")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser(
        "interlingua-eval",
        help="decode each language from both encoders and compare the outputs",
    )
    common(p, checkpoint=True)
    p.add_argument("--split", choices=["train", "test"], default="test")
    p.set_defaults(func=cmd_interlingua_eval)

    p = sub.add_parser("viz", help="export sentence vectors and draw their 2D projection")
    common(p, checkpoint=True)
    p.add_argument(
        "--split", action="append", choices=["train", "test"],
        help="corpus split to plot (repeatable, default train)",
    )
    p.add_argument("--pair-lines", action="store_true", help="connect parallel pairs")
    p.set_defaults(func=cmd_viz)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InterlinguaError as err:
        print(f"error: {err.category}: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"error: io: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
