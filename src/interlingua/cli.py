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
import json
import os
import sys
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
    add_language,
    build_system,
    load_checkpoint,
    make_batch,
    save_checkpoint,
    train,
)
from .transformer import EOS_ID, LanguageModule, ModelConfig
from .viz import export_embeddings, language_silhouette, pca_project, render_scatter, save_dump

FINAL_CHECKPOINT = "checkpoint-final.ckpt"
EXTENDED_CHECKPOINT = "checkpoint-extended.ckpt"
MANIFEST = "manifest.json"
EFFECTIVE_CONFIG = "effective-config.ini"
TRAIN_LOG = "train-log.jsonl"
EXTEND_LOG = "extend-log.jsonl"
LOCK_FILE = ".lock"

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
    "model": {
        "num_blocks": "2",
        "num_heads": "2",
        "d_model": "32",
        "d_ff": "",
        "max_len": "50",
        "dropout": "0.0",
    },
    "train": {
        "learning_rate": "1e-4",
        "beta1": "0.9",
        "beta2": "0.98",
        "adam_eps": "1e-9",
        "batch_size": "16",
        "max_steps": "1000",
        "distance_mode": "corr",
        "quantize": "false",
        "vq_tables": "4",
        "vq_entries": "64",
        "commitment_beta": "0.25",
        "loss_weights": "1,1,1,1,1",
        "seed": "0",
        "checkpoint_every": "0",
    },
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
    cp = configparser.ConfigParser()
    cp.read_dict(DEFAULTS)
    base = Path.cwd()
    if path is not None:
        file = Path(path)
        if not file.is_file():
            raise ConfigError(f"config file not found: {path}")
        cp.read(file, encoding="utf-8")
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
    echo = configparser.ConfigParser()
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
    with open(out / EFFECTIVE_CONFIG, "w", encoding="utf-8") as fh:
        echo.write(fh)


def model_config_from(cp, vocab_sizes: dict[str, int]) -> ModelConfig:
    d_ff = cp["model"]["d_ff"].strip()
    return ModelConfig(
        num_blocks=cp["model"].getint("num_blocks"),
        num_heads=cp["model"].getint("num_heads"),
        d_model=cp["model"].getint("d_model"),
        d_ff=int(d_ff) if d_ff else None,
        vocab_size=max(vocab_sizes.values()),
        max_len=cp["model"].getint("max_len"),
        dropout=cp["model"].getfloat("dropout"),
    )


def train_config_from(cp) -> TrainConfig:
    weights = tuple(float(w) for w in cp["train"]["loss_weights"].split(","))
    return TrainConfig(
        learning_rate=cp["train"].getfloat("learning_rate"),
        beta1=cp["train"].getfloat("beta1"),
        beta2=cp["train"].getfloat("beta2"),
        adam_eps=cp["train"].getfloat("adam_eps"),
        batch_size=cp["train"].getint("batch_size"),
        max_steps=cp["train"].getint("max_steps"),
        distance_mode=cp["train"]["distance_mode"],
        quantize=cp["train"].getboolean("quantize"),
        vq_tables=cp["train"].getint("vq_tables"),
        vq_entries=cp["train"].getint("vq_entries"),
        commitment_beta=cp["train"].getfloat("commitment_beta"),
        loss_weights=weights,
        seed=cp["train"].getint("seed"),
    )


class OutputLock:
    """Exclusive marker so two trainers never write one directory at once."""

    def __init__(self, out: Path):
        self.path = out / LOCK_FILE

    def __enter__(self):
        try:
            fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            raise LockError(
                f"output directory is locked by {self.path} "
                f"(held by pid {self.path.read_text(encoding='utf-8').strip() or '?'}; "
                f"remove the file if that process is gone)"
            ) from None
        os.write(fd, f"{os.getpid()}\n".encode())
        os.close(fd)
        return self

    def __exit__(self, *exc):
        self.path.unlink(missing_ok=True)
        return False


# ---------------------------------------------------------------- artifacts


def bpe_path(out: Path, lang: str) -> Path:
    return out / f"bpe-{lang}.txt"


def vocab_path(out: Path, lang: str) -> Path:
    return out / f"vocab-{lang}.txt"


def corpus_path(out: Path, split: str) -> Path:
    return out / f"corpus-{split}.bin"


def write_json(path: Path, obj):
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def json_lines_logger(log, then=None):
    """Step callback writing one sorted JSON line per report, then calling ``then``."""

    def on_step(report: dict):
        log.write(json.dumps(report, sort_keys=True) + "\n")
        log.flush()
        if then is not None:
            then(report)

    return on_step


def learn_side(cp, text: Path, out: Path, lang: str) -> tuple[D.BpeModel, D.Vocabulary]:
    """Learn one language's BPE table and vocabulary from a text file; save both."""
    lines = text.read_text(encoding="utf-8").splitlines()
    model = D.learn_bpe(lines, cp["data"].getint("bpe_merges"))
    vocab = D.build_vocabulary(
        [D.apply_bpe(model, l) for l in lines], cp["data"].getint("vocab_cap")
    )
    D.save_bpe(model, bpe_path(out, lang))
    vocab.save(vocab_path(out, lang))
    return model, vocab


def load_vocabs(out: Path, languages) -> dict[str, D.Vocabulary]:
    """Vocabularies of prepared languages, whose BPE tables must exist too."""
    vocabs = {}
    for lang in languages:
        require_file(bpe_path(out, lang), "run prepare first")
        vocabs[lang] = D.Vocabulary.load(require_file(vocab_path(out, lang), "run prepare first"))
    return vocabs


def load_corpus(cp, out: Path, split: str) -> D.ParallelCorpus:
    """One prepared split, checked against the configured language pair."""
    hint = "configure data.test_x/test_y and run prepare" if split == "test" else "run prepare first"
    corpus = D.read_corpus(require_file(corpus_path(out, split), hint))
    pair = language_pair(cp)
    if set(corpus.languages) != set(pair):
        raise ConfigError(f"prepared corpus pairs {corpus.languages}, config names {pair}")
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
    max_words = cp["data"].getint("max_words")

    settings = {
        "bpe_merges": cp["data"].getint("bpe_merges"),
        "vocab_cap": cp["data"].getint("vocab_cap"),
        "max_words": max_words,
        "lang_x": lang_x,
        "lang_y": lang_y,
    }
    inputs = {
        "train_x": D.file_sha256(train_x),
        "train_y": D.file_sha256(train_y),
        "test_x": D.file_sha256(test_x) if test_x else None,
        "test_y": D.file_sha256(test_y) if test_y else None,
    }
    manifest_file = out / MANIFEST
    if manifest_file.is_file():
        old = json.loads(manifest_file.read_text(encoding="utf-8"))
        outputs_intact = all(
            (out / name).is_file() and D.file_sha256(out / name) == digest
            for name, digest in old.get("outputs", {}).items()
        )
        if old.get("inputs") == inputs and old.get("settings") == settings and outputs_intact:
            print("prepare: inputs unchanged, artifacts up to date")
            return 0

    sides = {lang_x: train_x, lang_y: train_y}
    models: dict[str, D.BpeModel] = {}
    vocabs: dict[str, D.Vocabulary] = {}
    for lang, path in sides.items():
        models[lang], vocabs[lang] = learn_side(cp, path, out, lang)
        print(f"prepare: {lang}: {len(models[lang].merges)} merges, vocabulary {len(vocabs[lang])}")

    def build_split(split: str, px, py):
        corpus = D.load_parallel(
            px, py, vocabs[lang_x], vocabs[lang_y],
            max_words=max_words,
            bpe_x=models[lang_x], bpe_y=models[lang_y],
            lang_x=lang_x, lang_y=lang_y,
        )
        D.save_corpus(corpus, corpus_path(out, split))
        prov = corpus.provenance
        print(f"prepare: {split}: kept {prov['kept']} pairs, dropped {prov['dropped']}")

    build_split("train", train_x, train_y)
    if test_x:
        build_split("test", test_x, test_y)

    output_names = [bpe_path(out, l).name for l in sides] + [vocab_path(out, l).name for l in sides]
    output_names.append(corpus_path(out, "train").name)
    if test_x:
        output_names.append(corpus_path(out, "test").name)
    write_json(manifest_file, {
        "inputs": inputs,
        "settings": settings,
        "outputs": {name: D.file_sha256(out / name) for name in sorted(output_names)},
    })
    return 0


def cmd_train(args) -> int:
    cp, base, out = preamble(args)
    train_cfg = train_config_from(cp)
    vocabs = load_vocabs(out, language_pair(cp))
    corpus = load_corpus(cp, out, "train")
    hashes = {lang: v.content_hash() for lang, v in vocabs.items()}
    final = out / FINAL_CHECKPOINT
    checkpoint_every = cp["train"].getint("checkpoint_every")

    with OutputLock(out):
        if args.resume:
            # the current config stays authoritative; the checkpoint supplies
            # parameters, optimizer moments, and the step counter
            resumed = require_file(final, "train first or drop --resume")
            system, state, _ = load_checkpoint(resumed, expected_vocab_hashes=hashes)
            log_mode = "a"
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
                model_config_from(cp, sizes),
                sizes,
                seed=train_cfg.seed,
                quantize_latent=train_cfg.quantize,
                vq_tables=train_cfg.vq_tables,
                vq_entries=train_cfg.vq_entries,
            )
            system.vocab_hashes = hashes
            state = TrainState()
            log_mode = "w"

        def after_step(report: dict):
            if checkpoint_every > 0 and report["step"] % checkpoint_every == 0:
                save_checkpoint(
                    system, state, out / f"checkpoint-{report['step']:06d}.ckpt",
                    train_config=train_cfg,
                )
            if report["step"] % 50 == 0 or report["step"] == 1:
                print(
                    f"step {report['step']}: loss {report['loss']:.4f} "
                    f"corr_distance {report['corr_distance']:.4f}"
                )

        with open(out / TRAIN_LOG, log_mode, encoding="utf-8") as log:
            train(system, state, corpus, train_cfg, log_fn=json_lines_logger(log, after_step))
        save_checkpoint(system, state, final, train_config=train_cfg)
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
    finetune_all = cp["extend"].getboolean("finetune_all")

    train_cfg = train_config_from(cp)
    with OutputLock(out):
        system, _ = load_system(args, out, language_pair(cp))
        if anchor_lang not in system.modules:
            raise ConfigError(f"anchor language {anchor_lang!r} not in checkpoint")
        if new_lang in system.modules:
            raise ConfigError(f"language {new_lang!r} already in checkpoint")

        bpe_new, vocab_new = learn_side(cp, train_new, out, new_lang)
        corpus = D.load_parallel(
            train_anchor, train_new, load_vocabs(out, [anchor_lang])[anchor_lang], vocab_new,
            max_words=cp["data"].getint("max_words"),
            bpe_x=D.load_bpe(bpe_path(out, anchor_lang)), bpe_y=bpe_new,
            lang_x=anchor_lang, lang_y=new_lang,
        )
        D.save_corpus(corpus, corpus_path(out, f"extend-{new_lang}"))

        module = LanguageModule(
            new_lang, system.config, vocab_size=len(vocab_new), seed=train_cfg.seed
        )
        with open(out / EXTEND_LOG, "w", encoding="utf-8") as log:
            system, state = add_language(
                system,
                module,
                corpus,
                train_cfg,
                log_fn=json_lines_logger(log),
                finetune_all=finetune_all,
                warm_start=cp["extend"].getboolean("warm_start"),
            )
        system.vocab_hashes[new_lang] = vocab_new.content_hash()
        target = out / EXTENDED_CHECKPOINT
        save_checkpoint(system, state, target, train_config=train_cfg)
    frozen = "all parameters tuned" if finetune_all else "existing modules frozen"
    print(f"add-language: {new_lang} trained against {anchor_lang} ({frozen}), checkpoint {target}")
    return 0


def cmd_translate(args) -> int:
    cp, base, out = preamble(args)
    src, tgt = args.src, args.tgt
    system, vocabs = load_system(args, out, dict.fromkeys((src, tgt)))
    bpe_src = D.load_bpe(bpe_path(out, src))

    lines = require_file(Path(args.input), "check --input").read_text(encoding="utf-8").splitlines()
    output_path = Path(args.output) if args.output else out / f"translated-{src}-{tgt}.txt"
    if not lines:
        output_path.write_text("", encoding="utf-8")
        print(f"translate: 0 lines -> {output_path}")
        return 0

    keep = system.config.max_len - 1  # room for the terminator
    encoded = [vocabs[src].encode(D.apply_bpe(bpe_src, line)) for line in lines]
    rows = [ids[:keep] + [EOS_ID] for ids in encoded]
    decoded = decode_corpus_side(system, tgt, src, _pad_rows(rows), vocabs[tgt])
    text = [D.detokenize(D.reverse_bpe(toks)) for toks in decoded]
    output_path.write_text("\n".join(text) + "\n", encoding="utf-8")
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

    reports = [
        interlingua_eval(system, decoder, corpus, vocabs) for decoder in language_pair(cp)
    ]
    path = out / f"interlingua-report-{args.split}.json"
    write_json(path, [report_record(r) for r in reports])
    print(format_table(reports))
    print(f"interlingua-eval: report written to {path}")
    return 0


def cmd_viz(args) -> int:
    cp, base, out = preamble(args)
    system, _ = load_system(args, out, language_pair(cp))
    seed = cp["train"].getint("seed")

    for split in args.split or ["train"]:
        dump = export_embeddings(system, load_corpus(cp, out, split))
        save_dump(dump, out / f"embeddings-{split}.tsv")
        proj = pca_project(dump, seed=seed)
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
    p.add_argument("--dvq", action="store_true", help="quantize the latent with the codebook")
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
