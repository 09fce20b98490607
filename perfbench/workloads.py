"""The benchmark's workloads: inputs made from a seed, one operation, checks.

Every workload writes the bundled toy corpus (``interlingua.toy``) from
the run's seed, prepares it through the CLI, and then repeats one
operation, each time in a fresh copy of the prepared output directory.
All program calls go through ``interlingua.cli.main`` in this process,
apart from the seeded checkpoint of decode-reports and the checks, which
use the documented Python API.
"""

from __future__ import annotations

import configparser
import contextlib
import hashlib
import io
import json
import math
import traceback
from pathlib import Path

import numpy as np

import checks
from interlingua import cli, data, latent, tensor, toy, training, transformer

TRAIN_PAIRS = 10_000
TEST_PAIRS = 16
PREPARED = "prepared"

# the README quick-start config
TOY_MODEL = {"num_blocks": 2, "num_heads": 2, "d_model": 32, "max_len": 16}
TOY_TRAIN = {"learning_rate": 0.003, "batch_size": 16, "distance_mode": "corr"}
# the ROADMAP "medium" config
WIDE_MODEL = {"num_blocks": 4, "num_heads": 4, "d_model": 128, "max_len": 50}


class SetupError(RuntimeError):
    pass


def run_cli(argv: list[str]) -> tuple[int, str]:
    """One in-process CLI call with its output captured; (exit code, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception:  # a traceback counts as a failed operation
            traceback.print_exc()
            code = -1
    return code, err.getvalue()


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Workload:
    """Set-up and operation shared by all workloads; subclasses fill in the rest."""

    name = ""
    model: dict = {}
    train: dict = {}
    sentences_per_op = 0

    def setup(self, root: Path, seed: int) -> Path:
        """Write the corpus and config under ``root`` and run ``prepare``."""
        toy.write_toy_task(root / "toydata", TRAIN_PAIRS, TEST_PAIRS, seed=seed)
        cp = configparser.ConfigParser()
        cp.read_dict({
            "data": {
                "train_x": "toydata/train.x",
                "train_y": "toydata/train.y",
                "test_x": "toydata/test.x",
                "test_y": "toydata/test.y",
                "bpe_merges": "200",
                "vocab_cap": "64",
            },
            "model": self.model,
            "train": {**self.train, "seed": seed},
            "output": {"dir": PREPARED},
        })
        config = root / "bench.ini"
        with open(config, "w", encoding="utf-8") as fh:
            cp.write(fh)
        code, err = run_cli(["prepare", "--config", str(config)])
        if code != 0:
            raise SetupError(f"prepare exited {code}: {err.strip()}")
        return config

    def commands(self, config: Path, opdir: Path) -> list[list[str]]:
        raise NotImplementedError

    def digest(self, opdir: Path) -> dict[str, str]:
        """Hashes of the outputs that must repeat byte for byte across operations."""
        raise NotImplementedError

    def check(self, config: Path, opdir: Path, seed: int) -> list[str]:
        raise NotImplementedError


class TrainWorkload(Workload):
    """One ``train`` run of a fixed step count with periodic checkpoints."""

    steps = 0
    flags: tuple[str, ...] = ()

    @property
    def sentences_per_op(self) -> int:
        return self.steps * self.train["batch_size"]

    def commands(self, config, opdir):
        return [[
            "train", "--config", str(config), "--set", f"output.dir={opdir}",
            "--steps", str(self.steps), *self.flags,
        ]]

    def digest(self, opdir):
        out = {p.name: sha256(p) for p in sorted(opdir.glob("checkpoint-*.ckpt"))}
        records = []
        for line in (opdir / cli.TRAIN_LOG).read_text(encoding="utf-8").splitlines():
            record = json.loads(line)
            record.pop("wall_time")  # the only field that measures time
            records.append(record)
        out[cli.TRAIN_LOG] = hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()
        return out

    def check(self, config, opdir, seed):
        problems = []
        log = (opdir / cli.TRAIN_LOG).read_text(encoding="utf-8").splitlines()
        losses = [json.loads(line)["loss"] for line in log]
        if len(losses) != self.steps or not all(math.isfinite(x) for x in losses):
            problems.append(f"train log: {len(losses)} steps, losses {losses}")
        system, state, cfg = training.load_checkpoint(opdir / cli.FINAL_CHECKPOINT)
        if state.step != self.steps:
            problems.append(f"final checkpoint at step {state.step}, expected {self.steps}")
        corpus = data.read_corpus(opdir / "corpus-train.bin")
        batch = training.sample_batch(corpus, cfg.batch_size, seed, 0)
        return problems + self.check_model(system, cfg, batch, seed)

    def check_model(self, system, cfg, batch, seed) -> list[str]:
        raise NotImplementedError


class TrainToy(TrainWorkload):
    name = "train-toy"
    model = TOY_MODEL
    train = {**TOY_TRAIN, "checkpoint_every": 10}
    steps = 20

    def check_model(self, system, cfg, batch, seed):
        """Tape gradient of joint_loss against a directional central difference."""
        params = list(system.named_parameters().values())
        gates = checks.ReluGates(tensor)
        tape = tensor.GradTape()
        try:
            for p in params:
                tape.watch(p)
            with gates.record():
                loss, _ = training.joint_loss(batch, system, cfg)
            grads = training.backward(loss)
            grad_arrays = [np.array(grads[p]) for p in params]
        finally:
            tape.release()

        def loss_fn():
            with gates.replay():
                return training.joint_loss(batch, system, cfg)[0].item()

        return checks.directional_problems(
            loss_fn,
            [p.array for p in params],
            grad_arrays,
            np.random.default_rng(seed),
        )


class TrainWide(TrainWorkload):
    name = "train-wide"
    model = WIDE_MODEL
    train = {"learning_rate": 0.003, "batch_size": 32, "checkpoint_every": 2}
    steps = 2
    flags = ("--dvq", "--distance", "max")

    def check_model(self, system, cfg, batch, seed):
        """Quantizer indices of one batch against exhaustive nearest-row search."""
        tables = [t.array for t in system.codebook.tables]
        problems = []
        for lang, tokens in ((batch.lang_x, batch.x), (batch.lang_y, batch.y)):
            states = transformer.encode(system.modules[lang], tokens).array
            _, indices, _, _ = latent.quantize(system.codebook, states)
            problems += checks.quantizer_problems(tables, states, indices)
        return problems


class DecodeReports(Workload):
    """The README reporting sequence on the test split of an untrained model."""

    name = "decode-reports"
    model = {**TOY_MODEL, "max_len": 50}
    train = TOY_TRAIN
    sentences_per_op = TEST_PAIRS
    HYPOTHESES = "test.hyp.y"
    # The untrained model is part of the workload, like its config: its
    # seed is fixed while the corpus follows --seed. Models of other seeds
    # stop whole decoder passes early on some corpora, which changed the
    # work of one operation by up to 40 % from seed to seed.
    MODEL_SEED = 0

    def setup(self, root, seed):
        """Prepare, then write a seeded untrained checkpoint through the API.

        Even a 2-step ``train`` run teaches the model to emit eos at once,
        which would leave greedy decoding almost nothing to do.
        """
        config = super().setup(root, seed)
        out = root / PREPARED
        vocabs = {lang: data.Vocabulary.load(out / f"vocab-{lang}.txt") for lang in ("x", "y")}
        sizes = {lang: len(v) for lang, v in vocabs.items()}
        model = transformer.ModelConfig(**self.model, vocab_size=max(sizes.values()))
        system = training.build_system(model, sizes, seed=self.MODEL_SEED)
        system.vocab_hashes = {lang: v.content_hash() for lang, v in vocabs.items()}
        training.save_checkpoint(system, training.TrainState(), out / cli.FINAL_CHECKPOINT)
        return config

    def commands(self, config, opdir):
        common = ["--config", str(config), "--set", f"output.dir={opdir}"]
        test_x = config.parent / "toydata" / "test.x"
        return [
            ["translate", *common, "--src", "x", "--tgt", "y",
             "--input", str(test_x), "--output", str(opdir / self.HYPOTHESES)],
            ["eval", *common, "--split", "test"],
            ["interlingua-eval", *common, "--split", "test"],
        ]

    def digest(self, opdir):
        names = (self.HYPOTHESES, "bleu-report-test.json", "interlingua-report-test.json")
        return {name: sha256(opdir / name) for name in names}

    def check(self, config, opdir, seed):
        """Decode all four pairings through the API, then check the CLI's files.

        The x->y decode must match the translate output; every emitted
        token must be its position's argmax; every BLEU field of both
        reports must equal the benchmark's own corpus BLEU.
        """
        system, _, _ = training.load_checkpoint(opdir / cli.FINAL_CHECKPOINT)
        vocabs = {lang: data.Vocabulary.load(opdir / f"vocab-{lang}.txt") for lang in ("x", "y")}
        corpus = data.read_corpus(opdir / "corpus-test.bin")
        batch = training.make_batch(corpus, range(len(corpus)))
        tokens = {batch.lang_x: batch.x, batch.lang_y: batch.y}
        max_len = system.config.max_len
        problems = []
        words = {}
        for src in ("x", "y"):
            states = transformer.encode(system.modules[src], tokens[src])
            mask = transformer.pad_mask(tokens[src])
            for tgt in ("x", "y"):
                module = system.modules[tgt]
                outputs = transformer.greedy_decode(module, states, mask, max_len)
                problems += checks.greedy_problems(module, states, mask, outputs, max_len)
                words[src, tgt] = [
                    checks.join_subwords(vocabs[tgt].decode(row)) for row in outputs
                ]
        translated = (opdir / self.HYPOTHESES).read_text(encoding="utf-8").splitlines()
        if translated != [" ".join(w) for w in words["x", "y"]]:
            problems.append("translate output differs from greedy decoding of the test split")
        test_dir = config.parent / "toydata"
        refs = {
            lang: [line.split() for line in (test_dir / f"test.{lang}").read_text(encoding="utf-8").splitlines()]
            for lang in ("x", "y")
        }
        bleu_report = json.loads((opdir / "bleu-report-test.json").read_text(encoding="utf-8"))
        for src, tgt in (("x", "y"), ("y", "x")):
            problems += checks.bleu_problems(
                f"eval {src}->{tgt}", bleu_report.get(f"{src}_to_{tgt}", {}),
                checks.corpus_bleu(words[src, tgt], refs[tgt]),
            )
        records = json.loads((opdir / "interlingua-report-test.json").read_text(encoding="utf-8"))
        for record in records:
            dec, enc = record["decoder"], record["encoder"]
            expected = {
                "autoencoder_": checks.corpus_bleu(words[dec, dec], refs[dec]),
                "translation_": checks.corpus_bleu(words[enc, dec], refs[dec]),
                "agreement_": checks.corpus_bleu(words[enc, dec], words[dec, dec]),
            }
            for prefix, reference in expected.items():
                problems += checks.bleu_problems(f"interlingua-eval {dec}", record, reference, prefix)
        if sorted(r["decoder"] for r in records) != ["x", "y"]:
            problems.append("interlingua report does not cover both decoders")
        return problems


WORKLOADS = {w.name: w for w in (TrainToy(), TrainWide(), DecodeReports())}
