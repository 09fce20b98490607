"""Shared builders: prepared toy corpora and small systems for integration tests."""

import numpy as np
import pytest

from interlingua import data as D
from interlingua import toy
from interlingua.training import System, TrainConfig, build_system
from interlingua.transformer import EOS_ID, ModelConfig

# One human-readable verdict line per acceptance criterion, filled in by
# tests/test_acceptance.py and echoed after the run so the go/no-go list
# is visible without scrolling through the full log.
ACCEPTANCE_RESULTS: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for line in ACCEPTANCE_RESULTS:
        terminalreporter.write_line(line)


def prepare_toy(tmp_path, n_train=16, n_test=4, seed=0, merges=120, vocab_cap=64):
    """Write toy text, learn BPE and vocabularies, load the parallel corpus."""
    paths = toy.write_toy_task(tmp_path / "toydata", n_train=n_train, n_test=n_test, seed=seed)
    models = {}
    vocabs = {}
    for side in ("x", "y"):
        lines = paths[f"train_{side}"].read_text(encoding="utf-8").splitlines()
        bpe = D.learn_bpe(lines, merges)
        models[side] = bpe
        vocabs[side] = D.build_vocabulary([D.apply_bpe(bpe, l) for l in lines], vocab_cap)
    corpus = D.load_parallel(
        paths["train_x"],
        paths["train_y"],
        vocabs["x"],
        vocabs["y"],
        bpe_x=models["x"],
        bpe_y=models["y"],
        lang_x="x",
        lang_y="y",
    )
    return corpus, vocabs, models, paths


def unequal_corpus(vocab_sizes, lengths, seed=11) -> D.ParallelCorpus:
    """Random x/y id rows of the given lengths (eos included), so the sides
    can differ in length row by row and in batch width; toy pairs never do."""
    rng = np.random.default_rng(seed)
    sequences = {
        lang: [np.append(rng.integers(4, vocab_sizes[lang], size=n - 1), EOS_ID) for n in lengths[lang]]
        for lang in ("x", "y")
    }
    return D.ParallelCorpus(languages=("x", "y"), sequences=sequences)


def small_model_config(**kw) -> ModelConfig:
    base = dict(num_blocks=1, num_heads=2, d_model=16, d_ff=32, vocab_size=64, max_len=16)
    base.update(kw)
    return ModelConfig(**base)


def small_system(vocabs, seed=0, **cfg_kw) -> System:
    cfg = small_model_config(**cfg_kw)
    return build_system(cfg, {lang: len(v) for lang, v in vocabs.items()}, seed=seed)


def fast_train_config(**kw) -> TrainConfig:
    base = dict(learning_rate=3e-3, batch_size=8, max_steps=40, seed=0)
    base.update(kw)
    return TrainConfig(**base)


@pytest.fixture
def toy_corpus(tmp_path):
    return prepare_toy(tmp_path)
