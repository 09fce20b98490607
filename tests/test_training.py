"""Tests for the joint training loop, optimizer, and checkpoint container.

Determinism claims here are strict: identical inputs must reproduce
parameters bit for bit, and a run resumed from a checkpoint must land on
exactly the same bytes as the uninterrupted run.
"""

import copy
import dataclasses

import numpy as np
import pytest

from conftest import fast_train_config, prepare_toy, small_model_config, small_system
from interlingua import data as D
from interlingua import toy
from interlingua.exceptions import (
    CheckpointError,
    CompatibilityError,
    ConfigError,
    DivergenceError,
)
from interlingua.training import (
    TrainConfig,
    TrainState,
    add_language,
    build_system,
    joint_loss,
    load_checkpoint,
    make_batch,
    sample_batch,
    save_checkpoint,
    shift_targets,
    train,
    train_step,
    weighted_component_sum,
)
from interlingua.transformer import BOS_ID, EOS_ID, PAD_ID, LanguageModule


def snapshot(system, prefix=None):
    return {
        name: t.array.copy()
        for name, t in system.named_parameters().items()
        if prefix is None or name.startswith(prefix)
    }


def assert_bit_identical(before, after_params, names=None):
    for name, old in before.items():
        if names is not None and name not in names:
            continue
        new = after_params[name].array
        assert np.array_equal(old, new), f"{name} changed"


class TestTrainConfig:
    def test_defaults_valid(self):
        cfg = TrainConfig()
        assert cfg.distance_mode == "corr"
        assert cfg.loss_weights == (1.0, 1.0, 1.0, 1.0, 1.0)

    def test_rejects_bad_learning_rate(self):
        with pytest.raises(ConfigError):
            TrainConfig(learning_rate=0.0)

    def test_rejects_bad_betas(self):
        with pytest.raises(ConfigError):
            TrainConfig(beta1=1.0)
        with pytest.raises(ConfigError):
            TrainConfig(beta2=-0.1)

    def test_rejects_unknown_distance_mode(self):
        with pytest.raises(ConfigError):
            TrainConfig(distance_mode="cosine")

    def test_correlation_needs_two_rows(self):
        with pytest.raises(ConfigError):
            TrainConfig(distance_mode="corr", batch_size=1)
        TrainConfig(distance_mode="max", batch_size=1)

    def test_rejects_wrong_weight_count(self):
        with pytest.raises(ConfigError):
            TrainConfig(loss_weights=(1.0, 1.0))


class TestBatching:
    def test_shift_targets_hand_case(self):
        tokens = np.array([[5, 6, EOS_ID, PAD_ID], [7, EOS_ID, PAD_ID, PAD_ID]])
        shifted = shift_targets(tokens)
        assert shifted.tolist() == [
            [BOS_ID, 5, 6, EOS_ID],
            [BOS_ID, 7, EOS_ID, PAD_ID],
        ]

    def test_make_batch_pads_to_longest(self, toy_corpus):
        corpus, _, _, _ = toy_corpus
        batch = make_batch(corpus, [0, 1, 2])
        assert batch.x.shape[0] == 3
        widths = [len(corpus.sequences["x"][i]) for i in (0, 1, 2)]
        assert batch.x.shape[1] == max(widths)
        for row, n in zip(batch.x, widths):
            assert row[n - 1] == EOS_ID
            assert all(v == PAD_ID for v in row[n:])

    def test_sample_batch_is_stateless(self, toy_corpus):
        corpus, _, _, _ = toy_corpus
        a = sample_batch(corpus, 4, seed=3, step=17)
        b = sample_batch(corpus, 4, seed=3, step=17)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)

    def test_sample_batch_varies_with_step(self, toy_corpus):
        corpus, _, _, _ = toy_corpus
        draws = {sample_batch(corpus, 4, seed=3, step=s).x.tobytes() for s in range(6)}
        assert len(draws) > 1

    def test_sample_batch_covers_corpus_when_batch_is_larger(self, toy_corpus):
        corpus, _, _, _ = toy_corpus
        batch = sample_batch(corpus, 999, seed=0, step=0)
        assert batch.x.shape[0] == len(corpus)

    def test_empty_corpus_rejected(self):
        empty = D.ParallelCorpus(languages=("x", "y"), sequences={"x": [], "y": []})
        with pytest.raises(ConfigError):
            sample_batch(empty, 4, seed=0, step=0)


class TestJointLoss:
    def test_breakdown_recombines_exactly(self, toy_corpus):
        corpus, vocabs, _, _ = toy_corpus
        system = small_system(vocabs)
        cfg = fast_train_config(loss_weights=(1.0, 0.5, 2.0, 1.0, 0.25))
        batch = sample_batch(corpus, cfg.batch_size, cfg.seed, 0)
        loss, components = joint_loss(batch, system, cfg)
        assert weighted_component_sum(components, cfg) == loss.item()

    def test_distance_none_total_is_sum_of_translation_terms(self, toy_corpus):
        corpus, vocabs, _, _ = toy_corpus
        system = small_system(vocabs)
        cfg = fast_train_config(distance_mode="none")
        batch = sample_batch(corpus, cfg.batch_size, cfg.seed, 0)
        loss, c = joint_loss(batch, system, cfg)
        expected = c["l_xx"]
        expected = expected + c["l_yy"]
        expected = expected + c["l_xy"]
        expected = expected + c["l_yx"]
        assert loss.item() == expected
        assert c["distance"] == 0.0

    def test_correlation_diagnostic_reported_in_every_mode(self, toy_corpus):
        corpus, vocabs, _, _ = toy_corpus
        system = small_system(vocabs)
        batch = sample_batch(corpus, 8, 0, 0)
        values = {}
        for mode in ("corr", "max", "none"):
            cfg = fast_train_config(distance_mode=mode)
            _, c = joint_loss(batch, system, cfg)
            assert "corr_distance" in c
            values[mode] = c["corr_distance"]
        assert values["corr"] == values["max"] == values["none"]
        cfg = fast_train_config(distance_mode="corr")
        _, c = joint_loss(batch, system, cfg)
        assert c["distance"] == c["corr_distance"]

    def test_quantized_loss_adds_codebook_terms(self, toy_corpus):
        corpus, vocabs, _, _ = toy_corpus
        system = small_system(vocabs)
        quantized = build_system(
            small_model_config(),
            {lang: len(v) for lang, v in vocabs.items()},
            seed=0,
            quantize_latent=True,
            vq_tables=2,
            vq_entries=8,
        )
        cfg = fast_train_config(quantize=True, vq_tables=2, vq_entries=8)
        batch = sample_batch(corpus, cfg.batch_size, cfg.seed, 0)
        loss, c = joint_loss(batch, quantized, cfg)
        assert c["vq"] > 0.0
        assert weighted_component_sum(c, cfg) == loss.item()
        with pytest.raises(ConfigError):
            joint_loss(batch, system, cfg)

    def test_unknown_language_rejected(self, toy_corpus):
        corpus, vocabs, _, _ = toy_corpus
        system = small_system(vocabs)
        batch = sample_batch(corpus, 4, 0, 0)
        batch = dataclasses.replace(batch, lang_y="klingon")
        with pytest.raises(CompatibilityError):
            joint_loss(batch, system, fast_train_config())


class TestTrainStep:
    def test_loss_decreases_on_repeated_batch(self, toy_corpus):
        corpus, vocabs, _, _ = toy_corpus
        system = small_system(vocabs)
        cfg = fast_train_config(learning_rate=5e-3)
        batch = sample_batch(corpus, 8, 0, 0)
        state = TrainState()
        first = train_step(state, system, batch, cfg)["loss"]
        for _ in range(14):
            last = train_step(state, system, batch, cfg)["loss"]
        assert last < first

    def test_step_counter_and_history(self, toy_corpus):
        corpus, vocabs, _, _ = toy_corpus
        system = small_system(vocabs)
        cfg = fast_train_config()
        state = TrainState()
        batch = sample_batch(corpus, cfg.batch_size, cfg.seed, 0)
        report = train_step(state, system, batch, cfg)
        assert state.step == 1
        assert report["step"] == 1
        assert state.history[-1] is report
        for key in ("loss", "l_xx", "l_yy", "l_xy", "l_yx", "distance", "corr_distance"):
            assert key in report

    def test_frozen_parameters_stay_bit_identical(self, toy_corpus):
        corpus, vocabs, _, _ = toy_corpus
        system = small_system(vocabs)
        cfg = fast_train_config()
        trainable = {n for n in system.named_parameters() if n.startswith("x/")}
        frozen_before = snapshot(system, prefix="y/")
        live_before = snapshot(system, prefix="x/")
        batch = sample_batch(corpus, cfg.batch_size, cfg.seed, 0)
        train_step(TrainState(), system, batch, cfg, trainable=trainable)
        params = system.named_parameters()
        assert_bit_identical(frozen_before, params)
        changed = [n for n, old in live_before.items() if not np.array_equal(old, params[n].array)]
        assert changed, "no trainable parameter moved"

    def test_unknown_trainable_name_rejected(self, toy_corpus):
        corpus, vocabs, _, _ = toy_corpus
        system = small_system(vocabs)
        batch = sample_batch(corpus, 8, 0, 0)
        with pytest.raises(ConfigError):
            train_step(TrainState(), system, batch, fast_train_config(), trainable={"x/emb", "nope"})

    def test_non_finite_loss_raises_divergence(self, toy_corpus):
        corpus, vocabs, _, _ = toy_corpus
        system = small_system(vocabs)
        system.modules["x"].params["emb"].array[:] = np.nan
        batch = sample_batch(corpus, 8, 0, 0)
        with pytest.raises(DivergenceError) as exc:
            train_step(TrainState(), system, batch, fast_train_config())
        assert "l_xx" in exc.value.components

    def test_divergence_leaves_tape_released(self, toy_corpus):
        corpus, vocabs, _, _ = toy_corpus
        system = small_system(vocabs)
        system.modules["x"].params["emb"].array[:] = np.nan
        batch = sample_batch(corpus, 8, 0, 0)
        with pytest.raises(DivergenceError):
            train_step(TrainState(), system, batch, fast_train_config())
        for t in system.named_parameters().values():
            assert t.tape is None


class TestDeterminism:
    def test_identical_runs_produce_identical_parameters(self, toy_corpus):
        corpus, vocabs, _, _ = toy_corpus
        cfg = fast_train_config(max_steps=5)
        hashes = []
        losses = []
        for _ in range(2):
            system = small_system(vocabs, seed=4)
            state = train(system, TrainState(), corpus, cfg)
            hashes.append(system.parameter_hash())
            losses.append([h["loss"] for h in state.history])
        assert hashes[0] == hashes[1]
        assert losses[0] == losses[1]

    def test_different_seed_changes_course(self, toy_corpus):
        corpus, vocabs, _, _ = toy_corpus
        a = small_system(vocabs, seed=4)
        b = small_system(vocabs, seed=5)
        assert a.parameter_hash() != b.parameter_hash()


class TestCheckpoint:
    def test_round_trip_restores_everything(self, toy_corpus, tmp_path):
        corpus, vocabs, _, _ = toy_corpus
        system = small_system(vocabs)
        cfg = fast_train_config(max_steps=3)
        state = train(system, TrainState(), corpus, cfg)
        hashes = {lang: v.content_hash() for lang, v in vocabs.items()}
        path = tmp_path / "model.ckpt"
        save_checkpoint(system, state, path, vocab_hashes=hashes, train_config=cfg)

        loaded, loaded_state, loaded_cfg = load_checkpoint(path, expected_vocab_hashes=hashes)
        assert loaded.parameter_hash() == system.parameter_hash()
        assert loaded_state.step == state.step
        assert loaded_cfg == cfg
        assert loaded.vocab_hashes == hashes
        for name, (m, v) in state.moments.items():
            lm, lv = loaded_state.moments[name]
            assert np.array_equal(m, lm) and np.array_equal(v, lv)

    def test_saving_a_loaded_checkpoint_is_byte_identical(self, toy_corpus, tmp_path):
        corpus, vocabs, _, _ = toy_corpus
        system = small_system(vocabs)
        cfg = fast_train_config(max_steps=2)
        state = train(system, TrainState(), corpus, cfg)
        hashes = {lang: v.content_hash() for lang, v in vocabs.items()}
        first = tmp_path / "a.ckpt"
        second = tmp_path / "b.ckpt"
        save_checkpoint(system, state, first, vocab_hashes=hashes, train_config=cfg)
        loaded, loaded_state, loaded_cfg = load_checkpoint(first)
        save_checkpoint(loaded, loaded_state, second, train_config=loaded_cfg)
        assert first.read_bytes() == second.read_bytes()

    def test_vocabulary_hash_mismatch_is_rejected(self, toy_corpus, tmp_path):
        corpus, vocabs, _, _ = toy_corpus
        system = small_system(vocabs)
        hashes = {lang: v.content_hash() for lang, v in vocabs.items()}
        path = tmp_path / "model.ckpt"
        save_checkpoint(system, TrainState(), path, vocab_hashes=hashes)
        wrong = dict(hashes, x="0" * 64)
        with pytest.raises(CheckpointError):
            load_checkpoint(path, expected_vocab_hashes=wrong)

    def test_garbage_file_is_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"not a checkpoint at all")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_damaged_header_raises_or_loads_identically(self, toy_corpus, tmp_path):
        corpus, vocabs, _, _ = toy_corpus
        system = small_system(vocabs)
        path = tmp_path / "model.ckpt"
        save_checkpoint(system, TrainState(), path)
        raw = path.read_bytes()
        body = 16 + int.from_bytes(raw[8:16], "little")
        rng = np.random.default_rng(0)
        damaged = [raw[:cut] for cut in range(body + 1)]
        damaged += [raw[:cut] for cut in rng.integers(body, len(raw), size=16)]
        for pos in rng.choice(body, size=64, replace=False):
            flipped = bytearray(raw)
            flipped[pos] ^= 0xFF
            damaged.append(bytes(flipped))
        damaged.append(raw + bytes(7))  # trailing bytes after the last array
        damaged.append(raw)
        loads = 0
        for blob in damaged:
            path.write_bytes(blob)
            try:
                loaded, _, _ = load_checkpoint(path)
            except CheckpointError:
                continue
            loads += 1
            assert loaded.parameter_hash() == system.parameter_hash()
        assert loads == 1  # only the undamaged file loads

    def test_quantizer_survives_round_trip(self, toy_corpus, tmp_path):
        corpus, vocabs, _, _ = toy_corpus
        system = build_system(
            small_model_config(),
            {lang: len(v) for lang, v in vocabs.items()},
            seed=1,
            quantize_latent=True,
            vq_tables=2,
            vq_entries=8,
        )
        path = tmp_path / "model.ckpt"
        save_checkpoint(system, TrainState(), path)
        loaded, _, _ = load_checkpoint(path)
        assert loaded.codebook is not None
        assert loaded.codebook.n_tables == 2
        assert loaded.codebook.entries == 8
        assert loaded.parameter_hash() == system.parameter_hash()


class TestResume:
    def test_resumed_run_matches_uninterrupted_run_bitwise(self, toy_corpus, tmp_path):
        corpus, vocabs, _, _ = toy_corpus
        cfg6 = fast_train_config(max_steps=6)

        straight = small_system(vocabs, seed=9)
        straight_state = train(straight, TrainState(), corpus, cfg6)

        resumed = small_system(vocabs, seed=9)
        cfg3 = dataclasses.replace(cfg6, max_steps=3)
        mid_state = train(resumed, TrainState(), corpus, cfg3)
        path = tmp_path / "mid.ckpt"
        save_checkpoint(resumed, mid_state, path, train_config=cfg3)
        loaded, loaded_state, _ = load_checkpoint(path)
        final_state = train(loaded, loaded_state, corpus, cfg6)

        assert loaded.parameter_hash() == straight.parameter_hash()
        assert final_state.step == straight_state.step == 6
        for name, (m, v) in straight_state.moments.items():
            lm, lv = final_state.moments[name]
            assert np.array_equal(m, lm) and np.array_equal(v, lv)
        tail = [h["loss"] for h in final_state.history]
        assert tail == [h["loss"] for h in straight_state.history[3:]]


class TestDropout:
    def trained(self, vocabs, corpus, dropout, steps=3):
        system = small_system(vocabs, seed=2, dropout=dropout)
        train(system, TrainState(), corpus, fast_train_config(max_steps=steps))
        return system.parameter_hash()

    def test_dropout_changes_training(self, toy_corpus):
        corpus, vocabs, _, _ = toy_corpus
        assert self.trained(vocabs, corpus, 0.5) != self.trained(vocabs, corpus, 0.0)

    def test_same_seed_runs_are_identical(self, toy_corpus):
        corpus, vocabs, _, _ = toy_corpus
        assert self.trained(vocabs, corpus, 0.5) == self.trained(vocabs, corpus, 0.5)

    def test_resume_from_periodic_checkpoint_matches_straight_run(self, toy_corpus, tmp_path):
        corpus, vocabs, _, _ = toy_corpus
        cfg = fast_train_config(max_steps=6)
        path = tmp_path / "step3.ckpt"
        straight = small_system(vocabs, seed=2, dropout=0.5)
        state = TrainState()

        def periodic(report):
            if report["step"] == 3:
                save_checkpoint(straight, state, path, train_config=cfg)

        train(straight, state, corpus, cfg, log_fn=periodic)
        resumed, resumed_state, _ = load_checkpoint(path)
        assert resumed.config.dropout == 0.5 and resumed_state.step == 3
        train(resumed, resumed_state, corpus, cfg)
        assert resumed.parameter_hash() == straight.parameter_hash()


class TestAddLanguage:
    def _third_language_corpus(self, paths, vocabs, models, tmp_path):
        lines_x = paths["train_x"].read_text(encoding="utf-8").splitlines()
        lines_z = toy.renamed_lines(lines_x, prefix="zu")
        path_z = tmp_path / "train.z"
        path_z.write_text("\n".join(lines_z) + "\n", encoding="utf-8")
        bpe_z = D.learn_bpe(lines_z, 160)
        vocab_z = D.build_vocabulary([D.apply_bpe(bpe_z, l) for l in lines_z], 64)
        corpus_xz = D.load_parallel(
            paths["train_x"],
            path_z,
            vocabs["x"],
            vocab_z,
            bpe_x=models["x"],
            bpe_y=bpe_z,
            lang_x="x",
            lang_y="z",
        )
        return corpus_xz, vocab_z

    def test_pretrained_modules_stay_frozen(self, toy_corpus, tmp_path):
        corpus, vocabs, models, paths = toy_corpus
        system = small_system(vocabs)
        cfg = fast_train_config(max_steps=3)
        train(system, TrainState(), corpus, cfg)
        corpus_xz, vocab_z = self._third_language_corpus(paths, vocabs, models, tmp_path)

        anchor_before = snapshot(system)
        new_module = LanguageModule("z", system.config, vocab_size=len(vocab_z), seed=21)
        fresh_before = {k: v.array.copy() for k, v in new_module.params.items()}
        system, state = add_language(system, new_module, corpus_xz, cfg)

        assert "z" in system.languages
        assert state.step == cfg.max_steps
        params = system.named_parameters()
        assert_bit_identical(anchor_before, params)
        moved = [
            k for k, old in fresh_before.items()
            if not np.array_equal(old, params[f"z/{k}"].array)
        ]
        assert moved, "new module never trained"
        assert all(h["l_xx"] >= 0 for h in state.history)

    def test_finetune_all_updates_anchor_too(self, toy_corpus, tmp_path):
        corpus, vocabs, models, paths = toy_corpus
        system = small_system(vocabs)
        cfg = fast_train_config(max_steps=2)
        corpus_xz, vocab_z = self._third_language_corpus(paths, vocabs, models, tmp_path)
        anchor_before = snapshot(system, prefix="x/")
        new_module = LanguageModule("z", system.config, vocab_size=len(vocab_z), seed=21)
        system, _ = add_language(system, new_module, corpus_xz, cfg, finetune_all=True)
        params = system.named_parameters()
        changed = [n for n, old in anchor_before.items() if not np.array_equal(old, params[n].array)]
        assert changed, "anchor should move when finetuning everything"

    def test_warm_start_copies_anchor_stack_but_not_vocab_tables(self, toy_corpus, tmp_path):
        corpus, vocabs, models, paths = toy_corpus
        base = small_system(vocabs)
        train(base, TrainState(), corpus, fast_train_config(max_steps=3))
        corpus_xz, vocab_z = self._third_language_corpus(paths, vocabs, models, tmp_path)
        anchor = {k: t.array.copy() for k, t in base.modules["x"].params.items()}
        vocab_tables = ("emb", "out_proj")

        one = fast_train_config(max_steps=1)
        sys_warm = copy.deepcopy(base)
        sys_cold = copy.deepcopy(base)
        mod_warm = LanguageModule("z", base.config, vocab_size=len(vocab_z), seed=21)
        fresh_emb = mod_warm.params["emb"].array.copy()
        mod_cold = LanguageModule("z", base.config, vocab_size=len(vocab_z), seed=21)
        add_language(sys_warm, mod_warm, corpus_xz, one)
        add_language(sys_cold, mod_cold, corpus_xz, one, warm_start=False)

        # a single optimizer step moves each entry by at most the learning
        # rate, so warm-started weights must still hug the anchor's values
        bound = 1.5 * one.learning_rate
        for name, arr in anchor.items():
            if name in vocab_tables:
                continue
            gap = np.max(np.abs(sys_warm.modules["z"].params[name].array - arr))
            assert gap <= bound, f"{name} strayed {gap:.5f} from the anchor after warm start"
        cold_gaps = [
            np.max(np.abs(sys_cold.modules["z"].params[n].array - anchor[n]))
            for n in anchor
            if n not in vocab_tables
        ]
        assert max(cold_gaps) > 10 * one.learning_rate
        emb_gap = np.max(np.abs(sys_warm.modules["z"].params["emb"].array - fresh_emb))
        assert emb_gap <= bound, "embedding table should keep its fresh initialization"

    def test_duplicate_language_rejected(self, toy_corpus):
        corpus, vocabs, _, _ = toy_corpus
        system = small_system(vocabs)
        clone = LanguageModule("x", system.config, vocab_size=8, seed=0)
        with pytest.raises(ConfigError):
            add_language(system, clone, corpus, fast_train_config())

    def test_corpus_must_pair_anchor_with_new_language(self, toy_corpus):
        corpus, vocabs, _, _ = toy_corpus
        system = small_system(vocabs)
        new_module = LanguageModule("z", system.config, vocab_size=8, seed=0)
        with pytest.raises(CompatibilityError):
            add_language(system, new_module, corpus, fast_train_config())

    def test_width_mismatch_rejected(self, toy_corpus):
        corpus, vocabs, _, _ = toy_corpus
        system = small_system(vocabs)
        narrow = small_model_config(d_model=8, num_heads=1, d_ff=16)
        new_module = LanguageModule("z", narrow, vocab_size=8, seed=0)
        with pytest.raises(CompatibilityError):
            add_language(system, new_module, corpus, fast_train_config())
