"""Tests for the joint training loop, optimizer, and checkpoint container.

Determinism claims here are strict: identical inputs must reproduce
parameters bit for bit, and a run resumed from a checkpoint must land on
exactly the same bytes as the uninterrupted run.
"""

import copy
import dataclasses
import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from conftest import fast_train_config, prepare_toy, small_model_config, small_system, unequal_corpus
from interlingua import data as D
from interlingua import tensor as T
from interlingua import toy
from interlingua import training as TR
from interlingua.exceptions import (
    CheckpointError,
    CompatibilityError,
    ConfigError,
    ContractError,
    DivergenceError,
)
from interlingua.latent import Codebook
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
from interlingua.transformer import BOS_ID, EOS_ID, PAD_ID, LanguageModule, ModelConfig
from oracles import padded_joint_loss, reference_adam_update

# the README toy config and the wide benchmark's medium config
TOY = (
    ModelConfig(num_blocks=2, num_heads=2, d_model=32, max_len=16),
    dict(batch_size=16, distance_mode="corr"),
)
WIDE = (
    ModelConfig(num_blocks=4, num_heads=4, d_model=128, max_len=50),
    dict(batch_size=32, distance_mode="max", quantize=True),
)


def loss_and_grads(loss_fn, system, batch, cfg):
    """The loss, its breakdown (if any) and every parameter's gradient."""
    params = system.named_parameters()
    tape = T.GradTape()
    try:
        for t in params.values():
            tape.watch(t)
        out = loss_fn(batch, system, cfg)
        loss, components = out if isinstance(out, tuple) else (out, {})
        grads = T.backward(loss)
        return loss.item(), components, {name: np.array(grads[t]) for name, t in params.items()}
    finally:
        tape.release()


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
        # the system, not cfg.quantize, decides: no codebook gives no vq term
        loss, c = joint_loss(batch, system, cfg)
        assert "vq" not in c
        assert loss.item() == joint_loss(batch, system, dataclasses.replace(cfg, quantize=False))[0].item()

    def test_unknown_language_rejected(self, toy_corpus):
        corpus, vocabs, _, _ = toy_corpus
        system = small_system(vocabs)
        batch = sample_batch(corpus, 4, 0, 0)
        batch = dataclasses.replace(batch, lang_y="klingon")
        with pytest.raises(CompatibilityError):
            joint_loss(batch, system, fast_train_config())


class TestPackedObjective:
    """joint_loss computes real positions only; the padded composition of
    tests/oracles.py computes them all."""

    @pytest.mark.parametrize("config", ["toy", "wide"])
    @pytest.mark.parametrize("mode", ["corr", "max"])
    def test_matches_padded_composition(self, toy_corpus, config, mode):
        corpus, vocabs, _, _ = toy_corpus
        model, train_kw = {"toy": TOY, "wide": WIDE}[config]
        cfg = fast_train_config(**dict(train_kw, distance_mode=mode, quantize=False))
        system = build_system(model, {lang: len(v) for lang, v in vocabs.items()}, seed=3)
        batch = sample_batch(corpus, cfg.batch_size, cfg.seed, 0)
        assert not (batch.x != PAD_ID).all()  # the batch has padding to skip
        loss, components, grads = loss_and_grads(joint_loss, system, batch, cfg)
        want, _, want_grads = loss_and_grads(padded_joint_loss, system, batch, cfg)
        assert abs(loss - want) < 1e-10
        for name, ref in want_grads.items():
            np.testing.assert_allclose(grads[name], ref, rtol=0, atol=1e-10, err_msg=name)

    @pytest.mark.parametrize("config", ["toy", "wide"])
    @pytest.mark.parametrize("mode", ["corr", "max"])
    def test_unequal_side_widths_match_padded_composition(self, config, mode):
        # each decoder's stacked latent pads the narrower side's mask with
        # masked columns; the padded oracle decodes every pairing on its own
        model, train_kw = {"toy": TOY, "wide": WIDE}[config]
        cfg = fast_train_config(**dict(train_kw, batch_size=6, distance_mode=mode, quantize=False))
        system = build_system(model, {"x": 23, "y": 29}, seed=5)
        lengths = {"x": (3, 9, 2, 6, 4, 7), "y": (5, 2, 14, 6, 8, 3)}
        batch = make_batch(unequal_corpus({"x": 23, "y": 29}, lengths), range(6))
        assert batch.x.shape[1] != batch.y.shape[1]
        assert ((batch.x != PAD_ID).sum(axis=1) != (batch.y != PAD_ID).sum(axis=1)).any()
        loss, components, grads = loss_and_grads(joint_loss, system, batch, cfg)
        want, want_components, want_grads = loss_and_grads(padded_joint_loss, system, batch, cfg)
        assert abs(loss - want) < 1e-10
        for key, value in want_components.items():
            assert abs(components[key] - value) < 1e-10, key
        for name, ref in want_grads.items():
            np.testing.assert_allclose(grads[name], ref, rtol=0, atol=1e-10, err_msg=name)

    def test_one_teacher_forced_pass_per_decoder(self, toy_corpus, monkeypatch):
        corpus, vocabs, _, _ = toy_corpus
        system = small_system(vocabs)
        cfg = fast_train_config()
        batch = sample_batch(corpus, cfg.batch_size, cfg.seed, 0)
        rows = []
        original = TR.decode_teacher_forced

        def spy(module, latent, src_mask, target_in, *args, **kwargs):
            rows.append(len(target_in))
            return original(module, latent, src_mask, target_in, *args, **kwargs)

        monkeypatch.setattr(TR, "decode_teacher_forced", spy)
        joint_loss(batch, system, cfg)
        assert rows == [2 * cfg.batch_size] * 2

    def test_dvq_ignores_an_all_pad_column(self, toy_corpus):
        # the quantizer sees real positions only, so widening the batch by
        # one column of padding changes neither the loss nor any gradient
        corpus, vocabs, _, _ = toy_corpus
        system = build_system(
            small_model_config(), {lang: len(v) for lang, v in vocabs.items()},
            seed=2, quantize_latent=True, vq_tables=2, vq_entries=8,
        )
        cfg = fast_train_config(quantize=True, vq_tables=2, vq_entries=8)
        batch = sample_batch(corpus, cfg.batch_size, cfg.seed, 0)
        column = np.full((batch.x.shape[0], 1), PAD_ID)
        wider = dataclasses.replace(
            batch, x=np.concatenate([batch.x, column], axis=1), y=np.concatenate([batch.y, column], axis=1)
        )
        _, components, grads = loss_and_grads(joint_loss, system, batch, cfg)
        _, wide_components, wide_grads = loss_and_grads(joint_loss, system, wider, cfg)
        assert components.keys() == wide_components.keys()
        for key, value in components.items():
            assert abs(wide_components[key] - value) <= 1e-12, key
        for name, ref in grads.items():
            np.testing.assert_allclose(wide_grads[name], ref, rtol=0, atol=1e-12, err_msg=name)

    # the case ids keep the ceilings set with the pad-free objective (195
    # toy, 300 wide); one pass per decoder, then one node per pre-norm
    # sublayer (58 toy, 94 wide), lowered them to these budgets
    NODE_BUDGET = {"toy": 60, "wide": 100}

    @pytest.mark.parametrize("config, ceiling", [("toy", 195), ("wide", 300)])
    def test_op_nodes_per_step(self, toy_corpus, config, ceiling):
        # tape length minus the watched leaves; deterministic for a config
        corpus, vocabs, _, _ = toy_corpus
        model, train_kw = {"toy": TOY, "wide": WIDE}[config]
        cfg = fast_train_config(**train_kw)
        system = build_system(
            model, {lang: len(v) for lang, v in vocabs.items()}, seed=0, quantize_latent=cfg.quantize
        )
        params = system.named_parameters()
        tape = T.GradTape()
        try:
            for t in params.values():
                tape.watch(t)
            joint_loss(sample_batch(corpus, cfg.batch_size, cfg.seed, 0), system, cfg)
            nodes = len(tape) - len(params)
        finally:
            tape.release()
        budget = self.NODE_BUDGET[config]
        assert budget <= ceiling
        assert nodes <= budget, f"{nodes} op nodes per {config} step, budget {budget}"

    def test_one_relu_call_per_ffn_sublayer(self, toy_corpus, monkeypatch):
        # perfbench's gradient check wraps tensor.relu to record and replay
        # each ReLU gate; a feed-forward node that skipped it would leave the
        # check's central difference crossing ReLU kinks
        corpus, vocabs, _, _ = toy_corpus
        model, train_kw = TOY
        cfg = fast_train_config(**train_kw)
        system = build_system(model, {lang: len(v) for lang, v in vocabs.items()}, seed=0)
        calls = []
        real = T.relu
        monkeypatch.setattr(T, "relu", lambda a: calls.append(1) or real(a))
        joint_loss(sample_batch(corpus, cfg.batch_size, cfg.seed, 0), system, cfg)
        # two encoders and two decoder passes of two blocks each
        assert len(calls) == 4 * model.num_blocks == 8

    @pytest.mark.parametrize("config", ["toy", "wide"])
    @pytest.mark.parametrize("dropout", [0.0, 0.1])
    @pytest.mark.parametrize("trainable", [None, "x"], ids=["all", "y-frozen"])
    def test_sublayer_nodes_match_their_composition(self, toy_corpus, monkeypatch, config, dropout, trainable):
        # each sublayer node against the layer_norm, attention or
        # linear/relu/linear, dropout and add nodes it replaces: the node
        # keeps their arithmetic, so loss and gradients agree bit for bit;
        # with module y frozen its parameters are constants, so some nodes
        # have constant parents (a cross-attention whose only taped input
        # is the latent, from x's encoder)
        corpus, vocabs, _, _ = toy_corpus
        model, train_kw = {"toy": TOY, "wide": WIDE}[config]
        model = dataclasses.replace(model, dropout=dropout)
        cfg = fast_train_config(**{**train_kw, "batch_size": 8})
        batch = sample_batch(corpus, cfg.batch_size, cfg.seed, 0)
        sizes = {lang: len(v) for lang, v in vocabs.items()}

        def composed_attention(x, kv, q_mask, kv_mask, bias, norm, weights, num_heads, eps, rate, rng):
            h = T.layer_norm(x, *norm, eps=eps)
            out = T.attention(h, h if kv is None else kv, q_mask, kv_mask, bias, weights, num_heads)
            return T.add(x, T.dropout(out, rate, rng) if rng is not None else out)

        def composed_ffn(x, norm, weights, eps, rate, rng):
            w1, b1, w2, b2 = weights
            out = T.linear(T.relu(T.linear(T.layer_norm(x, *norm, eps=eps), w1, b1)), w2, b2)
            return T.add(x, T.dropout(out, rate, rng) if rng is not None else out)

        runs = []
        for composed in (False, True):
            if composed:
                monkeypatch.setattr(T, "attention_sublayer", composed_attention)
                monkeypatch.setattr(T, "ffn_sublayer", composed_ffn)
            system = build_system(model, sizes, seed=0, quantize_latent=cfg.quantize)
            params = {
                name: t for name, t in system.named_parameters().items()
                if trainable is None or name.startswith(trainable + "/")
            }
            tape = T.GradTape()
            try:
                for t in params.values():
                    tape.watch(t)
                rng = np.random.default_rng(5) if dropout else None
                loss, _ = joint_loss(batch, system, cfg, rng)
                grads = T.backward(loss)
                runs.append((loss.item(), {name: np.array(grads[t]) for name, t in params.items()}))
            finally:
                tape.release()
        (loss, grads), (want_loss, want_grads) = runs
        assert loss == want_loss
        assert grads.keys() == want_grads.keys()
        for name, want in want_grads.items():
            np.testing.assert_array_equal(grads[name], want, err_msg=name)

    def test_step_tape_dies_with_the_step(self, toy_corpus, monkeypatch):
        # with the cyclic collector off, a grad closure that kept a Tensor
        # (tape -> closure -> Tensor -> tape) would keep the tape alive
        corpus, vocabs, _, _ = toy_corpus
        tapes = []

        class RecordedTape(T.GradTape):
            def __init__(self):
                super().__init__()
                tapes.append(weakref.ref(self))

        monkeypatch.setattr(TR, "GradTape", RecordedTape)
        system = build_system(
            small_model_config(), {lang: len(v) for lang, v in vocabs.items()},
            seed=0, quantize_latent=True, vq_tables=2, vq_entries=8,
        )
        cfg = fast_train_config(quantize=True, vq_tables=2, vq_entries=8, distance_mode="max")
        batch = sample_batch(corpus, cfg.batch_size, cfg.seed, 0)
        gc.collect()
        gc.disable()
        try:
            train_step(TrainState(), system, batch, cfg)
            assert len(tapes) == 1
            assert tapes[0]() is None, "the step's tape outlived train_step"
        finally:
            gc.enable()


    def test_one_row_index_per_mask_of_a_pass(self, toy_corpus, monkeypatch):
        # each encode derives its mask's scatter indices once, and each
        # decoder pass those of its target and source masks; every sublayer
        # and every backward of the pass reuses them
        corpus, vocabs, _, _ = toy_corpus
        model, train_kw = TOY
        cfg = fast_train_config(**train_kw)
        system = build_system(model, {lang: len(v) for lang, v in vocabs.items()}, seed=0)
        derived = []
        real = T.row_index
        monkeypatch.setattr(T, "row_index", lambda mask: derived.append(1) or real(mask))
        tape = T.GradTape()
        try:
            for t in system.named_parameters().values():
                tape.watch(t)
            loss, _ = joint_loss(sample_batch(corpus, cfg.batch_size, cfg.seed, 0), system, cfg)
            T.backward(loss)
        finally:
            tape.release()
        # two encodes, then two decoder passes of two masks each
        assert len(derived) == 2 + 2 * 2 == 6

    # bytes allocated between the start of joint_loss and the start of
    # backward in a steady wide step (the toy corpus's 16 pairs, DVQ, max
    # distance): 40.4 MB when each pre-norm sublayer node held its layer
    # norm's output, 33.1 MB once its backward rebuilt that output, and
    # 20.6 MB (20,583,402) since each attention node also projects its
    # q/k/v rows again instead of holding them
    ACTIVATION_BUDGET = 23_000_000

    def test_activations_held_for_backward(self, toy_corpus, monkeypatch):
        corpus, vocabs, _, _ = toy_corpus
        model, train_kw = WIDE
        cfg = fast_train_config(**train_kw)
        system = build_system(
            model, {lang: len(v) for lang, v in vocabs.items()}, seed=0, quantize_latent=cfg.quantize
        )
        state = TrainState()
        # the first step allocates Adam's buffers, which a steady step reuses
        train_step(state, system, sample_batch(corpus, cfg.batch_size, cfg.seed, 0), cfg)
        held = []
        real_loss, real_backward = TR.joint_loss, TR.backward

        def joint_loss_spy(*args):
            held.append(-tracemalloc.get_traced_memory()[0])
            return real_loss(*args)

        def backward_spy(loss, out=None):
            held[-1] += tracemalloc.get_traced_memory()[0]
            return real_backward(loss, out)

        monkeypatch.setattr(TR, "joint_loss", joint_loss_spy)
        monkeypatch.setattr(TR, "backward", backward_spy)
        tracemalloc.start()
        try:
            train_step(state, system, sample_batch(corpus, cfg.batch_size, cfg.seed, 1), cfg)
        finally:
            tracemalloc.stop()
        assert len(held) == 1
        assert held[0] <= self.ACTIVATION_BUDGET, f"{held[0]} bytes held for backward"


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
        frozen_before = snapshot(system, prefix="y/")
        live_before = snapshot(system, prefix="x/")
        batch = sample_batch(corpus, cfg.batch_size, cfg.seed, 0)
        train_step(TrainState(), system, batch, cfg, trainable={"x"})
        params = system.named_parameters()
        assert_bit_identical(frozen_before, params)
        changed = [n for n, old in live_before.items() if not np.array_equal(old, params[n].array)]
        assert changed, "no trainable parameter moved"

    def test_linear_matches_matmul_plus_bias_at_wide_config(self, toy_corpus, monkeypatch):
        # the medium width (d_model 128, 4 blocks, DVQ, max distance), then
        # again with every linear layer run as the matmul + add it replaced:
        # the gradients, and the parameters after one train step, must agree
        corpus, vocabs, _, _ = toy_corpus
        config = ModelConfig(num_blocks=4, num_heads=4, d_model=128, max_len=50)
        cfg = fast_train_config(batch_size=32, distance_mode="max", quantize=True)
        batch = sample_batch(corpus, cfg.batch_size, cfg.seed, 0)
        sizes = {lang: len(v) for lang, v in vocabs.items()}
        runs = []
        for composed in (False, True):
            if composed:
                monkeypatch.setattr(
                    T, "linear", lambda x, w, b=None: T.matmul(x, w) if b is None else T.add(T.matmul(x, w), b)
                )
            system = build_system(
                config, sizes, seed=0, quantize_latent=True, vq_tables=cfg.vq_tables, vq_entries=cfg.vq_entries
            )
            params = system.named_parameters()
            tape = T.GradTape()
            for t in params.values():
                tape.watch(t)
            grads = T.backward(joint_loss(batch, system, cfg)[0])
            grads = {name: grads[t] for name, t in params.items()}
            tape.release()
            train_step(TrainState(), system, batch, cfg)
            runs.append((grads, snapshot(system)))
        (fast_grads, fast), (slow_grads, slow) = runs
        for name, want in slow.items():
            if name.endswith(".bk"):
                # softmax cancels key biases: their gradient is rounding
                # noise, which Adam's first step scales up to a tiny update
                assert np.abs(fast_grads[name]).max() < 1e-12 and np.abs(slow_grads[name]).max() < 1e-12
                assert np.abs(fast[name]).max() < 1e-8 and np.abs(want).max() < 1e-8, name
                continue
            for got, ref in ((fast_grads[name], slow_grads[name]), (fast[name], want)):
                err = np.abs(got - ref).max() / np.abs(ref).max()
                assert err < 1e-9, f"{name}: relative difference {err:.2e}"

    def test_adam_moments_share_one_buffer(self, toy_corpus):
        corpus, vocabs, _, _ = toy_corpus
        system = small_system(vocabs)
        cfg = fast_train_config()
        state = TrainState()
        train_step(state, system, sample_batch(corpus, cfg.batch_size, cfg.seed, 0), cfg)
        arrays = [a for pair in state.moments.values() for a in pair]
        assert all(a.base is not None for a in arrays)
        assert len({id(a.base) for a in arrays}) == 1
        for name, (m, v) in state.moments.items():
            assert m.shape == v.shape == system.named_parameters()[name].shape

    def test_unknown_trainable_name_rejected(self, toy_corpus):
        corpus, vocabs, _, _ = toy_corpus
        system = small_system(vocabs)
        batch = sample_batch(corpus, 8, 0, 0)
        with pytest.raises(ConfigError):
            train_step(TrainState(), system, batch, fast_train_config(), trainable={"x", "nope"})

    def test_parameters_outside_one_buffer_rejected(self, toy_corpus):
        # Adam updates each trained part as one flat buffer; a codebook
        # built from separate arrays has none
        corpus, vocabs, _, _ = toy_corpus
        system = small_system(vocabs)
        tables = [T.Tensor(np.zeros((8, 8))) for _ in range(2)]
        system.codebook = Codebook(tables=tables, n_tables=2, entries=8, sub_dim=8)
        with pytest.raises(ContractError):
            train_step(TrainState(), system, sample_batch(corpus, 8, 0, 0), fast_train_config())

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
        system.vocab_hashes = hashes
        path = tmp_path / "model.ckpt"
        save_checkpoint(system, state, path, train_config=cfg)

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
        system.vocab_hashes = {lang: v.content_hash() for lang, v in vocabs.items()}
        first = tmp_path / "a.ckpt"
        second = tmp_path / "b.ckpt"
        save_checkpoint(system, state, first, train_config=cfg)
        loaded, loaded_state, loaded_cfg = load_checkpoint(first)
        save_checkpoint(loaded, loaded_state, second, train_config=loaded_cfg)
        assert first.read_bytes() == second.read_bytes()

    def test_failed_save_keeps_the_previous_file(self, toy_corpus, tmp_path):
        corpus, vocabs, _, _ = toy_corpus
        system = small_system(vocabs)
        state = train(system, TrainState(), corpus, fast_train_config(max_steps=1))
        saves = tmp_path / "saves"
        saves.mkdir()
        ckpt, binary = saves / "model.ckpt", saves / "corpus.bin"
        save_checkpoint(system, state, ckpt)
        D.save_corpus(corpus, binary)
        before = {path: path.read_bytes() for path in (ckpt, binary)}

        class Unwritable:
            """Sized for the header; fails when its bytes are due."""

            shape = (1,)

            def __len__(self):
                return 1

            def __array__(self, *args, **kwargs):
                raise OSError("disk full")

        # the last arrays of each file, so the failure comes partway through
        state.moments[next(iter(state.moments))] = (Unwritable(), Unwritable())
        lang_y = corpus.languages[1]
        damaged = D.ParallelCorpus(
            corpus.languages, {**corpus.sequences, lang_y: [Unwritable()]}, corpus.provenance
        )
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(system, state, ckpt)
        with pytest.raises(OSError, match="disk full"):
            D.save_corpus(damaged, binary)
        assert {path: path.read_bytes() for path in (ckpt, binary)} == before
        assert sorted(p.name for p in saves.iterdir()) == ["corpus.bin", "model.ckpt"]

    def test_vocabulary_hash_mismatch_is_rejected(self, toy_corpus, tmp_path):
        corpus, vocabs, _, _ = toy_corpus
        system = small_system(vocabs)
        hashes = {lang: v.content_hash() for lang, v in vocabs.items()}
        system.vocab_hashes = hashes
        path = tmp_path / "model.ckpt"
        save_checkpoint(system, TrainState(), path)
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

    def test_load_builds_from_stored_arrays_without_random_init(self, toy_corpus, tmp_path, monkeypatch):
        corpus, vocabs, _, _ = toy_corpus
        system = build_system(
            small_model_config(), {lang: len(v) for lang, v in vocabs.items()},
            seed=1, quantize_latent=True, vq_tables=2, vq_entries=8,
        )
        first, second = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(system, TrainState(), first)

        def no_draws(*args):
            raise AssertionError("load_checkpoint drew a random init")

        monkeypatch.setattr("interlingua.transformer.derive_rng", no_draws)
        monkeypatch.setattr("interlingua.latent.derive_rng", no_draws)
        loaded, state, _ = load_checkpoint(first)
        assert loaded.parameter_hash() == system.parameter_hash()
        save_checkpoint(loaded, state, second)
        assert first.read_bytes() == second.read_bytes()

    def test_arrays_outside_the_layout_are_ignored(self, toy_corpus, tmp_path, monkeypatch):
        # a layout without the key biases still loads a file that stores
        # them, with their Adam moments, and keeps every other array
        corpus, vocabs, _, _ = toy_corpus
        system = small_system(vocabs)
        state = train(system, TrainState(), corpus, fast_train_config(max_steps=1))
        path = tmp_path / "model.ckpt"
        save_checkpoint(system, state, path)
        full_layout = LanguageModule._layout
        monkeypatch.setattr(
            LanguageModule, "_layout", lambda self: [e for e in full_layout(self) if not e[0].endswith(".bk")]
        )
        loaded, loaded_state, _ = load_checkpoint(path)
        params = system.named_parameters()
        kept = {name for name in params if not name.endswith(".bk")}
        assert set(loaded.named_parameters()) == kept and len(kept) < len(params)
        assert set(loaded_state.moments) == kept
        for name, t in loaded.named_parameters().items():
            assert np.array_equal(t.array, params[name].array), name
            for got, want in zip(loaded_state.moments[name], state.moments[name]):
                assert np.array_equal(got, want), name

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


def train_to(system, state, corpus, cfg, stop, trainable=None, update=None):
    """Train from the state's step up to ``stop``; ``update``, when given,
    stands in for ``training._adam_update``."""
    with pytest.MonkeyPatch.context() as mp:
        if update is not None:
            mp.setattr(TR, "_adam_update", update)
        train(system, state, corpus, dataclasses.replace(cfg, max_steps=stop), trainable=trainable)


def assert_same_training(run, reference):
    (system, state), (ref_system, ref_state) = run, reference
    assert_bit_identical(snapshot(ref_system), system.named_parameters())
    assert state.moments.keys() == ref_state.moments.keys()
    for name, (m, v) in ref_state.moments.items():
        got_m, got_v = state.moments[name]
        assert np.array_equal(got_m, m) and np.array_equal(got_v, v), f"moments differ for {name}"


class TestWholeBufferAdam:
    """The chunked whole-buffer Adam step against the per-array reference:
    parameters and moments must agree bit for bit after several steps."""

    def systems(self, vocabs, config, cfg, seed=3):
        sizes = {lang: len(v) for lang, v in vocabs.items()}
        return [
            build_system(
                config, sizes, seed=seed, quantize_latent=cfg.quantize,
                vq_tables=cfg.vq_tables, vq_entries=cfg.vq_entries,
            )
            for _ in range(2)
        ]

    @pytest.mark.parametrize("config, train_kw", [TOY, WIDE], ids=["toy", "wide"])
    def test_matches_per_array_adam(self, toy_corpus, config, train_kw):
        corpus, vocabs, _, _ = toy_corpus
        cfg = fast_train_config(**train_kw)
        system, ref_system = self.systems(vocabs, config, cfg)
        state, ref_state = TrainState(), TrainState()
        train_to(system, state, corpus, cfg, 3)
        train_to(ref_system, ref_state, corpus, cfg, 3, update=reference_adam_update)
        assert_same_training((system, state), (ref_system, ref_state))

    def test_trainable_subset(self, toy_corpus):
        # one module of a quantized system trains; the other module and
        # the codebook stay frozen
        corpus, vocabs, _, _ = toy_corpus
        cfg = fast_train_config(**TOY[1], quantize=True, vq_tables=2, vq_entries=8)
        system, ref_system = self.systems(vocabs, TOY[0], cfg)
        frozen = {n: a for n, a in snapshot(system).items() if not n.startswith("y/")}
        assert any(n.startswith("codebook/") for n in frozen)
        state, ref_state = TrainState(), TrainState()
        train_to(system, state, corpus, cfg, 3, {"y"})
        train_to(ref_system, ref_state, corpus, cfg, 3, {"y"}, update=reference_adam_update)
        assert_bit_identical(frozen, system.named_parameters())
        assert set(state.moments) == {n for n in system.named_parameters() if n.startswith("y/")}
        assert_same_training((system, state), (ref_system, ref_state))

    def test_resume_matches_uninterrupted_reference(self, toy_corpus, tmp_path):
        corpus, vocabs, _, _ = toy_corpus
        cfg = fast_train_config(**TOY[1])
        system, ref_system = self.systems(vocabs, TOY[0], cfg)
        ref_state = TrainState()
        train_to(ref_system, ref_state, corpus, cfg, 6, update=reference_adam_update)
        state = TrainState()
        train_to(system, state, corpus, cfg, 3)
        save_checkpoint(system, state, tmp_path / "mid.ckpt", train_config=cfg)
        resumed, resumed_state, _ = load_checkpoint(tmp_path / "mid.ckpt")
        train_to(resumed, resumed_state, corpus, cfg, 6)
        assert_same_training((resumed, resumed_state), (ref_system, ref_state))


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

    def test_parameters_are_views_of_one_buffer_per_module(self, toy_corpus, tmp_path):
        def assert_one_buffer(tensors):
            arrays = [t.array for t in tensors]
            buffer = arrays[0].base
            assert buffer is not None and buffer.ndim == 1
            assert buffer.size == sum(a.size for a in arrays)
            offset = 0
            for a in arrays:
                assert a.base is buffer and a.flags.writeable
                assert a.__array_interface__["data"][0] == buffer.__array_interface__["data"][0] + 8 * offset
                offset += a.size

        def assert_storage(system):
            for module in system.modules.values():
                assert list(module.params) == [name for name, _, _ in module._layout()]
                assert_one_buffer(module.params.values())
            assert_one_buffer(system.codebook.tables)

        corpus, vocabs, models, paths = toy_corpus
        system = build_system(
            small_model_config(), {lang: len(v) for lang, v in vocabs.items()},
            seed=1, quantize_latent=True, vq_tables=2, vq_entries=8,
        )
        assert_storage(system)
        copied = copy.deepcopy(system)
        assert_storage(copied)
        assert copied.parameter_hash() == system.parameter_hash()
        cfg = fast_train_config(max_steps=2, quantize=True, vq_tables=2, vq_entries=8)
        state = train(system, TrainState(), corpus, cfg)
        save_checkpoint(system, state, tmp_path / "model.ckpt")
        loaded, _, _ = load_checkpoint(tmp_path / "model.ckpt")
        assert_storage(loaded)
        corpus_xz, vocab_z = self._third_language_corpus(paths, vocabs, models, tmp_path)
        new_module = LanguageModule("z", loaded.config, vocab_size=len(vocab_z), seed=21)
        extended, _ = add_language(loaded, new_module, corpus_xz, cfg)
        assert_storage(extended)

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
