"""Language modules: config checks, masking, causality, decoding, gradients."""

import numpy as np
import pytest

from interlingua import tensor as T
from interlingua import transformer as M
from interlingua.exceptions import (
    CompatibilityError,
    ConfigError,
    ContractError,
    DegenerateBatchError,
    LengthError,
)
from interlingua.latent import stack_latents
from oracles import (
    assert_grad_close,
    finite_difference,
    padded_decode_teacher_forced,
    padded_encode,
    reference_greedy_decode,
    unpacked,
)


def tiny_config(**kw):
    base = dict(num_blocks=1, num_heads=1, d_model=4, d_ff=8, vocab_size=6, max_len=8)
    base.update(kw)
    return M.ModelConfig(**base)


class TestModelConfig:
    def test_defaults_resolve(self):
        cfg = M.ModelConfig()
        assert cfg.d_ff == 4 * cfg.d_model
        assert (cfg.num_blocks, cfg.num_heads, cfg.d_model) == (2, 2, 32)

    def test_heads_must_divide_width(self):
        with pytest.raises(ConfigError):
            M.ModelConfig(d_model=32, num_heads=3)

    def test_odd_width_rejected(self):
        with pytest.raises(ConfigError):
            M.ModelConfig(d_model=33, num_heads=1)

    def test_dropout_range(self):
        with pytest.raises(ConfigError):
            M.ModelConfig(dropout=1.0)

    def test_vocab_must_exceed_reserved(self):
        with pytest.raises(ConfigError):
            M.ModelConfig(vocab_size=4)


class TestPositionalEncoding:
    def test_first_row_alternates_zero_one(self):
        pe = M.positional_encoding(5, 8).array
        np.testing.assert_allclose(pe[0], [0, 1] * 4, atol=1e-15)

    def test_bounded_and_shaped(self):
        pe = M.positional_encoding(50, 32).array
        assert pe.shape == (50, 32)
        assert np.all(np.abs(pe) <= 1.0)

    def test_positions_are_distinguishable(self):
        pe = M.positional_encoding(50, 32).array
        for i in range(49):
            assert np.linalg.norm(pe[i] - pe[i + 1]) > 1e-3

    def test_odd_width_rejected(self):
        with pytest.raises(ConfigError):
            M.positional_encoding(10, 5)


class TestLanguageModule:
    def test_same_seed_same_parameters(self):
        a = M.LanguageModule("x", tiny_config(), seed=5)
        b = M.LanguageModule("x", tiny_config(), seed=5)
        assert a.params.keys() == b.params.keys()
        for k in a.params:
            assert np.array_equal(a.params[k].array, b.params[k].array)

    def test_language_tag_changes_parameters(self):
        a = M.LanguageModule("x", tiny_config(), seed=5)
        b = M.LanguageModule("y", tiny_config(), seed=5)
        assert not np.array_equal(a.params["emb"].array, b.params["emb"].array)

    def test_vocab_override(self):
        m = M.LanguageModule("x", tiny_config(), vocab_size=11, seed=0)
        assert m.params["emb"].shape == (11, 4)
        assert m.params["out_proj"].shape == (4, 11)

    def test_empty_language_rejected(self):
        with pytest.raises(ConfigError):
            M.LanguageModule("", tiny_config())


class TestEncode:
    def test_output_shape(self):
        # one row per real position, in row-major order of the pad mask
        m = M.LanguageModule("x", tiny_config(), seed=1)
        tokens = np.array([[4, 5, M.EOS_ID], [4, M.EOS_ID, M.PAD_ID]])
        out = M.encode(m, tokens)
        assert out.shape == (5, 4)

    def test_pad_extension_leaves_real_positions_unchanged(self):
        m = M.LanguageModule("x", tiny_config(max_len=10), seed=2)
        tokens = np.array([[4, 5, M.EOS_ID], [5, M.EOS_ID, M.PAD_ID]])
        wider = np.concatenate([tokens, np.zeros((2, 3), dtype=int)], axis=1)
        a = M.encode(m, tokens).array
        b = M.encode(m, wider).array
        np.testing.assert_array_equal(b, a)

    def test_pad_rows_cannot_leak_across_batch(self):
        m = M.LanguageModule("x", tiny_config(), seed=3)
        t1 = np.array([[4, 5, M.EOS_ID]])
        t2 = np.array([[4, 5, M.EOS_ID], [5, 5, M.EOS_ID]])
        a = M.encode(m, t1).array
        b = M.encode(m, t2).array
        np.testing.assert_allclose(b[:3], a, atol=1e-12)

    def test_length_cap(self):
        m = M.LanguageModule("x", tiny_config(max_len=4), seed=0)
        with pytest.raises(LengthError):
            M.encode(m, np.full((1, 5), 4))

    def test_id_range_checked(self):
        m = M.LanguageModule("x", tiny_config(), seed=0)
        with pytest.raises(ContractError):
            M.encode(m, np.array([[4, 9]]))

    def test_float_tokens_rejected(self):
        m = M.LanguageModule("x", tiny_config(), seed=0)
        with pytest.raises(ContractError):
            M.encode(m, np.array([[4.0, 5.0]]))

    def test_all_pad_batch_rejected_but_all_pad_row_adds_no_rows(self):
        m = M.LanguageModule("x", tiny_config(), seed=0)
        with pytest.raises(DegenerateBatchError):
            M.encode(m, np.zeros((2, 3), dtype=np.int64))
        alone = M.encode(m, np.array([[4, M.EOS_ID, 0]])).array
        out = M.encode(m, np.array([[4, M.EOS_ID, 0], [0, 0, 0]])).array
        np.testing.assert_array_equal(out, alone)

    def test_deterministic(self):
        m = M.LanguageModule("x", tiny_config(), seed=4)
        tokens = np.array([[4, 5, M.EOS_ID]])
        assert np.array_equal(M.encode(m, tokens).array, M.encode(m, tokens).array)


class TestDecodeTeacherForced:
    def setup_method(self):
        self.mx = M.LanguageModule("x", tiny_config(), seed=5)
        self.my = M.LanguageModule("y", tiny_config(), seed=6)
        self.src = np.array([[4, 5, M.EOS_ID], [5, M.EOS_ID, M.PAD_ID]])
        self.latent = M.encode(self.mx, self.src)
        self.mask = M.pad_mask(self.src)

    def test_logit_shape(self):
        tgt = np.array([[M.BOS_ID, 4, 5], [M.BOS_ID, 5, M.PAD_ID]])
        out = M.decode_teacher_forced(self.my, self.latent, self.mask, tgt)
        assert out.shape == (2, 3, self.my.vocab_size)

    def test_causality_is_exact(self):
        tgt = np.array([[M.BOS_ID, 4, 5, 4]])
        latent = M.encode(self.mx, self.src[:1])
        a = M.decode_teacher_forced(self.my, latent, self.mask[:1], tgt).array
        changed = tgt.copy()
        changed[0, 3] = 5
        b = M.decode_teacher_forced(self.my, latent, self.mask[:1], changed).array
        assert np.array_equal(a[:, :3, :], b[:, :3, :])
        assert not np.array_equal(a[:, 3, :], b[:, 3, :])

    def test_any_encoder_feeds_any_decoder(self):
        # same width: decoder y accepts encoder x states and vice versa
        tgt = np.array([[M.BOS_ID, 4, 5], [M.BOS_ID, 5, M.PAD_ID]])
        out_xy = M.decode_teacher_forced(self.my, self.latent, self.mask, tgt)
        out_xx = M.decode_teacher_forced(self.mx, self.latent, self.mask, tgt)
        assert out_xy.shape == out_xx.shape
        assert not np.array_equal(out_xy.array, out_xx.array)

    def test_width_mismatch_rejected(self):
        wide = M.LanguageModule("z", tiny_config(d_model=8, num_heads=2), seed=7)
        tgt = np.array([[M.BOS_ID, 4]])
        with pytest.raises(CompatibilityError):
            M.decode_teacher_forced(wide, self.latent, self.mask, tgt[:2])

    def test_mask_must_cover_latent(self):
        tgt = np.array([[M.BOS_ID, 4], [M.BOS_ID, 5]])
        with pytest.raises(CompatibilityError):
            M.decode_teacher_forced(self.my, self.latent, self.mask[:, :2], tgt)

    def test_batch_mismatch_rejected(self):
        tgt = np.array([[M.BOS_ID, 4]])
        with pytest.raises(CompatibilityError):
            M.decode_teacher_forced(self.my, self.latent, self.mask, tgt)

    def test_source_pad_positions_carry_no_information(self):
        # the latent holds no row for a source pad position: widening the
        # source mask by pad columns leaves every logit bit-identical
        tgt = np.array([[M.BOS_ID, 4, 5], [M.BOS_ID, 5, M.PAD_ID]])
        base = M.decode_teacher_forced(self.my, self.latent, self.mask, tgt).array
        wider = np.concatenate([self.mask, np.zeros((2, 4), dtype=bool)], axis=1)
        out = M.decode_teacher_forced(self.my, self.latent, wider, tgt).array
        np.testing.assert_array_equal(out, base)


class TestGreedyDecode:
    def setup_method(self):
        self.m = M.LanguageModule("x", tiny_config(), seed=8)
        src = np.array([[4, 5, M.EOS_ID], [5, M.EOS_ID, M.PAD_ID]])
        self.latent = M.encode(self.m, src)
        self.mask = M.pad_mask(src)

    def test_never_emits_pad_or_bos(self):
        # rig the projection so pad and bos would win without masking
        self.m.params["out_proj"].array[:, M.PAD_ID] = 100.0
        self.m.params["out_proj"].array[:, M.BOS_ID] = 90.0
        outs = M.greedy_decode(self.m, self.latent, self.mask, max_steps=5)
        for row in outs:
            assert M.PAD_ID not in row and M.BOS_ID not in row

    def test_stops_at_eos_with_lowest_id_tie_break(self):
        # all-zero projection ties every logit; pad and bos are masked, so
        # the lowest remaining id (eos) wins and each row stops immediately
        self.m.params["out_proj"].array[:] = 0.0
        outs = M.greedy_decode(self.m, self.latent, self.mask, max_steps=5)
        assert outs == [[M.EOS_ID], [M.EOS_ID]]

    def test_row_budget_is_max_steps(self):
        self.m.params["out_proj"].array[:, M.EOS_ID] = -100.0
        outs = M.greedy_decode(self.m, self.latent, self.mask, max_steps=4)
        assert all(len(row) == 4 for row in outs)
        assert all(M.EOS_ID not in row for row in outs)

    def test_deterministic(self):
        a = M.greedy_decode(self.m, self.latent, self.mask, max_steps=6)
        b = M.greedy_decode(self.m, self.latent, self.mask, max_steps=6)
        assert a == b

    def test_rows_decode_independently(self):
        a = M.greedy_decode(self.m, self.latent, self.mask, max_steps=6)
        first = self.latent.array[: self.mask[0].sum()]  # row 0's rows come first
        single = M.greedy_decode(self.m, first, self.mask[:1], max_steps=6)
        assert single[0] == a[0]

    def test_max_steps_validated(self):
        with pytest.raises(ContractError):
            M.greedy_decode(self.m, self.latent, self.mask, max_steps=0)
        with pytest.raises(LengthError):
            M.greedy_decode(self.m, self.latent, self.mask, max_steps=99)


def untrained_pair(seed, batch=12, vocab=16, **widths):
    """Encoder x, decoder y and a random source batch of mixed lengths.

    At vocab 16 the untrained decoders stop rows at many different steps,
    so the working batch of the cached decoder shrinks as it runs.
    ``widths`` override the toy widths of the model config.
    """
    cfg = M.ModelConfig(**{**dict(num_blocks=2, num_heads=2, d_model=32, vocab_size=vocab, max_len=50), **widths})
    mx = M.LanguageModule("x", cfg, seed=seed)
    my = M.LanguageModule("y", cfg, seed=seed)
    rng = np.random.default_rng(seed)
    lengths = rng.integers(2, 30, size=batch)
    src = np.zeros((batch, lengths.max()), dtype=np.int64)
    for b, n in enumerate(lengths):
        src[b, : n - 1] = rng.integers(4, vocab, size=n - 1)
        src[b, n - 1] = M.EOS_ID
    return my, M.encode(mx, src), M.pad_mask(src)


class TestCachedDecodeAgainstOracle:
    @pytest.mark.parametrize("seed", range(4))
    def test_tokens_match_quadratic_reference(self, seed):
        my, latent, mask = untrained_pair(seed)
        outs = M.greedy_decode(my, latent, mask, max_steps=50)
        assert len({len(row) for row in outs}) > 1  # rows stop at different steps
        assert outs == reference_greedy_decode(my, unpacked(latent, mask), mask, 50)

    @pytest.mark.parametrize("seed", [2, 5])
    def test_tokens_match_quadratic_reference_at_wide_widths(self, seed):
        # four heads of width 32: a wrong head split or merge cannot hide
        # behind the two-head toy widths; at vocab 8 these seeds stop some
        # rows early and run others to max_len
        my, latent, mask = untrained_pair(seed, batch=8, vocab=8, num_blocks=4, num_heads=4, d_model=128)
        outs = M.greedy_decode(my, latent, mask, max_steps=50)
        assert len({len(row) for row in outs}) > 1  # rows stop at different steps
        assert outs == reference_greedy_decode(my, unpacked(latent, mask), mask, 50)

    def test_step_logits_match_teacher_forcing(self, monkeypatch):
        my, latent, mask = untrained_pair(2)
        steps = []
        original = M._greedy_step

        def spy(*args, **kwargs):
            logits = original(*args, **kwargs)
            steps.append(logits.copy())
            return logits

        monkeypatch.setattr(M, "_greedy_step", spy)
        outs = M.greedy_decode(my, latent, mask, max_steps=50)
        monkeypatch.undo()
        assert len(steps) == max(len(row) for row in outs)
        padded = unpacked(latent, mask)
        for b, row in enumerate(outs):
            prefix = np.array([[M.BOS_ID] + row[:-1]])
            own = mask[b : b + 1]
            forced = M.decode_teacher_forced(my, padded[b : b + 1][own], own, prefix).array[0]
            for t in range(len(row)):
                # working rows keep their original order and leave after emitting eos
                live = [r for r in range(len(outs)) if len(outs[r]) > t]
                np.testing.assert_allclose(steps[t][live.index(b)], forced[t], rtol=0, atol=1e-10)

    @pytest.mark.parametrize("seed", [0, 2, 5, 7])
    def test_dvq_system_through_decode_corpus_side(self, tmp_path, seed):
        from conftest import prepare_toy, small_model_config
        from interlingua import evaluation as E
        from interlingua.training import build_system, make_batch

        corpus, vocabs, _, _ = prepare_toy(tmp_path, n_train=12)
        sizes = {lang: len(v) for lang, v in vocabs.items()}
        system = build_system(
            small_model_config(num_blocks=2, d_model=32, max_len=50),
            sizes, seed=seed, quantize_latent=True, vq_tables=2, vq_entries=8,
        )
        batch = make_batch(corpus, range(len(corpus)))
        rows, mask = E._encode_for_decoding(system, "x", batch.x)
        want = reference_greedy_decode(system.modules["y"], unpacked(rows, mask), mask, 50)
        assert len({len(row) for row in want}) > 1
        got = E.decode_corpus_side(system, "y", "x", batch.x, vocabs["y"])
        assert got == [vocabs["y"].decode(ids) for ids in want]

    def test_all_masked_columns_change_nothing(self, monkeypatch):
        # a stacked latent pads the narrower side's mask to the wider side's
        # width; the padded columns must get zero weight
        my, latent, mask = untrained_pair(3)
        b, width = mask.shape
        partner_mask = np.ones((b, width + 5), dtype=bool)
        partner = (np.random.default_rng(0).normal(size=(int(partner_mask.sum()), 32)), partner_mask)
        rows, stacked_mask = stack_latents((latent, mask), partner)
        widened, widened_mask = rows.array[: latent.shape[0]], stacked_mask[:b]
        assert widened_mask.shape == (b, width + 5) and not widened_mask[:, width:].any()
        runs = []
        original = M._greedy_step

        def spy(*args, **kwargs):
            logits = original(*args, **kwargs)
            runs[-1].append(logits.copy())
            return logits

        monkeypatch.setattr(M, "_greedy_step", spy)
        outs = []
        for la, ma in ((latent, mask), (widened, widened_mask)):
            runs.append([])
            outs.append(M.greedy_decode(my, la, ma, max_steps=50))
        assert len({len(row) for row in outs[0]}) > 1  # rows stop at different steps
        assert outs[1] == outs[0]
        # one recorded step per emitted position, each holding the rows still working
        longest = max(len(row) for row in outs[0])
        assert len(runs[0]) == len(runs[1]) == longest
        assert [len(r) for r in runs[0]] == [sum(len(row) > t for row in outs[0]) for t in range(longest)]
        for got, want in zip(runs[1], runs[0]):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)

    def test_latent_checks(self):
        my, latent, mask = untrained_pair(0, batch=2)
        wide = M.LanguageModule("z", M.ModelConfig(d_model=8, num_heads=2, vocab_size=16, max_len=50), seed=0)
        with pytest.raises(CompatibilityError):
            M.greedy_decode(wide, latent, mask, max_steps=5)
        with pytest.raises(CompatibilityError):
            M.greedy_decode(my, latent.array[0], mask, max_steps=5)
        with pytest.raises(CompatibilityError):
            M.greedy_decode(my, latent, mask[:, :2], max_steps=5)


# the README toy widths and the medium widths of the wide benchmark
ORACLE_CONFIGS = {
    "toy": dict(num_blocks=2, num_heads=2, d_model=32, vocab_size=24, max_len=16),
    "wide": dict(num_blocks=4, num_heads=4, d_model=128, vocab_size=24, max_len=50),
}


def mixed_batch(rng, batch, width, vocab):
    """Rows of 1..width real tokens ending in eos, at least one of full width."""
    lengths = rng.integers(1, width + 1, size=batch)
    lengths[0] = width
    out = np.zeros((batch, width), dtype=np.int64)
    for b, n in enumerate(lengths):
        out[b, : n - 1] = rng.integers(4, vocab, size=n - 1)
        out[b, n - 1] = M.EOS_ID
    return out


class TestPackedAgainstPaddedOracle:
    """Only real positions are computed; the padded composition of
    tests/oracles.py computes them all. Real positions must agree, and pad
    positions of the padded logits read 0."""

    @pytest.mark.parametrize("name", sorted(ORACLE_CONFIGS))
    def test_encode_and_decode_match_padded_composition(self, name):
        cfg = M.ModelConfig(**ORACLE_CONFIGS[name])
        mx, my = M.LanguageModule("x", cfg, seed=1), M.LanguageModule("y", cfg, seed=2)
        rng = np.random.default_rng(3)
        src, tgt = mixed_batch(rng, 12, 9, cfg.vocab_size), mixed_batch(rng, 12, 7, cfg.vocab_size)
        src_mask = M.pad_mask(src)
        tgt_in = np.where(M.pad_mask(tgt), np.concatenate([np.full((12, 1), M.BOS_ID), tgt[:, :-1]], axis=1), 0)

        states = M.encode(mx, src).array
        want = padded_encode(mx, src).array
        np.testing.assert_allclose(states, want[src_mask], rtol=0, atol=1e-10)

        logits = M.decode_teacher_forced(my, states, src_mask, tgt_in).array
        want = padded_decode_teacher_forced(my, want, src_mask, tgt_in).array
        tgt_mask = M.pad_mask(tgt_in)
        np.testing.assert_allclose(logits[tgt_mask], want[tgt_mask], rtol=0, atol=1e-10)
        assert not logits[~tgt_mask].any()

    def test_packed_outputs_are_the_real_rows(self):
        cfg = M.ModelConfig(**ORACLE_CONFIGS["toy"])
        mx = M.LanguageModule("x", cfg, seed=4)
        rng = np.random.default_rng(5)
        src, tgt_in = mixed_batch(rng, 6, 8, cfg.vocab_size), mixed_batch(rng, 6, 5, cfg.vocab_size)
        tgt_in[:, 0] = M.BOS_ID
        src_mask = M.pad_mask(src)
        rows = M.encode(mx, src)
        assert rows.shape == (src_mask.sum(), cfg.d_model)
        logits = M.decode_teacher_forced(mx, rows, src_mask, tgt_in, packed=True).array
        padded = M.decode_teacher_forced(mx, rows, src_mask, tgt_in).array
        assert np.array_equal(logits, padded[M.pad_mask(tgt_in)])
        with pytest.raises(CompatibilityError):
            M.decode_teacher_forced(mx, rows.array[1:], src_mask, tgt_in, packed=True)


class TestCompositeGradients:
    def test_full_encode_decode_loss_matches_finite_differences(self):
        # every parameter entry of both modules, via a cross-decoding loss
        mx = M.LanguageModule("x", tiny_config(), seed=9)
        my = M.LanguageModule("y", tiny_config(), seed=10)
        src = np.array([[4, 5, M.EOS_ID], [5, M.EOS_ID, M.PAD_ID]])
        tgt_in = np.array([[M.BOS_ID, 5, 4], [M.BOS_ID, 4, M.PAD_ID]])
        tgt_out = np.array([[5, 4, M.EOS_ID], [4, M.EOS_ID, M.PAD_ID]])
        mask = M.pad_mask(src)

        def loss_value():
            latent = M.encode(mx, src)
            logits = M.decode_teacher_forced(my, latent, mask, tgt_in)
            return T.cross_entropy(logits, tgt_out).item()

        tape = T.GradTape()
        leaves = []
        for module in (mx, my):
            for t in module.params.values():
                leaves.append(tape.watch(t))
        loss = T.cross_entropy(
            M.decode_teacher_forced(my, M.encode(mx, src), mask, tgt_in), tgt_out
        )
        grads = T.backward(loss)
        analytic = [np.array(grads[t]) for t in leaves]
        tape.release()

        arrays = [t.array for t in leaves]
        numeric = finite_difference(loss_value, arrays)
        for a, n in zip(analytic, numeric):
            assert_grad_close(a, n)

    def test_dropout_distinguishes_training_pass(self):
        cfg = tiny_config(dropout=0.5)
        m = M.LanguageModule("x", cfg, seed=11)
        tokens = np.array([[4, 5, M.EOS_ID]])
        plain = M.encode(m, tokens).array
        noisy = M.encode(m, tokens, dropout_rng=np.random.default_rng(0)).array
        assert not np.allclose(plain, noisy)
        again = M.encode(m, tokens, dropout_rng=np.random.default_rng(0)).array
        np.testing.assert_array_equal(noisy, again)
