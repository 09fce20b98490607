"""Latent space: pooling, correlation and max distances, decomposed quantizer."""

import itertools

import numpy as np
import pytest

from interlingua import latent as L
from interlingua import tensor as T
from interlingua.exceptions import ConfigError, DegenerateBatchError, ShapeError
from oracles import assert_grad_close, finite_difference, nearest_row_bruteforce, unpacked


class TestPool:
    def test_hand_case_two_tokens(self):
        raw = T.Tensor([[1.0, 3.0], [3.0, 5.0]])  # the packed rows of B=1, T=2, D=2
        out = L.pool(raw, np.array([[True, True]]))
        np.testing.assert_allclose(out.array, [[2.0, 4.0]], atol=1e-12)

    def test_matches_masked_mean(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            mask = rng.random((4, 6)) < 0.7
            mask[:, 0] = True  # every row keeps at least one real token
            rows = rng.normal(size=(int(mask.sum()), 3))
            got = L.pool(T.Tensor(rows), mask).array
            raw = unpacked(rows, mask)
            want = np.stack([raw[i][mask[i]].mean(axis=0) for i in range(4)])
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_all_pad_row_rejected(self):
        raw = T.Tensor(np.ones((2, 4)))
        mask = np.array([[True, True, False], [False, False, False]])
        with pytest.raises(DegenerateBatchError):
            L.pool(raw, mask)

    def test_mask_shape_checked(self):
        mask = np.ones((2, 4), dtype=bool)
        for raw in (np.ones((5, 4)), np.ones((2, 4, 4))):  # too few rows; a padded batch
            with pytest.raises(ShapeError):
                L.pool(T.Tensor(raw), mask)

    def test_gradient_skips_pad_positions(self):
        # each real row gets 1 / (its sentence's length); pad positions have no row
        tape = T.GradTape()
        raw = tape.watch(T.Tensor(np.arange(18, dtype=float).reshape(6, 3)))
        mask = np.array([[True, True, False, False], [True, True, True, True]])
        grads = T.backward(T.reduce_sum(L.pool(raw, mask)))
        g = grads[raw]
        assert np.all(g[:2] == 0.5)
        assert np.all(g[2:] == 0.25)


class TestStackLatents:
    def test_own_rows_then_partner_rows_at_the_wider_width(self):
        rng = np.random.default_rng(0)
        mask_a = np.array([[True, True], [True, False]])
        mask_b = np.array([[True, False, False, False], [True, True, True, True]])
        rows_a, rows_b = rng.normal(size=(3, 2)), rng.normal(size=(5, 2))
        rows, mask = L.stack_latents((rows_a, mask_a), (rows_b, mask_b))
        assert mask.shape == (4, 4) and not mask[:2, 2:].any()
        np.testing.assert_array_equal(mask[:2, :2], mask_a)
        np.testing.assert_array_equal(mask[2:], mask_b)
        padded = T.unpack(rows, mask).array
        np.testing.assert_array_equal(padded[:2, :2], T.unpack(rows_a, mask_a).array)
        np.testing.assert_array_equal(padded[2:], T.unpack(rows_b, mask_b).array)

    def test_batches_must_match(self):
        with pytest.raises(ShapeError):
            L.stack_latents((np.ones((2, 2)), np.ones((2, 1), bool)), (np.ones((3, 2)), np.ones((3, 1), bool)))


class TestCorrDistance:
    def test_hand_case(self):
        hx = T.Tensor([[1.0], [2.0], [3.0]])
        hy = T.Tensor([[1.0], [2.0], [4.0]])
        d = L.corr_distance(hx, hy).item()
        assert L.correlation(hx.array, hy.array) == pytest.approx(0.9820, abs=1e-3)
        assert d == pytest.approx(1.0 - 0.9820, abs=1e-3)

    def test_symmetry_is_bitwise(self):
        rng = np.random.default_rng(1)
        hx = rng.normal(size=(8, 5))
        hy = rng.normal(size=(8, 5))
        a = L.corr_distance(T.Tensor(hx), T.Tensor(hy)).item()
        b = L.corr_distance(T.Tensor(hy), T.Tensor(hx)).item()
        assert a == b

    def test_self_distance_near_zero_on_healthy_batch(self):
        rng = np.random.default_rng(2)
        hx = rng.standard_normal((32, 16))
        assert L.corr_distance(T.Tensor(hx), T.Tensor(hx)).item() < 1e-9

    def test_affine_images_stay_aligned(self):
        rng = np.random.default_rng(3)
        hx = rng.standard_normal((16, 4))
        hy = 2.5 * hx + 7.0
        assert L.corr_distance(T.Tensor(hx), T.Tensor(hy)).item() < 1e-9

    def test_anticorrelated_inputs_hit_two(self):
        rng = np.random.default_rng(4)
        hx = rng.standard_normal((16, 4))
        d = L.corr_distance(T.Tensor(hx), T.Tensor(-hx)).item()
        assert d == pytest.approx(2.0, abs=1e-9)

    def test_range_zero_to_two(self):
        rng = np.random.default_rng(5)
        for seed in range(20):
            r = np.random.default_rng(seed)
            d = L.corr_distance(
                T.Tensor(r.normal(size=(6, 3))), T.Tensor(r.normal(size=(6, 3)))
            ).item()
            assert -1e-12 <= d <= 2.0 + 1e-12

    def test_constant_dimension_contributes_zero_correlation(self):
        rng = np.random.default_rng(6)
        hx = rng.standard_normal((16, 2))
        hy = hx.copy()
        hx[:, 1] = 3.14  # constant in x: that dimension's correlation is 0
        d = L.corr_distance(T.Tensor(hx), T.Tensor(hy)).item()
        # dimension 0 correlates ~1, dimension 1 contributes 0, mean is ~0.5
        assert d == pytest.approx(0.5, abs=1e-6)

    def test_small_batch_rejected(self):
        with pytest.raises(DegenerateBatchError):
            L.corr_distance(T.Tensor([[1.0, 2.0]]), T.Tensor([[1.0, 2.0]]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            L.corr_distance(T.Tensor(np.ones((3, 2))), T.Tensor(np.ones((3, 3))))

    def test_gradients_match_finite_differences(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            hx = rng.normal(size=(5, 4))
            hy = rng.normal(size=(5, 4))

            def value():
                return L.corr_distance(T.Tensor(hx), T.Tensor(hy)).item()

            tape = T.GradTape()
            tx, ty = tape.watch(T.Tensor(hx)), tape.watch(T.Tensor(hy))
            grads = T.backward(L.corr_distance(tx, ty))
            analytic = [np.array(grads[tx]), np.array(grads[ty])]
            numeric = finite_difference(value, [hx, hy])
            for a, n in zip(analytic, numeric):
                assert_grad_close(a, n)


class TestMaxDistance:
    def test_value_matches_numpy(self):
        rng = np.random.default_rng(7)
        hx = rng.normal(size=(6, 5))
        hy = rng.normal(size=(6, 5))
        got = L.max_distance(T.Tensor(hx), T.Tensor(hy)).item()
        assert got == np.max(np.abs(hx - hy))

    def test_identical_inputs_give_zero(self):
        hx = np.ones((4, 3))
        assert L.max_distance(T.Tensor(hx), T.Tensor(hx.copy())).item() == 0.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            L.max_distance(T.Tensor(np.ones((2, 2))), T.Tensor(np.ones((2, 3))))

    def test_gradients_match_finite_differences(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            # distinct magnitudes keep the argmax unique and FD-stable
            mags = np.linspace(0.1, 3.0, 12) * rng.choice([-1.0, 1.0], size=12)
            hx = rng.permutation(mags).reshape(4, 3)
            hy = np.zeros((4, 3))

            def value():
                return L.max_distance(T.Tensor(hx), T.Tensor(hy)).item()

            tape = T.GradTape()
            tx, ty = tape.watch(T.Tensor(hx)), tape.watch(T.Tensor(hy))
            grads = T.backward(L.max_distance(tx, ty))
            numeric = finite_difference(value, [hx, hy])
            assert_grad_close(np.array(grads[tx]), numeric[0])
            assert_grad_close(np.array(grads[ty]), numeric[1])


class TestCodebook:
    def test_table_count_must_divide_width(self):
        with pytest.raises(ConfigError):
            L.init_codebook(3, 4, d_model=8)

    def test_geometry(self):
        cb = L.init_codebook(4, 8, d_model=32, seed=1)
        assert cb.sub_dim == 8 and cb.d_model == 32
        assert all(t.shape == (8, 8) for t in cb.tables)

    def test_indices_match_bruteforce(self):
        for n, k in itertools.product([1, 2, 4], [2, 8]):
            cb = L.init_codebook(n, k, d_model=8, seed=n * 10 + k)
            rng = np.random.default_rng(n * 100 + k)
            x = rng.normal(size=(5, 8))
            _, idx, _, _ = L.quantize(cb, T.Tensor(x))
            for b in range(5):
                for j in range(n):
                    part = x[b].reshape(n, 8 // n)[j]
                    assert idx[b, j] == nearest_row_bruteforce(cb.tables[j].array, part)

    def test_output_is_concatenation_of_rows_bitwise(self):
        cb = L.init_codebook(2, 4, d_model=6, seed=2)
        rng = np.random.default_rng(8)
        x = rng.normal(size=(3, 6))
        q, idx, _, _ = L.quantize(cb, T.Tensor(x))
        for b in range(3):
            want = np.concatenate([cb.tables[j].array[idx[b, j]] for j in range(2)])
            assert np.array_equal(q.array[b], want)

    def test_representable_set_is_exactly_k_to_the_n(self):
        for n, k in itertools.product([1, 2, 3], [2, 3]):
            cb = L.init_codebook(n, k, d_model=2 * n, seed=n * 7 + k)
            outputs = set()
            for combo in itertools.product(range(k), repeat=n):
                probe = np.concatenate([cb.tables[j].array[c] for j, c in enumerate(combo)])
                q, _, _, _ = L.quantize(cb, T.Tensor(probe[None, :]))
                outputs.add(q.array.tobytes())
            assert len(outputs) == k ** n

    def test_random_probes_stay_inside_representable_set(self):
        cb = L.init_codebook(2, 3, d_model=4, seed=3)
        rng = np.random.default_rng(9)
        outs = {
            L.quantize(cb, T.Tensor(rng.normal(size=(1, 4))))[0].array.tobytes()
            for _ in range(200)
        }
        assert len(outs) <= 3 ** 2

    def test_tie_breaks_to_lowest_row(self):
        cb = L.init_codebook(1, 2, d_model=1, seed=0)
        cb.tables[0].array[:] = [[1.0], [-1.0]]
        _, idx, _, _ = L.quantize(cb, T.Tensor([[0.0]]))
        assert idx[0, 0] == 0

    def test_straight_through_gradient_is_exact(self):
        cb = L.init_codebook(2, 4, d_model=6, seed=4)
        rng = np.random.default_rng(10)
        x_arr = rng.normal(size=(3, 6))
        w = rng.normal(size=(3, 6))
        tape = T.GradTape()
        x = tape.watch(T.Tensor(x_arr))
        q, _, _, _ = L.quantize(cb, x)
        grads = T.backward(T.reduce_sum(T.mul(q, w)))
        assert np.array_equal(grads[x], w)

    def test_loss_gradients_partition_cleanly(self):
        cb = L.init_codebook(2, 4, d_model=6, seed=5)
        rng = np.random.default_rng(11)
        x_arr = rng.normal(size=(3, 6))

        tape = T.GradTape()
        x = tape.watch(T.Tensor(x_arr))
        for t in cb.tables:
            tape.watch(t)
        _, _, code_loss, commit_loss = L.quantize(cb, x)

        g_code = T.backward(code_loss)
        assert np.array_equal(g_code[x], np.zeros_like(x_arr))
        assert any(np.any(g_code[t] != 0.0) for t in cb.tables)

        g_commit = T.backward(commit_loss)
        assert np.any(g_commit[x] != 0.0)
        assert all(np.array_equal(g_commit[t], np.zeros(t.shape)) for t in cb.tables)
        tape.release()

    def test_loss_gradients_match_finite_differences(self):
        # FD cannot see stop-gradients, so each loss is checked against a
        # value function with the frozen side pinned to its snapshot.
        cb = L.init_codebook(2, 3, d_model=4, seed=6)
        rng = np.random.default_rng(12)
        x_arr = rng.normal(size=(4, 4)) * 2.0  # far from decision boundaries
        tabs = [t.array for t in cb.tables]
        _, idx0, _, _ = L.quantize(cb, T.Tensor(x_arr))
        sel0 = np.concatenate([tabs[j][idx0[:, j]] for j in range(2)], axis=-1)
        x0 = x_arr.copy()

        tape = T.GradTape()
        x = tape.watch(T.Tensor(x_arr))
        for t in cb.tables:
            tape.watch(t)
        _, _, code_loss, commit_loss = L.quantize(cb, x)

        g_commit = T.backward(commit_loss)
        numeric_x = finite_difference(lambda: float(np.mean((x_arr - sel0) ** 2)), [x_arr])[0]
        assert_grad_close(np.array(g_commit[x]), numeric_x)

        def code_value():
            sel = np.concatenate([tabs[j][idx0[:, j]] for j in range(2)], axis=-1)
            return float(np.mean((x0 - sel) ** 2))

        g_code = T.backward(code_loss)
        numeric_tabs = finite_difference(code_value, tabs)
        for t, n in zip(cb.tables, numeric_tabs):
            assert_grad_close(np.array(g_code[t]), n)
        tape.release()

    def test_width_mismatch_rejected(self):
        cb = L.init_codebook(2, 4, d_model=6, seed=7)
        with pytest.raises(ShapeError):
            L.quantize(cb, T.Tensor(np.ones((2, 5))))
