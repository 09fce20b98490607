"""Autodiff core: forward values, tape mechanics, gradients vs central differences."""

import tracemalloc
import weakref

import numpy as np
import pytest

from interlingua import tensor as T
from interlingua.exceptions import (
    ContractError,
    DegenerateBatchError,
    ShapeError,
    TapeError,
)
from oracles import assert_grad_close, finite_difference, padded_attention

NAMES = T.ATTENTION_WEIGHTS


def attention_case(rng, q_mask, kv_mask, d=4):
    """Packed query and key/value rows for the masks, plus 8 weights."""
    q_rows = rng.normal(size=(int(q_mask.sum()), d))
    kv_rows = rng.normal(size=(int(kv_mask.sum()), d))
    weights = [rng.normal(size=(d, d)) if n.startswith("w") else rng.normal(size=(d,)) for n in NAMES]
    return q_rows, kv_rows, weights


def key_bias(mask):
    return np.where(mask, 0.0, -1e9)[:, None, None, :]


def causal_bias(t):
    return np.triu(np.full((t, t), -1e9), k=1)[None, None]


def check_against_fd(build, arrays):
    """Compare tape gradients of scalar build(*tensors) with central differences."""
    tape = T.GradTape()
    ts = [tape.watch(T.Tensor(a)) for a in arrays]
    loss = build(*ts)
    grads = T.backward(loss)
    analytic = [np.array(grads[t]) for t in ts]
    numeric = finite_difference(lambda: build(*[T.Tensor(a) for a in arrays]).item(), arrays)
    for a_g, n_g in zip(analytic, numeric):
        assert_grad_close(a_g, n_g)


class TestTensorBasics:
    def test_shape_and_flat_data(self):
        t = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert t.shape == (2, 2)
        np.testing.assert_array_equal(t.data, [1.0, 2.0, 3.0, 4.0])

    def test_zero_size_rejected(self):
        with pytest.raises(ShapeError):
            T.Tensor(np.zeros((0, 3)))

    def test_item_requires_single_element(self):
        assert T.Tensor(2.5).item() == 2.5
        with pytest.raises(ShapeError):
            T.Tensor([1.0, 2.0]).item()

    def test_detach_copies_and_drops_tape(self):
        tape = T.GradTape()
        t = tape.watch(T.Tensor([1.0, 2.0]))
        d = t.detach()
        assert d.tape is None
        d.array[0] = 9.0
        assert t.array[0] == 1.0


class TestForwardValues:
    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        s = T.softmax(T.Tensor(rng.normal(size=(4, 7))), axis=-1)
        np.testing.assert_allclose(s.array.sum(axis=-1), 1.0, atol=1e-12)

    def test_softmax_shift_invariance(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(3, 5))
        a = T.softmax(T.Tensor(x), axis=-1).array
        b = T.softmax(T.Tensor(x + 37.0), axis=-1).array
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_softmax_uniform(self):
        s = T.softmax(T.Tensor(np.zeros((2, 8))), axis=-1)
        np.testing.assert_allclose(s.array, 1.0 / 8.0, atol=1e-15)

    def test_softmax_large_negative_bias_gives_exact_zero(self):
        x = np.array([[0.3, -1e9, 1.2, -1e9]])
        s = T.softmax(T.Tensor(x), axis=-1).array
        assert s[0, 1] == 0.0 and s[0, 3] == 0.0
        np.testing.assert_allclose(s.sum(), 1.0, atol=1e-12)

    def test_softmax_axis_bounds(self):
        with pytest.raises(ShapeError):
            T.softmax(T.Tensor(np.ones((2, 2))), axis=2)

    def test_layer_norm_two_point_row(self):
        out = T.layer_norm(
            T.Tensor([[1.0, 3.0]]), np.ones(2), np.zeros(2), eps=0.0
        )
        np.testing.assert_allclose(out.array, [[-1.0, 1.0]], atol=1e-12)

    def test_layer_norm_constant_row_collapses_to_bias(self):
        bias = np.array([0.5, -0.5, 2.0])
        out = T.layer_norm(T.Tensor([[4.0, 4.0, 4.0]]), np.ones(3), bias)
        np.testing.assert_allclose(out.array, bias[None, :], atol=1e-12)

    def test_layer_norm_shape_check(self):
        with pytest.raises(ShapeError):
            T.layer_norm(T.Tensor(np.ones((2, 4))), np.ones(3), np.zeros(4))

    def test_cross_entropy_uniform_logits(self):
        logits = np.zeros((2, 3, 5))
        targets = np.array([[4, 4, 0], [4, 4, 4]])
        loss = T.cross_entropy(T.Tensor(logits), targets)
        assert loss.item() == pytest.approx(np.log(5.0), abs=1e-12)

    def test_cross_entropy_confident_logits_near_zero(self):
        logits = np.full((1, 2, 4), -50.0)
        targets = np.array([[3, 1]])
        logits[0, 0, 3] = 50.0
        logits[0, 1, 1] = 50.0
        loss = T.cross_entropy(T.Tensor(logits), targets)
        assert loss.item() < 1e-12

    def test_cross_entropy_pad_extension_invariance(self):
        rng = np.random.default_rng(2)
        logits = rng.normal(size=(2, 3, 6))
        targets = np.array([[5, 2, 0], [3, 0, 0]])
        padded_logits = np.concatenate([logits, rng.normal(size=(2, 2, 6))], axis=1)
        padded_targets = np.concatenate([targets, np.zeros((2, 2), dtype=int)], axis=1)
        a = T.cross_entropy(T.Tensor(logits), targets).item()
        b = T.cross_entropy(T.Tensor(padded_logits), padded_targets).item()
        assert a == b

    def test_cross_entropy_all_pad_rejected(self):
        with pytest.raises(DegenerateBatchError):
            T.cross_entropy(T.Tensor(np.zeros((1, 2, 4))), np.zeros((1, 2), dtype=int))

    def test_cross_entropy_id_range_checked(self):
        with pytest.raises(ContractError):
            T.cross_entropy(T.Tensor(np.zeros((1, 1, 4))), np.array([[4]]))

    def test_matmul_matches_numpy(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(2, 3, 4))
        b = rng.normal(size=(4, 5))
        np.testing.assert_allclose(T.matmul(T.Tensor(a), b).array, a @ b, atol=1e-12)

    def test_matmul_inner_extent_checked(self):
        with pytest.raises(ShapeError):
            T.matmul(T.Tensor(np.ones((2, 3))), T.Tensor(np.ones((4, 2))))
        with pytest.raises(ShapeError):
            T.matmul(T.Tensor(np.ones(3)), T.Tensor(np.ones((3, 2))))

    def test_reduce_max_first_tie_wins(self):
        tape = T.GradTape()
        x = tape.watch(T.Tensor([1.0, 7.0, 7.0]))
        grads = T.backward(T.reduce_max(x))
        np.testing.assert_array_equal(grads[x], [0.0, 1.0, 0.0])

    def test_dropout_zero_rate_is_identity(self):
        x = T.Tensor([1.0, 2.0])
        assert T.dropout(x, 0.0, np.random.default_rng(0)) is x

    def test_dropout_masks_and_scales(self):
        rng = np.random.default_rng(4)
        x = np.ones((1000,))
        out = T.dropout(T.Tensor(x), 0.25, rng).array
        kept = out != 0.0
        np.testing.assert_allclose(out[kept], 1.0 / 0.75, atol=1e-12)
        assert 0.65 < kept.mean() < 0.85

    def test_dropout_rate_bounds(self):
        with pytest.raises(ContractError):
            T.dropout(T.Tensor([1.0]), 1.0, np.random.default_rng(0))


class TestTapeMechanics:
    def test_constants_participate_without_gradient(self):
        tape = T.GradTape()
        x = tape.watch(T.Tensor([1.0, 2.0]))
        loss = T.reduce_sum(x * np.array([3.0, 4.0]) + 1.0)
        grads = T.backward(loss)
        np.testing.assert_array_equal(grads[x], [3.0, 4.0])

    def test_unreachable_watched_leaf_gets_zeros(self):
        tape = T.GradTape()
        x = tape.watch(T.Tensor([1.0]))
        y = tape.watch(T.Tensor([[2.0, 3.0]]))
        grads = T.backward(T.reduce_sum(x * 2.0))
        np.testing.assert_array_equal(grads[y], np.zeros((1, 2)))
        # one flat buffer holds the leaves' gradients in watch order
        np.testing.assert_array_equal(grads.flat, [2.0, 0.0, 0.0])
        assert np.shares_memory(grads[x], grads.flat) and np.shares_memory(grads[y], grads.flat)
        # or a caller's buffer, every entry overwritten
        out = np.full(3, np.nan)
        assert T.backward(T.reduce_sum(x * 2.0), out=out).flat is out
        np.testing.assert_array_equal(out, [2.0, 0.0, 0.0])
        for wrong in (np.zeros(2), np.zeros(6)[::2]):
            with pytest.raises(ShapeError):
                T.backward(T.reduce_sum(x * 2.0), out=wrong)

    def test_unwatched_tensor_lookup_raises(self):
        tape = T.GradTape()
        x = tape.watch(T.Tensor([1.0]))
        grads = T.backward(T.reduce_sum(x))
        with pytest.raises(TapeError):
            grads[T.Tensor([1.0])]

    def test_non_scalar_loss_rejected(self):
        tape = T.GradTape()
        x = tape.watch(T.Tensor([1.0, 2.0]))
        with pytest.raises(ContractError):
            T.backward(x * 2.0)

    def test_detached_loss_rejected(self):
        with pytest.raises(TapeError):
            T.backward(T.Tensor(1.0))

    def test_mixed_tapes_rejected(self):
        t1, t2 = T.GradTape(), T.GradTape()
        x = t1.watch(T.Tensor([1.0]))
        y = t2.watch(T.Tensor([2.0]))
        with pytest.raises(TapeError):
            T.add(x, y)

    def test_double_attachment_rejected_until_release(self):
        t1, t2 = T.GradTape(), T.GradTape()
        x = t1.watch(T.Tensor([1.0]))
        assert t1.watch(x) is x
        with pytest.raises(TapeError):
            t2.watch(x)
        t1.release()
        assert x.tape is None
        t2.watch(x)
        assert x.tape is t2

    def test_self_product_accumulates_both_paths(self):
        tape = T.GradTape()
        x = tape.watch(T.Tensor([3.0, -2.0]))
        grads = T.backward(T.reduce_sum(x * x))
        np.testing.assert_array_equal(grads[x], [6.0, -4.0])

    @pytest.mark.parametrize("reduce", [
        T.reduce_sum, T.reduce_mean, T.reduce_max,
        lambda a: T.cross_entropy(a, np.array([[1, 0, 2]])),
        lambda a: T.cross_entropy(a, np.array([[1, 0, 2]]), rows=slice(0, 1)),
    ], ids=["sum", "mean", "max", "cross_entropy", "cross_entropy_rows"])
    def test_reductions_keep_only_their_input_shape(self, reduce):
        # the input of a reduction (or the logits of cross_entropy) is freed
        # with its Tensor: the backward reads its shape only
        tape = T.GradTape()
        x = tape.watch(T.Tensor(np.random.default_rng(7).normal(size=(1, 3, 4))))
        mid = T.mul(x, 2.0)
        freed = weakref.ref(mid.array)
        loss = reduce(mid)
        del mid
        assert freed() is None
        grads = T.backward(T.reduce_sum(loss))
        assert grads[x].shape == (1, 3, 4)
        tape.release()

    def test_backward_is_bit_deterministic(self):
        rng = np.random.default_rng(5)
        tape = T.GradTape()
        x = tape.watch(T.Tensor(rng.normal(size=(4, 6))))
        w = tape.watch(T.Tensor(rng.normal(size=(6, 3))))
        loss = T.reduce_sum(T.softmax(T.matmul(x, w), axis=-1) * rng.normal(size=(4, 3)))
        g1 = T.backward(loss)
        g2 = T.backward(loss)
        assert np.array_equal(g1[x], g2[x]) and np.array_equal(g1[w], g2[w])

    def test_stop_gradient_blocks_flow(self):
        tape = T.GradTape()
        x = tape.watch(T.Tensor([2.0, -1.0]))
        grads = T.backward(T.reduce_sum(x * T.stop_gradient(x)))
        np.testing.assert_array_equal(grads[x], [2.0, -1.0])

    def test_straight_through_composition_is_exact_identity(self):
        # y = x + const(q - x) passes upstream gradients through unchanged
        rng = np.random.default_rng(6)
        x_arr = rng.normal(size=(3, 4))
        q_arr = rng.normal(size=(3, 4))
        w = rng.normal(size=(3, 4))
        tape = T.GradTape()
        x = tape.watch(T.Tensor(x_arr))
        y = T.add(x, q_arr - x_arr)
        grads = T.backward(T.reduce_sum(y * w))
        np.testing.assert_array_equal(grads[x], w)


class TestGradientsContract:
    def test_recorded_tensor_lookup_raises(self):
        tape = T.GradTape()
        x = tape.watch(T.Tensor([1.0, 2.0]))
        y = x * 3.0
        loss = T.reduce_sum(y)
        grads = T.backward(loss)
        np.testing.assert_array_equal(grads[x], [3.0, 3.0])
        for recorded in (y, loss):
            with pytest.raises(TapeError):
                grads[recorded]

    def test_leaf_gradients_are_private_and_writable(self):
        # each leaf's contribution aliases something: add passes g itself to
        # both operands, reduce_sum a read-only broadcast view, reshape and
        # transpose views of another gradient, straight_through g itself
        rng = np.random.default_rng(3)
        tape = T.GradTape()
        arrays = [rng.normal(size=(2, 3)) for _ in range(5)]
        a, b, c, d, e = (tape.watch(T.Tensor(arr)) for arr in arrays)
        total = T.add(a, b)
        total = T.add(total, T.reshape(c, (2, 3)))
        total = T.add(total, T.transpose(T.reshape(d, (3, 2)), (1, 0)))
        total = T.add(total, T.straight_through(e, arrays[4] + 1.0))
        grads = T.backward(T.add(T.reduce_sum(total), T.reduce_sum(a)))
        leaves = (a, b, c, d, e)
        got = [grads[t] for t in leaves]
        for i, g in enumerate(got):
            assert g.flags.writeable
            for t in leaves:
                assert not np.shares_memory(g, t.array)
            for other in got[i + 1 :]:
                assert not np.shares_memory(g, other)
        before = [g.copy() for g in got]
        got[1] += 100.0
        for g, want in zip(got[2:], before[2:]):
            np.testing.assert_array_equal(g, want)
        np.testing.assert_array_equal(grads[a], np.full((2, 3), 2.0))

    def test_aliased_contributions_are_not_written_through(self):
        # add hands one array to both u and v; u's later contribution from
        # w must not be summed into that shared array before v reads it
        tape = T.GradTape()
        x = tape.watch(T.Tensor([1.0, 2.0]))
        u = x * 2.0
        v = x * 3.0
        w = u * u
        z = T.add(u, v)
        loss = T.add(T.reduce_sum(z * np.array([5.0, 7.0])), T.reduce_sum(w))
        grads = T.backward(loss)
        # d/dx [5,7]*(2x + 3x) + (2x)^2 = 25, 35 plus 8x
        np.testing.assert_array_equal(grads[x], [33.0, 51.0])

    def test_grad_closures_leave_g_untouched(self):
        # a read-only g makes any in-place write inside a node's backward raise
        rng = np.random.default_rng(4)
        a, b = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
        pos = rng.uniform(0.5, 2.0, size=(3, 4))
        mat, vec = rng.normal(size=(4, 2)), rng.normal(size=(2,))
        gain, bias = rng.normal(size=(4,)), rng.normal(size=(4,))
        targets = np.array([1, 2, 3])
        mask_q, mask_kv = np.array([[1, 1, 0], [1, 0, 0]], bool), np.array([[1, 1], [1, 0]], bool)
        att_x, att_kv, att_w = attention_case(rng, mask_q, mask_kv)
        att_q = (att_x, att_kv)
        mask_q, mask_kv = T.row_index(mask_q), T.row_index(mask_kv)
        ops = [
            (lambda x, y: T.add(x, y), [a, b]),
            (lambda x, y: T.sub(x, y), [a, b]),
            (lambda x, y: T.mul(x, y), [a, b]),
            (lambda x, y: T.div(x, y), [a, pos]),
            (T.neg, [a]),
            (T.sqrt, [pos]),
            (T.absolute, [a]),
            (T.relu, [a]),
            (lambda x, w: T.matmul(x, w), [a, mat]),
            (lambda x, w, c: T.linear(x, w, c), [a, mat, vec]),
            (lambda x: T.transpose(x, (1, 0)), [a]),
            (lambda x: T.reshape(x, (4, 3)), [a]),
            (lambda x, y: T.concat([x, y], axis=0), [a, b]),
            (lambda x: T.reduce_sum(x, axis=1), [a]),
            (lambda x: T.reduce_mean(x, axis=0), [a]),
            (T.reduce_max, [a]),
            (lambda x: T.softmax(x, axis=-1), [a]),
            (lambda x, g_, b_: T.layer_norm(x, g_, b_), [a, gain, bias]),
            (lambda x: T.cross_entropy(x, targets), [a]),
            (lambda x: T.cross_entropy(x, targets[1:], rows=slice(1, None)), [a]),
            (lambda x: T.embedding(x, np.array([[0, 2], [2, 1]])), [a]),
            (lambda x: T.dropout(x, 0.5, np.random.default_rng(0)), [a]),
            (lambda x: T.straight_through(x, b), [a]),
            (lambda x: T.pack(x, a > 0), [a[:, :, None]]),
            (lambda x: T.unpack(x, a > 0), [rng.normal(size=(int((a > 0).sum()), 2))]),
            (lambda x: T.segment_mean(x, np.array([1, 2])), [a[:3]]),
            (lambda x, kv, *w: T.attention(x, kv, mask_q, mask_kv, None, w, 2), list(att_q) + list(att_w)),
            (lambda x, *w: T.attention(x, x, mask_q, mask_q, causal_bias(3), w, 2), [att_q[0]] + list(att_w)),
        ]
        for build, arrays in ops:
            tape = T.GradTape()
            out = build(*[tape.watch(T.Tensor(arr)) for arr in arrays])
            g = rng.normal(size=out.shape)
            g.flags.writeable = False
            kept = g.copy()
            for _ in tape._backwards[out.node](g):
                pass
            np.testing.assert_array_equal(g, kept)
            tape.release()

    def test_backward_frees_gradients_as_it_goes(self):
        # 50 chained nodes of 1 MB each: keeping every node's gradient
        # until the sweep ends would hold 50 MB
        tape = T.GradTape()
        x = tape.watch(T.Tensor(np.ones(1 << 17)))
        y = x
        for _ in range(50):
            y = T.mul(y, 1.0001)
        loss = T.reduce_sum(y)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            grads = T.backward(loss)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20, f"backward peak {peak / 2**20:.1f} MB"
        np.testing.assert_allclose(grads[x], np.full(1 << 17, 1.0001**50), rtol=1e-12)


class TestGradientsAgainstFiniteDifferences:
    def test_elementwise_chain(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            a = rng.normal(size=(3, 4))
            b = rng.normal(size=(4,)) + 3.0
            w = rng.normal(size=(3, 4))

            def build(ta, tb):
                return T.reduce_sum(((ta * tb + 0.5) / tb - ta) * w)

            check_against_fd(build, [a, b])

    def test_sqrt_abs_relu(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            a = rng.uniform(0.5, 2.0, size=(6,))
            b = rng.uniform(0.2, 1.0, size=(6,)) * rng.choice([-1.0, 1.0], size=6)
            w = rng.normal(size=(6,))

            def build(ta, tb):
                return T.reduce_sum((T.sqrt(ta) + T.absolute(tb) + T.relu(tb)) * w)

            check_against_fd(build, [a, b])
        # -0.0 gives +0.0, a NaN propagates forward and gets no gradient
        tape = T.GradTape()
        x = tape.watch(T.Tensor([np.nan, -0.0, -1.0, 2.0]))
        y = T.relu(x)
        np.testing.assert_array_equal(y.array, [np.nan, 0.0, 0.0, 2.0])
        assert not np.signbit(y.array[1])
        np.testing.assert_array_equal(T.backward(T.reduce_sum(y))[x], [0.0, 0.0, 0.0, 1.0])

    def test_matmul_2d(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            a = rng.normal(size=(3, 4))
            b = rng.normal(size=(4, 2))
            w = rng.normal(size=(3, 2))
            check_against_fd(lambda ta, tb: T.reduce_sum(T.matmul(ta, tb) * w), [a, b])

    def test_matmul_batched_with_broadcast(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            a = rng.normal(size=(2, 2, 3, 4))
            b = rng.normal(size=(4, 3))
            c = rng.normal(size=(2, 2, 3, 3))
            w = rng.normal(size=(2, 2, 3, 3))

            def build(ta, tb, tc):
                return T.reduce_sum((T.matmul(ta, tb) + tc) * w)

            check_against_fd(build, [a, b, c])

    def test_transpose_reshape_concat(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            a = rng.normal(size=(2, 3, 4))
            b = rng.normal(size=(2, 3, 2))
            w = rng.normal(size=(2, 6 * 3))

            def build(ta, tb):
                cat = T.concat([ta, tb], axis=-1)
                moved = T.transpose(cat, (0, 2, 1))
                return T.reduce_sum(T.reshape(moved, (2, 18)) * w)

            check_against_fd(build, [a, b])

    def test_reductions(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            a = rng.normal(size=(3, 4, 2))
            w = rng.normal(size=(3, 2))

            def build(ta):
                s = T.reduce_sum(ta, axis=1)
                m = T.reduce_mean(ta, axis=1)
                return T.reduce_sum((s + m) * w) + T.reduce_mean(ta)

            check_against_fd(build, [a])

    def test_reduce_max_with_separated_values(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            a = rng.permutation(np.linspace(-2.0, 2.0, 12)).reshape(3, 4)
            check_against_fd(lambda ta: T.reduce_max(ta) * 2.0, [a])

    def test_softmax(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            a = rng.normal(size=(3, 5))
            w = rng.normal(size=(3, 5))
            check_against_fd(lambda ta: T.reduce_sum(T.softmax(ta, axis=-1) * w), [a])
            check_against_fd(lambda ta: T.reduce_sum(T.softmax(ta, axis=0) * w), [a])

    def test_layer_norm(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            x = rng.normal(size=(2, 3, 6))
            gain = rng.normal(size=(6,)) + 1.0
            bias = rng.normal(size=(6,))
            w = rng.normal(size=(2, 3, 6))

            def build(tx, tg, tb):
                return T.reduce_sum(T.layer_norm(tx, tg, tb) * w)

            check_against_fd(build, [x, gain, bias])

    def test_cross_entropy(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            logits = rng.normal(size=(2, 4, 6))
            targets = rng.integers(0, 6, size=(2, 4))
            targets[0, 0] = 0  # one pad position must stay excluded
            targets[1, 3] = 5
            check_against_fd(lambda tl: T.cross_entropy(tl, targets), [logits])

    def test_cross_entropy_over_a_row_range(self):
        # two ranges of one logits tensor, as a stacked decoder pass splits
        # them: each term equals the loss on its own rows, and the rows
        # outside a range get zero gradient from it
        for seed in range(5):
            rng = np.random.default_rng(seed)
            logits = rng.normal(size=(7, 6))
            head, tail = rng.integers(0, 6, size=3), rng.integers(0, 6, size=4)
            head[0] = 0  # one pad position must stay excluded
            check_against_fd(
                lambda tl: T.add(
                    T.cross_entropy(tl, head, rows=slice(0, 3)),
                    T.mul(T.cross_entropy(tl, tail, rows=slice(3, None)), 1.7),
                ),
                [logits],
            )
            check_against_fd(lambda tl: T.cross_entropy(tl, tail, rows=slice(3, None)), [logits])
            alone = T.cross_entropy(logits[3:], tail).item()
            assert T.cross_entropy(logits, tail, rows=slice(3, None)).item() == alone
            with pytest.raises(ShapeError):
                T.cross_entropy(logits, tail, rows=slice(0, 3))

    def test_embedding(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            table = rng.normal(size=(7, 3))
            ids = rng.integers(0, 7, size=(2, 5))
            w = rng.normal(size=(2, 5, 3))
            check_against_fd(lambda tt: T.reduce_sum(T.embedding(tt, ids) * w), [table])

    def test_dropout_with_fixed_mask(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            x = rng.normal(size=(4, 4))
            w = rng.normal(size=(4, 4))

            def build(tx):
                # fresh generator each call so the mask is identical across evals
                return T.reduce_sum(T.dropout(tx, 0.5, np.random.default_rng(seed)) * w)

            check_against_fd(build, [x])

    def test_division_and_broadcast_grads(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            a = rng.normal(size=(3, 1, 4))
            b = rng.uniform(1.0, 2.0, size=(2, 4))
            w = rng.normal(size=(3, 2, 4))
            check_against_fd(lambda ta, tb: T.reduce_sum((ta / tb) * w), [a, b])

    def test_linear(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            x2, x3 = rng.normal(size=(3, 4)), rng.normal(size=(2, 3, 4))
            xt = rng.normal(size=(4, 3, 2))
            w, b = rng.normal(size=(4, 5)), rng.normal(size=(5,))
            w2, w3 = rng.normal(size=(3, 5)), rng.normal(size=(2, 3, 5))

            check_against_fd(lambda tx, tw: T.reduce_sum(T.linear(tx, tw) * w2), [x2, w])
            check_against_fd(lambda tx, tw, tb: T.reduce_sum(T.linear(tx, tw, tb) * w2), [x2, w, b])
            check_against_fd(lambda tx, tw, tb: T.reduce_sum(T.linear(tx, tw, tb) * w3), [x3, w, b])

            # x reaches linear through a transpose: a recorded [2, 3, 4] input
            def moved(tx, tw, tb):
                return T.reduce_sum(T.linear(T.transpose(tx, (2, 1, 0)), tw, tb) * w3)

            check_against_fd(moved, [xt, w, b])
            # a non-contiguous constant x: only w and b are differentiated
            const = xt.transpose(2, 1, 0)
            assert not const.flags.c_contiguous
            check_against_fd(lambda tw, tb: T.reduce_sum(T.linear(const, tw, tb) * w3), [w, b])

    def test_linear_matches_matmul_plus_bias(self):
        rng = np.random.default_rng(7)
        w, b = rng.normal(size=(6, 5)), rng.normal(size=(5,))
        cases = [
            rng.normal(size=(4, 6)),
            rng.normal(size=(3, 4, 6)),
            rng.normal(size=(6, 4, 3)).transpose(2, 1, 0),
        ]
        for x in cases:
            for with_bias in (True, False):
                wgt = rng.normal(size=x.shape[:-1] + (5,))
                results = []
                for fast in (True, False):
                    tape = T.GradTape()
                    tx, tw, tb = (tape.watch(T.Tensor(arr)) for arr in (x, w, b))
                    if fast:
                        out = T.linear(tx, tw, tb if with_bias else None)
                    else:
                        out = T.matmul(tx, tw)
                        out = T.add(out, tb) if with_bias else out
                    grads = T.backward(T.reduce_sum(T.mul(out, wgt)))
                    results.append([out.array] + [grads[t] for t in (tx, tw, tb)])
                    tape.release()
                for got, want in zip(*results):
                    assert got.shape == want.shape
                    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())

    def test_pack_unpack_segment_mean(self):
        rng = np.random.default_rng(3)
        mask = np.array([[True, True, False], [True, False, False], [True, True, True]])
        x, w = rng.normal(size=(3, 3, 2)), rng.normal(size=(6, 2))
        check_against_fd(lambda t: T.reduce_sum(T.pack(t, mask) * w), [x])
        rows, w3 = rng.normal(size=(6, 2)), rng.normal(size=(3, 3, 2))
        check_against_fd(lambda t: T.reduce_sum(T.unpack(t, mask) * w3), [rows])
        assert np.array_equal(T.pack(T.unpack(rows, mask), mask).array, rows)
        assert not T.unpack(rows, mask).array[~mask].any()
        w_mean = rng.normal(size=(3, 2))
        check_against_fd(lambda t: T.reduce_sum(T.segment_mean(t, np.array([2, 1, 3])) * w_mean), [rows])
        np.testing.assert_allclose(
            T.segment_mean(rows, np.array([2, 1, 3])).array,
            [rows[:2].mean(axis=0), rows[2], rows[3:].mean(axis=0)], rtol=1e-15,
        )
        with pytest.raises(ShapeError):
            T.pack(x, mask[:2])
        with pytest.raises(ShapeError):
            T.unpack(rows[:5], mask)
        with pytest.raises(ShapeError):
            T.segment_mean(rows, np.array([2, 1, 2]))

    def test_embedding_scale_and_shift(self):
        rng = np.random.default_rng(4)
        table, ids = rng.normal(size=(5, 3)), np.array([4, 0, 4, 2])
        shift, w = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
        out = T.embedding(table, ids, 2.5, shift).array
        assert np.array_equal(out, table[ids] * 2.5 + shift)
        check_against_fd(lambda t: T.reduce_sum(T.embedding(t, ids, 2.5, shift) * w), [table])

    def test_linear_shape_checks(self):
        with pytest.raises(ShapeError):
            T.linear(np.ones((2, 3)), np.ones((4, 5)))
        with pytest.raises(ShapeError):
            T.linear(np.ones((2, 3)), np.ones(3))
        with pytest.raises(ShapeError):
            T.linear(np.ones((2, 3)), np.ones((3, 5)), np.ones(4))


# (query mask, key/value mask, bias kind) per case: self-attention passes the
# query rows as the key/value rows too
ATTENTION_CASES = {
    "self, key-pad bias": (np.array([[1, 1, 0], [1, 1, 1]], bool), None, "key"),
    "self, causal bias": (np.array([[1, 1, 1], [1, 1, 0]], bool), None, "causal"),
    "cross, key-pad bias": (np.array([[1, 0], [1, 1]], bool), np.array([[1, 1, 1, 0], [1, 0, 0, 0]], bool), "key"),
    "cross, no padding": (np.ones((2, 3), bool), np.ones((2, 2), bool), None),
}


def attention_build(case, num_heads=2):
    q_mask, kv_mask, kind = ATTENTION_CASES[case]
    fused = kv_mask is None
    kv_mask = q_mask if fused else kv_mask
    bias = {"key": key_bias(kv_mask), "causal": causal_bias(q_mask.shape[1]), None: None}[kind]

    q_at, kv_at = T.row_index(q_mask), T.row_index(kv_mask)

    def build(q, kv, *weights):
        return T.attention(q, q if fused else kv, q_at, kv_at, bias, weights, num_heads)

    return build, q_mask, kv_mask, bias, fused


class TestAttentionNode:
    @pytest.mark.parametrize("case", sorted(ATTENTION_CASES))
    def test_gradients_match_finite_differences(self, case):
        build, q_mask, kv_mask, _, fused = attention_build(case)
        rng = np.random.default_rng(len(case))
        q, kv, weights = attention_case(rng, q_mask, kv_mask)
        wgt = rng.normal(size=q.shape)
        if fused:
            check_against_fd(lambda tq, *tw: T.reduce_sum(build(tq, None, *tw) * wgt), [q] + weights)
        else:
            check_against_fd(lambda tq, tkv, *tw: T.reduce_sum(build(tq, tkv, *tw) * wgt), [q, kv] + weights)

    @pytest.mark.parametrize("case", sorted(ATTENTION_CASES))
    def test_matches_padded_composition(self, case):
        build, q_mask, kv_mask, bias, fused = attention_build(case)
        rng = np.random.default_rng(7)
        q, kv, weights = attention_case(rng, q_mask, kv_mask, d=8)
        kv = q if fused else kv
        wgt = rng.normal(size=q.shape)
        results = []
        for packed in (True, False):
            tape = T.GradTape()
            tq, tkv = tape.watch(T.Tensor(q)), tape.watch(T.Tensor(kv))
            tw = [tape.watch(T.Tensor(w)) for w in weights]
            if packed:
                out = build(tq, tkv, *tw)
            else:
                p = dict(zip(["self." + n for n in NAMES], tw))
                q_in = T.unpack(tq, q_mask)
                kv_in = q_in if fused else T.unpack(tkv, kv_mask)
                out = T.pack(padded_attention(p, "self.", q_in, kv_in, bias, 2), q_mask)
            grads = T.backward(T.reduce_sum(T.mul(out, wgt)))
            results.append([out.array] + [grads[t] for t in [tq, tkv] + tw])
            tape.release()
        for got, want in zip(*results):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_frozen_parents_get_no_work_and_sweeps_keep_nothing(self):
        # a second sweep over the same tape, from another loss, must see
        # fresh gradients: nothing of the first sweep may stay in the node
        build, q_mask, kv_mask, _, _ = attention_build("cross, key-pad bias")
        rng = np.random.default_rng(8)
        q, kv, weights = attention_case(rng, q_mask, kv_mask)
        wgt = rng.normal(size=q.shape)
        results = []
        for losses in (("square", "weighted"), ("weighted",)):
            tape = T.GradTape()
            tq = tape.watch(T.Tensor(q))
            tw = [tape.watch(T.Tensor(w)) if n in ("wq", "bo") else w for n, w in zip(NAMES, weights)]
            out = build(tq, kv, *tw)
            assert len(tape._parents[out.node]) == 3  # the query rows, wq and bo
            for kind in losses:
                loss = T.reduce_sum(T.mul(out, out if kind == "square" else wgt))
                grads = T.backward(loss)
            results.append([np.array(grads[t]) for t in (tq, tw[0], tw[7])])
            tape.release()
        for a, b in zip(*results):
            assert np.array_equal(a, b)

    def test_shape_checks(self):
        rng = np.random.default_rng(9)
        mask = np.array([[1, 1], [1, 0]], bool)
        q, kv, weights = attention_case(rng, mask, mask)
        at = T.row_index(mask)
        with pytest.raises(ShapeError):
            T.attention(q[:2], kv, at, at, None, weights, 2)
        with pytest.raises(ShapeError):
            T.attention(q, kv, at, at, None, weights[:7], 2)
        with pytest.raises(ShapeError):
            T.attention(q, kv, at, at, None, weights, 3)
        with pytest.raises(ContractError):
            T.attention(q, kv, mask, at, None, weights, 2)


def composed_sublayer(kind, x, kv, q_mask, kv_mask, bias, norm, weights, rate, rng):
    """The layer_norm, attention or linear/relu/linear, dropout and add
    nodes that one sublayer node replaces."""
    h = T.layer_norm(x, *norm)
    if kind == "ffn":
        w1, b1, w2, b2 = weights
        out = T.linear(T.relu(T.linear(h, w1, b1)), w2, b2)
    else:
        out = T.attention(h, h if kv is None else kv, T.row_index(q_mask), T.row_index(kv_mask), bias, weights, 2)
    return T.add(x, T.dropout(out, rate, rng) if rng is not None else out)


def fused_sublayer(kind, x, kv, q_mask, kv_mask, bias, norm, weights, rate, rng):
    if kind == "ffn":
        return T.ffn_sublayer(x, norm, weights, 1e-6, rate, rng)
    masks = T.row_index(q_mask), T.row_index(kv_mask)
    return T.attention_sublayer(x, kv, *masks, bias, norm, weights, 2, 1e-6, rate, rng)


class TestSublayerNodes:
    @pytest.mark.parametrize("kind", ["self", "cross", "ffn"])
    @pytest.mark.parametrize("rate", [0.0, 0.3])
    @pytest.mark.parametrize("taped", ["all", "input", "weights", "latent"])
    def test_match_their_composition_bit_for_bit(self, kind, rate, taped):
        # the node keeps the composition's arithmetic and draws its dropout
        # mask at the same point, so the output and every gradient agree
        # exactly, whichever parents are constants
        rng = np.random.default_rng(3)
        q_mask = np.array([[1, 1, 1, 0], [1, 1, 0, 0]], bool)
        kv_mask = np.array([[1, 1, 0], [1, 1, 1]], bool) if kind == "cross" else q_mask
        d = 8
        x = rng.normal(size=(int(q_mask.sum()), d))
        kv = rng.normal(size=(int(kv_mask.sum()), d)) if kind == "cross" else None
        norm = [rng.normal(size=d) + 1.0, rng.normal(size=d)]
        if kind == "ffn":
            weights = [rng.normal(size=(d, 16)), rng.normal(size=16), rng.normal(size=(16, d)), rng.normal(size=d)]
        else:
            weights = attention_case(rng, q_mask, kv_mask, d=d)[2]
        bias = causal_bias(4) if kind == "self" else key_bias(kv_mask)
        wgt = rng.normal(size=x.shape)
        results = []
        for build in (fused_sublayer, composed_sublayer):
            tape = T.GradTape()
            watch = {
                "x": taped in ("all", "input"),
                "kv": taped in ("all", "latent"),
                "w": taped in ("all", "weights"),
            }
            tx = tape.watch(T.Tensor(x)) if watch["x"] else x
            tkv = tape.watch(T.Tensor(kv)) if kv is not None and watch["kv"] else kv
            tn = [tape.watch(T.Tensor(a)) if watch["w"] else a for a in norm]
            tw = [tape.watch(T.Tensor(a)) if watch["w"] else a for a in weights]
            out = build(kind, tx, tkv, q_mask, kv_mask, bias, tn, tw, rate, np.random.default_rng(11))
            leaves = [t for t in [tx, tkv] + tn + tw if isinstance(t, T.Tensor)]
            if not leaves:
                assert out.tape is None
                results.append([out.array])
                continue
            grads = T.backward(T.reduce_sum(T.mul(out, wgt)))
            results.append([out.array] + [np.array(grads[t]) for t in leaves])
            tape.release()
        assert len(results[0]) == len(results[1])
        for got, want in zip(*results):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("kind", ["self", "cross", "ffn"])
    def test_nodes_keep_no_layer_norm_output(self, kind, monkeypatch):
        # the backward rebuilds the layer norm's output from the normalized
        # input, so the forward's copy is freed once the node is recorded
        rng = np.random.default_rng(6)
        mask = np.array([[1, 1, 1], [1, 1, 0]], bool)
        x = rng.normal(size=(5, 4))
        kv = rng.normal(size=(5, 4)) if kind == "cross" else None
        norm = [np.ones(4), np.zeros(4)]
        if kind == "ffn":
            weights = [rng.normal(size=(4, 8)), np.zeros(8), rng.normal(size=(8, 4)), np.zeros(4)]
        else:
            weights = attention_case(rng, mask, mask)[2]
        outputs = []
        real = T.layer_norm_forward

        def spy(*args):
            result = real(*args)
            outputs.append(weakref.ref(result[0]))
            return result

        monkeypatch.setattr(T, "layer_norm_forward", spy)
        tape = T.GradTape()
        tx = tape.watch(T.Tensor(x))
        tkv = None if kv is None else tape.watch(T.Tensor(kv))
        tw = [tape.watch(T.Tensor(w)) for w in norm + weights]
        out = fused_sublayer(kind, tx, tkv, mask, mask, key_bias(mask), tw[:2], tw[2:], 0.0, None)
        assert len(outputs) == 1 and outputs[0]() is None
        grads = T.backward(T.reduce_sum(out))
        assert np.isfinite(grads.flat).all()
        tape.release()

    @pytest.mark.parametrize("kind", ["self", "cross"])
    def test_attention_node_holds_no_projection(self, kind):
        # at wide widths an attention node retains its output and what its
        # backward cannot rebuild: the normalized input, inverse deviation
        # and softmax weights; the backward projects q/k/v again
        rng = np.random.default_rng(8)
        b, t, d, heads = 8, 20, 128, 4
        mask = np.arange(t) < rng.integers(5, t + 1, size=b)[:, None]
        index, n = T.row_index(mask), int(mask.sum())
        bias = causal_bias(t) if kind == "self" else key_bias(mask)
        tape = T.GradTape()
        x = tape.watch(T.Tensor(rng.normal(size=(n, d))))
        kv = tape.watch(T.Tensor(rng.normal(size=(n, d)))) if kind == "cross" else None
        norm = [tape.watch(T.Tensor(rng.normal(size=d) + 1.0)), tape.watch(T.Tensor(rng.normal(size=d)))]
        weights = [tape.watch(T.Tensor(w)) for w in attention_case(rng, mask, mask, d=d)[2]]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = T.attention_sublayer(x, kv, index, index, bias, norm, weights, heads, 1e-6)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        kept = out.array.nbytes + 8 * (n * d + n + b * heads * t * t)
        # each held q, k or v projection would add 8 * n * d bytes (105,472)
        assert held <= kept + 16_384, f"{held} bytes held, {kept} expected"
        grads = T.backward(T.reduce_sum(out))
        assert np.isfinite(grads.flat).all()
        tape.release()

    @pytest.mark.parametrize("kind", ["self", "cross", "ffn"])
    def test_backward_is_a_pure_function_of_g(self, kind):
        # the node keeps nothing between calls of its backward: each call
        # yields the gradients of its own g, whatever was asked before
        rng = np.random.default_rng(12)
        mask = np.array([[1, 1, 1], [1, 1, 0]], bool)
        x = rng.normal(size=(5, 4))
        kv = rng.normal(size=(5, 4)) if kind == "cross" else None
        norm = [rng.normal(size=4) + 1.0, rng.normal(size=4)]
        if kind == "ffn":
            weights = [rng.normal(size=(4, 8)), rng.normal(size=8), rng.normal(size=(8, 4)), rng.normal(size=4)]
        else:
            weights = attention_case(rng, mask, mask)[2]
        tape = T.GradTape()
        tx, tkv = tape.watch(T.Tensor(x)), None if kv is None else tape.watch(T.Tensor(kv))
        tn = [tape.watch(T.Tensor(a)) for a in norm]
        tw = [tape.watch(T.Tensor(a)) for a in weights]
        leaves = [t for t in [tx, tkv] + tn + tw if t is not None]
        out = fused_sublayer(kind, tx, tkv, mask, mask, key_bias(mask), tn, tw, 0.0, None)
        backward = tape._backwards[out.node]
        g1, g2 = rng.normal(size=out.shape), rng.normal(size=out.shape)
        first, second, again = list(backward(g1)), list(backward(g2)), list(backward(g1))
        assert len(first) == len(leaves)
        for a, b in zip(first, again):
            assert np.array_equal(a, b)
        # a sweep from sum(out * g) hands the node exactly g
        for g, yielded in ((g1, first), (g2, second)):
            grads = T.backward(T.reduce_sum(T.mul(out, g)))
            for leaf, want in zip(leaves, yielded):
                assert np.array_equal(grads[leaf], want)
        tape.release()

    def test_one_node_per_sublayer(self):
        rng = np.random.default_rng(4)
        mask = np.ones((2, 3), bool)
        at = T.row_index(mask)
        x = rng.normal(size=(6, 4))
        tape = T.GradTape()
        tx = tape.watch(T.Tensor(x))
        norm = [np.ones(4), np.zeros(4)]
        y = T.attention_sublayer(tx, None, at, at, None, norm, attention_case(rng, mask, mask)[2], 2, 1e-6)
        ffn = [rng.normal(size=(4, 8)), np.zeros(8), rng.normal(size=(8, 4)), np.zeros(4)]
        T.ffn_sublayer(y, norm, ffn, 1e-6)
        assert len(tape) == 3
        tape.release()

    def test_shape_and_rate_checks(self):
        rng = np.random.default_rng(5)
        mask = np.ones((2, 3), bool)
        at = T.row_index(mask)
        x = rng.normal(size=(6, 4))
        weights = attention_case(rng, mask, mask)[2]
        ffn = [rng.normal(size=(4, 8)), np.zeros(8), rng.normal(size=(8, 4)), np.zeros(4)]
        norm = [np.ones(4), np.zeros(4)]
        with pytest.raises(ShapeError):
            T.attention_sublayer(x.reshape(2, 3, 4), None, at, at, None, norm, weights, 2, 1e-6)
        with pytest.raises(ShapeError):
            T.ffn_sublayer(x, [np.ones(3), np.zeros(4)], ffn, 1e-6)
        with pytest.raises(ShapeError):
            T.attention_sublayer(x[:5], None, at, at, None, norm, weights, 2, 1e-6)
        with pytest.raises(ContractError):
            T.ffn_sublayer(x, norm, ffn, 1e-6, 1.0, rng)


class TestStackedView:
    def test_views_of_one_buffer_stack_without_a_copy(self):
        tensors = T.tensors_in_one_buffer([(2, 3)] * 3 + [(3,)], [np.full((2, 3), float(i)) for i in range(3)] + [0.0])
        arrays = [t.array for t in tensors[:3]]
        view = T.stacked_view(arrays)
        assert view.shape == (3, 2, 3) and all(np.shares_memory(view[i], a) for i, a in enumerate(arrays))
        arrays[1][0, 0] = 7.0
        assert view[1, 0, 0] == 7.0

    def test_arrays_apart_or_of_other_shapes_are_refused(self):
        tensors = T.tensors_in_one_buffer([(2, 3)] * 3 + [(6,)], [0.0] * 4)
        arrays = [t.array for t in tensors]
        with pytest.raises(ContractError):
            T.stacked_view([arrays[0], arrays[2]])
        with pytest.raises(ContractError):
            T.stacked_view([np.zeros((2, 3)), np.zeros((2, 3))])
        with pytest.raises(ContractError):
            T.stacked_view([arrays[2], arrays[3]])
