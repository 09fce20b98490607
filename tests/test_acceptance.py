"""End-to-end acceptance gate for the whole package.

Ten go/no-go checks, each with explicit numeric tolerances and, where a
budget is stated, a wall-clock limit. Every check appends one PASS or
FAIL line to the terminal summary (see conftest) so the verdict reads at
a glance. Benchmark-scale quality numbers are out of reach on a desk
machine; these checks pin the properties that make the full-scale runs
trustworthy: exact gradients, exact metric algebra, oracle-matched
quantization and scoring, and bit-level reproducibility.
"""

import copy
import functools
import math
import statistics
import time
import xml.etree.ElementTree as ET
from dataclasses import replace
from itertools import product
from types import SimpleNamespace

import numpy as np
import pytest

import conftest as suite
from conftest import prepare_toy
from interlingua import data as D
from interlingua import tensor as T
from interlingua import toy
from interlingua.evaluation import bleu, decode_corpus_side, interlingua_eval, scoring_words
from interlingua.latent import corr_distance, init_codebook, max_distance, quantize
from interlingua.training import (
    PairBatch,
    TrainConfig,
    TrainState,
    add_language,
    build_system,
    joint_loss,
    load_checkpoint,
    make_batch,
    save_checkpoint,
    train,
)
from interlingua.transformer import EOS_ID, PAD_ID, LanguageModule, ModelConfig
from interlingua.viz import (
    EmbeddingDump,
    export_embeddings,
    pca_project,
    projection_components,
    render_scatter,
)
from oracles import assert_grad_close, finite_difference, nearest_row_bruteforce

OVERFIT_STEPS = 1000
OVERFIT_LR = 3e-3
SEED_COUNT = 20


def criterion(num: int, title: str):
    """Wrap a test so it leaves one PASS/FAIL line in the summary."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                detail = fn(*args, **kwargs)
            except BaseException as err:
                wall = time.perf_counter() - t0
                reason = f"{type(err).__name__}: {err}".replace("\n", " ")
                suite.ACCEPTANCE_RESULTS.append(
                    f"[{num:2d}] {title}: FAIL after {wall:.1f}s ({reason[:200]})"
                )
                raise
            wall = time.perf_counter() - t0
            extra = f" ({detail})" if detail else ""
            suite.ACCEPTANCE_RESULTS.append(f"[{num:2d}] {title}: PASS in {wall:.1f}s{extra}")

        return wrapper

    return deco


# ---------------------------------------------------------------------------
# shared fixtures: the bundled synthetic task at the acceptance scale
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def assets(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance")
    corpus_xy, vocabs, models, paths = prepare_toy(
        root, n_train=32, n_test=8, seed=0, merges=200, vocab_cap=64
    )
    lines_x = paths["train_x"].read_text(encoding="utf-8").splitlines()
    lines_z = toy.renamed_lines(lines_x, prefix="z")
    path_z = root / "train.z"
    path_z.write_text("\n".join(lines_z) + "\n", encoding="utf-8")
    bpe_z = D.learn_bpe(lines_z, 200)
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
    model_config = ModelConfig(num_blocks=2, num_heads=2, d_model=32, max_len=16)
    return SimpleNamespace(
        corpus_xy=corpus_xy,
        corpus_xz=corpus_xz,
        vocabs=vocabs,
        vocab_z=vocab_z,
        model_config=model_config,
        sizes_xy={"x": len(vocabs["x"]), "y": len(vocabs["y"])},
    )


@pytest.fixture(scope="module")
def overfit(assets):
    """Six full training runs: both distance modes, three seeds each."""
    runs = {}
    for mode in ("corr", "none"):
        for seed in (0, 1, 2):
            system = build_system(assets.model_config, assets.sizes_xy, seed=seed)
            cfg = TrainConfig(
                learning_rate=OVERFIT_LR,
                batch_size=16,
                max_steps=OVERFIT_STEPS,
                distance_mode=mode,
                seed=seed,
            )
            t0 = time.perf_counter()
            state = train(system, TrainState(), assets.corpus_xy, cfg)
            runs[(mode, seed)] = (system, state, time.perf_counter() - t0)
    return runs


# ---------------------------------------------------------------------------
# criterion 1: gradients against central finite differences
# ---------------------------------------------------------------------------

VALUE_OPS = {
    "add", "sub", "mul", "div", "neg", "sqrt", "absolute", "relu",
    "matmul", "linear", "transpose", "reshape", "concat",
    "reduce_sum", "reduce_mean", "reduce_max",
    "softmax", "layer_norm", "cross_entropy", "embedding", "dropout",
    "pack", "unpack", "segment_mean", "attention", "attention_sublayer", "ffn_sublayer",
}


def _check_fd(build, arrays):
    tape = T.GradTape()
    ts = [tape.watch(T.Tensor(a)) for a in arrays]
    grads = T.backward(build(*ts))
    analytic = [np.array(grads[t]) for t in ts]
    tape.release()
    numeric = finite_difference(lambda: build(*[T.Tensor(a) for a in arrays]).item(), arrays)
    for got, want in zip(analytic, numeric):
        assert_grad_close(got, want)


def _op_cases(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4,))
    pos = rng.uniform(0.5, 2.0, size=(3, 4))
    signed = rng.uniform(0.2, 1.0, size=(3, 4)) * rng.choice([-1.0, 1.0], size=(3, 4))
    w = rng.normal(size=(3, 4))
    m1, m2, wm = rng.normal(size=(3, 4)), rng.normal(size=(4, 2)), rng.normal(size=(3, 2))
    bm1, bm2, wbm = rng.normal(size=(2, 3, 4)), rng.normal(size=(4, 3)), rng.normal(size=(2, 3, 3))
    wtr = rng.normal(size=(3, 2, 4))
    w26 = rng.normal(size=(2, 6))
    c1, c2, wc = rng.normal(size=(2, 3)), rng.normal(size=(2, 3)), rng.normal(size=(4, 3))
    red, wred = rng.normal(size=(3, 4, 2)), rng.normal(size=(3, 2))
    sep = rng.permutation(np.linspace(-2.0, 2.0, 12)).reshape(3, 4)
    xn = rng.normal(size=(2, 3, 6))
    gain, bias, wln = rng.normal(size=(6,)) + 1.0, rng.normal(size=(6,)), rng.normal(size=(2, 3, 6))
    logits = rng.normal(size=(2, 4, 6))
    targets = rng.integers(0, 6, size=(2, 4))
    targets[:, 1] = 5  # keep every row alive for the masked average
    table, ids, wemb = rng.normal(size=(7, 3)), rng.integers(0, 7, size=(2, 5)), rng.normal(size=(2, 5, 3))
    dx, wdx = rng.normal(size=(4, 4)), rng.normal(size=(4, 4))
    lx, lw, lb = rng.normal(size=(2, 3, 4)), rng.normal(size=(4, 5)), rng.normal(size=(5,))
    wl2, wl3 = rng.normal(size=(3, 5)), rng.normal(size=(2, 3, 5))
    lxt = rng.normal(size=(4, 3, 2))
    pmask = np.array([[True, True, False], [True, False, False]])
    px, wpx = rng.normal(size=(2, 3, 2)), rng.normal(size=(3, 2))
    prows, wprows = rng.normal(size=(3, 2)), rng.normal(size=(2, 3, 2))
    seg, wseg = rng.normal(size=(5, 3)), rng.normal(size=(2, 3))
    # attention: query mask, key/value mask (None: self-attention), bias
    qm, km = np.array([[1, 1, 0], [1, 1, 1]], bool), np.array([[1, 1, 1, 0], [1, 0, 0, 0]], bool)
    key_bias = lambda m: np.where(m, 0.0, -1e9)[:, None, None, :]  # noqa: E731
    causal = np.triu(np.full((3, 3), -1e9), k=1)[None, None]
    att = {
        "self, key-pad bias": (qm, None, key_bias(qm)),
        "self, causal bias": (qm, None, causal),
        "cross, key-pad bias": (qm, km, key_bias(km)),
        "cross, no padding": (np.ones((2, 2), bool), np.ones((2, 3), bool), None),
    }

    def s(t, wgt):
        return T.reduce_sum(T.mul(t, wgt))

    def attention_case(q_mask, kv_mask, bias):
        q = rng.normal(size=(int(q_mask.sum()), 4))
        weights = [rng.normal(size=(4, 4) if i % 2 == 0 else (4,)) for i in range(8)]
        wgt, q_at = rng.normal(size=q.shape), T.row_index(q_mask)
        if kv_mask is None:
            return [q] + weights, lambda tq, *tw: s(T.attention(tq, tq, q_at, q_at, bias, tw, 2), wgt)
        kv, kv_at = rng.normal(size=(int(kv_mask.sum()), 4)), T.row_index(kv_mask)
        return [q, kv] + weights, lambda tq, tkv, *tw: s(T.attention(tq, tkv, q_at, kv_at, bias, tw, 2), wgt)

    attention_cases = [("attention", *attention_case(*spec)) for spec in att.values()]

    def drop(rate):
        # a fresh generator per evaluation: every probe sees the same mask
        return lambda: np.random.default_rng(seed) if rate else None

    def attention_sublayer_case(q_mask, kv_mask, bias, rate):
        x = rng.normal(size=(int(q_mask.sum()), 4))
        norm = [rng.normal(size=(4,)) + 1.0, rng.normal(size=(4,))]
        weights = [rng.normal(size=(4, 4) if i % 2 == 0 else (4,)) for i in range(8)]
        wgt, rng_of = rng.normal(size=x.shape), drop(rate)
        masks = (T.row_index(q_mask), T.row_index(q_mask if kv_mask is None else kv_mask))

        def build(tx, tkv, tg, tb, *tw):
            return s(T.attention_sublayer(tx, tkv, *masks, bias, (tg, tb), tw, 2, 1e-6, rate, rng_of()), wgt)

        if kv_mask is None:
            return [x] + norm + weights, lambda tx, *rest: build(tx, None, *rest)
        return [x, rng.normal(size=(int(kv_mask.sum()), 4))] + norm + weights, build

    sublayer_cases = [
        ("attention_sublayer", *attention_sublayer_case(*spec, rate))
        for spec, rate in zip(att.values(), (0.0, 0.35, 0.35, 0.0))
    ]

    def ffn_sublayer_case(rate):
        x = rng.normal(size=(5, 4))
        norm = [rng.normal(size=(4,)) + 1.0, rng.normal(size=(4,))]
        weights = [rng.normal(size=(4, 6)), rng.normal(size=(6,)), rng.normal(size=(6, 4)), rng.normal(size=(4,))]
        wgt, rng_of = rng.normal(size=x.shape), drop(rate)
        return [x] + norm + weights, lambda tx, tg, tb, *tw: s(T.ffn_sublayer(tx, (tg, tb), tw, 1e-6, rate, rng_of()), wgt)

    sublayer_cases += [("ffn_sublayer", *ffn_sublayer_case(rate)) for rate in (0.0, 0.35)]

    return [
        ("add", [a, b], lambda ta, tb: s(T.add(ta, tb), w)),
        ("sub", [a, b], lambda ta, tb: s(T.sub(ta, tb), w)),
        ("mul", [a, b], lambda ta, tb: s(T.mul(ta, tb), w)),
        ("div", [a, pos], lambda ta, tp: s(T.div(ta, tp), w)),
        ("neg", [a], lambda ta: s(T.neg(ta), w)),
        ("sqrt", [pos], lambda tp: s(T.sqrt(tp), w)),
        ("absolute", [signed], lambda tv: s(T.absolute(tv), w)),
        ("relu", [signed], lambda tv: s(T.relu(tv), w)),
        ("matmul", [m1, m2], lambda t1, t2: s(T.matmul(t1, t2), wm)),
        ("matmul", [bm1, bm2], lambda t1, t2: s(T.matmul(t1, t2), wbm)),
        ("linear", [m1, lw], lambda tx, tw: s(T.linear(tx, tw), wl2)),
        ("linear", [lx, lw, lb], lambda tx, tw, tb: s(T.linear(tx, tw, tb), wl3)),
        ("linear", [lxt, lw, lb], lambda tx, tw, tb: s(T.linear(T.transpose(tx, (2, 1, 0)), tw, tb), wl3)),
        ("linear", [lw, lb], lambda tw, tb: s(T.linear(lxt.transpose(2, 1, 0), tw, tb), wl3)),
        ("transpose", [bm1], lambda tv: s(T.transpose(tv, (1, 0, 2)), wtr)),
        ("reshape", [a], lambda ta: s(T.reshape(ta, (2, 6)), w26)),
        ("concat", [c1, c2], lambda t1, t2: s(T.concat([t1, t2], axis=0), wc)),
        ("reduce_sum", [red], lambda tv: s(T.reduce_sum(tv, axis=1), wred)),
        ("reduce_mean", [red], lambda tv: s(T.reduce_mean(tv, axis=1), wred)),
        ("reduce_max", [sep], lambda tv: T.mul(T.reduce_max(tv), 2.0)),
        ("softmax", [a], lambda ta: s(T.softmax(ta, axis=-1), w)),
        ("layer_norm", [xn, gain, bias], lambda tx, tg, tb: s(T.layer_norm(tx, tg, tb), wln)),
        ("cross_entropy", [logits], lambda tl: T.cross_entropy(tl, targets)),
        ("cross_entropy", [logits], lambda tl: T.cross_entropy(tl, targets[1:], rows=slice(1, None))),
        ("embedding", [table], lambda tt: s(T.embedding(tt, ids), wemb)),
        ("dropout", [dx], lambda tx: s(T.dropout(tx, 0.35, np.random.default_rng(seed)), wdx)),
        ("pack", [px], lambda tv: s(T.pack(tv, pmask), wpx)),
        ("unpack", [prows], lambda tv: s(T.unpack(tv, pmask), wprows)),
        ("segment_mean", [seg], lambda tv: s(T.segment_mean(tv, np.array([3, 2])), wseg)),
        ("embedding", [table], lambda tt: s(T.embedding(tt, ids, 1.5, wemb), wemb)),
    ] + attention_cases + sublayer_cases


def _entry_fd(f, arr, idx, step=1e-5):
    flat = arr.reshape(-1)
    orig = flat[idx]
    flat[idx] = orig + step
    fp = f()
    flat[idx] = orig - step
    fm = f()
    flat[idx] = orig
    return (fp - fm) / (2.0 * step)


def _tiny_joint_setup(seed):
    rng = np.random.default_rng(seed)
    cfg_m = ModelConfig(num_blocks=2, num_heads=2, d_model=8, d_ff=16, vocab_size=13, max_len=8)
    system = build_system(cfg_m, {"x": 13, "y": 13}, seed=seed)

    def rows(count, width):
        out = np.full((count, width), PAD_ID, dtype=np.int64)
        for i in range(count):
            n = int(rng.integers(2, width))
            out[i, : n - 1] = rng.integers(4, 13, size=n - 1)
            out[i, n - 1] = EOS_ID
        return out

    batch = PairBatch("x", "y", rows(3, 5), rows(3, 5))
    cfg_t = TrainConfig(
        learning_rate=1e-3, batch_size=3, max_steps=1, distance_mode="corr", seed=seed
    )
    return system, batch, cfg_t


@pytest.mark.slow
@criterion(1, "gradient suite")
def test_01_gradient_suite():
    t0 = time.perf_counter()
    covered = set()
    for seed in range(SEED_COUNT):
        for op, arrays, build in _op_cases(seed):
            covered.add(op)
            _check_fd(build, arrays)
    assert covered == VALUE_OPS, f"missing op coverage: {VALUE_OPS - covered}"

    # the two gradient-defining ops cannot be probed by finite differences;
    # their defining identities are checked exactly instead
    rng = np.random.default_rng(99)
    x = rng.normal(size=(3, 4))
    wgt = rng.normal(size=(3, 4))
    tape = T.GradTape()
    tx = tape.watch(T.Tensor(x))
    grads = T.backward(T.reduce_sum(T.mul(tx, T.stop_gradient(tx))))
    assert np.array_equal(np.array(grads[tx]), x)
    tape.release()
    tape = T.GradTape()
    tx = tape.watch(T.Tensor(x))
    grads = T.backward(T.reduce_sum(T.mul(T.straight_through(tx, rng.normal(size=(3, 4))), wgt)))
    assert np.array_equal(np.array(grads[tx]), wgt)
    tape.release()

    # composed 2-block encoder/decoder stack under the full joint objective,
    # one randomly sampled entry per parameter per seed
    checked = 0
    for seed in range(SEED_COUNT):
        system, batch, cfg_t = _tiny_joint_setup(seed)
        params = system.named_parameters()
        tape = T.GradTape()
        for t in params.values():
            tape.watch(t)
        loss, _ = joint_loss(batch, system, cfg_t)
        grads = T.backward(loss)
        analytic = {name: np.array(grads[t]) for name, t in params.items()}
        tape.release()
        picker = np.random.default_rng(1000 + seed)

        def f():
            return joint_loss(batch, system, cfg_t)[0].item()

        for name, t in params.items():
            found = False
            for _ in range(8):
                idx = int(picker.integers(t.array.size))
                full = _entry_fd(f, t.array, idx, step=1e-5)
                half = _entry_fd(f, t.array, idx, step=5e-6)
                if abs(full) < 1e-8 and abs(half) < 1e-8:
                    # the difference quotient is rounding noise: the loss is
                    # flat along this entry (e.g. key-projection biases,
                    # which softmax cancels), so require a matching zero
                    assert abs(analytic[name].reshape(-1)[idx]) < 1e-8
                    checked += 1
                    found = True
                    break
                if abs(full - half) / max(abs(full), abs(half)) > 5e-4:
                    # the difference quotient disagrees with itself across
                    # step sizes: a piecewise-linear kink sits inside the
                    # probe interval, so central differences are not a
                    # valid oracle at this entry; sample another one
                    continue
                assert_grad_close(analytic[name].reshape(-1)[idx], half)
                checked += 1
                found = True
                break
            assert found, f"no smooth probe point found for {name} at seed {seed}"
    wall = time.perf_counter() - t0
    assert wall < 120.0, f"gradient suite took {wall:.1f}s, budget 120s"
    return f"{len(VALUE_OPS)} ops x {SEED_COUNT} seeds, {checked} composite entries"


# ---------------------------------------------------------------------------
# criterion 2: distance metrics
# ---------------------------------------------------------------------------


@criterion(2, "distance metrics")
def test_02_distance_metrics():
    t0 = time.perf_counter()
    for seed in range(10):
        rng = np.random.default_rng(seed)
        h = rng.normal(size=(16, 8))
        assert abs(corr_distance(T.Tensor(h), T.Tensor(h)).item()) <= 1e-9
        assert abs(corr_distance(T.Tensor(h), T.Tensor(-h)).item() - 2.0) <= 1e-9

    hx = T.Tensor([[1.0], [2.0], [3.0]])
    hy = T.Tensor([[1.0], [2.0], [4.0]])
    assert corr_distance(hx, hy).item() == pytest.approx(1.0 - 0.9820, abs=1e-3)

    rng = np.random.default_rng(7)
    for _ in range(1000):
        x = rng.normal(size=(4, 6))
        y = rng.normal(size=(4, 6))
        z = rng.normal(size=(4, 6))
        dxy = max_distance(T.Tensor(x), T.Tensor(y)).item()
        dyx = max_distance(T.Tensor(y), T.Tensor(x)).item()
        dxz = max_distance(T.Tensor(x), T.Tensor(z)).item()
        dyz = max_distance(T.Tensor(y), T.Tensor(z)).item()
        assert dxy == dyx
        assert dxy >= 0.0
        assert max_distance(T.Tensor(x), T.Tensor(x)).item() == 0.0
        assert dxz <= dxy + dyz + 1e-12
        assert dxy == float(np.max(np.abs(x - y)))
    wall = time.perf_counter() - t0
    assert wall < 30.0, f"distance checks took {wall:.1f}s, budget 30s"
    return "exactness 1e-9, hand case 1e-3, 1000 metric batches"


# ---------------------------------------------------------------------------
# criterion 3: decomposed quantizer vs exhaustive search
# ---------------------------------------------------------------------------


@criterion(3, "quantizer vs brute force")
def test_03_quantizer_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    sub = 3
    compared = 0
    for n, k in product((1, 2, 4), (2, 8, 64)):
        cb = init_codebook(n, k, n * sub, seed=100 * n + k)
        x = rng.normal(size=(1000, n * sub))
        _, idx, _, _ = quantize(cb, T.Tensor(x))
        for j, table in enumerate(cb.tables):
            rows = table.array
            part = x[:, j * sub : (j + 1) * sub]
            for i in range(x.shape[0]):
                assert idx[i, j] == nearest_row_bruteforce(rows, part[i])
                compared += 1

    for n, k in product((1, 2, 3), (1, 2, 3)):
        cb = init_codebook(n, k, n * sub, seed=17 + n + 10 * k)
        outputs = set()
        for combo in product(range(k), repeat=n):
            vec = np.concatenate([cb.tables[j].array[c] for j, c in enumerate(combo)])
            outputs.add(vec.tobytes())
        assert len(outputs) == k**n

    # straight-through: gradient through the discretization is exactly identity
    x = rng.normal(size=(50, 4 * sub))
    wgt = rng.normal(size=(50, 4 * sub))
    cb = init_codebook(4, 8, 4 * sub, seed=5)
    tape = T.GradTape()
    tx = tape.watch(T.Tensor(x))
    out, _, _, _ = quantize(cb, tx)
    grads = T.backward(T.reduce_sum(T.mul(out, wgt)))
    assert np.array_equal(np.array(grads[tx]), wgt)
    tape.release()
    wall = time.perf_counter() - t0
    assert wall < 60.0, f"quantizer checks took {wall:.1f}s, budget 60s"
    return f"{compared} nearest-neighbor comparisons"


# ---------------------------------------------------------------------------
# criterion 4: corpus BLEU against hand-computed values
# ---------------------------------------------------------------------------


@criterion(4, "corpus scoring oracle")
def test_04_bleu_oracle():
    t0 = time.perf_counter()
    lines = [["the", "cat", "sat", "on", "the", "mat"], ["dogs", "run", "fast", "today"]]
    assert bleu(lines, lines).score == 100.0

    clip = bleu([["the"] * 7], [["the", "cat", "is", "on", "the", "mat"]])
    assert clip.precisions[0] == 2 / 7

    hyps = [
        "the cat sat on the mat",
        "a quick brown fox",
        "dogs run fast today",
        "she reads old books slowly",
        "it rains it rains",
    ]
    refs = [
        "the cat sat on the mat",
        "the quick brown fox jumps",
        "dogs run fast today",
        "she reads old books",
        "it rains all day",
    ]
    report = bleu([h.split() for h in hyps], [r.split() for r in refs])
    # clipped n-gram counts tallied by hand on the five sentence pairs
    fractions = (19 / 23, 14 / 18, 9 / 13, 5 / 8)
    expected = math.exp(sum(math.log(f) for f in fractions) / 4.0) * 100.0
    assert report.hypothesis_length == 23
    assert report.reference_length == 23
    assert report.brevity_penalty == 1.0
    for got, want in zip(report.precisions, fractions):
        assert got == pytest.approx(want, abs=1e-12)
    assert report.score == pytest.approx(expected, abs=1e-6)
    wall = time.perf_counter() - t0
    assert wall < 5.0, f"scoring checks took {wall:.1f}s, budget 5s"
    return f"hand-computed corpus score {expected:.2f}"


# ---------------------------------------------------------------------------
# criterion 5: joint objective end to end on the bundled task
# ---------------------------------------------------------------------------


@pytest.mark.slow
@criterion(5, "overfit end to end")
def test_05_overfit_end_to_end(assets, overfit):
    t0 = time.perf_counter()
    system, state, train_wall = overfit[("corr", 0)]
    first, last = state.history[0], state.history[-1]
    assert last["loss"] <= 0.5 * first["loss"], (
        f"loss only moved {first['loss']:.3f} -> {last['loss']:.3f}"
    )
    assert last["corr_distance"] < first["corr_distance"]

    autos = {}
    reports = {r.decoder_lang: r for r in interlingua_eval(system, assets.corpus_xy, assets.vocabs)}
    for decoder in ("x", "y"):
        report = reports[decoder]
        autos[decoder] = report.bleu_autoencoder.score
        assert report.bleu_autoencoder.score >= 90.0, (
            f"{decoder} autoencoding scored {report.bleu_autoencoder.score:.2f}"
        )
        assert report.bleu_autoencoder.score >= report.bleu_translation.score
    wall = train_wall + (time.perf_counter() - t0)
    assert wall < 600.0, f"overfit criterion took {wall:.1f}s, budget 600s"
    return (
        f"loss {first['loss']:.2f}->{last['loss']:.2f}, "
        f"auto x {autos['x']:.1f} y {autos['y']:.1f}, train {train_wall:.0f}s"
    )


# ---------------------------------------------------------------------------
# criterion 6: the distance term demonstrably pulls languages together
# ---------------------------------------------------------------------------


@pytest.mark.slow
@criterion(6, "distance term ablation")
def test_06_distance_ablation(overfit):
    finals = {
        mode: statistics.median(
            overfit[(mode, seed)][1].history[-1]["corr_distance"] for seed in (0, 1, 2)
        )
        for mode in ("corr", "none")
    }
    assert finals["none"] > finals["corr"], (
        f"median final correlation distance: none {finals['none']:.4f}, corr {finals['corr']:.4f}"
    )
    return f"median final distance none {finals['none']:.4f} > corr {finals['corr']:.4f}"


# ---------------------------------------------------------------------------
# criterion 7: extending a trained pair with a third language
# ---------------------------------------------------------------------------


@pytest.mark.slow
@criterion(7, "language extension")
def test_07_language_extension(assets, overfit):
    t0 = time.perf_counter()
    base, _, _ = overfit[("corr", 0)]
    system = copy.deepcopy(base)
    before = {name: t.array.copy() for name, t in system.named_parameters().items()}

    assert len(assets.corpus_xy) == len(assets.corpus_xz) == 32
    for i in range(len(assets.corpus_xy)):
        assert np.array_equal(
            assets.corpus_xy.sequences["x"][i], assets.corpus_xz.sequences["x"][i]
        )

    module_z = LanguageModule("z", system.config, vocab_size=len(assets.vocab_z), seed=7)
    cfg = TrainConfig(
        learning_rate=OVERFIT_LR,
        batch_size=16,
        max_steps=OVERFIT_STEPS,
        distance_mode="corr",
        seed=7,
    )
    system, _ = add_language(system, module_z, assets.corpus_xz, cfg)

    after = system.named_parameters()
    for name, arr in before.items():
        assert np.array_equal(arr, after[name].array), f"pretrained {name} moved"

    vocab_y = assets.vocabs["y"]
    refs = [vocab_y.decode(row) for row in assets.corpus_xy.sequences["y"]]
    batch_xy = make_batch(assets.corpus_xy, range(len(assets.corpus_xy)))
    batch_xz = make_batch(assets.corpus_xz, range(len(assets.corpus_xz)))
    x_to_y = bleu(decode_corpus_side(system, "y", "x", batch_xy.x, vocab_y), refs).score
    z_to_y = bleu(decode_corpus_side(system, "y", "z", batch_xz.y, vocab_y), refs).score
    assert abs(x_to_y - z_to_y) <= 10.0, f"x->y {x_to_y:.2f} vs z->y {z_to_y:.2f}"
    wall = time.perf_counter() - t0
    assert wall < 600.0, f"extension criterion took {wall:.1f}s, budget 600s"
    return f"x->y {x_to_y:.1f}, z->y {z_to_y:.1f}, pretrained params bit-identical"


# ---------------------------------------------------------------------------
# criterion 8: determinism and persistence
# ---------------------------------------------------------------------------


@criterion(8, "determinism and persistence")
def test_08_determinism_persistence(assets, tmp_path):
    cfg = TrainConfig(learning_rate=OVERFIT_LR, batch_size=16, max_steps=30, seed=13)

    def fresh():
        return build_system(assets.model_config, assets.sizes_xy, seed=13)

    run_a = fresh()
    state_a = train(run_a, TrainState(), assets.corpus_xy, cfg)
    run_b = fresh()
    state_b = train(run_b, TrainState(), assets.corpus_xy, cfg)
    assert run_a.parameter_hash() == run_b.parameter_hash()
    assert [h["loss"] for h in state_a.history] == [h["loss"] for h in state_b.history]

    run_c = fresh()
    state_c = train(run_c, TrainState(), assets.corpus_xy, replace(cfg, max_steps=15))
    path = tmp_path / "mid.ckpt"
    save_checkpoint(run_c, state_c, path, train_config=cfg)
    loaded_system, loaded_state, _ = load_checkpoint(path)
    assert loaded_state.step == 15
    train(loaded_system, loaded_state, assets.corpus_xy, cfg)
    assert loaded_system.parameter_hash() == run_a.parameter_hash()
    for name, (m, v) in state_a.moments.items():
        lm, lv = loaded_state.moments[name]
        assert np.array_equal(m, lm) and np.array_equal(v, lv), f"moments differ for {name}"
    return "fresh runs hash-equal, resumed run bit-exact incl. optimizer moments"


# ---------------------------------------------------------------------------
# criterion 9: identical latents must score exactly 100 agreement
# ---------------------------------------------------------------------------


@pytest.mark.slow
@criterion(9, "latent swap agreement")
def test_09_latent_swap_agreement(assets, overfit):
    system, _, _ = overfit[("corr", 0)]
    vocab_x = assets.vocabs["x"]
    batch = make_batch(assets.corpus_xy, range(len(assets.corpus_xy)))
    auto = decode_corpus_side(system, "x", "x", batch.x, vocab_x)
    swapped = decode_corpus_side(system, "x", "x", batch.x, vocab_x)
    assert any(len(scoring_words(tokens)) >= 4 for tokens in auto)
    assert swapped == auto
    agreement = bleu(swapped, auto)
    assert agreement.score == 100.0
    return "agreement exactly 100.0 when the translation latent is the autoencoding latent"


# ---------------------------------------------------------------------------
# criterion 10: projection recovers planar structure; plotting is stable
# ---------------------------------------------------------------------------


@pytest.mark.slow
@criterion(10, "projection and plot stability")
def test_10_projection_and_svg(assets, overfit, tmp_path):
    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)
        basis, _ = np.linalg.qr(rng.normal(size=(12, 2)))
        coords = rng.normal(size=(40, 2)) * np.array([3.0, 1.0])
        data = coords @ basis.T + rng.normal(size=(1, 12))
        dump = EmbeddingDump(
            dim=12,
            model_hash="synthetic",
            rows=[("x", i, data[i]) for i in range(data.shape[0])],
        )
        axes = projection_components(dump)
        centered = data - data.mean(axis=0)
        recon = centered @ axes.T @ axes
        err = float(np.max(np.abs(recon - centered)))
        assert err < 1e-9, f"plane reconstruction error {err:.3e} at seed {seed}"

    system, _, _ = overfit[("corr", 0)]
    dump = export_embeddings(system, assets.corpus_xy)
    proj = pca_project(dump)
    p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
    text1 = render_scatter(proj, p1, pair_lines=True)
    text2 = render_scatter(proj, p2, pair_lines=True)
    assert text1 == text2
    assert p1.read_bytes() == p2.read_bytes()
    root = ET.fromstring(text1)
    assert root.tag.endswith("svg")
    points = [el for el in root.iter() if el.tag.endswith("circle")]
    assert len(points) >= len(dump.rows)
    return "plane recovered < 1e-9, byte-stable well-formed plot"
