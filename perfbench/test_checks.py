"""Each benchmark check passes on the program's output and rejects a corrupted copy.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import checks  # noqa: E402
from interlingua import data, latent, tensor, toy, training, transformer  # noqa: E402
from interlingua.evaluation import bleu, bleu_record  # noqa: E402

MAX_LEN = 16


@pytest.fixture(scope="module")
def toy_setup():
    """A small untrained system and one batch of the toy task, all in memory."""
    pairs = toy.toy_pairs(12, seed=3)
    sides = {"x": [p[0] for p in pairs], "y": [p[1] for p in pairs]}
    vocabs, sequences = {}, {}
    for lang, lines in sides.items():
        bpe = data.learn_bpe(lines, 200)
        segmented = [data.apply_bpe(bpe, line) for line in lines]
        vocabs[lang] = data.build_vocabulary(segmented, 64)
        sequences[lang] = [
            np.array(vocabs[lang].encode(toks) + [transformer.EOS_ID], dtype=np.int32)
            for toks in segmented
        ]
    corpus = data.ParallelCorpus(languages=("x", "y"), sequences=sequences)
    sizes = {lang: len(v) for lang, v in vocabs.items()}
    config = transformer.ModelConfig(
        num_blocks=1, num_heads=2, d_model=16, d_ff=32, vocab_size=max(sizes.values()), max_len=MAX_LEN
    )
    system = training.build_system(config, sizes, seed=5)
    batch = training.make_batch(corpus, range(6))
    return system, batch, sides


def test_greedy_check_rejects_flipped_token(toy_setup):
    system, batch, _ = toy_setup
    states = transformer.encode(system.modules["x"], batch.x)
    mask = transformer.pad_mask(batch.x)
    decoder = system.modules["y"]
    outputs = transformer.greedy_decode(decoder, states, mask, MAX_LEN)
    assert checks.greedy_problems(decoder, states, mask, outputs, MAX_LEN) == []

    flipped = [list(row) for row in outputs]
    token = flipped[0][0]
    flipped[0][0] = 4 if token != 4 else 5
    assert checks.greedy_problems(decoder, states, mask, flipped, MAX_LEN)


@pytest.mark.parametrize("field", ["bleu", "precisions", "brevity_penalty", "hyp_length", "ref_length"])
def test_bleu_check_rejects_perturbed_field(toy_setup, field):
    _, _, sides = toy_setup
    refs = [line.split() for line in sides["y"]]
    hyps = [words[:-1] if i % 2 else words for i, words in enumerate(refs)]
    hyps[0] = hyps[0][::-1]
    record = bleu_record(bleu(hyps, refs))
    reference = checks.corpus_bleu(hyps, refs)
    assert 0.0 < reference["bleu"] < 100.0 and reference["brevity_penalty"] < 1.0
    assert checks.bleu_problems("eval", record, reference) == []

    if field == "precisions":
        record[field][2] += 1e-6
    elif field.endswith("_length"):
        record[field] += 1
    else:
        record[field] += 1e-6
    assert checks.bleu_problems("eval", record, reference)


def test_directional_check_rejects_perturbed_gradient(toy_setup):
    system, batch, _ = toy_setup
    cfg = training.TrainConfig(batch_size=6, distance_mode="corr")
    params = list(system.named_parameters().values())
    tape = tensor.GradTape()
    try:
        for p in params:
            tape.watch(p)
        grads = training.backward(training.joint_loss(batch, system, cfg)[0])
        grad_arrays = [np.array(grads[p]) for p in params]
    finally:
        tape.release()
    arrays = [p.array for p in params]
    before = [a.copy() for a in arrays]

    def loss():
        return training.joint_loss(batch, system, cfg)[0].item()

    assert checks.directional_problems(loss, arrays, grad_arrays, np.random.default_rng(0)) == []
    assert all(np.array_equal(a, b) for a, b in zip(arrays, before))

    grad_arrays[3].flat[0] += 1e-2
    assert checks.directional_problems(loss, arrays, grad_arrays, np.random.default_rng(0))


def test_relu_gates_remove_kink_bias():
    """A ReLU input that changes sign inside the step biases the plain
    central difference; replaying the tape pass's gates removes the bias
    and still rejects a perturbed gradient."""
    shape = (4, 3)
    direction = np.random.default_rng(0).standard_normal(shape)
    x = tensor.Tensor(np.random.default_rng(1).standard_normal(shape))
    # on the step's far side this input crosses zero
    x.array.flat[0] = -0.5 * checks.FD_EPS * direction.flat[0] / np.linalg.norm(direction)

    def forward():
        return tensor.add(tensor.reduce_sum(tensor.relu(x)), tensor.reduce_sum(tensor.mul(x, x)))

    gates = checks.ReluGates(tensor)
    tape = tensor.GradTape()
    try:
        tape.watch(x)
        with gates.record():
            loss = forward()
        grad = [np.array(tensor.backward(loss)[x])]
    finally:
        tape.release()

    def gated():
        with gates.replay():
            return forward().item()

    assert checks.directional_problems(lambda: forward().item(), [x.array], grad, np.random.default_rng(0))
    assert checks.directional_problems(gated, [x.array], grad, np.random.default_rng(0)) == []
    grad[0].flat[5] += 1e-2
    assert checks.directional_problems(gated, [x.array], grad, np.random.default_rng(0))


def test_quantizer_check_rejects_wrong_index():
    codebook = latent.init_codebook(4, 8, 16, seed=2)
    states = np.random.default_rng(1).standard_normal((3, 5, 16))
    _, indices, _, _ = latent.quantize(codebook, states)
    tables = [t.array for t in codebook.tables]
    assert checks.quantizer_problems(tables, states, indices) == []

    wrong = indices.copy()
    wrong[1, 2, 3] = (wrong[1, 2, 3] + 1) % 8
    assert checks.quantizer_problems(tables, states, wrong)
