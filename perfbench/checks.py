"""Correctness checks that do not trust the program's own reports.

Each check compares what the program produced with a computation made
apart from it (corpus BLEU, exhaustive nearest-row search, a central
difference) or with a property the method must have (greedy decoding
emits the argmax at every position). Every check returns a list of
problems, empty when it passes. They run after the timed phase of every
run; ``test_checks.py`` shows that each one rejects a corrupted input.
"""

from __future__ import annotations

import contextlib
import math
from collections import Counter

import numpy as np

from interlingua.transformer import BOS_ID, EOS_ID, PAD_ID, decode_teacher_forced

CONTINUE_MARK = "@@"
MAX_ORDER = 4

# program and reference follow the same formula; only summation order differs
BLEU_TOL = 1e-9
# argmax ties: logits of one position recomputed at another sequence width
# differ in the last bits, so a near-tie may resolve either way
TIE_TOL = 1e-9
# central difference along a unit direction: truncation error ~eps^2,
# rounding error ~1e-16 / eps; on trained train-toy checkpoints the
# difference from the tape stays below 2e-10
FD_EPS = 1e-5
FD_RTOL = 1e-6
FD_ATOL = 2e-9


def join_subwords(tokens) -> list[str]:
    """Glue ``@@``-marked pieces to the piece that follows them."""
    words, pending = [], ""
    for tok in tokens:
        if tok.endswith(CONTINUE_MARK):
            pending += tok[: -len(CONTINUE_MARK)]
        else:
            words.append(pending + tok)
            pending = ""
    if pending:
        words.append(pending)
    return words


def corpus_bleu(hypotheses: list[list[str]], references: list[list[str]]) -> dict:
    """4-gram corpus BLEU on word lists, with the fields the program reports.

    Clipped n-gram counts, no smoothing (a zero precision gives 0), and the
    brevity penalty exp(1 - ref/hyp) for short output.
    """
    if len(hypotheses) != len(references):
        raise ValueError(f"{len(hypotheses)} hypotheses vs {len(references)} references")
    matches = [0] * MAX_ORDER
    totals = [0] * MAX_ORDER
    hyp_len = ref_len = 0
    for hyp, ref in zip(hypotheses, references):
        hyp_len += len(hyp)
        ref_len += len(ref)
        for n in range(1, MAX_ORDER + 1):
            hyp_grams = Counter(tuple(hyp[i : i + n]) for i in range(len(hyp) - n + 1))
            ref_grams = Counter(tuple(ref[i : i + n]) for i in range(len(ref) - n + 1))
            totals[n - 1] += sum(hyp_grams.values())
            matches[n - 1] += sum((hyp_grams & ref_grams).values())
    precisions = [m / t if t else 0.0 for m, t in zip(matches, totals)]
    if hyp_len == 0:
        penalty = 0.0
    elif hyp_len >= ref_len:
        penalty = 1.0
    else:
        penalty = math.exp(1.0 - ref_len / hyp_len)
    if min(precisions) == 0.0:
        score = 0.0
    else:
        score = 100.0 * penalty * math.exp(sum(math.log(p) for p in precisions) / MAX_ORDER)
    return {
        "bleu": score,
        "precisions": precisions,
        "brevity_penalty": penalty,
        "hyp_length": hyp_len,
        "ref_length": ref_len,
    }


def bleu_problems(label: str, reported: dict, reference: dict, prefix: str = "") -> list[str]:
    """Every field of a reported BLEU record against the reference values.

    ``prefix`` selects the flattened keys of the interlingua report, such
    as ``translation_`` for ``translation_bleu``.
    """
    problems = []
    for key, want in reference.items():
        got = reported.get(prefix + key)
        if key.endswith("_length"):
            ok = got == want
        elif key == "precisions":
            ok = (
                isinstance(got, list)
                and len(got) == len(want)
                and all(abs(g - w) <= BLEU_TOL for g, w in zip(got, want))
            )
        else:
            ok = isinstance(got, (int, float)) and abs(got - want) <= BLEU_TOL
        if not ok:
            problems.append(f"{label}: {prefix}{key} is {got!r}, reference BLEU gives {want!r}")
    return problems


def greedy_problems(module, latent, src_mask, outputs: list[list[int]], max_steps: int) -> list[str]:
    """Greedy output against one teacher-forced pass over the emitted prefixes.

    Every emitted token must be the argmax of its position's logits (pad
    and bos excluded, ties within TIE_TOL accepted), and every row must
    end at eos or at ``max_steps``, with no eos before its end.
    """
    problems = []
    width = max((len(out) for out in outputs), default=0)
    if width == 0:
        return ["greedy: every row is empty"]
    prefixes = np.full((len(outputs), width), PAD_ID, dtype=np.int64)
    prefixes[:, 0] = BOS_ID
    for row, out in enumerate(outputs):
        if not out:
            problems.append(f"greedy: row {row} emitted nothing")
            continue
        if out[-1] != EOS_ID and len(out) != max_steps:
            problems.append(f"greedy: row {row} stops after {len(out)} tokens without eos")
        if EOS_ID in out[:-1]:
            problems.append(f"greedy: row {row} continues after eos")
        prefixes[row, 1 : len(out)] = out[:-1]
    logits = decode_teacher_forced(module, latent, src_mask, prefixes).array
    for row, out in enumerate(outputs):
        for pos, token in enumerate(out):
            scores = logits[row, pos].copy()
            scores[[PAD_ID, BOS_ID]] = -np.inf
            if token in (PAD_ID, BOS_ID) or scores[token] < scores.max() - TIE_TOL:
                problems.append(
                    f"greedy: row {row} position {pos} emitted {token}, "
                    f"argmax is {int(scores.argmax())}"
                )
    return problems


class ReluGates:
    """The ReLU gates of one pass of a loss, replayed in later passes.

    The loss is only piecewise smooth: a ReLU input that changes sign
    between the two points of a central difference biases it by the jump
    in the derivative (train-toy seed 1605600050 at eps 1e-5: a 3.5e-7
    error, gone at eps 3e-6). ``record()`` wraps ``module.relu`` and keeps
    each call's gate; ``replay()`` turns every ReLU into the linear map
    it is at the recorded point, so a central difference taken under it
    measures the derivative the tape computes at that point. The program's
    own ReLU backward is still checked, since the gates come from forward
    values alone.
    """

    def __init__(self, module):
        self.module = module
        self.gates: list[np.ndarray] = []

    @contextlib.contextmanager
    def record(self):
        real = self.module.relu

        def relu(a):
            out = real(a)
            self.gates.append((out.array > 0).astype(np.float64))
            return out

        self.gates = []
        self.module.relu = relu
        try:
            yield
        finally:
            self.module.relu = real

    @contextlib.contextmanager
    def replay(self):
        real = self.module.relu
        calls = 0

        def relu(a):
            nonlocal calls
            if calls >= len(self.gates):
                raise RuntimeError(f"ReLU call {calls + 1} was not recorded")
            gate = self.gates[calls]
            calls += 1
            return self.module.mul(a, gate)

        self.module.relu = relu
        try:
            yield
        finally:
            self.module.relu = real
        if calls != len(self.gates):
            raise RuntimeError(f"{calls} ReLU calls replayed, {len(self.gates)} recorded")


def directional_problems(loss_fn, arrays: list[np.ndarray], grads: list[np.ndarray], rng) -> list[str]:
    """Tape gradient against a central difference along one random direction.

    ``loss_fn()`` must re-read ``arrays``; they are perturbed in place and
    restored bit for bit afterwards. For a loss with ReLUs, ``loss_fn``
    should evaluate under ``ReluGates.replay()`` of the tape's pass.
    """
    direction = [rng.standard_normal(a.shape) for a in arrays]
    norm = math.sqrt(sum(float(np.vdot(d, d)) for d in direction))
    direction = [d / norm for d in direction]
    analytic = sum(float(np.vdot(g, d)) for g, d in zip(grads, direction))
    saved = [a.copy() for a in arrays]
    try:
        for a, s, d in zip(arrays, saved, direction):
            a[...] = s + FD_EPS * d
        plus = loss_fn()
        for a, s, d in zip(arrays, saved, direction):
            a[...] = s - FD_EPS * d
        minus = loss_fn()
    finally:
        for a, s in zip(arrays, saved):
            a[...] = s
    numeric = (plus - minus) / (2.0 * FD_EPS)
    if not abs(numeric - analytic) <= FD_ATOL + FD_RTOL * abs(analytic):
        return [
            f"gradient: directional derivative {analytic!r} from the tape, "
            f"{numeric!r} from central differences"
        ]
    return []


def quantizer_problems(tables: list[np.ndarray], states: np.ndarray, indices: np.ndarray) -> list[str]:
    """Quantizer indices against an exhaustive nearest-row search per slice.

    ``states`` is [..., D]; table ``j`` covers slice ``j`` of D. A chosen
    row may differ from the search only when its distance ties the
    nearest one within TIE_TOL.
    """
    n_tables = len(tables)
    sub = tables[0].shape[1]
    slices = np.asarray(states).reshape(-1, n_tables, sub)
    chosen = np.asarray(indices).reshape(-1, n_tables)
    problems = []
    for j, table in enumerate(tables):
        part = slices[:, j, :]
        best_dist = np.full(len(part), np.inf)
        best_row = np.zeros(len(part), dtype=np.int64)
        for k in range(table.shape[0]):
            dist = np.sum((part - table[k]) ** 2, axis=1)
            closer = dist < best_dist
            best_row[closer] = k
            best_dist[closer] = dist[closer]
        picked = chosen[:, j]
        if picked.min() < 0 or picked.max() >= table.shape[0]:
            problems.append(f"quantizer: table {j} index outside [0, {table.shape[0]})")
            continue
        picked_dist = np.sum((part - table[picked]) ** 2, axis=1)
        wrong = np.flatnonzero(picked_dist > best_dist + TIE_TOL * np.maximum(1.0, best_dist))
        for pos in wrong[:5]:
            problems.append(
                f"quantizer: table {j} position {pos} picked row {picked[pos]}, "
                f"nearest is row {best_row[pos]}"
            )
    return problems
