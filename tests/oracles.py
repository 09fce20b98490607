"""Independent oracles the test suite checks the library against.

Everything here is deliberately naive: central differences for gradients,
exhaustive search for nearest neighbors, a direct transcription of corpus
BLEU. Slow and obvious beats fast and clever for reference code.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

FD_STEP = 1e-5
FD_RTOL = 1e-3
FD_ATOL = 1e-8


def finite_difference(f, arrays, step: float = FD_STEP) -> list[np.ndarray]:
    """Central-difference gradient of scalar ``f(*arrays)`` for each array.

    Mutates each array entry in place by +-step and restores it, so ``f``
    must re-read the arrays on every call.
    """
    grads = []
    for arr in arrays:
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gf = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            fp = f()
            flat[i] = orig - step
            fm = f()
            flat[i] = orig
            gf[i] = (fp - fm) / (2.0 * step)
        grads.append(g)
    return grads


def assert_grad_close(analytic, numeric, rtol: float = FD_RTOL, atol: float = FD_ATOL):
    np.testing.assert_allclose(analytic, numeric, rtol=rtol, atol=atol)


def nearest_row_bruteforce(table: np.ndarray, x: np.ndarray) -> int:
    """Index of the table row closest to x in squared euclidean distance.

    Ties resolve to the lowest index.
    """
    best = 0
    best_d = math.inf
    for i in range(table.shape[0]):
        d = float(np.sum((table[i] - x) ** 2))
        if d < best_d:
            best = i
            best_d = d
    return best


def _ngrams(words, n):
    return [tuple(words[i : i + n]) for i in range(len(words) - n + 1)]


def reference_bleu(hypotheses, references) -> float:
    """Corpus BLEU, 4-gram, clipped counts, multiplicative brevity penalty."""
    clipped = [0] * 4
    totals = [0] * 4
    hyp_len = 0
    ref_len = 0
    for h, r in zip(hypotheses, references):
        hw = h.split()
        rw = r.split()
        hyp_len += len(hw)
        ref_len += len(rw)
        for n in range(1, 5):
            hc = Counter(_ngrams(hw, n))
            rc = Counter(_ngrams(rw, n))
            totals[n - 1] += sum(hc.values())
            clipped[n - 1] += sum(min(c, rc[g]) for g, c in hc.items())
    precisions = [c / t if t else 0.0 for c, t in zip(clipped, totals)]
    if any(p == 0.0 for p in precisions):
        return 0.0
    if hyp_len == 0:
        return 0.0
    bp = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    return bp * math.exp(sum(math.log(p) for p in precisions) / 4.0) * 100.0


def reference_greedy_decode(module, latent, src_mask, max_steps: int) -> list[list[int]]:
    """Greedy decoding that re-runs the teacher-forced decoder on the whole
    prefix at every step: quadratic in output length, but with no cache to
    get wrong. Finished rows stay in the batch and emit nothing more.
    """
    from interlingua import transformer as M

    la = np.asarray(getattr(latent, "array", latent), dtype=np.float64)
    batch = la.shape[0]
    cur = np.full((batch, 1), M.BOS_ID, dtype=np.int64)
    alive = np.ones(batch, dtype=bool)
    outs: list[list[int]] = [[] for _ in range(batch)]
    for _ in range(max_steps):
        last = M.decode_teacher_forced(module, la, src_mask, cur).array[:, -1, :].copy()
        last[:, M.PAD_ID] = -np.inf
        last[:, M.BOS_ID] = -np.inf
        nxt = last.argmax(axis=-1)
        nxt[~alive] = M.EOS_ID
        for b in range(batch):
            if alive[b]:
                outs[b].append(int(nxt[b]))
                if nxt[b] == M.EOS_ID:
                    alive[b] = False
        if not alive.any():
            break
        cur = np.concatenate([cur, nxt[:, None]], axis=1)
    return outs
