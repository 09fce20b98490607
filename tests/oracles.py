"""Independent oracles the test suite checks the library against.

Everything here is deliberately naive: central differences for gradients,
exhaustive search for nearest neighbors, a direct transcription of corpus
BLEU, a transformer that computes every padded position through
primitive ops, Adam applied one parameter array at a time, and a text
pipeline that tokenizes character by character and re-tokenizes each
line at every step. Slow and obvious beats fast and clever for
reference code.
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


def unpacked(rows, mask) -> np.ndarray:
    """A latent's packed rows [N, d] spread to the padded [B, S, d] form the
    padded oracles take: row-major over ``mask``'s True entries, zeros at
    its pad positions."""
    rows = np.asarray(getattr(rows, "array", rows), dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    assert rows.ndim == 2 and rows.shape[0] == mask.sum(), (rows.shape, mask.shape)
    out = np.zeros(mask.shape + rows.shape[1:])
    out[mask] = rows
    return out


def reference_greedy_decode(module, latent, src_mask, max_steps: int) -> list[list[int]]:
    """Greedy decoding that re-runs the padded teacher-forced decoder on
    the whole prefix at every step: quadratic in output length, but with no
    cache and no packing to get wrong. ``latent`` is padded, [B, S, d]
    (``unpacked``). Finished rows stay in the batch and emit nothing more.
    """
    from interlingua import transformer as M

    la = np.asarray(getattr(latent, "array", latent), dtype=np.float64)
    batch = la.shape[0]
    cur = np.full((batch, 1), M.BOS_ID, dtype=np.int64)
    alive = np.ones(batch, dtype=bool)
    outs: list[list[int]] = [[] for _ in range(batch)]
    for _ in range(max_steps):
        last = padded_decode_teacher_forced(module, la, src_mask, cur).array[:, -1, :].copy()
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


# ---------------------------------------------------------------------------
# the padded transformer: every position of a [B, T] batch computed, each
# attention sublayer composed from primitive tape ops
# ---------------------------------------------------------------------------


def padded_attention(p, prefix, q_in, kv_in, bias, num_heads):
    """Queries of [B, Tq, d] over keys and values of [B, Tk, d]: projections,
    head split, scaled and biased scores, softmax, context, head merge and
    output projection, one primitive op each."""
    from interlingua import tensor as T

    q = T.linear(q_in, p[prefix + "wq"], p[prefix + "bq"])
    k = T.linear(kv_in, p[prefix + "wk"], p[prefix + "bk"])
    v = T.linear(kv_in, p[prefix + "wv"], p[prefix + "bv"])
    b, tq, d = q.shape
    tk = k.shape[1]
    dh = d // num_heads
    q = T.transpose(T.reshape(q, (b, tq, num_heads, dh)), (0, 2, 1, 3))
    k = T.transpose(T.reshape(k, (b, tk, num_heads, dh)), (0, 2, 3, 1))
    v = T.transpose(T.reshape(v, (b, tk, num_heads, dh)), (0, 2, 1, 3))
    scores = T.mul(T.matmul(q, k), dh ** -0.5)
    if bias is not None:
        scores = T.add(scores, bias)
    ctx = T.matmul(T.softmax(scores, axis=-1), v)
    ctx = T.reshape(T.transpose(ctx, (0, 2, 1, 3)), (b, tq, d))
    return T.linear(ctx, p[prefix + "wo"], p[prefix + "bo"])


def _padded_block_input(module, tokens):
    from interlingua import tensor as T

    tok = np.asarray(tokens)
    x = T.mul(T.embedding(module.params["emb"], tok), math.sqrt(module.config.d_model))
    return T.add(x, module._pe[: tok.shape[1]])


def _padded_ffn(p, prefix, x):
    from interlingua import tensor as T

    h = T.relu(T.linear(x, p[prefix + "w1"], p[prefix + "b1"]))
    return T.linear(h, p[prefix + "w2"], p[prefix + "b2"])


def _padded_ln(p, prefix, x):
    from interlingua import tensor as T
    from interlingua.transformer import LN_EPS

    return T.layer_norm(x, p[prefix + "gain"], p[prefix + "bias"], eps=LN_EPS)


def _key_bias(mask):
    from interlingua.transformer import MASK_BIAS

    return np.where(mask, 0.0, MASK_BIAS)[:, None, None, :]


def padded_encode(module, tokens):
    """Encoder states [B, T, d] with every pad position computed too."""
    from interlingua import tensor as T
    from interlingua.transformer import pad_mask

    p, cfg = module.params, module.config
    bias = _key_bias(pad_mask(tokens))
    x = _padded_block_input(module, tokens)
    for i in range(cfg.num_blocks):
        pre = f"enc.{i}."
        h = _padded_ln(p, pre + "ln1.", x)
        x = T.add(x, padded_attention(p, pre + "self.", h, h, bias, cfg.num_heads))
        x = T.add(x, _padded_ffn(p, pre + "ffn.", _padded_ln(p, pre + "ln2.", x)))
    return _padded_ln(p, "enc.final.", x)


def padded_decode_teacher_forced(module, latent, src_mask, target_in):
    """Logits [B, T, V] with every pad position computed too."""
    from interlingua import tensor as T
    from interlingua.transformer import MASK_BIAS

    p, cfg = module.params, module.config
    la = latent if isinstance(latent, T.Tensor) else T.Tensor(latent)
    width = np.asarray(target_in).shape[1]
    causal = np.triu(np.full((width, width), MASK_BIAS), k=1)[None, None]
    cross_bias = _key_bias(src_mask)
    x = _padded_block_input(module, target_in)
    for i in range(cfg.num_blocks):
        pre = f"dec.{i}."
        h = _padded_ln(p, pre + "ln1.", x)
        x = T.add(x, padded_attention(p, pre + "self.", h, h, causal, cfg.num_heads))
        h = _padded_ln(p, pre + "ln2.", x)
        x = T.add(x, padded_attention(p, pre + "cross.", h, la, cross_bias, cfg.num_heads))
        x = T.add(x, _padded_ffn(p, pre + "ffn.", _padded_ln(p, pre + "ln3.", x)))
    return T.linear(_padded_ln(p, "dec.final.", x), p["out_proj"])


def padded_joint_loss(batch, system, cfg):
    """The five-term objective of ``training.joint_loss`` over padded batches:
    masked mean pooling, padded decoders (one separate pass for each of the
    four cross-entropy terms), every loss weight applied as a
    multiplication. No quantizer and no dropout. Returns the total and the
    five terms' values."""
    from interlingua import tensor as T
    from interlingua.latent import corr_distance, max_distance
    from interlingua.training import shift_targets
    from interlingua.transformer import pad_mask

    assert system.codebook is None, "the padded oracle has no quantizer"
    mx, my = system.modules[batch.lang_x], system.modules[batch.lang_y]
    mask_x, mask_y = pad_mask(batch.x), pad_mask(batch.y)
    hx, hy = padded_encode(mx, batch.x), padded_encode(my, batch.y)

    def pool(raw, mask):
        weighted = T.mul(raw, mask[:, :, None].astype(np.float64))
        return T.mul(T.reduce_sum(weighted, axis=1), (1.0 / mask.sum(axis=1))[:, None])

    in_x, in_y = shift_targets(batch.x), shift_targets(batch.y)
    terms = [
        T.cross_entropy(padded_decode_teacher_forced(mx, hx, mask_x, in_x), batch.x),
        T.cross_entropy(padded_decode_teacher_forced(my, hy, mask_y, in_y), batch.y),
        T.cross_entropy(padded_decode_teacher_forced(my, hx, mask_x, in_y), batch.y),
        T.cross_entropy(padded_decode_teacher_forced(mx, hy, mask_y, in_x), batch.x),
    ]
    distance = {"corr": corr_distance, "max": max_distance}[cfg.distance_mode]
    terms.append(distance(pool(hx, mask_x), pool(hy, mask_y)))
    total = T.mul(terms[0], cfg.loss_weights[0])
    for term, weight in zip(terms[1:], cfg.loss_weights[1:]):
        total = T.add(total, T.mul(term, weight))
    names = ("l_xx", "l_yy", "l_xy", "l_yx", "distance")
    return total, {name: term.item() for name, term in zip(names, terms)}


def reference_adam_update(state, parts, grads, cfg):
    """``training._adam_update`` one parameter array at a time, out of place.

    Same signature, same arithmetic in the same order; each parameter's
    moments start at zeros and are stored back as new arrays.
    """
    t = state.step
    b1, b2 = cfg.beta1, cfg.beta2
    bias1 = 1.0 - b1 ** t
    bias2 = 1.0 - b2 ** t
    for part in parts:
        for n, p in part.items():
            g = grads[p]
            m, v = state.moments.get(n, (np.zeros(p.shape), np.zeros(p.shape)))
            m = m * b1
            m = m + (1.0 - b1) * g
            v = v * b2
            v = v + (1.0 - b2) * (g * g)
            state.moments[n] = (m, v)
            p.array -= cfg.learning_rate * (m / bias1) / (np.sqrt(v / bias2) + cfg.adam_eps)


# ---------------------------------------------------------------------------
# the text pipeline as a loop over each line's characters and each word's
# merges: tokenize, learn merges, segment, count the vocabulary and filter
# pairs, each step on its own
# ---------------------------------------------------------------------------


def reference_tokenize(line: str) -> list[str]:
    """Lowercased word tokens, every punctuation character spaced out one at
    a time before the split."""
    from interlingua.data import PUNCTUATION

    out = []
    for ch in line.strip().lower():
        if ch in PUNCTUATION:
            out.append(f" {ch} ")
        else:
            out.append(ch)
    return "".join(out).split()


def _reference_merge(syms: list[str], pair: tuple[str, str]) -> list[str]:
    a, b = pair
    out = []
    i = 0
    while i < len(syms):
        if i + 1 < len(syms) and syms[i] == a and syms[i + 1] == b:
            out.append(a + b)
            i += 2
        else:
            out.append(syms[i])
            i += 1
    return out


def reference_learn_bpe(lines, num_merges: int) -> list[tuple[str, str]]:
    """Greedy merges: the most frequent adjacent pair over the word
    frequency table, ties to the lexicographically smallest pair."""
    freq = Counter()
    for line in lines:
        freq.update(reference_tokenize(line))
    words = {tuple(w): f for w, f in freq.items()}
    merges = []
    for _ in range(num_merges):
        pairs = Counter()
        for syms, f in words.items():
            for pair in zip(syms, syms[1:]):
                pairs[pair] += f
        if not pairs:
            break
        best = min(pairs, key=lambda p: (-pairs[p], p))
        merges.append(best)
        words = {tuple(_reference_merge(list(syms), best)): f for syms, f in words.items()}
    return merges


class ReferenceBpe:
    """Merges applied to each word's characters in order, pieces (unmarked)
    cached per word, and the @@ marks added on every call."""

    def __init__(self, merges):
        self.merges = list(merges)
        self._cache: dict[str, tuple[str, ...]] = {}

    def segment_word(self, word: str) -> tuple[str, ...]:
        if word not in self._cache:
            syms = list(word)
            for pair in self.merges:
                if len(syms) == 1:
                    break
                syms = _reference_merge(syms, pair)
            self._cache[word] = tuple(syms)
        return self._cache[word]

    def apply(self, line: str) -> list[str]:
        from interlingua.data import CONTINUE_MARK

        out = []
        for word in reference_tokenize(line):
            if word.endswith(CONTINUE_MARK):
                out.append(word)
                continue
            pieces = self.segment_word(word)
            out.extend(p + CONTINUE_MARK for p in pieces[:-1])
            out.append(pieces[-1])
        return out


def reference_vocabulary(bpe: ReferenceBpe, lines, max_size: int) -> list[str]:
    """Reserved tokens, then the segmented lines' tokens by falling count,
    ties lexicographic, max_size in all."""
    from interlingua.transformer import RESERVED_TOKENS

    freq = Counter()
    for line in lines:
        freq.update(bpe.apply(line))
    ranked = sorted(freq, key=lambda t: (-freq[t], t))
    return list(RESERVED_TOKENS) + ranked[: max_size - len(RESERVED_TOKENS)]


def reference_pairs(lines_x, lines_y, bpe_x, bpe_y, vocab_x, vocab_y, max_words: int, max_len: int):
    """Eos-terminated id rows of both sides and the kept line numbers: a
    pair is dropped when either side has more than max_words words, no
    subword, or more than max_len ids with its eos."""
    from interlingua.transformer import EOS_ID, UNK_ID

    ids_x, ids_y, kept = [], [], []
    for i, (lx, ly) in enumerate(zip(lines_x, lines_y)):
        if len(reference_tokenize(lx)) > max_words or len(reference_tokenize(ly)) > max_words:
            continue
        tx, ty = bpe_x.apply(lx), bpe_y.apply(ly)
        if not tx or not ty:
            continue
        rx = [vocab_x.index(t) if t in vocab_x else UNK_ID for t in tx] + [EOS_ID]
        ry = [vocab_y.index(t) if t in vocab_y else UNK_ID for t in ty] + [EOS_ID]
        if max(len(rx), len(ry)) > max_len:
            continue
        ids_x.append(rx)
        ids_y.append(ry)
        kept.append(i)
    return ids_x, ids_y, kept
