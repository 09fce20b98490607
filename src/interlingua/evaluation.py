"""Corpus BLEU and the encoder-interchange evaluation.

The interchange check asks how language-neutral the shared latent space
is: one decoder greedy-decodes twice, once from its own language's
encoding and once from the partner language's encoding of the parallel
text. Both outputs are scored against the reference, and against each
other, so the gap between the two runs measures how far apart the two
encodings really are.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass

from .data import ParallelCorpus, Vocabulary, detokenize, reverse_bpe
from .exceptions import CompatibilityError, ConfigError, ContractError
from .latent import quantize
from .training import System, make_batch
from .transformer import encode, greedy_decode, pad_mask

MAX_ORDER = 4


@dataclass(frozen=True)
class BleuReport:
    """Corpus-level BLEU with its n-gram precision breakdown."""

    score: float
    precisions: tuple[float, float, float, float]
    brevity_penalty: float
    hypothesis_length: int
    reference_length: int


@dataclass(frozen=True)
class InterlinguaReport:
    """Three scores for one decoder fed from two different encoders.

    ``bleu_autoencoder`` scores decoding from the decoder's own language
    encoding against the reference; ``bleu_translation`` scores decoding
    from the partner language's encoding against the same reference;
    ``bleu_agreement`` scores the translation output with the
    autoencoding output as its reference, so it is 100 exactly when the
    two encodings drive the decoder to identical text.
    """

    decoder_lang: str
    encoder_lang: str
    bleu_autoencoder: BleuReport
    bleu_translation: BleuReport
    bleu_agreement: BleuReport


def scoring_words(tokens) -> list[str]:
    """Subword tokens to the word sequence BLEU is computed on."""
    return detokenize(reverse_bpe(list(tokens))).split()


def _ngrams(words: list[str], n: int) -> Counter:
    return Counter(tuple(words[i : i + n]) for i in range(len(words) - n + 1))


def bleu(hypotheses, references) -> BleuReport:
    """Corpus BLEU over parallel lines of tokens.

    Case-sensitive modified 4-gram precision with count clipping and the
    short-hypothesis brevity penalty exp(1 - ref/hyp). Continuation
    marks are merged away before scoring, so subword and plain-word
    inputs score identically. A zero precision at any order floors the
    score to 0 rather than smoothing it.
    """
    hypotheses = list(hypotheses)
    references = list(references)
    if not hypotheses:
        raise ContractError("cannot score an empty hypothesis set")
    if len(hypotheses) != len(references):
        raise ContractError(
            f"{len(hypotheses)} hypotheses vs {len(references)} references"
        )
    clipped = [0] * MAX_ORDER
    total = [0] * MAX_ORDER
    hyp_len = 0
    ref_len = 0
    for hyp_tokens, ref_tokens in zip(hypotheses, references):
        hyp = scoring_words(hyp_tokens)
        ref = scoring_words(ref_tokens)
        hyp_len += len(hyp)
        ref_len += len(ref)
        for n in range(1, MAX_ORDER + 1):
            counts = _ngrams(hyp, n)
            if not counts:
                continue
            ref_counts = _ngrams(ref, n)
            total[n - 1] += max(len(hyp) - n + 1, 0)
            clipped[n - 1] += sum(min(c, ref_counts[g]) for g, c in counts.items())
    precisions = tuple(
        clipped[i] / total[i] if total[i] > 0 else 0.0 for i in range(MAX_ORDER)
    )
    if hyp_len == 0:
        bp = 0.0
    elif hyp_len >= ref_len:
        bp = 1.0
    else:
        bp = math.exp(1.0 - ref_len / hyp_len)
    if any(p == 0.0 for p in precisions):
        score = 0.0
    else:
        score = bp * math.exp(sum(math.log(p) for p in precisions) / MAX_ORDER) * 100.0
    return BleuReport(
        score=score,
        precisions=precisions,
        brevity_penalty=bp,
        hypothesis_length=hyp_len,
        reference_length=ref_len,
    )


def _encode_for_decoding(system: System, lang: str, tokens):
    """Encoder states and key mask, quantized when the system carries a codebook."""
    h = encode(system.modules[lang], tokens)
    if system.codebook is not None:
        h, _, _, _ = quantize(system.codebook, h)
    return h, pad_mask(tokens)


def decode_corpus_side(
    system: System,
    decoder_lang: str,
    encoder_lang: str,
    tokens,
    vocab: Vocabulary,
    max_steps: int | None = None,
) -> list[list[str]]:
    """Greedy-decode padded token rows through one encoder/decoder pairing."""
    latent, mask = _encode_for_decoding(system, encoder_lang, tokens)
    steps = max_steps if max_steps is not None else system.config.max_len
    decoded = greedy_decode(system.modules[decoder_lang], latent, mask, steps)
    return [vocab.decode(ids) for ids in decoded]


def interlingua_eval(
    system: System,
    decoder_lang: str,
    corpus: ParallelCorpus,
    vocabs: dict[str, Vocabulary],
    max_steps: int | None = None,
) -> InterlinguaReport:
    """Score one decoder driven by both sides' encodings of a parallel set.

    The references are never consulted during decoding; they only enter
    the scoring stage afterwards.
    """
    if decoder_lang not in system.modules:
        raise ConfigError(
            f"decoder language {decoder_lang!r} not in system {system.languages}"
        )
    if decoder_lang not in corpus.languages:
        raise ConfigError(
            f"decoder language {decoder_lang!r} not in corpus pair {corpus.languages}"
        )
    other = corpus.languages[1] if corpus.languages[0] == decoder_lang else corpus.languages[0]
    if other not in system.modules:
        raise CompatibilityError(
            f"encoder language {other!r} not in system {system.languages}"
        )
    if len(corpus) == 0:
        raise ContractError("cannot evaluate on an empty corpus")
    if decoder_lang not in vocabs:
        raise ConfigError(f"no vocabulary supplied for {decoder_lang!r}")

    batch = make_batch(corpus, range(len(corpus)))
    by_lang = {batch.lang_x: batch.x, batch.lang_y: batch.y}
    vocab = vocabs[decoder_lang]

    auto = decode_corpus_side(
        system, decoder_lang, decoder_lang, by_lang[decoder_lang], vocab, max_steps
    )
    translated = decode_corpus_side(
        system, decoder_lang, other, by_lang[other], vocab, max_steps
    )
    refs = [vocab.decode(row) for row in corpus.sequences[decoder_lang]]

    return InterlinguaReport(
        decoder_lang=decoder_lang,
        encoder_lang=other,
        bleu_autoencoder=bleu(auto, refs),
        bleu_translation=bleu(translated, refs),
        bleu_agreement=bleu(translated, auto),
    )


def bleu_record(report: BleuReport, tag: str = "") -> dict:
    """JSON-friendly view of one BLEU measurement, keys prefixed ``<tag>_``."""
    prefix = f"{tag}_" if tag else ""
    return {
        f"{prefix}bleu": report.score,
        f"{prefix}precisions": list(report.precisions),
        f"{prefix}brevity_penalty": report.brevity_penalty,
        f"{prefix}hyp_length": report.hypothesis_length,
        f"{prefix}ref_length": report.reference_length,
    }


def report_record(report: InterlinguaReport) -> dict:
    """Flat JSON-friendly record with all three scores and n-gram detail."""
    record = {"decoder": report.decoder_lang, "encoder": report.encoder_lang}
    record.update(bleu_record(report.bleu_autoencoder, "autoencoder"))
    record.update(bleu_record(report.bleu_translation, "translation"))
    record.update(bleu_record(report.bleu_agreement, "agreement"))
    return record


def report_json(report: InterlinguaReport) -> str:
    return json.dumps(report_record(report), sort_keys=True)


def format_table(reports: list[InterlinguaReport]) -> str:
    """Human-readable summary, one row per decoder direction."""
    header = f"{'decoder':<10} {'autoencoder':>12} {'translation':>12} {'agreement':>12}"
    lines = [header, "-" * len(header)]
    for r in reports:
        lines.append(
            f"{r.decoder_lang:<10} {r.bleu_autoencoder.score:>12.2f} "
            f"{r.bleu_translation.score:>12.2f} {r.bleu_agreement.score:>12.2f}"
        )
    return "\n".join(lines)
