"""Corpus BLEU and the encoder-interchange evaluation.

The interchange check asks how language-neutral the shared latent space
is: each side of the parallel text is encoded once, and each decoder
greedy-decodes from its own language's encoding and from the partner
language's, in one pass over both encodings stacked on the batch axis.
Both outputs are scored against the reference, and against each other,
so the gap between the two measures how far apart the two encodings
really are.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass

from .data import ParallelCorpus, Vocabulary, detokenize, reverse_bpe
from .exceptions import CompatibilityError, ConfigError, ContractError
from .latent import quantize, stack_latents
from .training import System, _pad_rows
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
    return Counter(zip(*(words[i:] for i in range(n))))


def scoring_stats(lines) -> list[tuple[int, list[Counter]]]:
    """What BLEU reads of each line of tokens: its word count and its
    1- to ``MAX_ORDER``-gram counts. A line scored several times is
    converted once."""
    stats = []
    for tokens in lines:
        words = scoring_words(tokens)
        stats.append((len(words), [_ngrams(words, n) for n in range(1, MAX_ORDER + 1)]))
    return stats


def bleu(hypotheses, references) -> BleuReport:
    """Corpus BLEU over parallel lines of tokens.

    Case-sensitive modified 4-gram precision with count clipping and the
    short-hypothesis brevity penalty exp(1 - ref/hyp). Continuation
    marks are merged away before scoring, so subword and plain-word
    inputs score identically. A zero precision at any order floors the
    score to 0 rather than smoothing it.
    """
    return bleu_of_stats(scoring_stats(hypotheses), scoring_stats(references))


def bleu_of_stats(hypotheses, references) -> BleuReport:
    """``bleu`` of lines already turned into ``scoring_stats``."""
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
    for (hyp_words, hyp_counts), (ref_words, ref_counts) in zip(hypotheses, references):
        hyp_len += hyp_words
        ref_len += ref_words
        for n, (counts, ref_n) in enumerate(zip(hyp_counts, ref_counts), 1):
            if not counts:
                continue
            total[n - 1] += max(hyp_words - n + 1, 0)
            # a Counter reads a missing n-gram as 0 without storing it
            clipped[n - 1] += sum(min(c, ref_n[g]) for g, c in counts.items())
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
    """Packed encoder rows of the real positions and the [B, T] key mask,
    quantized when the system carries a codebook."""
    h = encode(system.modules[lang], tokens)
    if system.codebook is not None:
        h, _, _, _ = quantize(system.codebook, h)
    return h, pad_mask(tokens)


def decode_corpus_side(
    system: System, decoder_lang: str, encoder_lang: str, tokens, vocab: Vocabulary
) -> list[list[str]]:
    """Greedy-decode padded token rows through one encoder/decoder pairing."""
    rows, mask = _encode_for_decoding(system, encoder_lang, tokens)
    decoded = greedy_decode(system.modules[decoder_lang], rows, mask, system.config.max_len)
    return [vocab.decode(ids) for ids in decoded]


def interlingua_eval(
    system: System, corpus: ParallelCorpus, vocabs: dict[str, Vocabulary]
) -> list[InterlinguaReport]:
    """Score both decoders of a parallel set, each driven by both sides' encodings.

    Each side is encoded once. Each decoder then runs once, over its own
    language's encoding stacked with the partner's; row for row its
    output equals two separate ``decode_corpus_side`` calls. The
    references are never consulted during decoding; they only enter the
    scoring stage afterwards. The reports come in ``corpus.languages``
    order.
    """
    for lang in corpus.languages:
        if lang not in system.modules:
            raise CompatibilityError(f"corpus language {lang!r} not in system {system.languages}")
        if lang not in vocabs:
            raise ConfigError(f"no vocabulary supplied for {lang!r}")
    if len(corpus) == 0:
        raise ContractError("cannot evaluate on an empty corpus")

    sides = {
        lang: _encode_for_decoding(system, lang, _pad_rows(corpus.sequences[lang]))
        for lang in corpus.languages
    }
    reports = []
    for decoder_lang, other in (corpus.languages, corpus.languages[::-1]):
        vocab = vocabs[decoder_lang]
        rows, mask = stack_latents(sides[decoder_lang], sides[other])
        ids = greedy_decode(system.modules[decoder_lang], rows, mask, system.config.max_len)
        decoded = [vocab.decode(row) for row in ids]
        auto, translated = decoded[: len(corpus)], decoded[len(corpus) :]
        refs = [vocab.decode(row) for row in corpus.sequences[decoder_lang]]
        # each list is scored twice, so it is converted once
        auto, translated, refs = (scoring_stats(lines) for lines in (auto, translated, refs))
        reports.append(InterlinguaReport(
            decoder_lang=decoder_lang,
            encoder_lang=other,
            bleu_autoencoder=bleu_of_stats(auto, refs),
            bleu_translation=bleu_of_stats(translated, refs),
            bleu_agreement=bleu_of_stats(translated, auto),
        ))
    return reports


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
