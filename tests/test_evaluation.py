"""Tests for corpus BLEU and the encoder-interchange evaluation."""

import json
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from conftest import fast_train_config, prepare_toy, small_model_config, small_system, unequal_corpus
from interlingua import data as D
from interlingua import evaluation as E
from interlingua.evaluation import (
    InterlinguaReport,
    bleu,
    decode_corpus_side,
    format_table,
    interlingua_eval,
    report_json,
    report_record,
    scoring_words,
)
from interlingua.exceptions import CompatibilityError, ContractError
from interlingua.training import TrainState, build_system, make_batch, train
from oracles import _ngrams as slice_ngrams, reference_bleu

WORDS = ["the", "cat", "sat", "on", "a", "mat", "dog", "ran", "fast", "home"]


def random_lines(rng, count, lo=1, hi=12):
    lines = []
    for _ in range(count):
        n = int(rng.integers(lo, hi + 1))
        lines.append(" ".join(WORDS[i] for i in rng.integers(0, len(WORDS), size=n)))
    return lines


class TestScoringWords:
    def test_plain_tokens_pass_through(self):
        assert scoring_words(["the", "cat"]) == ["the", "cat"]

    def test_continuation_marks_merge(self):
        assert scoring_words(["th@@", "ere", "it", "is"]) == ["there", "it", "is"]


class TestBleuHandCases:
    def test_identical_corpus_scores_100(self):
        lines = [l.split() for l in ("the cat sat on the mat", "a dog ran home today")]
        report = bleu(lines, lines)
        assert report.score == 100.0
        assert report.precisions == (1.0, 1.0, 1.0, 1.0)
        assert report.brevity_penalty == 1.0

    def test_unigram_clipping(self):
        hyp = ["the the the the the the the".split()]
        ref = ["the cat is on the mat".split()]
        report = bleu(hyp, ref)
        assert report.precisions[0] == 2 / 7
        assert report.score == 0.0

    def test_single_word_lines_score_zero(self):
        report = bleu([["hello"]], [["hello"]])
        assert report.score == 0.0
        assert report.precisions[0] == 1.0
        assert report.precisions[3] == 0.0

    def test_brevity_penalty_formula(self):
        hyp = ["a b c d".split()]
        ref = ["a b c d e".split()]
        report = bleu(hyp, ref)
        assert report.brevity_penalty == np.exp(1.0 - 5.0 / 4.0)
        assert abs(report.score - report.brevity_penalty * 100.0) < 1e-9

    def test_long_hypothesis_has_no_penalty(self):
        hyp = ["a b c d e f".split()]
        ref = ["a b c d".split()]
        assert bleu(hyp, ref).brevity_penalty == 1.0

    def test_score_matches_its_own_breakdown(self):
        rng = np.random.default_rng(0)
        hyps = [l.split() for l in random_lines(rng, 12, lo=5, hi=12)]
        refs = [l.split() for l in random_lines(rng, 12, lo=5, hi=12)]
        report = bleu(hyps, refs)
        if all(p > 0 for p in report.precisions):
            expected = (
                report.brevity_penalty
                * np.exp(np.mean([np.log(p) for p in report.precisions]))
                * 100.0
            )
            assert abs(report.score - expected) < 1e-9

    def test_empty_hypothesis_set_rejected(self):
        with pytest.raises(ContractError):
            bleu([], [])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ContractError):
            bleu([["a"]], [["a"], ["b"]])

    def test_all_empty_lines_score_zero(self):
        report = bleu([[]], [["a", "b"]])
        assert report.score == 0.0
        assert report.brevity_penalty == 0.0

    def test_subword_hypothesis_scores_like_merged_words(self):
        ref = ["there it is again".split()]
        hyp_subword = [["th@@", "ere", "it", "is", "ag@@", "ain"]]
        assert bleu(hyp_subword, ref).score == 100.0


class TestBleuProperties:
    def test_ngram_counts_match_the_slice_definition(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            words = [WORDS[i] for i in rng.integers(0, 4, size=int(rng.integers(0, 9)))]
            for n in range(1, 5):  # lists shorter than n have no n-grams
                assert E._ngrams(words, n) == Counter(slice_ngrams(words, n))

    def test_matches_reference_implementation(self):
        for seed in range(6):
            rng = np.random.default_rng(seed)
            hyp_lines = random_lines(rng, 10)
            ref_lines = random_lines(rng, 10)
            got = bleu([l.split() for l in hyp_lines], [l.split() for l in ref_lines])
            assert abs(got.score - reference_bleu(hyp_lines, ref_lines)) < 1e-12

    def test_near_copies_score_against_reference(self):
        # hypotheses sharing most of each reference exercise every order
        for seed in range(4):
            rng = np.random.default_rng(100 + seed)
            refs = random_lines(rng, 8, lo=6, hi=12)
            hyps = []
            for line in refs:
                words = line.split()
                if rng.random() < 0.5 and len(words) > 6:
                    words = words[:-2]
                hyps.append(" ".join(words))
            got = bleu([l.split() for l in hyps], [l.split() for l in refs])
            assert abs(got.score - reference_bleu(hyps, refs)) < 1e-12

    def test_permutation_covariance(self):
        for seed in range(5):
            rng = np.random.default_rng(200 + seed)
            hyps = [l.split() for l in random_lines(rng, 9)]
            refs = [l.split() for l in random_lines(rng, 9)]
            base = bleu(hyps, refs)
            order = rng.permutation(len(hyps))
            shuffled = bleu([hyps[i] for i in order], [refs[i] for i in order])
            assert shuffled.score == base.score
            assert shuffled.precisions == base.precisions

    def test_self_bleu_is_100_for_nonempty_corpora(self):
        for seed in range(5):
            rng = np.random.default_rng(300 + seed)
            lines = [l.split() for l in random_lines(rng, 6, lo=4, hi=10)]
            assert bleu(lines, lines).score == 100.0


def identity_pair_setup(tmp_path):
    """A two-tag corpus whose sides are the same text, decoded by one shared module."""
    from interlingua import toy

    paths = toy.write_toy_task(tmp_path / "toydata", n_train=8, n_test=0, seed=0)
    lines = paths["train_x"].read_text(encoding="utf-8").splitlines()
    bpe = D.learn_bpe(lines, 120)
    vocab = D.build_vocabulary([D.apply_bpe(bpe, l) for l in lines], 64)
    corpus = D.load_parallel(
        paths["train_x"],
        paths["train_x"],
        vocab,
        vocab,
        bpe_x=bpe,
        bpe_y=bpe,
        lang_x="x",
        lang_y="y",
    )
    system = build_system(small_model_config(), {"x": len(vocab)}, seed=0)
    system.modules["y"] = system.modules["x"]
    return system, corpus, vocab


def report_for(decoder, system, corpus, vocabs):
    """The report of one decoder, out of the two ``interlingua_eval`` returns."""
    return {r.decoder_lang: r for r in interlingua_eval(system, corpus, vocabs)}[decoder]


class TestInterlinguaEval:
    @pytest.mark.parametrize("quantized", [False, True])
    def test_equals_two_separate_decoder_passes(self, toy_corpus, monkeypatch, quantized):
        # one call, with one stacked pass per decoder, must give the words and
        # the reports of two decode_corpus_side calls per decoder, on sides
        # of different widths
        _, vocabs, _, _ = toy_corpus
        system = build_system(
            small_model_config(num_blocks=2, d_model=32, max_len=50),
            {lang: len(v) for lang, v in vocabs.items()},
            seed=6, quantize_latent=quantized, vq_tables=2, vq_entries=8,
        )
        lengths = {"x": (3, 9, 2, 6, 4, 7, 11, 5, 8, 2), "y": (5, 2, 14, 6, 8, 3, 20, 9, 4, 12)}
        corpus = unequal_corpus({lang: len(v) for lang, v in vocabs.items()}, lengths)
        batch = make_batch(corpus, range(len(corpus)))
        assert batch.x.shape[1] != batch.y.shape[1]
        by_lang = {"x": batch.x, "y": batch.y}
        scored = []
        real_stats = E.scoring_stats

        def recording_stats(lines):
            scored.append(list(lines))
            return real_stats(lines)

        monkeypatch.setattr(E, "scoring_stats", recording_stats)
        reports = interlingua_eval(system, corpus, vocabs)
        assert len(reports) == 2
        for i, (report, (dec, enc)) in enumerate(zip(reports, (("x", "y"), ("y", "x")))):
            auto = decode_corpus_side(system, dec, dec, by_lang[dec], vocabs[dec])
            translated = decode_corpus_side(system, dec, enc, by_lang[enc], vocabs[dec])
            assert len({len(words) for words in auto + translated}) > 1  # rows stop at different steps
            assert scored[3 * i : 3 * i + 2] == [auto, translated]
            refs = [vocabs[dec].decode(row) for row in corpus.sequences[dec]]
            want = InterlinguaReport(dec, enc, bleu(auto, refs), bleu(translated, refs), bleu(translated, auto))
            assert report_json(report) == report_json(want)

    def test_one_greedy_pass_per_decoder(self, toy_corpus, monkeypatch):
        # one call encodes each side once and runs each decoder once over
        # both sides' rows
        corpus, vocabs, _, _ = toy_corpus
        system = small_system(vocabs)
        encoded, decoded = [], []
        original_encode, original_greedy = E.encode, E.greedy_decode

        def encode_spy(module, tokens, **kwargs):
            encoded.append(module.language)
            return original_encode(module, tokens, **kwargs)

        def greedy_spy(module, latent, src_mask, max_steps):
            decoded.append((module.language, len(src_mask)))
            return original_greedy(module, latent, src_mask, max_steps)

        monkeypatch.setattr(E, "encode", encode_spy)
        monkeypatch.setattr(E, "greedy_decode", greedy_spy)
        reports = interlingua_eval(system, corpus, vocabs)
        assert encoded == list(corpus.languages)
        assert decoded == [(lang, 2 * len(corpus)) for lang in corpus.languages]
        assert [r.decoder_lang for r in reports] == list(corpus.languages)

    def test_each_line_is_converted_once(self, toy_corpus, monkeypatch):
        # each decoder's autoencoded, translated and reference lists are
        # scored twice each, from one conversion per line; scoring pair by
        # pair converted every line twice
        corpus, vocabs, _, _ = toy_corpus
        system = small_system(vocabs)
        converted = []
        real = E.scoring_words
        monkeypatch.setattr(E, "scoring_words", lambda tokens: converted.append(1) or real(tokens))
        interlingua_eval(system, corpus, vocabs)
        # two decoders, three lists of one line per pair each
        assert len(converted) == 2 * 3 * len(corpus)

    def test_reports_all_three_scores(self, toy_corpus):
        corpus, vocabs, _, _ = toy_corpus
        system = small_system(vocabs)
        report = report_for("x", system, corpus, vocabs)
        assert report.decoder_lang == "x"
        assert report.encoder_lang == "y"
        for r in (report.bleu_autoencoder, report.bleu_translation, report.bleu_agreement):
            assert 0.0 <= r.score <= 100.0

    def test_identical_encodings_agree_perfectly(self, tmp_path):
        system, corpus, vocab = identity_pair_setup(tmp_path)
        report = report_for("x", system, corpus, {"x": vocab, "y": vocab})
        auto_words = [
            scoring_words(t)
            for t in (
                decode_corpus_side(
                    system, "x", "x", make_batch(corpus, range(len(corpus))).x, vocab
                )
            )
        ]
        assert any(len(w) >= 4 for w in auto_words), "decodes too short to score"
        assert report.bleu_agreement.score == 100.0
        assert report.bleu_autoencoder == report.bleu_translation

    def test_partner_language_must_be_in_system(self, toy_corpus):
        corpus, vocabs, _, _ = toy_corpus
        system = build_system(small_model_config(), {"x": len(vocabs["x"])})
        with pytest.raises(CompatibilityError):
            interlingua_eval(system, corpus, vocabs)

    def test_empty_corpus_rejected(self, toy_corpus):
        _, vocabs, _, _ = toy_corpus
        system = small_system(vocabs)
        empty = D.ParallelCorpus(languages=("x", "y"), sequences={"x": [], "y": []})
        with pytest.raises(ContractError):
            interlingua_eval(system, empty, vocabs)

    def test_evaluation_is_deterministic(self, toy_corpus):
        corpus, vocabs, _, _ = toy_corpus
        system = small_system(vocabs)
        a = report_for("y", system, corpus, vocabs)
        b = report_for("y", system, corpus, vocabs)
        assert a == b

    def test_trained_system_reconstructs_better_than_random(self, toy_corpus):
        corpus, vocabs, _, _ = toy_corpus
        system = small_system(vocabs)
        before = report_for("x", system, corpus, vocabs)
        cfg = fast_train_config(learning_rate=5e-3, max_steps=30)
        train(system, TrainState(), corpus, cfg)
        after = report_for("x", system, corpus, vocabs)
        assert after.bleu_autoencoder.score >= before.bleu_autoencoder.score


class TestDecodeSlices:
    """A split longer than one slice decodes as one unsliced pass would."""

    def split(self, vocabs, rows=600):
        sizes = {lang: len(v) for lang, v in vocabs.items()}
        rng = np.random.default_rng(5)
        corpus = unequal_corpus(sizes, {lang: tuple(rng.integers(2, 15, size=rows)) for lang in sizes})
        system = build_system(small_model_config(num_blocks=2, d_model=32, max_len=16), sizes, seed=6)
        return system, corpus, make_batch(corpus, range(rows))

    def test_sliced_outputs_equal_one_pass(self, toy_corpus, monkeypatch):
        _, vocabs, _, _ = toy_corpus
        system, corpus, batch = self.split(vocabs)
        assert len(corpus) > 2 * E.DECODE_SLICE
        scored = []
        real_stats = E.scoring_stats
        monkeypatch.setattr(E, "scoring_stats", lambda lines: scored.append(list(lines)) or real_stats(lines))
        runs = []
        for size in (E.DECODE_SLICE, len(corpus)):
            monkeypatch.setattr(E, "DECODE_SLICE", size)
            scored.clear()
            reports = [report_json(r) for r in interlingua_eval(system, corpus, vocabs)]
            runs.append((decode_corpus_side(system, "y", "x", batch.x, vocabs["y"]), list(scored), reports))
        assert runs[0] == runs[1]

    def test_peak_memory_does_not_grow_with_the_split(self, toy_corpus):
        _, vocabs, _, _ = toy_corpus
        system, _, batch = self.split(vocabs)
        assert len(batch.x) > 2 * E.DECODE_SLICE
        peaks = []
        for rows in (E.DECODE_SLICE, len(batch.x)):
            tracemalloc.start()
            try:
                decode_corpus_side(system, "y", "x", batch.x[:rows], vocabs["y"])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # one pass over all 600 rows peaked at 2.3 times one slice's
        assert peaks[1] < 1.1 * peaks[0], peaks


class TestReportOutput:
    def test_record_has_three_score_fields(self, toy_corpus):
        corpus, vocabs, _, _ = toy_corpus
        system = small_system(vocabs)
        record = report_record(report_for("x", system, corpus, vocabs))
        for key in ("autoencoder_bleu", "translation_bleu", "agreement_bleu"):
            assert key in record
        assert record["decoder"] == "x"
        parsed = json.loads(report_json(report_for("x", system, corpus, vocabs)))
        assert parsed == record

    def test_table_lists_each_decoder(self, toy_corpus):
        corpus, vocabs, _, _ = toy_corpus
        system = small_system(vocabs)
        reports = interlingua_eval(system, corpus, vocabs)
        table = format_table(reports)
        assert "decoder" in table
        assert "\nx " in "\n" + table
        assert "\ny " in "\n" + table
