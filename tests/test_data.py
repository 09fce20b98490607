"""Text pipeline: tokenizer, BPE learn/apply/reverse, vocabulary, corpora."""

import numpy as np
import pytest

from interlingua import data as D
from interlingua.exceptions import AlignmentError, CheckpointError, ConfigError
from interlingua.transformer import EOS_ID, UNK_ID


class TestTokenize:
    def test_lowercases_and_splits(self):
        assert D.tokenize("The cat SAT.") == ["the", "cat", "sat", "."]

    def test_punctuation_becomes_tokens(self):
        assert D.tokenize('say "hi", ok?') == ["say", '"', "hi", '"', ",", "ok", "?"]

    def test_whitespace_collapses(self):
        assert D.tokenize("  a \t b \n") == ["a", "b"]

    def test_detokenize_round_trip(self):
        tokens = D.tokenize("one two , three .")
        assert D.tokenize(D.detokenize(tokens)) == tokens

    def test_empty_line(self):
        assert D.tokenize("   ") == []


class TestBpe:
    def test_single_merge_worked_example(self):
        model = D.learn_bpe(["aaab aaab"], num_merges=1)
        assert model.merges == [("a", "a")]
        assert D.apply_bpe(model, "aaab") == ["aa@@", "a@@", "b"]

    def test_full_word_becomes_single_token(self):
        model = D.learn_bpe(["abab abab abab"], num_merges=3)
        assert D.apply_bpe(model, "abab") == ["abab"]

    def test_zero_merges_yield_characters(self):
        model = D.learn_bpe(["abc"], num_merges=0)
        assert D.apply_bpe(model, "abc") == ["a@@", "b@@", "c"]

    def test_negative_merges_rejected(self):
        with pytest.raises(ConfigError):
            D.learn_bpe(["a"], num_merges=-1)

    def test_merge_count_capped_by_corpus(self):
        model = D.learn_bpe(["ab"], num_merges=100)
        assert model.merges == [("a", "b")]

    def test_deterministic_tie_break_is_lexicographic(self):
        # "xy" and "yz" pairs are equally frequent inside "xyz"
        model = D.learn_bpe(["xyz xyz"], num_merges=1)
        assert model.merges == [("x", "y")]

    def test_learning_is_deterministic(self):
        lines = ["the cat sat", "the mat sat", "a cat ran"]
        a = D.learn_bpe(lines, 10).merges
        b = D.learn_bpe(lines, 10).merges
        assert a == b

    def test_unknown_characters_pass_as_singletons(self):
        model = D.learn_bpe(["aaaa"], num_merges=2)
        assert D.apply_bpe(model, "zq") == ["z@@", "q"]

    def test_reverse_restores_words(self):
        model = D.learn_bpe(["aaab aaab"], num_merges=1)
        segmented = D.apply_bpe(model, "aaab aaab")
        assert D.reverse_bpe(segmented) == ["aaab", "aaab"]

    def test_reapplication_is_fixed_point(self):
        lines = ["the cat sat on the mat", "a long word like internationalization"]
        model = D.learn_bpe(lines, num_merges=12)
        for line in lines:
            once = D.apply_bpe(model, line)
            twice = D.apply_bpe(model, " ".join(once))
            assert once == twice

    def test_dangling_continuation_reverses_gracefully(self):
        assert D.reverse_bpe(["ab@@"]) == ["ab"]

    def test_save_load_round_trip(self, tmp_path):
        model = D.learn_bpe(["the cat sat on the mat"], num_merges=8)
        path = tmp_path / "merges.txt"
        D.save_bpe(model, path)
        loaded = D.load_bpe(path)
        assert loaded.merges == model.merges

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("not a merge table\n")
        with pytest.raises(CheckpointError):
            D.load_bpe(path)


class TestVocabulary:
    def test_reserved_ids_are_fixed(self):
        v = D.Vocabulary(["cat", "dog"])
        assert v.id_to_token[:4] == ["<pad>", "<bos>", "<eos>", "<unk>"]
        assert v.token_to_id["cat"] == 4

    def test_unknown_maps_to_unk(self):
        v = D.Vocabulary(["cat"])
        assert v.encode(["cat", "owl"]) == [4, UNK_ID]

    def test_decode_skips_structural_specials(self):
        v = D.Vocabulary(["cat"])
        assert v.decode([1, 4, 2, 0]) == ["cat"]
        assert v.decode([1, 4, 2], keep_special=True) == ["<bos>", "cat", "<eos>"]

    def test_decode_range_checked(self):
        v = D.Vocabulary(["cat"])
        with pytest.raises(ConfigError):
            v.decode([99])

    def test_duplicate_rejected(self):
        with pytest.raises(ConfigError):
            D.Vocabulary(["cat", "cat"])

    def test_build_respects_cap_and_frequency(self):
        lines = [["b", "b", "b", "a", "a", "c"]]
        v = D.build_vocabulary(lines, max_size=6)
        assert len(v) == 6
        assert v.id_to_token[4:] == ["b", "a"]

    def test_build_tie_break_lexicographic(self):
        v = D.build_vocabulary([["z", "a"]], max_size=5)
        assert v.id_to_token[4:] == ["a"]

    def test_hash_tracks_content(self):
        a = D.Vocabulary(["cat"]).content_hash()
        b = D.Vocabulary(["cat"]).content_hash()
        c = D.Vocabulary(["dog"]).content_hash()
        assert a == b and a != c

    def test_save_load_round_trip(self, tmp_path):
        v = D.build_vocabulary([["b", "a", "b"]], max_size=8)
        path = tmp_path / "vocab.txt"
        v.save(path)
        loaded = D.Vocabulary.load(path)
        assert loaded.id_to_token == v.id_to_token
        assert loaded.content_hash() == v.content_hash()


def write_pair(tmp_path, lines_x, lines_y):
    px, py = tmp_path / "corpus.x", tmp_path / "corpus.y"
    px.write_text("\n".join(lines_x) + "\n", encoding="utf-8")
    py.write_text("\n".join(lines_y) + "\n", encoding="utf-8")
    return px, py


class TestLoadParallel:
    def test_basic_load_appends_eos(self, tmp_path):
        px, py = write_pair(tmp_path, ["cat sat", "dog ran"], ["tac tas", "god nar"])
        vx = D.Vocabulary(["cat", "sat", "dog", "ran"])
        vy = D.Vocabulary(["tac", "tas", "god", "nar"])
        corpus = D.load_parallel(px, py, vx, vy, lang_x="a", lang_y="b")
        assert len(corpus) == 2
        assert corpus.languages == ("a", "b")
        np.testing.assert_array_equal(corpus.sequences["a"][0], [4, 5, EOS_ID])
        assert all(seq[-1] == EOS_ID for seq in corpus.sequences["b"])

    def test_line_count_mismatch_raises(self, tmp_path):
        px, py = write_pair(tmp_path, ["a", "b"], ["a"])
        v = D.Vocabulary(["a", "b"])
        with pytest.raises(AlignmentError):
            D.load_parallel(px, py, v, D.Vocabulary(["a"]))

    def test_overlong_pairs_drop_together(self, tmp_path):
        px, py = write_pair(
            tmp_path, ["one", "a b c d e", "two"], ["uno", "short", "dos"]
        )
        vx = D.Vocabulary(["one", "two", "a", "b", "c", "d", "e"])
        vy = D.Vocabulary(["uno", "dos", "short"])
        corpus = D.load_parallel(px, py, vx, vy, max_words=3)
        assert len(corpus) == 2
        assert corpus.provenance["dropped"] == 1
        assert corpus.provenance["kept_line_numbers"] == [0, 2]

    def test_alignment_preserved_by_line_number(self, tmp_path):
        lines_x = [f"w{i} " + "pad " * (i % 4) for i in range(10)]
        lines_y = [f"v{i}" for i in range(10)]
        px, py = write_pair(tmp_path, lines_x, lines_y)
        vx = D.build_vocabulary([D.tokenize(l) for l in lines_x], 64)
        vy = D.build_vocabulary([D.tokenize(l) for l in lines_y], 64)
        corpus = D.load_parallel(px, py, vx, vy, max_words=3)
        for row, lineno in enumerate(corpus.provenance["kept_line_numbers"]):
            want_x = vx.encode(D.tokenize(lines_x[lineno])) + [EOS_ID]
            want_y = vy.encode(D.tokenize(lines_y[lineno])) + [EOS_ID]
            np.testing.assert_array_equal(corpus.sequences["x"][row], want_x)
            np.testing.assert_array_equal(corpus.sequences["y"][row], want_y)

    def test_bpe_segmentation_applies_per_side(self, tmp_path):
        px, py = write_pair(tmp_path, ["aaab"], ["zz"])
        bpe_x = D.learn_bpe(["aaab aaab"], 1)
        vx = D.Vocabulary(["aa@@", "a@@", "b"])
        vy = D.Vocabulary(["z@@", "z"])
        bpe_y = D.learn_bpe(["q"], 0)
        corpus = D.load_parallel(px, py, vx, vy, bpe_x=bpe_x, bpe_y=bpe_y)
        np.testing.assert_array_equal(corpus.sequences["x"][0], [4, 5, 6, EOS_ID])
        np.testing.assert_array_equal(corpus.sequences["y"][0], [4, 5, EOS_ID])

    def test_same_language_tags_rejected(self, tmp_path):
        px, py = write_pair(tmp_path, ["a"], ["b"])
        v = D.Vocabulary(["a", "b"])
        with pytest.raises(ConfigError):
            D.load_parallel(px, py, v, v, lang_x="x", lang_y="x")


class TestCorpusSerialization:
    def make_corpus(self, tmp_path):
        px, py = write_pair(tmp_path, ["cat sat", "dog ran fast"], ["tac", "god nar"])
        vx = D.Vocabulary(["cat", "sat", "dog", "ran", "fast"])
        vy = D.Vocabulary(["tac", "god", "nar"])
        return D.load_parallel(px, py, vx, vy)

    def test_round_trip(self, tmp_path):
        corpus = self.make_corpus(tmp_path)
        path = tmp_path / "corpus.bin"
        D.save_corpus(corpus, path)
        loaded = D.read_corpus(path)
        assert loaded.languages == corpus.languages
        assert loaded.provenance == corpus.provenance
        for lang in corpus.languages:
            for a, b in zip(corpus.sequences[lang], loaded.sequences[lang]):
                np.testing.assert_array_equal(a, b)

    def test_serialization_is_byte_stable(self, tmp_path):
        corpus = self.make_corpus(tmp_path)
        p1, p2 = tmp_path / "c1.bin", tmp_path / "c2.bin"
        D.save_corpus(corpus, p1)
        D.save_corpus(corpus, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"nope" + b"\x00" * 16)
        with pytest.raises(CheckpointError):
            D.read_corpus(path)

    def test_empty_corpus_stays_empty(self, tmp_path):
        empty = D.ParallelCorpus(languages=("x", "y"), sequences={"x": [], "y": []})
        path = tmp_path / "empty.bin"
        D.save_corpus(empty, path)
        loaded = D.read_corpus(path)
        assert len(loaded) == 0
        assert loaded.sequences == {"x": [], "y": []}

    def test_damaged_file_raises_or_loads_identically(self, tmp_path):
        corpus = self.make_corpus(tmp_path)
        path = tmp_path / "corpus.bin"
        D.save_corpus(corpus, path)
        raw = path.read_bytes()
        body = 12 + int.from_bytes(raw[4:12], "little")
        damaged = [raw[:cut] for cut in range(len(raw) + 1)]
        for pos in np.random.default_rng(0).choice(body, size=64, replace=False):
            flipped = bytearray(raw)
            flipped[pos] ^= 0xFF
            damaged.append(bytes(flipped))
        damaged.append(raw + bytes(7))  # trailing bytes after the last array
        loads = 0
        for blob in damaged:
            path.write_bytes(blob)
            try:
                loaded = D.read_corpus(path)
            except CheckpointError:
                continue
            loads += 1
            assert loaded.languages == corpus.languages
            assert loaded.provenance == corpus.provenance
            for lang in corpus.languages:
                assert len(loaded.sequences[lang]) == len(corpus.sequences[lang])
                for a, b in zip(corpus.sequences[lang], loaded.sequences[lang]):
                    np.testing.assert_array_equal(a, b)
        assert loads == 1  # only the whole file loads
