"""Tests for embedding export, the 2D projection, and the SVG renderer."""

import re
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from conftest import small_system
from interlingua import data as D
from interlingua.exceptions import CompatibilityError, ContractError, InterlinguaError
from interlingua.latent import pool
from interlingua.training import _pad_rows, build_system
from interlingua.transformer import encode, pad_mask
from interlingua.viz import (
    EmbeddingDump,
    Projection2D,
    export_embeddings,
    language_silhouette,
    load_dump,
    pca_project,
    projection_components,
    render_scatter,
    save_dump,
)


def make_dump(vectors, langs=None, dim=None):
    vectors = [np.asarray(v, dtype=np.float64) for v in vectors]
    dim = dim if dim is not None else len(vectors[0])
    if langs is None:
        langs = ["x"] * len(vectors)
    rows = [(lang, i, vec) for i, (lang, vec) in enumerate(zip(langs, vectors))]
    return EmbeddingDump(dim=dim, model_hash="test", rows=rows)


def two_cluster_dump(rng, n_per=8, spread=0.1, gap=10.0, dim=4):
    rows = []
    for i in range(n_per):
        rows.append(("x", i, rng.normal(0.0, spread, size=dim)))
    for i in range(n_per):
        vec = rng.normal(0.0, spread, size=dim)
        vec[0] += gap
        rows.append(("y", i, vec))
    return EmbeddingDump(dim=dim, model_hash="test", rows=rows)


class TestExportEmbeddings:
    def test_row_count_is_sentences_times_languages(self, toy_corpus):
        corpus, vocabs, _, _ = toy_corpus
        system = small_system(vocabs)
        dump = export_embeddings(system, corpus)
        assert len(dump) == 2 * len(corpus)
        assert dump.dim == system.config.d_model
        assert dump.model_hash == system.parameter_hash()

    def test_vectors_match_pooled_encodings_bitwise(self, toy_corpus):
        corpus, vocabs, _, _ = toy_corpus
        system = small_system(vocabs)
        dump = export_embeddings(system, corpus, languages=["x"])
        tokens = _pad_rows(corpus.sequences["x"])
        expected = pool(encode(system.modules["x"], tokens), pad_mask(tokens)).array
        for lang, idx, vec in dump.rows:
            assert lang == "x"
            assert np.array_equal(vec, expected[idx])

    def test_identical_sentences_get_identical_vectors(self, tmp_path, toy_corpus):
        _, vocabs, models, _ = toy_corpus
        line = "taru mesi konda"
        fx = tmp_path / "dup.x"
        fy = tmp_path / "dup.y"
        fx.write_text(f"{line}\n{line}\n", encoding="utf-8")
        fy.write_text("ulme satre bovik\nulme satre bovik\n", encoding="utf-8")
        corpus = D.load_parallel(
            fx, fy, vocabs["x"], vocabs["y"],
            bpe_x=models["x"], bpe_y=models["y"], lang_x="x", lang_y="y",
        )
        system = small_system(vocabs)
        dump = export_embeddings(system, corpus)
        by_lang = {}
        for lang, _, vec in dump.rows:
            by_lang.setdefault(lang, []).append(vec)
        for vecs in by_lang.values():
            assert np.array_equal(vecs[0], vecs[1])

    def test_unknown_language_rejected(self, toy_corpus):
        corpus, vocabs, _, _ = toy_corpus
        system = small_system(vocabs)
        with pytest.raises(CompatibilityError):
            export_embeddings(system, corpus, languages=["q"])


class TestDumpFile:
    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        dump = two_cluster_dump(rng)
        path = tmp_path / "vectors.tsv"
        save_dump(dump, path)
        loaded = load_dump(path)
        assert loaded.dim == dump.dim
        assert loaded.model_hash == dump.model_hash
        assert len(loaded) == len(dump)
        for (l1, i1, v1), (l2, i2, v2) in zip(dump.rows, loaded.rows):
            assert (l1, i1) == (l2, i2)
            assert np.array_equal(v1, v2)

    def test_header_mismatch_rejected(self):
        with pytest.raises(ContractError):
            EmbeddingDump(dim=3, model_hash="h", rows=[("x", 0, np.zeros(4))])

    def test_non_dump_file_rejected(self, tmp_path):
        path = tmp_path / "junk.tsv"
        path.write_text("hello\n", encoding="utf-8")
        with pytest.raises(ContractError):
            load_dump(path)

    @pytest.mark.parametrize("content", [
        pytest.param(b"# dim=3 model=h\nx\t0\t1.0\t2.0\t3.0\n\xff\n", id="not-utf8"),
        pytest.param(b"# dim=two model=h\nx\t0\t1.0\t2.0\t3.0\n", id="dim-not-int"),
        pytest.param(b"# dim=3 model=h\nx\tfirst\t1.0\t2.0\t3.0\n", id="index-not-int"),
        pytest.param(b"# dim=3 model=h\nx\t0\t1.0\tone\t3.0\n", id="value-not-float"),
        pytest.param(b"# dim=3\nx\t0\t1.0\t2.0\t3.0\n", id="no-model"),
        pytest.param(b"# dim=3 model=h\nx\t0\t1.0\t2.0\n", id="row-too-short"),
    ])
    def test_damaged_dump_is_one_error_naming_the_file(self, tmp_path, content):
        path = tmp_path / "vectors.tsv"
        path.write_bytes(content)
        with pytest.raises(InterlinguaError, match=re.escape(str(path))):
            load_dump(path)


class TestProjection:
    def test_needs_three_rows(self):
        dump = make_dump([[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(ContractError):
            pca_project(dump)

    def test_components_are_orthonormal(self):
        rng = np.random.default_rng(1)
        dump = two_cluster_dump(rng, dim=6)
        axes = projection_components(dump)
        assert abs(float(axes[0] @ axes[1])) < 1e-6
        assert abs(np.linalg.norm(axes[0]) - 1.0) < 1e-9
        assert abs(np.linalg.norm(axes[1]) - 1.0) < 1e-9

    def test_rank_two_data_reconstructs_exactly(self):
        for seed in range(4):
            rng = np.random.default_rng(seed)
            basis = np.linalg.qr(rng.standard_normal((6, 6)))[0][:, :2]
            coords = rng.standard_normal((15, 2)) * np.array([3.0, 1.0])
            x = coords @ basis.T + rng.standard_normal(6)
            dump = make_dump(list(x))
            proj = pca_project(dump)
            axes = projection_components(dump)
            got = np.array([[px, py] for _, _, px, py in proj.rows])
            recon = got @ axes + x.mean(axis=0)
            assert np.max(np.abs(recon - x)) < 1e-9

    def test_explained_variance_bounded_by_total(self):
        for seed in range(4):
            rng = np.random.default_rng(10 + seed)
            dump = make_dump(list(rng.standard_normal((12, 5))))
            proj = pca_project(dump)
            lam1, lam2 = proj.explained_variance
            assert lam1 >= lam2 >= 0.0
            assert lam1 + lam2 <= proj.total_variance + 1e-9

    def test_collinear_points_have_no_second_component(self):
        direction = np.array([1.0, 2.0, -1.0, 0.5])
        dump = make_dump([direction * t for t in (-1.0, 0.0, 1.0, 2.5)])
        proj = pca_project(dump)
        lam1, lam2 = proj.explained_variance
        assert lam1 > 0.0
        assert lam2 < 1e-10 * lam1

    def test_projection_is_deterministic(self):
        rng = np.random.default_rng(2)
        dump = two_cluster_dump(rng)
        a = pca_project(dump)
        b = pca_project(dump)
        assert a.rows == b.rows
        assert a.explained_variance == b.explained_variance

    def test_permuting_rows_permutes_coordinates(self):
        for seed in range(3):
            rng = np.random.default_rng(20 + seed)
            vectors = list(rng.standard_normal((10, 4)))
            dump = make_dump(vectors)
            base = pca_project(dump)
            order = list(rng.permutation(10))
            shuffled = EmbeddingDump(
                dim=4, model_hash="test", rows=[dump.rows[i] for i in order]
            )
            proj = pca_project(shuffled)
            for out_pos, src in enumerate(order):
                lang, idx, px, py = proj.rows[out_pos]
                b_lang, b_idx, bx, by = base.rows[src]
                assert (lang, idx) == (b_lang, b_idx)
                assert abs(px - bx) < 1e-9 and abs(py - by) < 1e-9

    def test_method_tag_is_honest(self):
        rng = np.random.default_rng(3)
        assert pca_project(two_cluster_dump(rng)).method == "pca-eigh"


class TestSilhouette:
    def test_separated_clusters_score_high(self):
        rng = np.random.default_rng(4)
        proj = pca_project(two_cluster_dump(rng, gap=50.0))
        assert language_silhouette(proj) > 0.8

    def test_single_language_scores_zero(self):
        proj = Projection2D(rows=[("x", i, float(i), 0.0) for i in range(4)])
        assert language_silhouette(proj) == 0.0

    def test_coincident_clusters_score_near_zero(self):
        rng = np.random.default_rng(5)
        proj = pca_project(two_cluster_dump(rng, gap=0.0))
        assert abs(language_silhouette(proj)) < 0.3


class TestRenderScatter:
    def _project(self, seed=6, **kw):
        rng = np.random.default_rng(seed)
        return pca_project(two_cluster_dump(rng, **kw))

    def test_output_is_wellformed_svg_with_one_circle_per_row(self, tmp_path):
        proj = self._project()
        path = tmp_path / "plot.svg"
        text = render_scatter(proj, path)
        root = ET.fromstring(text)
        assert root.tag.endswith("svg")
        points = [
            el for el in root.iter()
            if el.tag.endswith("circle") and el.get("class") == "pt"
        ]
        assert len(points) == len(proj.rows)

    def test_pair_lines_count(self, tmp_path):
        rng = np.random.default_rng(7)
        dump = two_cluster_dump(rng, n_per=6)
        dump.rows.append(("y", 6, rng.normal(size=4)))  # unpaired extra point
        proj = pca_project(dump)
        text = render_scatter(proj, tmp_path / "pairs.svg", pair_lines=True)
        root = ET.fromstring(text)
        lines = [
            el for el in root.iter()
            if el.tag.endswith("line") and el.get("class") == "pair"
        ]
        assert len(lines) == 6

    def test_legend_names_every_language(self, tmp_path):
        proj = self._project()
        text = render_scatter(proj, tmp_path / "plot.svg")
        assert ">x</text>" in text
        assert ">y</text>" in text

    def test_render_is_byte_stable(self, tmp_path):
        proj = self._project()
        a = tmp_path / "a.svg"
        b = tmp_path / "b.svg"
        render_scatter(proj, a)
        render_scatter(proj, b)
        assert a.read_bytes() == b.read_bytes()

    def test_unwritable_path_raises(self, tmp_path):
        proj = self._project()
        with pytest.raises(OSError):
            render_scatter(proj, tmp_path / "missing_dir" / "plot.svg")

    def test_empty_projection_rejected(self, tmp_path):
        with pytest.raises(ContractError):
            render_scatter(Projection2D(rows=[]), tmp_path / "plot.svg")

    def test_constant_coordinates_still_render(self, tmp_path):
        proj = Projection2D(rows=[("x", i, 1.0, 1.0) for i in range(3)])
        text = render_scatter(proj, tmp_path / "flat.svg")
        ET.fromstring(text)


class TestFullPipeline:
    def test_checkpoint_to_svg_is_byte_identical(self, toy_corpus, tmp_path):
        corpus, vocabs, _, _ = toy_corpus
        outputs = []
        for run in ("a", "b"):
            system = small_system(vocabs, seed=3)
            dump = export_embeddings(system, corpus)
            proj = pca_project(dump)
            path = tmp_path / f"{run}.svg"
            render_scatter(proj, path, pair_lines=True)
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1]
