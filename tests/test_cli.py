"""End-to-end tests for the command-line workflow on the bundled toy task."""

import configparser
import json
import shutil
import struct
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from interlingua import toy
from interlingua.cli import main
from interlingua.training import load_checkpoint

CONFIG_TEMPLATE = """\
[data]
train_x = toydata/train.x
train_y = toydata/train.y
test_x = toydata/test.x
test_y = toydata/test.y
lang_x = x
lang_y = y
max_words = 50
bpe_merges = 120
vocab_cap = 64

[model]
num_blocks = 1
num_heads = 2
d_model = 16
d_ff = 32
max_len = 16

[train]
learning_rate = 3e-3
batch_size = 8
max_steps = 6
seed = 0

[extend]
new_lang = n
train_anchor = toydata/train.x
train_new = toydata/train.n

[output]
dir = run
"""


def make_project(root):
    """Toy text plus a config file; returns the config path."""
    paths = toy.write_toy_task(root / "toydata", n_train=24, n_test=6, seed=0)
    lines = paths["train_x"].read_text(encoding="utf-8").splitlines()
    third = toy.renamed_lines(lines, prefix="n")
    (root / "toydata" / "train.n").write_text("\n".join(third) + "\n", encoding="utf-8")
    config = root / "config.ini"
    config.write_text(CONFIG_TEMPLATE, encoding="utf-8")
    return config


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def project(tmp_path):
    return make_project(tmp_path)


@pytest.fixture(scope="module")
def trained_project(tmp_path_factory):
    """One prepared and trained run shared by the read-only command tests."""
    root = tmp_path_factory.mktemp("trained")
    config = make_project(root)
    assert main(["prepare", "--config", str(config)]) == 0
    assert main(["train", "--config", str(config)]) == 0
    return config


def out_dir(config):
    return config.parent / "run"


class TestPrepare:
    def test_writes_all_artifacts(self, project, capsys):
        code, out, err = run(capsys, "prepare", "--config", str(project))
        assert code == 0, err
        run_dir = out_dir(project)
        for name in (
            "bpe-x.txt", "bpe-y.txt", "vocab-x.txt", "vocab-y.txt",
            "corpus-train.bin", "corpus-test.bin", "manifest.json",
            "effective-config.ini",
        ):
            assert (run_dir / name).is_file(), name
        assert "kept" in out

    def test_vocab_respects_cap(self, project, capsys):
        code, _, _ = run(capsys, "prepare", "--config", str(project), "--set", "data.vocab_cap=10")
        assert code == 0
        vocab_lines = (out_dir(project) / "vocab-x.txt").read_text().splitlines()
        assert len(vocab_lines) + 4 <= 10

    def test_rerun_is_noop(self, project, capsys):
        assert run(capsys, "prepare", "--config", str(project))[0] == 0
        manifest_before = (out_dir(project) / "manifest.json").read_bytes()
        code, out, _ = run(capsys, "prepare", "--config", str(project))
        assert code == 0
        assert "unchanged" in out
        assert (out_dir(project) / "manifest.json").read_bytes() == manifest_before

    def test_input_change_triggers_rebuild(self, project, capsys):
        assert run(capsys, "prepare", "--config", str(project))[0] == 0
        extra = "taru mesi konda"
        for side, line in (("x", extra), ("y", toy.translate_line(extra))):
            path = project.parent / "toydata" / f"train.{side}"
            path.write_text(path.read_text(encoding="utf-8") + line + "\n", encoding="utf-8")
        code, out, _ = run(capsys, "prepare", "--config", str(project))
        assert code == 0
        assert "unchanged" not in out

    def test_misaligned_corpora_fail_with_alignment_error(self, project, capsys):
        train_y = project.parent / "toydata" / "train.y"
        lines = train_y.read_text(encoding="utf-8").splitlines()
        train_y.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
        code, _, err = run(capsys, "prepare", "--config", str(project))
        assert code == 1
        assert err.startswith("error: alignment:")

    def test_word_length_filter_reports_drops(self, project, capsys):
        code, out, _ = run(
            capsys, "prepare", "--config", str(project), "--set", "data.max_words=4"
        )
        assert code == 0
        dropped = [l for l in out.splitlines() if "train: kept" in l]
        assert dropped and "dropped" in dropped[0]
        assert int(dropped[0].rsplit(" ", 1)[-1]) > 0

    def test_missing_input_is_config_error(self, project, capsys):
        code, _, err = run(
            capsys, "prepare", "--config", str(project), "--set", "data.train_x=absent.txt"
        )
        assert code == 1
        assert err.startswith("error: config:")

    def test_unknown_override_key_rejected(self, project, capsys):
        code, _, err = run(capsys, "prepare", "--config", str(project), "--set", "data.nope=1")
        assert code == 1
        assert err.startswith("error: config:")

    def test_missing_config_file_rejected(self, tmp_path, capsys):
        code, _, err = run(capsys, "prepare", "--config", str(tmp_path / "none.ini"))
        assert code == 1
        assert err.startswith("error: config:")


class TestTrain:
    def test_trains_and_logs_one_line_per_step(self, project, capsys):
        assert run(capsys, "prepare", "--config", str(project))[0] == 0
        code, out, err = run(capsys, "train", "--config", str(project))
        assert code == 0, err
        run_dir = out_dir(project)
        assert (run_dir / "checkpoint-final.ckpt").is_file()
        log_lines = (run_dir / "train-log.jsonl").read_text().splitlines()
        assert len(log_lines) == 6
        first = json.loads(log_lines[0])
        assert first["step"] == 1
        assert {"loss", "l_xx", "l_yy", "l_xy", "l_yx", "distance"} <= set(first)
        assert not (run_dir / ".lock").exists()

    def test_refuses_to_clobber_finished_run(self, project, capsys):
        run(capsys, "prepare", "--config", str(project))
        assert run(capsys, "train", "--config", str(project))[0] == 0
        code, _, err = run(capsys, "train", "--config", str(project))
        assert code == 1
        assert err.startswith("error: config:")
        assert "--resume" in err

    def test_resume_continues_to_new_step_budget(self, project, capsys):
        run(capsys, "prepare", "--config", str(project))
        assert run(capsys, "train", "--config", str(project))[0] == 0
        code, _, err = run(capsys, "train", "--config", str(project), "--resume", "--steps", "9")
        assert code == 0, err
        log_lines = (out_dir(project) / "train-log.jsonl").read_text().splitlines()
        assert len(log_lines) == 9
        assert json.loads(log_lines[-1])["step"] == 9

    def test_resume_with_nothing_to_do_is_noop(self, project, capsys):
        run(capsys, "prepare", "--config", str(project))
        run(capsys, "train", "--config", str(project))
        code, out, _ = run(capsys, "train", "--config", str(project), "--resume")
        assert code == 0
        assert "nothing to do" in out

    def test_requires_prepared_artifacts(self, project, capsys):
        code, _, err = run(capsys, "train", "--config", str(project))
        assert code == 1
        assert err.startswith("error: config:")
        assert "prepare" in err

    def test_periodic_checkpoints(self, project, capsys):
        run(capsys, "prepare", "--config", str(project))
        code, _, _ = run(
            capsys, "train", "--config", str(project), "--set", "train.checkpoint_every=2"
        )
        assert code == 0
        run_dir = out_dir(project)
        assert (run_dir / "checkpoint-000002.ckpt").is_file()
        assert (run_dir / "checkpoint-000004.ckpt").is_file()

    def test_lock_blocks_concurrent_training(self, project, capsys):
        run(capsys, "prepare", "--config", str(project))
        lock = out_dir(project) / ".lock"
        lock.write_text("12345\n", encoding="utf-8")
        code, _, err = run(capsys, "train", "--config", str(project))
        assert code == 1
        assert err.startswith("error: lock:")
        lock.unlink()

    def test_identical_seeds_give_byte_identical_checkpoints(self, tmp_path, capsys):
        checkpoints = []
        for name in ("a", "b"):
            root = tmp_path / name
            root.mkdir()
            config = make_project(root)
            run(capsys, "prepare", "--config", str(config))
            assert run(capsys, "train", "--config", str(config))[0] == 0
            checkpoints.append((root / "run" / "checkpoint-final.ckpt").read_bytes())
        assert checkpoints[0] == checkpoints[1]

    def test_divergence_aborts_with_breakdown(self, project, capsys):
        run(capsys, "prepare", "--config", str(project))
        assert run(capsys, "train", "--config", str(project))[0] == 0
        final = out_dir(project) / "checkpoint-final.ckpt"
        raw = bytearray(final.read_bytes())
        header_len = int.from_bytes(raw[8:16], "little")
        body = 16 + header_len
        nan = struct.pack("<d", float("nan"))
        raw[body:] = nan * ((len(raw) - body) // 8)
        final.write_bytes(bytes(raw))
        code, _, err = run(capsys, "train", "--config", str(project), "--resume", "--steps", "9")
        assert code == 1
        assert err.startswith("error: divergence:")
        assert "l_xx" in err

    def test_effective_config_reflects_overrides(self, project, capsys):
        run(capsys, "prepare", "--config", str(project))
        run(capsys, "train", "--config", str(project), "--set", "train.max_steps=2", "--seed", "7")
        echo = configparser.ConfigParser()
        echo.read(out_dir(project) / "effective-config.ini")
        assert echo["train"]["max_steps"] == "2"
        assert echo["train"]["seed"] == "7"
        assert echo["data"]["train_x"].startswith("/")


class TestTranslate:
    def test_translates_line_for_line(self, trained_project, capsys):
        source = trained_project.parent / "toydata" / "test.x"
        output = trained_project.parent / "run" / "out.txt"
        code, _, err = run(
            capsys, "translate", "--config", str(trained_project),
            "--src", "x", "--tgt", "y", "--input", str(source), "--output", str(output),
        )
        assert code == 0, err
        lines = output.read_text(encoding="utf-8").splitlines()
        assert len(lines) == len(source.read_text(encoding="utf-8").splitlines())

    def test_repeated_runs_are_identical(self, trained_project, capsys):
        source = trained_project.parent / "toydata" / "test.x"
        outputs = []
        for name in ("r1.txt", "r2.txt"):
            target = trained_project.parent / "run" / name
            code, _, _ = run(
                capsys, "translate", "--config", str(trained_project),
                "--src", "x", "--tgt", "y", "--input", str(source), "--output", str(target),
            )
            assert code == 0
            outputs.append(target.read_bytes())
        assert outputs[0] == outputs[1]

    def test_autoencoding_when_src_equals_tgt(self, trained_project, capsys):
        source = trained_project.parent / "toydata" / "test.x"
        output = trained_project.parent / "run" / "auto.txt"
        code, _, err = run(
            capsys, "translate", "--config", str(trained_project),
            "--src", "x", "--tgt", "x", "--input", str(source), "--output", str(output),
        )
        assert code == 0, err
        assert output.is_file()

    def test_empty_input_gives_empty_output(self, trained_project, tmp_path, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("", encoding="utf-8")
        output = tmp_path / "empty-out.txt"
        code, _, _ = run(
            capsys, "translate", "--config", str(trained_project),
            "--src", "x", "--tgt", "y", "--input", str(empty), "--output", str(output),
        )
        assert code == 0
        assert output.read_text(encoding="utf-8") == ""

    def test_truncated_inputs_are_counted(self, trained_project, tmp_path, capsys):
        source = tmp_path / "long.x"
        words = (trained_project.parent / "toydata" / "test.x").read_text(encoding="utf-8").split()
        source.write_text(" ".join(words[:2]) + "\n" + " ".join(words * 4) + "\n", encoding="utf-8")
        output = tmp_path / "long.y"
        code, out, err = run(
            capsys, "translate", "--config", str(trained_project),
            "--src", "x", "--tgt", "y", "--input", str(source), "--output", str(output),
        )
        assert code == 0, err
        assert "2 lines x->y (1 truncated to 15 subwords)" in out
        assert len(output.read_text(encoding="utf-8").splitlines()) == 2

    def test_unknown_language_tag_is_config_error(self, trained_project, capsys):
        source = trained_project.parent / "toydata" / "test.x"
        code, _, err = run(
            capsys, "translate", "--config", str(trained_project),
            "--src", "q", "--tgt", "y", "--input", str(source),
        )
        assert code == 1
        assert err.startswith("error: config:")


class TestEvalCommands:
    def test_eval_writes_both_directions(self, trained_project, capsys):
        code, out, err = run(capsys, "eval", "--config", str(trained_project), "--split", "test")
        assert code == 0, err
        report = json.loads(
            (trained_project.parent / "run" / "bleu-report-test.json").read_text()
        )
        assert set(report) == {"x_to_y", "y_to_x"}
        for record in report.values():
            assert 0.0 <= record["bleu"] <= 100.0
            assert len(record["precisions"]) == 4
        assert "x->y BLEU" in out

    def test_interlingua_eval_reports_three_scores_per_decoder(self, trained_project, capsys):
        code, out, err = run(
            capsys, "interlingua-eval", "--config", str(trained_project), "--split", "train"
        )
        assert code == 0, err
        records = json.loads(
            (trained_project.parent / "run" / "interlingua-report-train.json").read_text()
        )
        assert [r["decoder"] for r in records] == ["x", "y"]
        for record in records:
            for key in ("autoencoder_bleu", "translation_bleu", "agreement_bleu"):
                assert 0.0 <= record[key] <= 100.0
        assert "decoder" in out

    def test_eval_without_checkpoint_fails_cleanly(self, project, capsys):
        run(capsys, "prepare", "--config", str(project))
        code, _, err = run(capsys, "eval", "--config", str(project))
        assert code == 1
        assert err.startswith("error: config:")

    def test_checkpoint_vocab_mismatch_detected(self, trained_project, capsys):
        vocab_file = trained_project.parent / "run" / "vocab-x.txt"
        original = vocab_file.read_text(encoding="utf-8")
        try:
            vocab_file.write_text(original + "sneaky\n", encoding="utf-8")
            code, _, err = run(capsys, "eval", "--config", str(trained_project))
            assert code == 1
            assert err.startswith("error: checkpoint:")
        finally:
            vocab_file.write_text(original, encoding="utf-8")


def one_error_line(err, category):
    assert err.startswith(f"error: {category}:"), err
    assert err.count("\n") == 1, err


class TestLoaderFailures:
    def test_missing_prepared_artifacts(self, project, capsys):
        source = str(project.parent / "toydata" / "test.x")
        for argv in (
            ["train"], ["eval"], ["interlingua-eval"], ["viz"],
            ["translate", "--src", "x", "--tgt", "y", "--input", source],
        ):
            code, _, err = run(capsys, *argv, "--config", str(project))
            assert code == 1, argv
            one_error_line(err, "config")
            assert "prepare" in err, argv

    def test_missing_test_corpus(self, project, capsys):
        no_test = ["--set", "data.test_x=", "--set", "data.test_y="]
        assert run(capsys, "prepare", "--config", str(project), *no_test)[0] == 0
        assert run(capsys, "train", "--config", str(project), "--steps", "1")[0] == 0
        for command in ("eval", "interlingua-eval"):
            code, _, err = run(capsys, command, "--config", str(project), "--split", "test")
            assert code == 1
            one_error_line(err, "config")
            assert "prepare" in err

    def test_missing_checkpoint(self, project, capsys):
        assert run(capsys, "prepare", "--config", str(project))[0] == 0
        for extra in ([], ["--checkpoint", str(project.parent / "absent.ckpt")]):
            code, _, err = run(capsys, "eval", "--config", str(project), *extra)
            assert code == 1
            one_error_line(err, "config")
            assert "--checkpoint" in err

    def test_damaged_headers_give_one_checkpoint_error(self, trained_project, tmp_path, capsys):
        run_dir = tmp_path / "run"
        shutil.copytree(out_dir(trained_project), run_dir)
        for name in ("checkpoint-final.ckpt", "corpus-test.bin"):
            target = run_dir / name
            original = target.read_bytes()
            flipped = bytearray(original)
            flipped[20] ^= 0xFF  # inside the JSON header of both formats
            target.write_bytes(bytes(flipped))
            code, _, err = run(
                capsys, "eval", "--config", str(trained_project), "--set", f"output.dir={run_dir}"
            )
            target.write_bytes(original)
            assert code == 1, name
            one_error_line(err, "checkpoint")


    def test_missing_or_mistyped_header_fields(self, trained_project, tmp_path, capsys):
        run_dir = tmp_path / "run"
        shutil.copytree(out_dir(trained_project), run_dir)
        required = {
            "checkpoint-final.ckpt": (8, ["vocab_hashes", "languages", "vocab_sizes", "quantizer",
                                          "step", "arrays", "model_config", "train_config"]),
            "corpus-test.bin": (4, ["version", "languages", "lengths", "provenance"]),
        }
        for name, (lead, keys) in required.items():
            target = run_dir / name
            original = target.read_bytes()
            size = int.from_bytes(original[lead : lead + 8], "little")
            header = json.loads(original[lead + 8 : lead + 8 + size])
            payload = original[lead + 8 + size :]
            variants = [{k: v for k, v in header.items() if k != key} for key in keys]
            variants += [dict(header, **{key: "?"}) for key in keys]
            for variant in variants:
                blob = json.dumps(variant, sort_keys=True).encode("utf-8")
                target.write_bytes(original[:lead] + len(blob).to_bytes(8, "little") + blob + payload)
                code, _, err = run(
                    capsys, "eval", "--config", str(trained_project), "--set", f"output.dir={run_dir}"
                )
                assert code == 1, (name, variant.keys())
                one_error_line(err, "checkpoint")
            target.write_bytes(original)

    def test_trailing_bytes_rejected(self, trained_project, tmp_path, capsys):
        run_dir = tmp_path / "run"
        shutil.copytree(out_dir(trained_project), run_dir)
        for name in ("checkpoint-final.ckpt", "corpus-test.bin"):
            target = run_dir / name
            original = target.read_bytes()
            target.write_bytes(original + bytes(7))
            code, _, err = run(
                capsys, "eval", "--config", str(trained_project), "--set", f"output.dir={run_dir}"
            )
            target.write_bytes(original)
            assert code == 1, name
            one_error_line(err, "checkpoint")
            assert "trailing bytes" in err

    def test_resume_without_final_checkpoint(self, project, capsys):
        assert run(capsys, "prepare", "--config", str(project))[0] == 0
        code, _, err = run(capsys, "train", "--config", str(project), "--resume")
        assert code == 1
        one_error_line(err, "config")
        assert "drop --resume" in err


class TestViz:
    def test_writes_svg_and_dump_per_split(self, trained_project, capsys):
        code, out, err = run(
            capsys, "viz", "--config", str(trained_project),
            "--split", "train", "--split", "test", "--pair-lines",
        )
        assert code == 0, err
        run_dir = trained_project.parent / "run"
        for split in ("train", "test"):
            svg = run_dir / f"viz-{split}.svg"
            assert svg.is_file()
            ET.parse(svg)
            assert (run_dir / f"embeddings-{split}.tsv").is_file()
        assert "silhouette" in out

    def test_default_split_is_train(self, trained_project, capsys):
        code, _, _ = run(capsys, "viz", "--config", str(trained_project))
        assert code == 0
        assert (trained_project.parent / "run" / "viz-train.svg").is_file()

    def test_svg_is_reproducible(self, trained_project, capsys):
        svg = trained_project.parent / "run" / "viz-train.svg"
        run(capsys, "viz", "--config", str(trained_project))
        first = svg.read_bytes()
        run(capsys, "viz", "--config", str(trained_project))
        assert svg.read_bytes() == first


class TestAddLanguage:
    def test_extends_checkpoint_with_frozen_anchor(self, project, capsys):
        run(capsys, "prepare", "--config", str(project))
        assert run(capsys, "train", "--config", str(project))[0] == 0
        code, out, err = run(capsys, "add-language", "--config", str(project))
        assert code == 0, err
        run_dir = out_dir(project)
        extended = run_dir / "checkpoint-extended.ckpt"
        assert extended.is_file()
        assert (run_dir / "vocab-n.txt").is_file()
        assert (run_dir / "bpe-n.txt").is_file()
        log_lines = (run_dir / "extend-log.jsonl").read_text().splitlines()
        assert len(log_lines) == 6

        base_system, _, _ = load_checkpoint(run_dir / "checkpoint-final.ckpt")
        ext_system, _, _ = load_checkpoint(extended)
        assert set(ext_system.languages) == {"x", "y", "n"}
        base_params = base_system.named_parameters()
        ext_params = ext_system.named_parameters()
        for name, tensor in base_params.items():
            assert np.array_equal(tensor.array, ext_params[name].array), name

    def test_requires_new_language_name(self, project, capsys):
        run(capsys, "prepare", "--config", str(project))
        run(capsys, "train", "--config", str(project))
        code, _, err = run(
            capsys, "add-language", "--config", str(project), "--set", "extend.new_lang="
        )
        assert code == 1
        assert err.startswith("error: config:")
