"""End-to-end tests for the command-line workflow on the bundled toy task."""

import configparser
import dataclasses
import json
import os
import re
import shutil
import socket
import struct
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from interlingua import data as D
from interlingua import toy
from interlingua.cli import DEFAULTS, EFFECTIVE_CONFIG, config_from, main, read_config
from interlingua.training import TrainConfig, load_checkpoint
from interlingua.transformer import ModelConfig
from oracles import ReferenceBpe, reference_learn_bpe, reference_pairs, reference_vocabulary

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


@pytest.fixture(scope="module")
def prepared_project(tmp_path_factory):
    """One prepared run, never trained, for commands that must fail early."""
    config = make_project(tmp_path_factory.mktemp("prepared"))
    assert main(["prepare", "--config", str(config)]) == 0
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
            "corpus-train.bin", "corpus-test.bin", "effective-config.ini",
        ):
            assert (run_dir / name).is_file(), name
        assert not (run_dir / "manifest.json").exists()
        assert "kept" in out

    def test_vocab_respects_cap(self, project, capsys):
        code, _, _ = run(capsys, "prepare", "--config", str(project), "--set", "data.vocab_cap=10")
        assert code == 0
        vocab_lines = (out_dir(project) / "vocab-x.txt").read_text().splitlines()
        assert len(vocab_lines) + 4 <= 10

    def test_rerun_rewrites_the_same_bytes(self, project, capsys):
        assert run(capsys, "prepare", "--config", str(project))[0] == 0
        run_dir = out_dir(project)
        before = {p.name: (p.stat().st_ino, p.read_bytes()) for p in run_dir.iterdir()}
        code, _, err = run(capsys, "prepare", "--config", str(project))
        assert code == 0, err
        after = {p.name: (p.stat().st_ino, p.read_bytes()) for p in run_dir.iterdir()}
        assert sorted(after) == sorted(before)
        for name, (inode, blob) in after.items():
            assert blob == before[name][1], name
            if name != EFFECTIVE_CONFIG:  # the others are replaced by a new file
                assert inode != before[name][0], name

    @pytest.mark.parametrize("leftover", [
        pytest.param('{"inputs": {}, "outputs": {}, "settings": {"format": 2}}\n', id="valid"),
        pytest.param("{not json", id="not-json"),
        pytest.param("[1, 2]\n", id="json-list"),
    ])
    def test_leftover_manifest_is_ignored(self, project, capsys, leftover):
        assert run(capsys, "prepare", "--config", str(project))[0] == 0
        run_dir = out_dir(project)
        before = {p.name: p.read_bytes() for p in run_dir.iterdir()}
        (run_dir / "manifest.json").write_text(leftover, encoding="utf-8")
        code, out, err = run(capsys, "prepare", "--config", str(project))
        assert code == 0 and "Traceback" not in err, err
        assert "kept" in out
        assert (run_dir / "manifest.json").read_text(encoding="utf-8") == leftover
        assert {name: (run_dir / name).read_bytes() for name in before} == before

    def test_input_change_triggers_rebuild(self, project, capsys):
        def kept(out):
            (line,) = [l for l in out.splitlines() if l.startswith("prepare: train: kept")]
            return int(line.split()[3])

        code, out, _ = run(capsys, "prepare", "--config", str(project))
        assert code == 0
        extra = "taru mesi konda"
        for side, line in (("x", extra), ("y", toy.translate_line(extra))):
            path = project.parent / "toydata" / f"train.{side}"
            path.write_text(path.read_text(encoding="utf-8") + line + "\n", encoding="utf-8")
        code, rebuilt, _ = run(capsys, "prepare", "--config", str(project))
        assert code == 0
        assert kept(rebuilt) == kept(out) + 1
        corpus = D.read_corpus(out_dir(project) / "corpus-train.bin")
        assert corpus.provenance["kept"] == kept(out) + 1

    def test_malformed_limit_writes_no_artifact(self, project, capsys):
        code, _, err = run(capsys, "prepare", "--config", str(project), "--set", "data.max_words=many")
        assert code == 1
        one_error_line(err, "config")
        assert [p.name for p in out_dir(project).iterdir()] == [EFFECTIVE_CONFIG]

    def test_test_text_that_is_not_utf8_leaves_the_artifacts(self, project, capsys):
        # every input is read before the first write: the test text is read
        # last, and a bad one must not leave new tables or a new train split
        assert run(capsys, "prepare", "--config", str(project))[0] == 0
        run_dir = out_dir(project)
        # the effective config records each command, so it is not compared
        before = {p.name: p.read_bytes() for p in run_dir.iterdir() if p.name != EFFECTIVE_CONFIG}
        bad = project.parent / "toydata" / "test.bad"
        bad.write_bytes(b"\xff\xfe 1\n" * 6)
        code, _, err = run(
            capsys, "prepare", "--config", str(project), "--set", f"data.test_y={bad}",
            "--set", "data.bpe_merges=7",
        )
        assert code == 1
        one_error_line(err, "config")
        assert f"{bad} is not UTF-8" in err
        after = {p.name: p.read_bytes() for p in run_dir.iterdir() if p.name != EFFECTIVE_CONFIG}
        assert after == before

    def test_pairs_longer_than_max_len_are_dropped(self, project, capsys):
        # 12 unseen 6-letter words segment into about 72 ids, far beyond
        # model.max_len; eval and interlingua-eval used to fail on the split
        toy.write_toy_task(project.parent / "toydata", n_train=64, n_test=16, seed=0)
        long_line = " ".join(["qwzjxv"] * 12)
        for side in ("x", "y"):
            path = project.parent / "toydata" / f"test.{side}"
            path.write_text(path.read_text(encoding="utf-8") + long_line + "\n", encoding="utf-8")
        code, out, err = run(capsys, "prepare", "--config", str(project))
        assert code == 0, err
        assert "test: kept 16 pairs, dropped 1" in out
        test_corpus = out_dir(project) / "corpus-test.bin"
        assert D.read_corpus(test_corpus).provenance["max_len"] == 16
        assert run(capsys, "train", "--config", str(project), "--steps", "2")[0] == 0
        for command in ("eval", "interlingua-eval"):
            code, _, err = run(capsys, command, "--config", str(project), "--split", "test")
            assert code == 0, err
        code, _, err = run(capsys, "prepare", "--config", str(project), "--set", "model.max_len=20")
        assert code == 0, err
        assert D.read_corpus(test_corpus).provenance["max_len"] == 20

    def test_artifacts_match_the_reference_pipeline(self, project, capsys):
        # a pair over max_words and one over max_len in each split, plus
        # punctuation and capitals, checked against the oracles composed
        # step by step from the text files
        data = project.parent / "toydata"
        extra = {
            "x": ["taru " * 51, "mesi " * 20, "Taru, MESI konda!"],
            "y": ["ulme " * 51, "satre " * 20, "bovik satre (ulme)."],
        }
        for split in ("train", "test"):
            for side in ("x", "y"):
                path = data / f"{split}.{side}"
                path.write_text(path.read_text(encoding="utf-8") + "\n".join(extra[side]) + "\n", encoding="utf-8")
        code, out, err = run(capsys, "prepare", "--config", str(project))
        assert code == 0, err
        assert "train: kept 25 pairs, dropped 2" in out
        run_dir = out_dir(project)
        lines = {
            (split, side): (data / f"{split}.{side}").read_text(encoding="utf-8").splitlines()
            for split in ("train", "test") for side in ("x", "y")
        }
        bpe, vocab = {}, {}
        for side in ("x", "y"):
            bpe[side] = ReferenceBpe(reference_learn_bpe(lines["train", side], 120))
            vocab[side] = reference_vocabulary(bpe[side], lines["train", side], 64)
            assert D.load_bpe(run_dir / f"bpe-{side}.txt").merges == bpe[side].merges
            assert D.Vocabulary.load(run_dir / f"vocab-{side}.txt").id_to_token == vocab[side]
        for split in ("train", "test"):
            ids_x, ids_y, kept = reference_pairs(
                lines[split, "x"], lines[split, "y"], bpe["x"], bpe["y"], vocab["x"], vocab["y"],
                max_words=50, max_len=16,
            )
            corpus = D.read_corpus(run_dir / f"corpus-{split}.bin")
            assert corpus.provenance["kept_line_numbers"] == kept
            assert corpus.provenance["dropped"] == len(lines[split, "x"]) - len(kept)
            assert [row.tolist() for row in corpus.sequences["x"]] == ids_x
            assert [row.tolist() for row in corpus.sequences["y"]] == ids_y

    def test_tokenizes_each_line_at_most_twice(self, project, capsys, monkeypatch):
        calls = []
        original = D.tokenize

        def spy(line):
            calls.append(line)
            return original(line)

        monkeypatch.setattr(D, "tokenize", spy)
        assert run(capsys, "prepare", "--config", str(project))[0] == 0
        # train lines: the word counts and the corpus; test lines: the corpus
        n_train, n_test = 24, 6
        assert 0 < len(calls) <= 2 * (2 * n_train + n_test)

    def test_artifacts_do_not_depend_on_the_project_directory(self, tmp_path, capsys):
        run_dirs = []
        for root in (tmp_path / "a", tmp_path / "another" / "project"):
            config = make_project(root)
            assert run(capsys, "prepare", "--config", str(config))[0] == 0
            run_dirs.append(out_dir(config))
        names = sorted(p.name for p in run_dirs[0].iterdir())
        assert names == sorted(p.name for p in run_dirs[1].iterdir())
        for name in names:
            if name != EFFECTIVE_CONFIG:  # echoes the resolved absolute paths
                assert (run_dirs[0] / name).read_bytes() == (run_dirs[1] / name).read_bytes(), name
        provenance = D.read_corpus(run_dirs[0] / "corpus-test.bin").provenance
        assert provenance["source_files"] == {"x": "toydata/test.x", "y": "toydata/test.y"}

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


MALFORMED = [
    pytest.param("train", "model.num_blocks=abc", None, id="model.num_blocks"),
    pytest.param("train", "model.d_ff=wide", None, id="model.d_ff"),
    pytest.param("train", "model.dropout=high", None, id="model.dropout"),
    pytest.param("train", "train.learning_rate=fast", None, id="train.learning_rate"),
    pytest.param("train", "train.quantize=maybe", None, id="train.quantize"),
    pytest.param("train", "train.loss_weights=1,a,1,1,1", None, id="train.loss_weights"),
    pytest.param("train", "train.checkpoint_every=often", None, id="train.checkpoint_every"),
    pytest.param("prepare", "data.max_words=many", None, id="data.max_words"),
    pytest.param("add-language", "extend.warm_start=perhaps", None, id="extend.warm_start"),
    pytest.param("prepare", None, "max_words = 5\n[data]\n", id="ini-no-section-header"),
    pytest.param("prepare", None, "[data]\nmax_words = 5\nmax_words = 6\n", id="ini-duplicate-key"),
    pytest.param("prepare", None, "[data]\nfoo\n", id="ini-bare-line"),
]


class TestConfigValues:
    @pytest.mark.parametrize("command, override, ini", MALFORMED)
    def test_malformed_value_or_file_is_one_config_error(
        self, prepared_project, tmp_path, capsys, command, override, ini
    ):
        if ini is None:
            config, named, extra = prepared_project, override.split("=")[0], ["--set", override]
        else:
            config = tmp_path / "bad.ini"
            config.write_text(ini, encoding="utf-8")
            named, extra = str(config), []
        code, _, err = run(capsys, command, "--config", str(config), *extra)
        assert code == 1
        one_error_line(err, "config")
        assert named in err and "Traceback" not in err

    def test_defaults_match_the_config_dataclasses(self):
        cp = configparser.ConfigParser()
        cp.read_dict(DEFAULTS)
        assert config_from(cp, "train", TrainConfig) == TrainConfig()
        assert config_from(cp, "model", ModelConfig, vocab_size=77) == ModelConfig(vocab_size=77)
        for section, cls in (("train", TrainConfig), ("model", ModelConfig)):
            names = {f.name for f in dataclasses.fields(cls)} - {"vocab_size"}
            assert names <= set(DEFAULTS[section]), section

    def test_readme_table_lists_every_config_key(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        rows = {}
        for line in readme.splitlines():
            row = re.fullmatch(r"\| `(\w+)` \| (.*) \|", line)
            if row:  # backticked names outside the parenthesized defaults
                rows[row[1]] = re.findall(r"`([^`]+)`", re.sub(r"\([^)]*\)", "", row[2]))
        assert sorted(rows) == sorted(DEFAULTS)
        for section, keys in rows.items():
            assert sorted(keys) == sorted(DEFAULTS[section]), section

    def test_percent_sign_is_a_literal_character(self, project, capsys):
        text = project.read_text(encoding="utf-8").replace("lang_x = x\n", "lang_x = x%y\n")
        project.write_text(text, encoding="utf-8")
        code, _, err = run(capsys, "prepare", "--config", str(project), "--set", "data.lang_y=y%")
        assert code == 0 and "Traceback" not in err, err
        effective = out_dir(project) / EFFECTIVE_CONFIG
        for path in (project, effective):
            cp, _ = read_config(str(path), ["data.lang_y=y%"] if path == project else [])
            assert (cp["data"]["lang_x"], cp["data"]["lang_y"]) == ("x%y", "y%")

    def test_swapped_language_pair_needs_prepare(self, trained_project, capsys):
        code, _, err = run(
            capsys, "interlingua-eval", "--config", str(trained_project),
            "--set", "data.lang_x=y", "--set", "data.lang_y=x",
        )
        assert code == 1
        one_error_line(err, "config")
        assert "run prepare" in err


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
        every = ("--set", "train.checkpoint_every=2")
        code, _, _ = run(capsys, "train", "--config", str(project), *every)
        assert code == 0
        run_dir = out_dir(project)
        periodic = {f"checkpoint-{step:06d}.ckpt" for step in (2, 4, 6)}
        assert {p.name for p in run_dir.glob("checkpoint-0*.ckpt")} == periodic
        before = {name: (run_dir / name).read_bytes() for name in periodic}
        # add-language runs through the same driver, under its own names
        code, out, err = run(capsys, "add-language", "--config", str(project), *every)
        assert code == 0, err
        assert "step 1: loss" in out
        extended = {p.name for p in run_dir.glob("checkpoint-extended-*.ckpt")}
        assert extended == {f"checkpoint-extended-{step:06d}.ckpt" for step in (2, 4, 6)}
        _, state, cfg = load_checkpoint(run_dir / "checkpoint-extended-000004.ckpt")
        assert state.step == 4 and cfg.loss_weights[0] == 0.0
        assert {name: (run_dir / name).read_bytes() for name in periodic} == before

    def test_lock_blocks_concurrent_training(self, project, capsys):
        run(capsys, "prepare", "--config", str(project))
        child = subprocess.Popen([sys.executable, "-c", "pass"])
        child.wait(timeout=60)
        lock = out_dir(project) / ".lock"
        # a pid without host, a live pid on this host, a dead pid elsewhere
        for holder in ("12345", f"{os.getpid()} {socket.gethostname()}", f"{child.pid} not-{socket.gethostname()}"):
            lock.write_text(holder + "\n", encoding="utf-8")
            code, _, err = run(capsys, "train", "--config", str(project))
            assert code == 1
            one_error_line(err, "lock")
            assert lock.read_text(encoding="utf-8") == holder + "\n"
        lock.unlink()

    def test_lock_marker_that_is_not_utf8_blocks(self, project, capsys):
        run(capsys, "prepare", "--config", str(project))
        assert run(capsys, "train", "--config", str(project))[0] == 0
        lock = out_dir(project) / ".lock"
        # printf '\xff\xfe 1\n' > run/.lock
        lock.write_bytes(b"\xff\xfe 1\n")
        code, _, err = run(capsys, "train", "--config", str(project), "--resume", "--steps", "1")
        assert code == 1
        one_error_line(err, "lock")
        assert lock.read_bytes() == b"\xff\xfe 1\n"

    def test_final_checkpoint_links_the_last_periodic_one(self, project, capsys):
        run(capsys, "prepare", "--config", str(project))
        every = ("--set", "train.checkpoint_every=3")
        assert run(capsys, "train", "--config", str(project), *every)[0] == 0
        run_dir = out_dir(project)
        periodic, final = run_dir / "checkpoint-000006.ckpt", run_dir / "checkpoint-final.ckpt"
        assert final.read_bytes() == periodic.read_bytes()
        assert final.samefile(periodic)
        saved = periodic.read_bytes()
        # the resumed run ends off the periodic grid, so its final checkpoint
        # is written, by rename, and the linked file keeps its bytes
        assert run(capsys, "train", "--config", str(project), *every, "--resume", "--steps", "7")[0] == 0
        assert periodic.read_bytes() == saved
        assert not final.samefile(periodic)
        _, state, _ = load_checkpoint(final)
        assert state.step == 7
        assert not list(run_dir.glob(".*.partial"))

    def test_final_checkpoint_is_written_where_links_fail(self, project, capsys, monkeypatch):
        run(capsys, "prepare", "--config", str(project))

        def refuse(*args):
            raise OSError("links not supported")

        monkeypatch.setattr(os, "link", refuse)
        code, _, err = run(capsys, "train", "--config", str(project), "--set", "train.checkpoint_every=3")
        assert code == 0, err
        run_dir = out_dir(project)
        periodic, final = run_dir / "checkpoint-000006.ckpt", run_dir / "checkpoint-final.ckpt"
        assert final.read_bytes() == periodic.read_bytes()
        assert not final.samefile(periodic)

    def test_stale_lock_of_dead_process_is_taken_over(self, project, capsys):
        run(capsys, "prepare", "--config", str(project))
        child = subprocess.Popen([sys.executable, "-c", "pass"])
        child.wait(timeout=60)
        lock = out_dir(project) / ".lock"
        lock.write_text(f"{child.pid} {socket.gethostname()}\n", encoding="utf-8")
        code, _, err = run(capsys, "train", "--config", str(project), "--steps", "1")
        assert code == 0, err
        assert err.count("\n") == 1 and "stale lock" in err and str(child.pid) in err
        assert not lock.exists()

    def test_identical_seeds_give_byte_identical_checkpoints(self, tmp_path, capsys):
        checkpoints = []
        for name in ("a", "b"):
            root = tmp_path / name
            root.mkdir()
            config = make_project(root)
            run(capsys, "prepare", "--config", str(config))
            assert run(capsys, "train", "--config", str(config))[0] == 0
            assert run(capsys, "add-language", "--config", str(config))[0] == 0
            checkpoints.append([
                (root / "run" / name).read_bytes() for name in ("checkpoint-final.ckpt", "checkpoint-extended.ckpt")
            ])
        assert checkpoints[0] == checkpoints[1]

    def test_resume_follows_the_checkpoint_codebook(self, tmp_path, capsys):
        # --dvq shapes a fresh system only: resumed without it, a quantized
        # run keeps training its codebook and lands on the straight run
        hashes = []
        for name, runs in (
            ("straight", [("--dvq", "--steps", "6")]),
            ("resumed", [("--dvq", "--steps", "3"), ("--resume", "--steps", "6")]),
        ):
            root = tmp_path / name
            root.mkdir()
            config = make_project(root)
            run(capsys, "prepare", "--config", str(config))
            for flags in runs:
                code, _, err = run(capsys, "train", "--config", str(config), *flags)
                assert code == 0, err
            log_lines = (out_dir(config) / "train-log.jsonl").read_text().splitlines()
            assert len(log_lines) == 6 and all("vq" in json.loads(line) for line in log_lines)
            system, _, _ = load_checkpoint(out_dir(config) / "checkpoint-final.ckpt")
            hashes.append(system.parameter_hash())
        assert hashes[0] == hashes[1]

    def test_checkpoints_record_the_codebook_they_trained(self, tmp_path, capsys):
        # add-language and a resume without --dvq train the checkpoint's
        # codebook; their checkpoints' train_config says so, with its shape
        codebook = ("--set", "train.vq_tables=2", "--set", "train.vq_entries=8")
        for name, follow in (("extended", ("add-language",)), ("resumed", ("train", "--resume", "--steps", "4"))):
            root = tmp_path / name
            root.mkdir()
            config = make_project(root)
            run(capsys, "prepare", "--config", str(config))
            code, _, err = run(capsys, "train", "--config", str(config), "--dvq", "--steps", "2", *codebook)
            assert code == 0, err
            code, _, err = run(capsys, *follow, "--config", str(config))
            assert code == 0, err
            target = "checkpoint-extended.ckpt" if name == "extended" else "checkpoint-final.ckpt"
            system, _, train_config = load_checkpoint(out_dir(config) / target)
            assert (system.codebook.n_tables, system.codebook.entries) == (2, 8)
            assert (train_config.quantize, train_config.vq_tables, train_config.vq_entries) == (True, 2, 8), name

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

    @pytest.mark.parametrize("command, artifact", [
        ("eval", "bleu-report-test.json"),
        ("interlingua-eval", "interlingua-report-test.json"),
        ("eval", EFFECTIVE_CONFIG),
        ("viz", "embeddings-test.tsv"),
        ("viz", "viz-test.svg"),
    ])
    def test_failed_write_leaves_the_previous_artifact(
        self, trained_project, tmp_path, capsys, monkeypatch, command, artifact
    ):
        # run-directory artifacts are written to a hidden sibling that is
        # renamed over the target, so a write that fails (here, its rename)
        # leaves the previous bytes and no partial file
        config = Path(shutil.copytree(trained_project.parent, tmp_path / "copy")) / trained_project.name
        target = out_dir(config) / artifact
        target.write_bytes(b"previous\n")
        real_replace = os.replace

        def replace(src, dst):
            if Path(dst).name == artifact:
                raise OSError(f"no space left writing {artifact}")
            real_replace(src, dst)

        monkeypatch.setattr(D.os, "replace", replace)
        code, _, err = run(capsys, command, "--config", str(config), "--split", "test")
        assert code == 1
        assert err == f"error: io: no space left writing {artifact}\n"
        assert target.read_bytes() == b"previous\n"
        assert not list(out_dir(config).glob(".*.partial"))

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

    def test_emptied_split_is_one_error_line(self, project, capsys):
        # every test pair is longer than data.max_words, so prepare keeps none
        long_line = " ".join(["taru"] * 60)
        for lang in ("x", "y"):
            (project.parent / "toydata" / f"test.{lang}").write_text((long_line + "\n") * 4, encoding="utf-8")
        code, out, err = run(capsys, "prepare", "--config", str(project))
        assert code == 0, err
        assert "test: kept 0 pairs" in out
        assert run(capsys, "train", "--config", str(project), "--steps", "1")[0] == 0
        for argv in (["eval"], ["interlingua-eval"], ["viz", "--split", "test"]):  # eval's default split is test
            code, _, err = run(capsys, *argv, "--config", str(project))
            assert code == 1, argv
            one_error_line(err, "config")
            assert "test split holds no pairs" in err, argv

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

    @pytest.mark.parametrize("damage", ["last side one row short", "empty first row"])
    def test_corpus_rows_that_do_not_fit_the_count(self, prepared_project, tmp_path, capsys, damage):
        # header and payload stay consistent with each other, so only the
        # row checks can catch the damage
        run_dir = tmp_path / "run"
        shutil.copytree(out_dir(prepared_project), run_dir)
        target = run_dir / "corpus-train.bin"
        original = target.read_bytes()
        size = int.from_bytes(original[4:12], "little")
        header = json.loads(original[12 : 12 + size])
        payload = original[12 + size :]
        languages, lengths = header["languages"], header["lengths"]
        if damage == "last side one row short":
            payload = payload[: len(payload) - 4 * lengths[languages[-1]].pop()]
        else:
            payload = payload[4 * lengths[languages[0]][0] :]
            lengths[languages[0]][0] = 0
        blob = json.dumps(header, sort_keys=True).encode("utf-8")
        target.write_bytes(original[:4] + len(blob).to_bytes(8, "little") + blob + payload)
        code, _, err = run(
            capsys, "train", "--config", str(prepared_project), "--set", f"output.dir={run_dir}", "--steps", "1"
        )
        assert code == 1
        one_error_line(err, "checkpoint")
        assert "corpus-train.bin" in err and "Traceback" not in err

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

    @pytest.mark.parametrize("command, damaged", [
        pytest.param("translate", "bpe-x.txt", id="bpe"),
        pytest.param("eval", "vocab-x.txt", id="vocabulary"),
        pytest.param("translate", "input.txt", id="translate-input"),
        pytest.param("eval", "config.ini", id="config"),
    ])
    def test_text_that_is_not_utf8_is_one_config_error(self, trained_project, tmp_path, capsys, command, damaged):
        # a copy of the run beside a copy of its config, whose output.dir is run
        shutil.copytree(out_dir(trained_project), tmp_path / "run")
        shutil.copy(trained_project, tmp_path / "config.ini")
        shutil.copy(trained_project.parent / "toydata" / "test.x", tmp_path / "input.txt")
        target = tmp_path / ("run" if damaged.endswith("-x.txt") else "") / damaged
        target.write_bytes(target.read_bytes() + "# caf\u00e9\n".encode("latin-1"))
        argv = ["--src", "x", "--tgt", "y", "--input", str(tmp_path / "input.txt")] if command == "translate" else []
        code, _, err = run(capsys, command, "--config", str(tmp_path / "config.ini"), *argv)
        assert code == 1
        one_error_line(err, "config")
        assert f"{target} is not UTF-8" in err and "Traceback" not in err

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
        provenance = D.read_corpus(run_dir / "corpus-extend-n.bin").provenance
        assert provenance["source_files"] == {"x": "toydata/train.x", "n": "toydata/train.n"}
        log_lines = (run_dir / "extend-log.jsonl").read_text().splitlines()
        assert len(log_lines) == 6

        base_system, _, _ = load_checkpoint(run_dir / "checkpoint-final.ckpt")
        ext_system, _, _ = load_checkpoint(extended)
        assert set(ext_system.languages) == {"x", "y", "n"}
        base_params = base_system.named_parameters()
        ext_params = ext_system.named_parameters()
        for name, tensor in base_params.items():
            assert np.array_equal(tensor.array, ext_params[name].array), name

    def test_extension_of_a_dvq_checkpoint_is_quantized(self, project, capsys):
        # add-language has no --dvq flag: the checkpoint's codebook decides
        run(capsys, "prepare", "--config", str(project))
        assert run(capsys, "train", "--config", str(project), "--dvq")[0] == 0
        code, _, err = run(capsys, "add-language", "--config", str(project))
        assert code == 0, err
        log_lines = (out_dir(project) / "extend-log.jsonl").read_text().splitlines()
        assert len(log_lines) == 6 and all("vq" in json.loads(line) for line in log_lines)

    def test_requires_new_language_name(self, project, capsys):
        run(capsys, "prepare", "--config", str(project))
        run(capsys, "train", "--config", str(project))
        code, _, err = run(
            capsys, "add-language", "--config", str(project), "--set", "extend.new_lang="
        )
        assert code == 1
        assert err.startswith("error: config:")
