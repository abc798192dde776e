"""Command-line interface: exit codes, config parsing, output determinism."""

import csv
import filecmp
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from camtrap import cli, wsddn


def run(argv, capsys=None):
    code = cli.main(argv)
    if capsys is None:
        return code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SYNTH_ARGS = [
    "synth", "--seed", "11", "--individuals", "2", "--images-per-individual", "6",
    "--negatives", "8", "--image-size", "64",
]


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    assert cli.main(SYNTH_ARGS + ["--out", str(out)]) == 0
    return out


class TestExitCodes:
    def test_help_exits_zero(self, capsys):
        for sub in ("", "synth", "split", "train-detect", "train-species",
                    "train-individual", "segment", "eval", "experiment"):
            argv = ([sub] if sub else []) + ["--help"]
            assert cli.main(argv) == 0
            assert "usage" in capsys.readouterr().out

    def test_bad_fraction_exit_1_names_flag(self, capsys):
        code = cli.main(["split", "--manifest", "x.csv", "--fraction", "1.5"])
        assert code == 1
        assert "--fraction" in capsys.readouterr().err

    def test_negative_exponent_values_reach_value_checks(self, corpus, tmp_path, capsys):
        # argparse alone reads `-1e-3` as an unknown flag and exits 1 with
        # "expected one argument"; every float flag must see its value checked
        manifest = str(corpus / "manifest.csv")
        image = str(sorted(corpus.glob("tiger-*.ppm"))[0])
        model = tmp_path / "zero.model"
        model.write_text("camtrap-linear-model v1\nlambda 0.001\nbias 0.0\ndim 80\n" + " ".join(["0.0"] * 80) + "\n")
        train = ["--manifest", manifest, "--out", str(tmp_path / "out"), "--epochs", "1"]
        segment = ["segment", "--image", image, "--detector", str(model), "--out", str(tmp_path / "m.pbm"),
                   "--patch-size", "8"]
        cases = [(["synth", "--out", str(tmp_path / "s")], "--night-fraction", 2, "night_fraction"),
                 (["split", "--manifest", manifest, "--out", str(tmp_path / "sp")], "--fraction", 1, "--fraction"),
                 (["train-detect"] + train, "--lam", 2, "lam must be > 0, got -0.001")]
        for sub in ("train-species", "train-individual"):
            cases += [([sub] + train, "--lr", 2, "learning_rate must be > 0, got -0.001"),
                      ([sub] + train, "--l2", 2, "l2 must be >= 0, got -0.001"),
                      ([sub] + train, "--stride", 2, "stride must be > 0, got -0.001"),
                      ([sub] + train, "--scales", 2, "scales must be > 0, got (-0.001,)")]
        cases += [(segment, "--w", 2, "w (coupling weight) must be >= 0, got -0.001"),
                  (segment, "--theta-pos", 2, "theta_pos (bandwidth) must be > 0, got -0.001"),
                  (segment, "--theta-color", 2, "theta_color (bandwidth) must be > 0, got -0.001"),
                  (segment, "--tau", 2, "tau must be in (0,1), got -0.001"),
                  (segment, "--scale", 2, "scale must be > 0, got -0.001")]
        for argv, flag, want_code, named in cases:
            code, _, err = run(argv + [flag, "-1e-3"], capsys)
            assert (code, "expected one argument" in err) == (want_code, False), (flag, err)
            assert named in err, (flag, err)
        code, _, err = run(["train-species"] + train + ["--scales", "-1e-3,0.5"], capsys)
        assert code == 2 and "scales must be > 0, got (-0.001, 0.5)" in err, err
        assert not (tmp_path / "out").exists() and not (tmp_path / "m.pbm").exists()

    def test_unknown_flag_exit_1(self, capsys):
        assert cli.main(["synth", "--bogus"]) == 1
        assert "error" in capsys.readouterr().err

    def test_missing_file_exit_2(self, capsys):
        code = cli.main(["split", "--manifest", "does-not-exist.csv", "--fraction", "0.5"])
        assert code == 2
        assert "does-not-exist.csv" in capsys.readouterr().err

    def test_manifest_size_mismatch_exit_2_names_image(self, corpus, tmp_path, capsys):
        lines = (corpus / "manifest.csv").read_text().splitlines(keepends=True)
        fields = lines[1].rstrip("\n").split(",")
        image = fields[1]
        lines[1] = ",".join(fields[:-2] + ["96", "96"]) + "\n"  # the PPMs are 64 x 64
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("".join(lines))
        code, _, err = run(["train-detect", "--manifest", str(manifest), "--images", str(corpus),
                            "--out", str(tmp_path / "det.model"), "--epochs", "1"], capsys)
        assert code == 2
        assert str(corpus / image) in err and "64x64" in err
        assert not (tmp_path / "det.model").exists()

    def test_unknown_subcommand_exit_1(self):
        assert cli.main(["frobnicate"]) == 1


class TestConfigFile:
    def test_parse_types(self, tmp_path):
        path = tmp_path / "c.toml"
        path.write_text(
            "# comment\n"
            "n_seeds = 3\n"
            "head_lr = 2.5\n"
            "balance = true\n"
            "fractions = 0.5, 1.0\n"
            'protocol = "volume"\n'
            'manifest_path = "data#1/manifest.csv"  # a # inside quotes is kept\n'
        )
        values = cli.parse_config_file(path)
        assert values == {
            "n_seeds": 3,
            "head_lr": 2.5,
            "balance": True,
            "fractions": (0.5, 1.0),
            "protocol": "volume",
            "manifest_path": "data#1/manifest.csv",
        }

    def test_bad_line_rejected(self, tmp_path):
        path = tmp_path / "c.toml"
        path.write_text("just words\n")
        with pytest.raises(ValueError, match="c.toml:1"):
            cli.parse_config_file(path)

    def test_flags_override_file(self, tmp_path, capsys):
        path = tmp_path / "c.toml"
        path.write_text(
            "n_seeds = 5\nimage_size = 64\nindividuals = 2\n"
            "images_per_individual = 4\nn_negatives = 8\n"
            "head_epochs = 10\nsvm_epochs = 5\nfractions = 1.0\n"
        )
        out = tmp_path / "run"
        code = cli.main(["experiment", "volume", "--config", str(path),
                         "--n-seeds", "1", "--out", str(out)])
        assert code == 0
        assert '"n_seeds": 1' in (out / "config.json").read_text()

    def test_file_base_seed_holds_unless_flag_given(self, tmp_path, capsys):
        # the base seed also seeds the synthetic corpus unless corpus_seed is set
        path = tmp_path / "c.toml"
        path.write_text(
            "base_seed = 5\nn_seeds = 1\nimage_size = 64\nindividuals = 2\n"
            "images_per_individual = 4\nn_negatives = 8\nsvm_epochs = 5\nfractions = 1.0\n"
        )
        for flags, seed in (([], 5), (["--seed", "3"], 3)):
            out = tmp_path / f"run{seed}"
            assert cli.main(["experiment", "volume", "--config", str(path), "--out", str(out)] + flags) == 0
            config = json.loads((out / "config.json").read_text())["config"]
            assert (config["base_seed"], config["synth_config"]["seed"]) == (seed, seed), flags

    def test_unknown_config_key_exit_2(self, tmp_path, capsys):
        # output_dir is not a key: --out decides where a report goes
        for key, value in (("bogus_key", "1"), ("output_dir", "elsewhere")):
            path = tmp_path / "c.toml"
            path.write_text(f"{key} = {value}\n")
            code = cli.main(["experiment", "volume", "--config", str(path), "--out", str(tmp_path / "o")])
            assert code == 2, key
            err = capsys.readouterr().err
            assert key in err and str(path) in err, key
            assert not (tmp_path / "o").exists() and not (tmp_path / value).exists()

    def test_wrong_typed_value_exit_2(self, tmp_path, capsys):
        bad = ("segment = maybe", "balance = 2", "fractions = abc", "fractions = 0.5, abc",
               "k = big", "k = 1, 2", "split_fraction = half", "head_epochs = 1.5",
               "n_seeds = two", "n_seeds = true", "image_size = 1.5", "night_fraction = dark")
        for line in bad:
            path = tmp_path / "c.toml"
            path.write_text(line + "\n")
            code = cli.main(["experiment", "volume", "--config", str(path), "--out", str(tmp_path / "o")])
            err = capsys.readouterr().err
            assert code == 2, line
            assert str(path) in err and line.split(" =")[0] in err, line
            assert not (tmp_path / "o").exists(), line

    def test_images_without_manifest_exit_2(self, tmp_path, capsys, monkeypatch):
        # an image root cannot apply to a synthetic corpus; checked before it is rendered
        def no_render(*args, **kwargs):
            raise AssertionError("corpus rendered before --images was checked")

        monkeypatch.setattr(cli.synth, "generate_corpus", no_render)
        path = tmp_path / "c.toml"
        path.write_text("image_size = 64\n")
        code = cli.main(["experiment", "volume", "--config", str(path), "--images", str(tmp_path / "imgs"),
                         "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2 and "--images" in err and "--manifest" in err, err
        assert not (tmp_path / "o").exists()

    def test_out_of_range_value_exit_2_names_file(self, tmp_path, capsys, monkeypatch):
        # checked before the corpus is rendered
        def no_render(*args, **kwargs):
            raise AssertionError("corpus rendered before the config was checked")

        monkeypatch.setattr(cli.synth, "generate_corpus", no_render)
        for text, key in (("segment = true\npatch_size = 2\n", "patch_size"),
                          ("fractions = 1.5\n", "fractions"),
                          ("image_size = 0\n", "image_size"),
                          ("svm_epochs = 0\n", "svm_epochs must be >= 1, got 0"),
                          ("svm_lambda = 0.0\n", "svm_lambda must be > 0, got 0.0"),
                          ("split_fraction = 1.5\n", "split_fraction must be in (0,1), got 1.5"),
                          ("split_ratios = 0.5, 1.2\n", "split_ratios must be in (0,1), got 1.2"),
                          ("train_proportions = 0.5, 1.5\n", "train_proportions must be in (0,1], got 1.5"),
                          ("k = 0\n", "k must be >= 1, got 0"),
                          ("head_epochs = 0\n", "head_epochs must be >= 1, got 0"),
                          ("head_lr = 0\n", "head_lr must be > 0, got 0"),
                          ("head_l2 = -1.0\n", "head_l2 must be >= 0, got -1.0"),
                          ("pyramid_levels = 0\n", "pyramid_levels must be 1 or more ints >= 1, got (0,)"),
                          ("channels = 3, 0\n", "channels must be 2 or more ints >= 1, got (3, 0)"),
                          ("jobs = 0\n", "jobs must be >= 1, got 0")):
            path = tmp_path / "c.toml"
            path.write_text(text)
            code = cli.main(["experiment", "individual", "--config", str(path), "--out", str(tmp_path / "o")])
            err = capsys.readouterr().err
            assert code == 2, text
            assert str(path) in err and key in err, (text, err)
            assert not (tmp_path / "o").exists(), text
        # a bad flag value is not blamed on the file
        path.write_text("segment = true\n")
        code = cli.main(["experiment", "individual", "--config", str(path), "--n-seeds", "0",
                         "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2 and "seed" in err and str(path) not in err, err
        assert not (tmp_path / "o").exists()
        for jobs in ("0", "-3"):
            code = cli.main(["experiment", "volume", "--jobs", jobs, "--out", str(tmp_path / "o")])
            err = capsys.readouterr().err
            assert code == 2 and f"jobs must be >= 1, got {jobs}" in err, err
            assert not (tmp_path / "o").exists()


class TestPipeline:
    def test_synth_writes_manifest(self, corpus):
        assert (corpus / "manifest.csv").exists()
        # three default species at 2 x 6 images each, plus 8 negatives
        assert len(list(corpus.glob("*.ppm"))) == 3 * 2 * 6 + 8

    def test_split_and_train(self, corpus, tmp_path, capsys):
        splits = tmp_path / "splits"
        assert cli.main(["split", "--manifest", str(corpus / "manifest.csv"),
                         "--fraction", "0.7", "--seed", "1", "--out", str(splits)]) == 0
        model = tmp_path / "det.model"
        code = cli.main(["train-detect", "--manifest", str(splits / "train.csv"),
                         "--images", str(corpus), "--out", str(model), "--epochs", "5"])
        assert code == 0
        assert model.exists()

    def test_train_individual_spaced_name(self, corpus, tmp_path, capsys):
        with open(corpus / "manifest.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        col = rows[0].index("individual")
        renamed = next(r[col] for r in rows[1:] if r[col].startswith("tiger"))
        for r in rows[1:]:
            if r[col] == renamed:
                r[col] = "tiger one"
        manifest = tmp_path / "manifest.csv"
        with open(manifest, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(rows)
        head = tmp_path / "ind.head"
        code = cli.main(["train-individual", "--manifest", str(manifest), "--images", str(corpus),
                         "--species", "tiger", "--epochs", "5", "--out", str(head)])
        assert code == 0
        assert "tiger one" in wsddn.load_head(head).class_names

    def test_bad_head_training_value_exit_2_names_field(self, corpus, tmp_path, capsys, monkeypatch):
        # the config is checked before any image is read or any feature extracted
        def no_images(*_):
            raise AssertionError("images loaded before the training config was checked")

        monkeypatch.setattr(cli, "_record_features", no_images)
        head = tmp_path / "species.head"
        for flag, value, field in (("--lr", "0", "learning_rate"), ("--epochs", "0", "epochs"),
                                   ("--l2", "-1", "l2")):
            code, _, err = run(["train-species", "--manifest", str(corpus / "manifest.csv"),
                                "--images", str(corpus), "--out", str(head), flag, value], capsys)
            assert code == 2
            assert field in err and value in err
            assert not head.exists()

    def test_bad_detector_training_value_exit_2_names_field(self, corpus, tmp_path, capsys, monkeypatch):
        # the config is checked before any image is read or any feature extracted
        def no_images(*_):
            raise AssertionError("images loaded before the training config was checked")

        monkeypatch.setattr(cli, "_record_features", no_images)
        model = tmp_path / "det.model"
        for flag, value, message in (("--epochs", "0", "epochs must be >= 1, got 0"),
                                     ("--lam", "0", "lam must be > 0, got 0.0"),
                                     ("--lam", "-0.5", "lam must be > 0, got -0.5")):
            code, _, err = run(["train-detect", "--manifest", str(corpus / "manifest.csv"),
                                "--images", str(corpus), "--out", str(model), flag, value], capsys)
            assert code == 2
            assert message in err, err
            assert not model.exists()

    def test_eval_identical_files_all_ones(self, tmp_path, capsys):
        truth = tmp_path / "t.csv"
        truth.write_text("id,label\na,tiger\nb,leopard\nc,tiger\n")
        code, out, _ = run(["eval", "--pred", str(truth), "--truth", str(truth)], capsys)
        assert code == 0
        for line in out.splitlines()[1:]:
            if line.startswith(("tiger", "leopard")):
                assert line.split()[2:] == ["1.0000"] * 4

    def test_eval_topk(self, tmp_path, capsys):
        (tmp_path / "t.csv").write_text("id,label\na,tiger\nb,leopard\n")
        (tmp_path / "p.csv").write_text("id,label,label2\na,leopard,tiger\nb,leopard,tiger\n")
        code, out, _ = run(["eval", "--pred", str(tmp_path / "p.csv"),
                            "--truth", str(tmp_path / "t.csv"), "--k", "2"], capsys)
        assert code == 0
        assert "top-2 accuracy 1.0" in out

    def test_eval_mismatched_ids_exit_2(self, tmp_path):
        (tmp_path / "t.csv").write_text("id,label\na,tiger\n")
        (tmp_path / "p.csv").write_text("id,label\nb,tiger\n")
        assert cli.main(["eval", "--pred", str(tmp_path / "p.csv"),
                         "--truth", str(tmp_path / "t.csv")]) == 2

    def test_segment_writes_mask(self, corpus, tmp_path):
        model = tmp_path / "det.model"
        assert cli.main(["train-detect", "--manifest", str(corpus / "manifest.csv"),
                         "--images", str(corpus), "--out", str(model), "--epochs", "5"]) == 0
        image = sorted(corpus.glob("tiger-*.ppm"))[0]
        mask = tmp_path / "m.pbm"
        assert cli.main(["segment", "--image", str(image), "--detector", str(model),
                         "--out", str(mask), "--patch-size", "8"]) == 0
        assert mask.read_bytes().startswith(b"P4\n")

    def test_segment_bad_detector_exit_2_names_file(self, corpus, tmp_path, capsys):
        image = sorted(corpus.glob("tiger-*.ppm"))[0]
        truncated = tmp_path / "truncated.model"
        truncated.write_text("camtrap-linear-model v1\nlambda 0.001\n")
        # default --channels 3,8,16 and --levels 1,2 give 16 * 5 = 80 features
        wrong_dim = tmp_path / "wrong-dim.model"
        wrong_dim.write_text("camtrap-linear-model v1\nlambda 0.001\nbias 0.0\ndim 3\n1.0 2.0 3.0\n")
        for model in (truncated, wrong_dim):
            code, _, err = run(["segment", "--image", str(image), "--detector", str(model),
                                "--out", str(tmp_path / "m.pbm"), "--patch-size", "8"], capsys)
            assert code == 2, model.name
            assert str(model) in err

    def test_segment_values_checked_before_reading(self, tmp_path, capsys, monkeypatch):
        def no_read(*_):
            raise AssertionError("image or model read before the values were checked")

        monkeypatch.setattr(cli.synth, "read_ppm", no_read)
        monkeypatch.setattr(cli.svm, "load_model", no_read)
        segment = ["segment", "--image", "x.ppm", "--detector", "x.model", "--out", str(tmp_path / "m.pbm")]
        for flags, message in ((["--patch-size", "2"], "patch_size must be >= 4, got 2"),
                               (["--tau", "0"], "tau must be in (0,1), got 0.0"),
                               (["--tau", "1"], "tau must be in (0,1), got 1.0"),
                               (["--scale", "0"], "scale must be > 0, got 0.0"),
                               (["--w", "-1"], "w (coupling weight) must be >= 0, got -1.0"),
                               (["--iterations", "-1"], "iterations must be >= 0, got -1"),
                               (["--channels", "3,0"], "channels must be 2 or more ints >= 1, got (3, 0)")):
            code, _, err = run(segment + flags, capsys)
            assert code == 2 and message in err, (flags, err)
        assert not (tmp_path / "m.pbm").exists()

    def test_segment_bad_scale_or_image_exit_2(self, corpus, tmp_path, capsys):
        image = sorted(corpus.glob("tiger-*.ppm"))[0]
        truncated = tmp_path / "truncated.ppm"
        truncated.write_bytes(image.read_bytes()[:100])
        model = tmp_path / "zero.model"
        model.write_text("camtrap-linear-model v1\nlambda 0.001\nbias 0.0\ndim 80\n" + " ".join(["0.0"] * 80) + "\n")
        for img, scale, named in ((image, "0", "scale"), (image, "-1", "scale"), (truncated, "1", str(truncated))):
            code, _, err = run(["segment", "--image", str(img), "--detector", str(model),
                                "--out", str(tmp_path / "m.pbm"), "--patch-size", "8", "--scale", scale], capsys)
            assert code == 2, (img.name, scale)
            assert named in err
        assert not (tmp_path / "m.pbm").exists()


class TestDeterminism:
    def test_synth_rerun_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert cli.main(SYNTH_ARGS + ["--out", str(out)]) == 0
        names = sorted(p.name for p in a.iterdir())
        match, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
        assert not mismatch and not errors

    def test_experiment_rerun_and_jobs_identical(self, tmp_path):
        cfg = tmp_path / "c.toml"
        cfg.write_text(
            "image_size = 64\nindividuals = 2\nimages_per_individual = 4\n"
            "n_negatives = 8\nn_seeds = 1\nhead_epochs = 10\nsvm_epochs = 5\nfractions = 1.0\n"
        )
        dirs = []
        for name, jobs in (("r1", "1"), ("r2", "1"), ("r4", "4")):
            out = tmp_path / name
            assert cli.main(["experiment", "volume", "--config", str(cfg), "--seed", "7",
                             "--jobs", jobs, "--out", str(out)]) == 0
            dirs.append(out)
        names = sorted(p.name for p in dirs[0].iterdir())
        for other in dirs[1:]:
            match, mismatch, errors = filecmp.cmpfiles(dirs[0], other, names, shallow=False)
            assert not mismatch and not errors

    def test_segmented_individual_jobs_identical(self, tmp_path):
        cfg = tmp_path / "c.toml"
        cfg.write_text(
            "image_size = 64\nindividuals = 2\nimages_per_individual = 4\n"
            "n_negatives = 4\nn_seeds = 1\nhead_epochs = 10\nsvm_epochs = 5\nsegment = true\n"
        )
        for name, jobs in (("j1", "1"), ("j2", "2")):
            assert cli.main(["experiment", "individual", "--config", str(cfg), "--seed", "3",
                             "--jobs", jobs, "--out", str(tmp_path / name)]) == 0
        names = sorted(p.name for p in (tmp_path / "j1").iterdir())
        match, mismatch, errors = filecmp.cmpfiles(tmp_path / "j1", tmp_path / "j2", names, shallow=False)
        assert match == names and not mismatch and not errors

    def test_sweep_bytes_independent_of_blas_threads(self, tmp_path):
        cfg = tmp_path / "c.toml"
        cfg.write_text(
            "image_size = 64\nindividuals = 2\nimages_per_individual = 4\n"
            "n_negatives = 8\nn_seeds = 3\nsvm_epochs = 5\nfractions = 0.5, 1.0\n"
        )
        src = str(Path(cli.__file__).resolve().parents[1])
        digests = set()
        for threads in ("1", "2"):
            out = tmp_path / f"t{threads}"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
            subprocess.run([sys.executable, "-m", "camtrap.cli", "experiment", "volume", "--config", str(cfg),
                            "--seed", "5", "--out", str(out)], env=env, capture_output=True, check=True,
                           timeout=120)
            h = hashlib.sha256()
            for f in sorted(out.iterdir()):
                h.update(f.name.encode() + b"\0" + f.read_bytes())
            digests.add(h.hexdigest())
        assert len(digests) == 1

    def test_output_env_var_default(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(cli.OUT_ENV, str(tmp_path / "envout"))
        parser = cli.build_parser()
        args = parser.parse_args(["split", "--manifest", "x.csv"])
        assert args.out == str(tmp_path / "envout")
