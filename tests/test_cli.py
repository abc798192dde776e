"""Command-line interface: exit codes, config parsing, output determinism."""

import csv
import filecmp
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from camtrap import cli, features as ft, synth, wsddn


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

    @pytest.mark.parametrize("subcommand", ["train-detect", "train-species", "train-individual", "segment",
                                            "experiment"])
    def test_image_below_receptive_field_exit_2_names_image(self, subcommand, tmp_path, capsys):
        # 3x3 images; the default net's two layers need 2^2 = 4 px a side (train-individual
        # checks every record's size up front, labelled by an individual or not)
        rows = ["id,path,species,individual,illumination,width,height"]
        for n, species in enumerate(("tiger", "leopard", "unclassified") * 2):
            synth.write_ppm(tmp_path / f"{n}.ppm", np.full((3, 3, 3), 0.5))
            rows.append(f"{n},{n}.ppm,{species},,day,3,3")
        (tmp_path / "manifest.csv").write_text("\n".join(rows) + "\n")
        (tmp_path / "volume.cfg").write_text("fractions = 1.0\nn_seeds = 1\n")
        manifest, first, out = str(tmp_path / "manifest.csv"), str(tmp_path / "0.ppm"), str(tmp_path / "out")
        argv = {"train-detect": ["train-detect", "--manifest", manifest],
                "train-species": ["train-species", "--manifest", manifest],
                "train-individual": ["train-individual", "--manifest", manifest],
                "segment": ["segment", "--image", first, "--detector", str(tmp_path / "x.model")],
                "experiment": ["experiment", "volume", "--manifest", manifest, "--config", str(tmp_path / "volume.cfg")]}
        code, _, err = run(argv[subcommand] + ["--out", out], capsys)
        assert code == 2
        assert f"{first}: image is 3x3, smaller than the network's receptive field of 4 px a side" in err, err
        assert not (tmp_path / "out").exists()

    def test_truncated_ppm_read_by_sweep_exit_2_names_it(self, corpus, tmp_path, capsys):
        # the manifest shows nothing wrong, so the context is built; the
        # volume sweep reads every image at fraction 1.0 and fails at the
        # truncated one
        data = tmp_path / "data"
        data.mkdir()
        for f in corpus.iterdir():
            (data / f.name).write_bytes(f.read_bytes())
        bad = sorted(data.glob("leopard-*.ppm"))[1]
        bad.write_bytes(bad.read_bytes()[:-10])
        (tmp_path / "volume.cfg").write_text("fractions = 1.0\nn_seeds = 1\nsvm_epochs = 2\n")
        code, _, err = run(["experiment", "volume", "--manifest", str(data / "manifest.csv"),
                            "--config", str(tmp_path / "volume.cfg"), "--out", str(tmp_path / "out")], capsys)
        assert code == 2
        assert f"{bad}: raster has" in err, err
        assert not (tmp_path / "out").exists()

    def test_synth_image_size_below_a_planted_animal_exit_2(self, tmp_path, capsys):
        code, _, err = run(["synth", "--image-size", "4", "--out", str(tmp_path / "c")], capsys)
        assert code == 2 and "image_size must be >= 8 px, the least side of a planted animal, got 4" in err, err
        assert not (tmp_path / "c").exists()

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

    def test_second_corpus_keys_exit_2_before_rendering(self, tmp_path, capsys, monkeypatch):
        # the protocol is a flag and the corpus comes from the corpus keys or a manifest: a file
        # naming another one is refused, not overridden
        def no_render(*args, **kwargs):
            raise AssertionError("corpus rendered before the config was checked")

        monkeypatch.setattr(cli.synth, "generate_corpus", no_render)
        for text, named in (("synth_config = anything\n", "unknown config keys: ['synth_config']"),
                            ('protocol = "species"\n', "unknown config keys: ['protocol']"),
                            ("images_root = '/nowhere'\n", "images_root /nowhere needs manifest_path"),
                            ("manifest_path = 'm.csv'\nimage_size = 200\nindividuals = 7\n",
                             "manifest_path and corpus keys ['image_size', 'individuals'] name two corpora")):
            path = tmp_path / "c.toml"
            path.write_text(text)
            code = cli.main(["experiment", "volume", "--config", str(path), "--out", str(tmp_path / "o")])
            err = capsys.readouterr().err
            assert code == 2 and str(path) in err and named in err, (text, err)
            assert not (tmp_path / "o").exists(), text

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

    @pytest.mark.parametrize("flags, keys", [
        (["--image-size", "48", "--individuals", "3", "--images-per-individual", "5", "--negatives", "7",
          "--night-fraction", "0.25", "--seed", "9"],
         "image_size = 48\nindividuals = 3\nimages_per_individual = 5\nn_negatives = 7\nnight_fraction = 0.25\n"
         "corpus_seed = 9\n"),
        # an int night fraction, and the corpus seed taken from the base seed
        (["--night-fraction", "1", "--seed", "4"], "night_fraction = 1\nbase_seed = 4\n"),
    ])
    def test_synth_flags_and_config_keys_build_one_corpus(self, flags, keys, tmp_path, monkeypatch):
        built, generate = [], synth.generate_corpus

        def spy(cfg, out_dir=None):
            built.append(cfg)
            return generate(cfg)  # renders nothing: its pixels are read on access

        monkeypatch.setattr(cli.synth, "generate_corpus", spy)
        assert cli.main(["synth", "--out", str(tmp_path / "s")] + flags) == 0
        (tmp_path / "c.toml").write_text(keys)
        args = cli.build_parser().parse_args(["experiment", "volume", "--config", str(tmp_path / "c.toml")])
        assert repr(cli._experiment_config(args).synth_config) == repr(built[0])

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
                          ("image_size = 5\n", "image_size must be >= 8 px, the least side of a planted animal, got 5"),
                          ("image_size = 8\nchannels = 3, 8, 16, 32, 64\n",
                           "image_size 8 is smaller than the network's receptive field of 16 px"),
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

    def test_segment_with_manifest_exit_2_names_both_before_reading(self, corpus, tmp_path, capsys, monkeypatch):
        def no_read(*_):
            raise AssertionError("image read before the config was checked")

        monkeypatch.setattr(cli.synth, "read_ppm", no_read)
        path, manifest = tmp_path / "c.toml", str(corpus / "manifest.csv")
        path.write_text("segment = true\n")
        for protocol in ("individual", "joint-individuals"):
            code, _, err = run(["experiment", protocol, "--manifest", manifest, "--config", str(path),
                                "--out", str(tmp_path / "o")], capsys)
            assert code == 2 and str(path) in err and f"{manifest} has none" in err, err
            assert not (tmp_path / "o").exists()

    def test_segment_patch_larger_than_image_exit_2_names_key(self, tmp_path, capsys, monkeypatch):
        def no_render(*args, **kwargs):
            raise AssertionError("corpus rendered before the config was checked")

        monkeypatch.setattr(cli.synth, "generate_corpus", no_render)
        path = tmp_path / "c.toml"
        path.write_text("image_size = 32\nsegment = true\npatch_size = 40\n")
        for protocol in ("individual", "joint-individuals"):
            code, _, err = run(["experiment", protocol, "--config", str(path), "--out", str(tmp_path / "o")], capsys)
            assert code == 2 and str(path) in err and "patch_size 40 is larger than image_size 32" in err, err
            assert not (tmp_path / "o").exists()
        # a run that reads no patch mask takes any patch size
        path.write_text("image_size = 32\nsegment = true\npatch_size = 40\nn_seeds = 1\nfractions = 1.0\n"
                        "svm_epochs = 2\nn_negatives = 8\nindividuals = 2\nimages_per_individual = 4\n")
        monkeypatch.undo()
        assert run(["experiment", "volume", "--config", str(path), "--out", str(tmp_path / "o")]) == 0


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

    def test_train_species_one_species_exit_2_names_manifest(self, corpus, tmp_path, capsys):
        lines = (corpus / "manifest.csv").read_text().splitlines(keepends=True)
        manifest = tmp_path / "tigers.csv"
        manifest.write_text(lines[0] + "".join(line for line in lines[1:] if ",tiger," in line))
        code, _, err = run(["train-species", "--manifest", str(manifest), "--images", str(corpus),
                            "--out", str(tmp_path / "h")], capsys)
        assert code == 2 and f"{manifest}: need images of at least 2 species" in err, err
        assert not (tmp_path / "h").exists()

    def test_train_individual_no_labels_exit_2_names_manifest(self, corpus, tmp_path, capsys):
        lines = (corpus / "manifest.csv").read_text().splitlines(keepends=True)
        manifest = tmp_path / "unlabeled.csv"
        manifest.write_text(lines[0] + "".join(line for line in lines[1:] if ",tiger," not in line
                                               and ",leopard," not in line))
        for species in ([], ["--species", "tiger"]):
            code, _, err = run(["train-individual", "--manifest", str(manifest), "--images", str(corpus),
                                "--out", str(tmp_path / "h"), *species], capsys)
            assert code == 2 and f"{manifest}: no record" in err and "has an individual label" in err, err
        assert not (tmp_path / "h").exists()

    @pytest.mark.parametrize("species, unknown", [("zebra", "'zebra'"), ("tiger,chital", "'chital'")],
                             ids=["unknown", "untagged"])
    def test_train_individual_species_without_individuals_exit_2_names_flag(self, species, unknown, corpus,
                                                                             tmp_path, capsys, monkeypatch):
        # each --species value is checked against the species with individuals
        # before the manifest is read
        monkeypatch.setattr(cli.mf, "load_manifest", self.no_read)
        code, _, err = run(["train-individual", "--manifest", str(corpus / "manifest.csv"), "--images", str(corpus),
                            "--species", species, "--out", str(tmp_path / "h")], capsys)
        assert code == 2 and f"--species {species}: no individuals of {unknown}; choose from tiger,leopard" in err, err
        assert not (tmp_path / "h").exists()

    def test_split_by_individual_untagged_record_exit_2_names_manifest(self, corpus, tmp_path, capsys):
        manifest = corpus / "manifest.csv"
        code, _, err = run(["split", "--manifest", str(manifest), "--stratify-by", "individual",
                            "--out", str(tmp_path / "sp")], capsys)
        assert code == 2 and f"{manifest}: record 'chital-xx-000' has no individual label" in err, err
        assert not (tmp_path / "sp").exists()

    @pytest.mark.parametrize("subcommand, kept, message", [
        ("train-detect", ",tiger,", "a presence detector needs images with and without an animal, "
                                    "found 12 with and 0 without"),
        ("train-individual", "tiger-00-", "need images of at least 2 individuals, found ['tiger_00']"),
    ], ids=["train-detect", "train-individual"])
    def test_train_one_class_exit_2_names_manifest_before_reading(self, subcommand, kept, message, corpus,
                                                                  tmp_path, capsys, monkeypatch):
        lines = (corpus / "manifest.csv").read_text().splitlines(keepends=True)
        manifest = tmp_path / "one-class.csv"
        manifest.write_text(lines[0] + "".join(line for line in lines[1:] if kept in line))
        monkeypatch.setattr(synth, "read_ppm", self.no_read)
        code, _, err = run([subcommand, "--manifest", str(manifest), "--images", str(corpus),
                            "--out", str(tmp_path / "m")], capsys)
        assert code == 2 and f"{manifest}: {message}" in err, err
        assert not (tmp_path / "m").exists()

    @pytest.mark.parametrize("protocol, corpus_from", [("volume", "manifest"), ("volume", "config"),
                                                        ("species", "config"), ("volume", "no-animal-config"),
                                                        ("species", "no-animal-config")])
    def test_one_presence_class_exit_2_names_source_before_pooling(self, protocol, corpus_from, corpus, tmp_path,
                                                                   capsys, monkeypatch):
        # the source names what sized the class that is short
        source, keys = "n_negatives = 0", "individuals = 2\nimages_per_individual = 4\nn_negatives = 0\n"
        if corpus_from == "no-animal-config":
            source, keys = "individuals = 0", "individuals = 0\nn_negatives = 8\n"
        (tmp_path / "c.toml").write_text(f"image_size = 64\n{keys}n_seeds = 1\n")
        argv = ["experiment", protocol, "--config", str(tmp_path / "c.toml"), "--out", str(tmp_path / "o")]
        if corpus_from == "manifest":
            lines = (corpus / "manifest.csv").read_text().splitlines(keepends=True)
            source = tmp_path / "positives.csv"
            source.write_text(lines[0] + "".join(line for line in lines[1:] if ",unclassified," not in line))
            argv += ["--manifest", str(source), "--images", str(corpus)]
        monkeypatch.setattr(synth, "read_ppm", self.no_read)
        monkeypatch.setattr(ft, "forward", self.no_read)
        code, _, err = run(argv, capsys)
        assert code == 2, err
        assert f"{source}: a presence detector needs images with and without an animal, found " in err, err
        assert not (tmp_path / "o").exists()

    def test_stratum_errors_name_the_manifest(self, corpus, tmp_path, capsys, monkeypatch):
        # a split names the corpus it read, once: the manifest, from the flag
        # or the config, else the config that sized the synthetic corpus;
        # split reads no image, the protocols split before they pool any
        lines = (corpus / "manifest.csv").read_text().splitlines(keepends=True)
        one_animal = tmp_path / "one-animal.csv"
        one_animal.write_text(lines[0] + "".join(line for line in lines[1:] if ",unclassified," in line) + lines[1])
        one_tiger = tmp_path / "one-tiger.csv"
        tigers = [line for line in lines[1:] if ",tiger," in line]
        one_tiger.write_text(lines[0] + tigers[0] + "".join(line for line in lines[1:] if line not in tigers))
        from_config = tmp_path / "manifest-path.cfg"
        from_config.write_text(f"manifest_path = '{one_animal}'\nimages_root = '{corpus}'\nn_seeds = 1\n")
        one_negative = tmp_path / "one-negative.cfg"
        one_negative.write_text("image_size = 64\nn_negatives = 1\nn_seeds = 1\n")
        monkeypatch.setattr(synth, "read_ppm", self.no_read)
        monkeypatch.setattr(ft, "forward", self.no_read)
        for argv, manifest, stratum in (
                (["split", "--manifest", str(one_animal)], one_animal, "animal"),
                (["experiment", "species", "--manifest", str(one_tiger), "--images", str(corpus)], one_tiger, "tiger"),
                (["experiment", "volume", "--config", str(from_config)], one_animal, "animal"),
                (["experiment", "volume", "--config", str(one_negative)], one_negative, "unclassified")):
            code, _, err = run(argv + ["--out", str(tmp_path / "o")], capsys)
            assert code == 2 and f"{manifest}: stratum '{stratum}' has fewer than 2 records" in err, err
            assert err.count(str(tmp_path)) == 1, err
            assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("protocol, corpus_from, source, message", [
        ("individual", "manifest", ",tiger_01,", "tiger: need at least 2 individuals, found ['tiger_00']"),
        ("individual", "config", "individuals = 1, images_per_individual = 4",
         "tiger: need at least 2 individuals, found ['tiger_00']"),
        ("individual", "config", "individuals = 2, images_per_individual = 0",
         "individual study needs individuals of tiger or leopard, found none"),
        ("joint-individuals", "manifest", ",leopard,", "joint study needs individuals from 2 species, found ['tiger']"),
        ("joint-individuals", "config", "individuals = 0", "joint study needs individuals from 2 species, found []"),
    ], ids=["individual-manifest", "individual-config", "individual-none-config", "joint-manifest", "joint-config"])
    def test_individual_studies_name_the_corpus_before_pooling(self, protocol, corpus_from, source, message, corpus,
                                                               tmp_path, capsys, monkeypatch):
        # one tiger individual, no leopard, or no individual at all (which
        # exited 0 with empty CSVs): the manifest, or the keys that sized the
        # synthetic corpus, are named before any image is pooled.  A manifest
        # case's `source` is the manifest field whose rows are dropped; a
        # config case's is also its config
        argv = ["experiment", protocol, "--out", str(tmp_path / "o")]
        if corpus_from == "manifest":
            lines = (corpus / "manifest.csv").read_text().splitlines(keepends=True)
            dropped, source = source, tmp_path / "m.csv"
            source.write_text("".join(line for line in lines if dropped not in line))
            argv += ["--manifest", str(source), "--images", str(corpus)]
        else:
            keys = source.replace(", ", "\n")
            (tmp_path / "c.toml").write_text(f"image_size = 64\n{keys}\nn_seeds = 1\n")
            argv += ["--config", str(tmp_path / "c.toml")]
        monkeypatch.setattr(synth, "read_ppm", self.no_read)
        monkeypatch.setattr(ft, "forward", self.no_read)
        code, _, err = run(argv, capsys)
        assert code == 2 and f"{source}: {message}" in err, err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("corpus_from", ["manifest", "config"])
    def test_species_one_species_in_training_exit_2_names_corpus_before_pooling(self, corpus_from, corpus, tmp_path,
                                                                                capsys, monkeypatch):
        # tigers and negatives only; or 2 images of each species at
        # split_fraction 0.1, which puts none of them in the training split
        argv = ["experiment", "species", "--out", str(tmp_path / "o")]
        if corpus_from == "manifest":
            lines = (corpus / "manifest.csv").read_text().splitlines(keepends=True)
            source = tmp_path / "tigers.csv"
            source.write_text(lines[0] + "".join(line for line in lines[1:] if ",leopard," not in line
                                                 and ",chital," not in line))
            argv += ["--manifest", str(source), "--images", str(corpus)]
            found = "['tiger'] in trial 0 at split_fraction = 0.7"
        else:
            source = "individuals = 1, images_per_individual = 2"
            (tmp_path / "c.toml").write_text("image_size = 64\nindividuals = 1\nimages_per_individual = 2\n"
                                             "split_fraction = 0.1\nn_seeds = 1\n")
            argv += ["--config", str(tmp_path / "c.toml")]
            found = "[] in trial 0 at split_fraction = 0.1"
        monkeypatch.setattr(synth, "read_ppm", self.no_read)
        monkeypatch.setattr(ft, "forward", self.no_read)
        code, _, err = run(argv, capsys)
        assert code == 2, err
        assert f"{source}: need at least 2 species in each training split, found {found}" in err, err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv, named", [
        (["split", "--seed", "-1"], "--seed must be in [0, 2**64), got -1"),
        (["split", "--seed", str(2**64)], f"--seed must be in [0, 2**64), got {2**64}"),
        (["train-detect", "--seed", "-1"], "--seed must be in [0, 2**64), got -1"),
        (["train-species", "--seed", "-1"], "--seed must be in [0, 2**64), got -1"),
        (["train-individual", "--net-seed", "-1"], "--net-seed must be in [0, 2**64), got -1"),
        (["segment", "--net-seed", "-1"], "--net-seed must be in [0, 2**64), got -1"),
        (["experiment", "volume", "--seed", "-1"], "--seed must be in [0, 2**64), got -1"),
        (["experiment", "volume", "--seed", str(2**64 - 1), "--n-seeds", "2"],
         f"base_seed + n_seeds - 1 must be in [0, 2**64), got {2**64}"),
        (["experiment", "volume", "--config", "base_seed = -1"], "base_seed must be in [0, 2**64), got -1"),
        (["experiment", "volume", "--config", "feature_seed = -1"], "feature_seed must be in [0, 2**64), got -1"),
    ], ids=["split", "split-2**64", "train-detect", "train-species", "train-individual-net-seed",
            "segment-net-seed", "experiment", "experiment-last-trial", "config-base_seed", "config-feature_seed"])
    def test_seed_outside_uint64_exit_2_names_flag_or_key_before_reading(self, argv, named, corpus, tmp_path, capsys,
                                                                         monkeypatch):
        # every RNG takes np.uint64(seed), which raised OverflowError (exit 1)
        # on a negative seed; a config key is named with its file
        if "--config" in argv:
            cfg = tmp_path / "c.toml"
            cfg.write_text(argv.pop() + "\nn_seeds = 1\n")
            argv.append(str(cfg))
            named = f"{cfg}: {named}"
        files = {"split": ["--manifest", str(corpus / "manifest.csv")],
                 "segment": ["--image", str(sorted(corpus.glob("tiger-*.ppm"))[0]), "--detector", "x.model"],
                 "experiment": []}.get(argv[0], ["--manifest", str(corpus / "manifest.csv"), "--images", str(corpus)])
        for name in ("read_ppm", "generate_corpus"):
            monkeypatch.setattr(synth, name, self.no_read)
        monkeypatch.setattr(cli.mf, "load_manifest", self.no_read)
        code, _, err = run(argv + files + ["--out", str(tmp_path / "o")], capsys)
        assert code == 2 and named in err, err
        assert not (tmp_path / "o").exists()

    def test_synth_takes_a_negative_seed(self, tmp_path):
        # synth's seed feeds a SHA-256, not a uint64
        assert run(["synth", "--seed", "-1", "--individuals", "1", "--images-per-individual", "1",
                    "--negatives", "1", "--image-size", "64", "--out", str(tmp_path)]) == 0

    @pytest.mark.parametrize("corpus_from, proportion", [("config", "0.1"), ("manifest", "0.05")])
    def test_sweep_training_set_of_one_class_exit_2_names_corpus_and_value_before_pooling(
            self, corpus_from, proportion, tmp_path, capsys, monkeypatch):
        # 2 x 3 images of each species and 6 negatives: at this proportion a
        # training set holds one animal and no negative, which svm rejected
        # after every image was pooled, naming nothing
        keys = "image_size = 64\nindividuals = 2\nimages_per_individual = 3\nn_negatives = 6\nn_seeds = 1\n"
        (tmp_path / "c.toml").write_text(f"{keys}train_proportions = {proportion}\n")
        argv = ["experiment", "proportion", "--config", str(tmp_path / "c.toml"), "--out", str(tmp_path / "o")]
        source = "n_negatives = 6"
        if corpus_from == "manifest":
            assert run(["synth", "--individuals", "2", "--images-per-individual", "3", "--negatives", "6",
                        "--image-size", "64", "--out", str(tmp_path / "corpus")]) == 0
            source = tmp_path / "corpus" / "manifest.csv"
            argv += ["--manifest", str(source), "--images", str(tmp_path / "corpus")]
        monkeypatch.setattr(synth, "read_ppm", self.no_read)
        monkeypatch.setattr(ft, "forward", self.no_read)
        code, _, err = run(argv, capsys)
        assert code == 2, err
        assert (f"{source}, train_proportions = {proportion}, the training set of trial 0: a presence detector "
                f"needs images with and without an animal, found 1 with and 0 without") in err, err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("patch_size", [32, 64])
    def test_segmented_study_without_inside_and_outside_patches_exit_2_names_patch_size(self, patch_size, tmp_path,
                                                                                        capsys):
        # a 64 px image's planted box holds no whole 32 or 64 px patch; this
        # was blamed on a corpus without boxes, which the config rules out
        (tmp_path / "c.toml").write_text(f"image_size = 64\nindividuals = 2\nimages_per_individual = 4\n"
                                         f"n_negatives = 4\nn_seeds = 1\nhead_epochs = 5\nsegment = true\n"
                                         f"patch_size = {patch_size}\n")
        code, _, err = run(["experiment", "individual", "--config", str(tmp_path / "c.toml"),
                            "--out", str(tmp_path / "o")], capsys)
        assert code == 2 and (f"patch_size = {patch_size}: no training positive has both a patch wholly inside "
                              f"its planted box and one wholly outside it") in err, err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("subcommand", ["train-detect", "train-species", "train-individual"])
    def test_train_holds_one_image_at_a_time(self, subcommand, tmp_path, monkeypatch):
        # each image is read, pooled and dropped: no image read earlier is
        # alive when the next is read
        assert cli.main(["synth", "--seed", "3", "--individuals", "1", "--images-per-individual", "5",
                         "--negatives", "5", "--image-size", "128", "--out", str(tmp_path)]) == 0
        read_ppm, alive = synth.read_ppm, []

        def spy(*a, **kw):
            assert all(ref() is None for ref in alive), "an earlier image is still held"
            pixels = read_ppm(*a, **kw)
            alive.append(weakref.ref(pixels))
            return pixels

        monkeypatch.setattr(synth, "read_ppm", spy)
        argv = [subcommand, "--images", str(tmp_path), "--out", str(tmp_path / "out"), "--epochs", "1"]
        assert cli.main(argv + ["--manifest", str(tmp_path / "manifest.csv")]) == 0
        # train-individual reads only the 10 tiger and leopard records, which name an individual
        assert len(alive) == (10 if subcommand == "train-individual" else 20)
        if subcommand != "train-detect":
            return  # a head's training arrays grow with the number of images
        # the traced peak of train-detect does not grow with the number of images it reads
        lines = (tmp_path / "manifest.csv").read_text().splitlines(keepends=True)
        (tmp_path / "five.csv").write_text(lines[0] + "".join(lines[1::4]))
        peaks = {}
        for name in ("manifest.csv", "five.csv"):  # 20 images, then 5
            tracemalloc.start()
            try:
                assert cli.main(argv + ["--manifest", str(tmp_path / name)]) == 0
                peaks[name] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        image_bytes = 128 * 128 * 3 * 8  # one image's float64 pixels
        assert peaks["manifest.csv"] - peaks["five.csv"] < image_bytes, peaks

    @staticmethod
    def mixed_sizes(corpus, data, rows):
        """A copy of `corpus` in `data` whose manifest rows `rows` are 96x48
        frames (22 windows) among 64x64 ones (10 windows); its manifest
        path and lines."""
        data.mkdir()
        for f in corpus.glob("*.ppm"):
            (data / f.name).write_bytes(f.read_bytes())
        lines = (corpus / "manifest.csv").read_text().splitlines(keepends=True)
        for n in rows:
            fields = lines[n].rstrip("\n").split(",")
            synth.write_ppm(data / fields[1], np.full((48, 96, 3), 0.5))
            lines[n] = ",".join(fields[:-2] + ["96", "48"]) + "\n"
        manifest = data / "manifest.csv"
        manifest.write_text("".join(lines))
        return manifest, lines

    @staticmethod
    def no_read(*_):
        raise AssertionError("image read or forward before the records were checked")

    def test_mixed_window_counts_exit_2_names_manifest_and_records(self, corpus, tmp_path, capsys, monkeypatch):
        # a 96x48 frame among 64x64 ones has 22 windows, not 10; the head
        # commands name one record of each count before reading any image
        manifest, lines = self.mixed_sizes(corpus, tmp_path / "data", [1])
        fields, second = lines[1].split(","), lines[2].split(",")[0]
        monkeypatch.setattr(synth, "read_ppm", self.no_read)
        for sub in ("train-species", "train-individual"):
            code, _, err = run([sub, "--manifest", str(manifest), "--out", str(tmp_path / "h")], capsys)
            assert code == 2, err
            assert f"{manifest}: a head needs one window count on every image" in err, err
            assert f"10 on '{second}'" in err and f"22 on '{fields[0]}'" in err, err
        assert not (tmp_path / "h").exists()

    @pytest.mark.parametrize("protocol", ["species", "individual", "joint-individuals"])
    def test_mixed_window_counts_exit_2_in_head_protocols(self, protocol, corpus, tmp_path, capsys, monkeypatch):
        # every third frame 96x48: each head protocol names the manifest and
        # one record of each window count before reading any image
        n_rows = len((corpus / "manifest.csv").read_text().splitlines()) - 1
        manifest, _ = self.mixed_sizes(corpus, tmp_path / "data", range(1, n_rows + 1, 3))
        (tmp_path / "c.toml").write_text("n_seeds = 2\n")
        monkeypatch.setattr(synth, "read_ppm", self.no_read)
        code, _, err = run(["experiment", protocol, "--manifest", str(manifest), "--config", str(tmp_path / "c.toml"),
                            "--out", str(tmp_path / "o")], capsys)
        assert code == 2, err
        assert f"{manifest}: a head needs one window count on every image, found 10 on '" in err, err
        assert ", 22 on '" in err, err
        assert not (tmp_path / "o").exists()

    def test_bad_head_training_value_exit_2_names_field(self, corpus, tmp_path, capsys, monkeypatch):
        # the config is checked before any image is read or any feature extracted
        def no_images(*_):
            raise AssertionError("image read or forward before the training config was checked")

        monkeypatch.setattr(synth, "read_ppm", no_images)
        monkeypatch.setattr(ft, "forward", no_images)
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
            raise AssertionError("image read or forward before the training config was checked")

        monkeypatch.setattr(synth, "read_ppm", no_images)
        monkeypatch.setattr(ft, "forward", no_images)
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

    def test_eval_mismatched_ids_exit_2(self, tmp_path, capsys):
        # names both files and the first five ids that only one of them covers
        (tmp_path / "t.csv").write_text("id,label\na,tiger\nz,tiger\n")
        (tmp_path / "p.csv").write_text("id,label\nz,tiger\n" + "".join(f"{i},tiger\n" for i in "bcdefg"))
        code, out, err = run(["eval", "--pred", str(tmp_path / "p.csv"), "--truth", str(tmp_path / "t.csv")], capsys)
        assert code == 2 and not out
        assert (f"--pred {tmp_path / 'p.csv'} and --truth {tmp_path / 't.csv'} cover different ids, "
                "7 in one only: 'a', 'b', 'c', 'd', 'e'\n") in err, err

    @pytest.mark.parametrize("k, message", [("0", "--k must be >= 1, got 0"), ("-3", "--k must be >= 1, got -3"),
                                            ("5", "t.csv:1: the header ranks 1 label(s), fewer than --k 5")])
    def test_eval_bad_k_exit_2_writes_nothing(self, tmp_path, capsys, k, message):
        # k below 1, or wider than the pred file's rankings, fails before the summary or --out
        (tmp_path / "t.csv").write_text("id,label\na,tiger\nb,leopard\n")
        code, out, err = run(["eval", "--pred", str(tmp_path / "t.csv"), "--truth", str(tmp_path / "t.csv"),
                              "--k", k, "--out", str(tmp_path / "out")], capsys)
        assert code == 2 and message in err, err
        assert not out and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("which", ["pred", "truth"])
    def test_eval_empty_label_exit_2_names_file_and_line(self, tmp_path, capsys, which):
        (tmp_path / "good.csv").write_text("id,label\na,tiger\nb,leopard\n")
        (tmp_path / "bad.csv").write_text("id,label\nb,leopard\na,\n")
        files = {"pred": "good.csv", "truth": "good.csv", which: "bad.csv"}
        code, out, err = run(["eval", "--pred", str(tmp_path / files["pred"]),
                              "--truth", str(tmp_path / files["truth"]), "--out", str(tmp_path / "out")], capsys)
        assert code == 2 and f"{tmp_path / 'bad.csv'}:3: empty label" in err, err
        assert not out and not (tmp_path / "out").exists()

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

    def test_segment_patch_larger_than_image_exit_2_names_flag_and_image(self, corpus, tmp_path, capsys, monkeypatch):
        def no_read(*_):
            raise AssertionError("model read before the patch size was checked")

        monkeypatch.setattr(cli.svm, "load_model", no_read)
        image = sorted(corpus.glob("tiger-*.ppm"))[0]  # 64 x 64
        code, _, err = run(["segment", "--image", str(image), "--detector", str(tmp_path / "x.model"),
                            "--out", str(tmp_path / "m.pbm"), "--patch-size", "65"], capsys)
        assert code == 2
        assert f"{image}: --patch-size 65 is larger than the shorter side of the 64x64 image" in err, err
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
