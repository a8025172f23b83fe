import csv
import json
import os
import re
import shutil
import subprocess
import sys
import time
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from qgrnn import classifiers, cli
from qgrnn.datasets import bundled_iris_path, load_iris_csv, minmax_scale
from qgrnn.pipeline import embed_and_sample
from qgrnn.training import TrainConfig

WORDS = ("alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel", "india", "juliet")
DATA = Path(__file__).parent / "data"
SRC = Path(__file__).parent.parent / "src"


@pytest.fixture
def dict_file(tmp_path):
    path = tmp_path / "words.txt"
    path.write_text("\n".join(WORDS) + "\n")
    return path


COMMANDS = ("reconstruct", "classify", "hide", "reveal")
# the commands that train; classify takes only its seed and kinds
TRAINING_COMMANDS = ("reconstruct", "hide", "reveal")
# the TrainConfig fields that are options of some command
OPTION_FIELDS = [f for f in fields(TrainConfig) if f.name != "seed"]
# the training options of each command: those it reads (reveal takes t_max from
# its archive's deepest time), and hide's epochs and reveal's batch_size, which have no effect
COMMAND_OPTIONS = {
    "reconstruct": ("batch_size", "epochs", "trotter_delta", "t_max", "restarts"),
    "hide": ("batch_size", "epochs", "t_max"),
    "reveal": ("batch_size", "epochs", "trotter_delta", "restarts"),
}
# former options, now constants or taken from the embedding, and the MNIST and PCA
# dataset options, gone with that path (iris_csv is now csv): neither flags nor config keys
REMOVED_OPTIONS = ("learning_rate", "adam_beta1", "adam_beta2", "adam_epsilon",
                   "init_low", "init_high", "node_init_low", "node_init_high", "fd_step",
                   "dataset", "iris_csv", "mnist_images", "mnist_labels", "pca_components",
                   "pca_fit_count")


def required_args(command, tmp_path, dict_file):
    """Each command's required arguments; the input files need not exist."""
    return {
        "reconstruct": ["--samples", "18"],
        "classify": ["--reconstructed", str(tmp_path / "rec")],
        "hide": ["--message", "golf charlie", "--dict", str(dict_file)],
        "reveal": ["--archive", str(tmp_path / "archive.json"), "--dict", str(dict_file)],
    }[command]


# classify's former options, flag and value, and reconstruct's --csv: it reads
# its dataset from the reconstruct run
CLASSIFY_REMOVED_FLAGS = {
    "--dataset": "iris", "--iris-csv": "iris.csv", "--mnist-images": "images.idx",
    "--mnist-labels": "labels.idx", "--samples": "18", "--pca-components": "6",
    "--pca-fit-count": "100", "--batch-size": "3", "--epochs": "3", "--trotter-delta": "0.01",
    "--t-max": "0.5", "--restarts": "1", "--scale-lo": "2", "--scale-hi": "3", "--csv": "iris.csv",
}
CLASSIFY_REMOVED_KEYS = [flag[2:].replace("-", "_") for flag in CLASSIFY_REMOVED_FLAGS]


def hide(dict_file, out, *flags):
    return cli.main(["hide", "--seed", "4", "--message", "golf charlie", "--dict", str(dict_file),
                     "--out", str(out), *flags])


def reconstruct(out, *flags):
    """A one-row reconstruct: the command that reads every training option."""
    return cli.main(["reconstruct", "--samples", "18", "--out", str(out), *flags])


class TestConfigValidation:
    @pytest.mark.parametrize(
        "file_cfg, field",
        [
            ({"epochs": "5"}, "epochs"),
            ({"epochs": 2.5}, "epochs"),
            # no longer an option: an unknown key, which the error names
            ({"learning_rate": "fast"}, "learning_rate"),
            ({"restarts": None}, "restarts"),
            ({"seed": True}, "seed"),
            # no longer an option either
            ({"node_init_low": "0"}, "node_init_low"),
            ({"trotter_delta": "fast"}, "trotter_delta"),
            ({"t_max": None}, "t_max"),
        ],
    )
    def test_mistyped_config_value_is_an_error(self, tmp_path, capsys, file_cfg, field):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(file_cfg))
        assert reconstruct(tmp_path / "out", "--config", str(config)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and field in err

    @pytest.mark.parametrize("key", ["t_max", "scale_hi"])
    def test_integer_too_large_for_a_float_names_the_file_and_key(self, tmp_path, capsys, key):
        # json reads 10**400 as an int, which float() cannot convert
        config = tmp_path / "big.json"
        config.write_text(f'{{"{key}": {10**400}}}')
        out = tmp_path / "out"
        fails_fast(capsys, ["reconstruct", "--samples", "18", "--config", str(config),
                            "--out", str(out)],
                   f"{config}: key {key!r} is an integer too large for a float")
        assert not out.exists()

    # a 401-digit count: the cosine schedule cannot turn it into a float, and restarts that
    # large would never end on a fit that keeps missing
    @pytest.mark.parametrize("command", ("reconstruct", "reveal"))
    @pytest.mark.parametrize("key", ("epochs", "restarts"))
    @pytest.mark.parametrize("source", ("flag", "config"))
    def test_huge_epochs_or_restarts_fail_before_output(self, tmp_path, dict_file, capsys,
                                                        command, key, source):
        if command == "reveal":
            assert hide(dict_file, tmp_path) == 0
        if source == "flag":
            given = ["--" + key, str(10**400)]
        else:
            config = tmp_path / "config.json"
            config.write_text(f'{{"{key}": {10**400}}}')
            given = ["--config", str(config)]
        out = tmp_path / "out"
        fails_fast(capsys, [command, *required_args(command, tmp_path, dict_file),
                            "--out", str(out), *given], f"{key} must be <= ")
        assert not out.exists()

    def test_config_must_be_an_object(self, tmp_path, dict_file, capsys):
        config = tmp_path / "config.json"
        config.write_text("[1, 2]")
        assert hide(dict_file, tmp_path / "out", "--config", str(config)) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_config_that_is_not_json_names_the_file(self, tmp_path, dict_file, capsys):
        config = tmp_path / "bad.json"
        config.write_text("{")
        assert hide(dict_file, tmp_path / "out", "--config", str(config)) == 1
        assert capsys.readouterr().err.startswith(f"error: {config}: Expecting property name")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "flags, field",
        [
            (["--batch-size", "0"], "batch_size"),
            (["--epochs", "0"], "epochs"),
            (["--restarts", "-2"], "restarts"),
            (["--trotter-delta", "0"], "trotter_delta"),
            (["--trotter-delta", "nan"], "trotter_delta"),
            (["--t-max", "0"], "t_max"),
            (["--t-max", "-0.5"], "t_max"),
            (["--t-max", "inf"], "t_max"),
            (["--batch-size", "65"], "batch_size must be <= 64, got 65"),
        ],
    )
    def test_out_of_range_flag_is_an_error(self, tmp_path, capsys, flags, field):
        assert reconstruct(tmp_path / "out", *flags) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and field in err

    def test_fd_step_is_not_an_option(self, tmp_path, dict_file, capsys):
        with pytest.raises(SystemExit) as exit_info:
            hide(dict_file, tmp_path / "flag", "--fd-step", "1e-3")
        assert exit_info.value.code == 2
        assert "--fd-step" in capsys.readouterr().err
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"fd_step": 1e-3}))
        assert hide(dict_file, tmp_path / "file", "--config", str(config)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {config}: unknown config keys") and "fd_step" in err

    def test_huge_archive_time_fails_fast(self, tmp_path, dict_file, capsys):
        assert hide(dict_file, tmp_path / "hide") == 0
        archive = tmp_path / "hide" / "archive.json"
        payload = json.loads(archive.read_text())
        payload["times"][0] = 1e9
        archive.write_text(json.dumps(payload))
        start = time.perf_counter()
        code = cli.main(["reveal", "--archive", str(archive), "--dict", str(dict_file),
                         "--out", str(tmp_path / "reveal")])
        assert time.perf_counter() - start < 1.0
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "layers" in err
        assert not (tmp_path / "reveal").exists()

    def test_bad_archive_time_is_an_error(self, tmp_path, dict_file, capsys):
        assert hide(dict_file, tmp_path / "hide") == 0
        archive = tmp_path / "hide" / "archive.json"
        payload = json.loads(archive.read_text())
        payload["times"][0] = float("inf")
        archive.write_text(json.dumps(payload))
        code = cli.main(["reveal", "--archive", str(archive), "--dict", str(dict_file),
                         "--out", str(tmp_path / "reveal")])
        assert code == 1
        assert "sample time t" in capsys.readouterr().err


def fails_fast(capsys, argv, field):
    start = time.perf_counter()
    code = cli.main(argv)
    assert time.perf_counter() - start < 1.0
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and field in err


class TestFailFast:
    def test_hide_rejects_a_t_max_beyond_the_layer_limit(self, tmp_path, dict_file, capsys):
        fails_fast(capsys, ["hide", "--seed", "4", "--message", "golf charlie", "--dict",
                            str(dict_file), "--out", str(tmp_path), "--t-max", "1e9"], "t_max")
        assert not (tmp_path / "archive.json").exists()

    def test_reconstruct_rejects_a_t_max_beyond_the_layer_limit(self, tmp_path, capsys):
        fails_fast(capsys, ["reconstruct", "--samples", "18", "--out", str(tmp_path),
                            "--t-max", "1e9"], "t_max")
        assert not list(tmp_path.glob("sample_*"))

    def test_reconstruct_rejects_an_evolution_beyond_the_step_limit(self, tmp_path, capsys):
        # node weights up to 1e9 need about 6.6e8 Taylor steps for t_max 0.5
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"scale_hi": 1e9}))
        fails_fast(capsys, ["reconstruct", "--samples", "18", "--config", str(config),
                            "--out", str(tmp_path / "out")], "Taylor steps")
        assert not (tmp_path / "out").exists()

    def test_reconstruct_rejects_weights_whose_norm_bound_overflows(self, tmp_path, capsys):
        # the worst-case norm bound is inf; no numpy overflow warning, which is an error here
        out = tmp_path / "out"
        fails_fast(capsys, ["reconstruct", "--samples", "18", "--scale-hi", "1.7e308",
                            "--out", str(out)], "needs inf Taylor steps")
        assert not out.exists()

    @pytest.mark.parametrize(
        "file_text, field",
        [
            ('{"scale_lo": -1e400}', "scale_lo"),
            ('{"scale_hi": 1e400}', "scale_hi"),
            ('{"scale_hi": NaN}', "scale_hi"),
            ('{"scale_lo": 5.0}', "scale_lo < scale_hi"),
            ('{"scale_lo": 3.0, "scale_hi": 1.0}', "scale_lo < scale_hi"),
            # a training option from the same file, whose data would need about 8 GB
            ('{"batch_size": 1000000000}', "batch_size must be <= 64, got 1000000000"),
        ],
    )
    def test_reconstruct_rejects_an_out_of_range_dataset_option(self, tmp_path, capsys,
                                                                file_text, field):
        config = tmp_path / "config.json"
        config.write_text(file_text)
        fails_fast(capsys, ["reconstruct", "--samples", "18", "--config", str(config),
                            "--out", str(tmp_path / "out")], field)
        assert not (tmp_path / "out").exists()

    def test_reconstruct_rejects_a_scale_range_whose_width_overflows(self, tmp_path, capsys):
        # both ends are finite, but hi - lo is inf: min-max scaling would give NaN weights
        out = tmp_path / "out"
        fails_fast(capsys, ["reconstruct", "--samples", "18", "--scale-lo=-1e308",
                            "--scale-hi=1e308", "--out", str(out)],
                   "need finite scale_lo < scale_hi and a finite scale_hi - scale_lo, "
                   "got -1e+308 and 1e+308")
        assert not out.exists()

    def test_reveal_checks_the_layer_limit_against_the_archive_t_max(self, tmp_path, dict_file,
                                                                    capsys):
        # the archive's t_max is its deepest time, the last Chebyshev point 1.98079 of hide's
        # --t-max 2: 1.98079 / 1.5e-5 is beyond the layer limit, the default t_max's 0.5 / 1.5e-5
        # within it
        assert hide(dict_file, tmp_path / "hide", "--t-max", "2") == 0
        archive = tmp_path / "hide" / "archive.json"
        assert f"{max(json.loads(archive.read_text())['times']):g}" == "1.98079"
        out = tmp_path / "reveal"
        fails_fast(capsys, ["reveal", "--archive", str(archive), "--dict", str(dict_file),
                            "--out", str(out), "--trotter-delta", "1.5e-5"],
                   "t_max 1.98079 needs more than 100000 layers")
        assert not out.exists()

    def test_reveal_checks_the_layer_limit_on_the_deepest_time_of_a_version_4_archive(
            self, tmp_path, dict_file, capsys):
        # not on the t_max of 0.5 that version 4 also stored, which the deepest time now exceeds;
        # test_huge_archive_time_fails_fast covers version 5
        payload = json.loads((DATA / "archive_v4.json").read_text())
        payload["times"][-1] = 2.0
        archive = tmp_path / "archive.json"
        archive.write_text(json.dumps(payload))
        out = tmp_path / "reveal"
        fails_fast(capsys, ["reveal", "--archive", str(archive), "--dict", str(dict_file),
                            "--out", str(out), "--trotter-delta", "1.5e-5"],
                   "t_max 2 needs more than 100000 layers")
        assert not out.exists()

    def test_hide_rejects_a_register_beyond_the_qubit_limit(self, tmp_path, dict_file, capsys):
        message = " ".join(WORDS * 2)
        fails_fast(capsys, ["hide", "--message", message, "--dict", str(dict_file),
                            "--out", str(tmp_path)], "limit")
        assert not (tmp_path / "archive.json").exists()


class TestOptionsCheckedBeforeOutput:
    # the commands that read restarts and trotter_delta
    @pytest.mark.parametrize("command", ("reconstruct", "reveal"))
    @pytest.mark.parametrize(
        "flags, key",
        [(["--restarts", "0"], "restarts"), (["--trotter-delta", "-1"], "trotter_delta")],
    )
    def test_bad_training_option_leaves_no_output(self, tmp_path, dict_file, capsys,
                                                  command, flags, key):
        if command == "reveal":  # it checks its training options once it has read the archive
            assert hide(dict_file, tmp_path) == 0
        out = tmp_path / "out"
        fails_fast(capsys, [command, *required_args(command, tmp_path, dict_file),
                            "--out", str(out), *flags], key)
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, flags, key",
        [
            ("reconstruct", ["--samples", ""], "samples"),
            ("reconstruct", ["--samples", " , "], "samples"),
            ("classify", ["--kinds", ","], "kinds"),
        ],
    )
    def test_empty_list_is_an_error(self, tmp_path, dict_file, capsys, command, flags, key):
        out = tmp_path / "out"
        fails_fast(capsys, [command, *required_args(command, tmp_path, dict_file),
                            "--out", str(out), *flags], key)
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, flags, message",
        [
            ("reconstruct", ["--samples", "abc"], "--samples: invalid literal for int()"),
            ("reconstruct", ["--samples", "18,1000"], "--samples: sample indices out of range: [1000]"),
            ("reconstruct", ["--samples", "-1"], "--samples: sample indices out of range: [-1]"),
            ("classify", ["--kinds", "gaussian-naive-bayes,foo"], "kinds: unknown classifier kind 'foo'"),
            ("reconstruct", ["--samples", "18,18"], "--samples: sample indices must be unique, 18 repeats"),
            ("reconstruct", ["--samples", "73,18,018"], "--samples: sample indices must be unique, 18 repeats"),
            ("classify", ["--kinds", "k-nearest-neighbors, k-nearest-neighbors"],
             "kinds: classifier kinds must be unique, 'k-nearest-neighbors' repeats"),
        ],
    )
    def test_bad_list_entry_is_an_error(self, tmp_path, dict_file, capsys, command, flags, message):
        # the classify input need not exist: the kinds are checked first
        out = tmp_path / "out"
        argv = [command, *required_args(command, tmp_path, dict_file), "--out", str(out), *flags]
        fails_fast(capsys, argv, message)
        assert not out.exists()

    @pytest.mark.parametrize("command", COMMANDS)
    def test_negative_seed_leaves_no_output(self, tmp_path, dict_file, capsys, command):
        out = tmp_path / "out"
        fails_fast(capsys, [command, *required_args(command, tmp_path, dict_file),
                            "--out", str(out), "--seed", "-1"], "seed must be >= 0")
        assert not out.exists()

    @pytest.mark.parametrize("command, option", [("reveal", "--archive"), ("hide", "--config")])
    def test_deeply_nested_json_leaves_no_output(self, tmp_path, dict_file, capsys, command, option):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000)
        out = tmp_path / "out"
        argv = [command, *required_args(command, tmp_path, dict_file), "--out", str(out)]
        fails_fast(capsys, [*argv, option, str(deep)], "nested too deeply")
        assert not out.exists()

    def test_a_bad_archive_leaves_no_output(self, tmp_path, dict_file, capsys):
        archive = tmp_path / "archive.json"
        archive.write_text('{"version": 4}')
        out = tmp_path / "out"
        fails_fast(capsys, ["reveal", "--archive", str(archive), "--dict", str(dict_file),
                            "--out", str(out)], "malformed archive")
        assert not out.exists()

    def test_reveal_fails_on_an_unusable_out_before_the_fit(self, tmp_path, dict_file, capsys,
                                                             monkeypatch):
        assert hide(dict_file, tmp_path / "hide") == 0
        out = tmp_path / "taken"
        out.write_text("")
        monkeypatch.setattr(cli, "reveal_message", lambda *args: pytest.fail("the fit ran"))
        fails_fast(capsys, ["reveal", "--archive", str(tmp_path / "hide" / "archive.json"),
                            "--dict", str(dict_file), "--out", str(out)], "File exists")

    def test_default_rows_beyond_a_short_csv_leave_no_output(self, tmp_path, capsys):
        # the first 59 Iris rows: four of the default rows lie beyond them
        short = tmp_path / "iris59.csv"
        short.write_text("\n".join(bundled_iris_path().read_text().splitlines()[:60]) + "\n")
        out = tmp_path / "out"
        fails_fast(capsys, ["reconstruct", "--csv", str(short), "--out", str(out)],
                   "sample indices out of range: [73, 82, 118, 141] for 59 rows")
        assert not out.exists()

    def test_a_truth_of_another_length_leaves_no_output(self, tmp_path, dict_file, capsys,
                                                         monkeypatch):
        assert hide(dict_file, tmp_path / "hide") == 0
        out = tmp_path / "out"
        monkeypatch.setattr(cli, "reveal_message", lambda *args: pytest.fail("the fit ran"))
        fails_fast(capsys, ["reveal", "--archive", str(tmp_path / "hide" / "archive.json"),
                            "--dict", str(dict_file), "--out", str(out),
                            "--truth", "golf charlie alpha"], "--truth has 3 words, the archive hides 2")
        assert not out.exists()


    @pytest.mark.parametrize(
        "content, message",
        [
            (b"alpha\nbravo\ncharlie\nbravo\nalpha\n", "dictionary words must be unique, 'bravo' repeats"),
            (b"alpha\n", "dictionary needs at least 2 words"),
            (b"alpha\n\xffbravo\n", "'utf-8' codec can't decode byte 0xff"),
        ],
        ids=["repeated word", "single word", "not UTF-8"],
    )
    def test_a_bad_dictionary_names_the_file(self, tmp_path, capsys, content, message):
        words = tmp_path / "words.txt"
        words.write_bytes(content)
        out = tmp_path / "out"
        code = cli.main(["hide", "--message", "alpha bravo", "--dict", str(words), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {words}: {message}")
        assert not out.exists()


def rejected_file(capsys, argv, out, path, message):
    """Run a command whose input file at ``path`` is bad: it must name the file and write nothing."""
    assert cli.main([*argv, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}: {message}")
    assert not out.exists()


class TestUntrustedDataFiles:
    def test_an_iris_csv_that_is_not_utf8_is_named(self, tmp_path, capsys):
        iris = tmp_path / "iris.csv"
        iris.write_bytes(b"5.1,3.5,1.4,0.2,setosa\n4.9,3.0,1.4,0.2,\xff\n")
        rejected_file(capsys, ["reconstruct", "--csv", str(iris), "--samples", "0"],
                      tmp_path / "out", iris, "'utf-8' codec can't decode byte 0xff")

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_a_non_finite_iris_feature_is_an_error(self, tmp_path, capsys, value):
        iris = tmp_path / "iris.csv"
        iris.write_text(f"5.1,3.5,1.4,0.2,setosa\n4.9,{value},1.4,0.2,setosa\n6.2,2.2,4.5,1.5,b\n")
        rejected_file(capsys, ["reconstruct", "--csv", str(iris), "--samples", "0"],
                      tmp_path / "out", f"{iris}:2", "non-finite feature value")

    @pytest.mark.parametrize("k", [1, 15])
    def test_a_table_of_too_few_or_too_many_features_is_named(self, tmp_path, capsys, k):
        table = tmp_path / "table.csv"
        table.write_text("".join(",".join(["1.5"] * k) + f",{c}\n" for c in "abab"))
        rejected_file(capsys, ["reconstruct", "--csv", str(table), "--samples", "0"],
                      tmp_path / "out", f"{table}:1", f"expected 2 to 14 features, got {k}")


class TestTrainingOptionSchema:
    @pytest.mark.parametrize("command", COMMANDS)
    def test_every_training_field_is_a_flag(self, tmp_path, dict_file, command):
        # the training fields the command takes are among its options, and every
        # option is a flag of its default's type, or str where the default is None
        options = cli.OPTIONS[command]
        assert [f.name for f in OPTION_FIELDS if f.name in options] == list(
            COMMAND_OPTIONS.get(command, ()))
        parser = cli.build_parser()
        for name, default in options.items():
            args = parser.parse_args([command, *required_args(command, tmp_path, dict_file),
                                      "--out", str(tmp_path), "--" + name.replace("_", "-"), "3"])
            value = getattr(args, name)
            assert value == ("3" if default is None or isinstance(default, str) else 3), name
            assert type(value) is (str if default is None else type(default)), name

    def test_the_training_flags_are_the_five_options(self):
        names = [f.name for f in OPTION_FIELDS]
        assert names == ["batch_size", "epochs", "trotter_delta", "t_max", "restarts"]
        assert set(names) <= set(cli.OPTIONS["reconstruct"])

    @pytest.mark.parametrize("command", TRAINING_COMMANDS)
    def test_help_lists_only_the_training_options_it_takes(self, capsys, command):
        with pytest.raises(SystemExit):
            cli.main([command, "--help"])
        usage = capsys.readouterr().out.split("\n\n")[0]
        training_flags = {"--" + f.name.replace("_", "-") for f in OPTION_FIELDS}
        assert set(re.findall(r"--[a-z-]+", usage)) & training_flags == {
            "--" + name.replace("_", "-") for name in COMMAND_OPTIONS[command]
        }

    @pytest.mark.parametrize(
        "command, name", [("hide", "trotter_delta"), ("hide", "restarts"), ("reveal", "t_max")]
    )
    def test_an_option_the_command_does_not_read_is_rejected(self, tmp_path, dict_file, capsys,
                                                             command, name):
        out = tmp_path / "out"
        argv = [command, *required_args(command, tmp_path, dict_file), "--out", str(out)]
        with pytest.raises(SystemExit) as exit_info:
            cli.main([*argv, "--" + name.replace("_", "-"), "1"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --" + name.replace("_", "-") in capsys.readouterr().err
        config = tmp_path / "config.json"
        config.write_text(json.dumps({name: 1}))
        assert cli.main([*argv, "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {config}: unknown config keys") and repr(name) in err
        assert not out.exists()

    @pytest.mark.parametrize("command", COMMANDS)
    def test_a_removed_option_is_rejected(self, tmp_path, dict_file, capsys, command):
        argv = [command, *required_args(command, tmp_path, dict_file), "--out", str(tmp_path / "out")]
        for name in REMOVED_OPTIONS:
            with pytest.raises(SystemExit) as exit_info:
                cli.main([*argv, "--" + name.replace("_", "-"), "1"])
            assert exit_info.value.code == 2
            assert "unrecognized arguments: --" + name.replace("_", "-") in capsys.readouterr().err
            config = tmp_path / "config.json"
            config.write_text(json.dumps({name: 1.0}))
            assert cli.main([*argv, "--config", str(config)]) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: {config}: unknown config keys") and repr(name) in err
        assert not (tmp_path / "out").exists()

    def test_run_json_records_every_training_default(self, tmp_path, dict_file):
        runs = {
            "reconstruct": ["--samples", "18"],
            "classify": ["--reconstructed", str(tmp_path / "reconstruct")],
            "hide": ["--message", "golf charlie", "--dict", str(dict_file)],
            "reveal": ["--archive", str(tmp_path / "hide" / "archive.json"),
                       "--dict", str(dict_file)],
        }
        for command, argv in runs.items():
            assert cli.main([command, *argv, "--out", str(tmp_path / command)]) == 0
            run = json.loads((tmp_path / command / "run.json").read_text())
            for f in (f for f in OPTION_FIELDS if f.name in COMMAND_OPTIONS.get(command, ())):
                assert run[f.name] == f.default and type(run[f.name]) is type(f.default), f.name
            # every option given on the command line as typed, every other at its default
            given = dict(zip(argv[::2], argv[1::2]))
            for name, default in cli.OPTIONS[command].items():
                flag = "--" + name.replace("_", "-")
                if flag in given:
                    assert run[name] == given[flag], name
                else:
                    assert run[name] == default and type(run[name]) is type(default), name
            assert not set(REMOVED_OPTIONS) & set(run)
        training = {"seed", "batch_size", "epochs", "trotter_delta", "t_max", "restarts"}
        run_keys = {
            "reconstruct": {"command", *training, "csv", "scale_lo", "scale_hi", "samples"},
            "classify": {"command", "reconstructed", "seed", "kinds"},
            "hide": {"command", "dict", "seed", "batch_size", "epochs", "t_max"},
            "reveal": {"command", "archive", "dict", "seed", "batch_size", "epochs",
                       "trotter_delta", "restarts"},
        }
        for command, keys in run_keys.items():
            text = (tmp_path / command / "run.json").read_text()
            assert set(json.loads(text)) == keys, command
            # the message is the secret: no record holds it
            assert "golf" not in text, command


@pytest.fixture(scope="module")
def reconstruct_run(tmp_path_factory):
    """A two-row reconstruct run, which a test copies before it alters the copy."""
    out = tmp_path_factory.mktemp("reconstruct") / "run"
    argv = ["reconstruct", "--samples", "18,73", "--epochs", "3", "--restarts", "1", "--out", str(out)]
    assert cli.main(argv) == 0
    return out


def classify_error(capsys, recon_dir, out):
    """The error of a classify of ``recon_dir`` that must fail and write nothing."""
    assert cli.main(["classify", "--reconstructed", str(recon_dir), "--out", str(out)]) == 1
    assert not out.exists()
    return capsys.readouterr().err


DEEP_JSON = "[" * 100_000 + "]" * 100_000


class TestClassify:
    def test_help_lists_only_its_options(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["classify", "--help"])
        usage = capsys.readouterr().out.split("\n\n")[0]
        assert set(re.findall(r"--[a-z-]+", usage)) == {
            "--config", "--seed", "--out", "--reconstructed", "--kinds"
        }

    def test_a_removed_option_is_rejected(self, tmp_path, capsys):
        argv = ["classify", "--reconstructed", str(tmp_path / "rec"), "--out", str(tmp_path / "out")]
        for flag, value in CLASSIFY_REMOVED_FLAGS.items():
            with pytest.raises(SystemExit) as exit_info:
                cli.main([*argv, flag, value])
            assert exit_info.value.code == 2
            assert "unrecognized arguments: " + flag in capsys.readouterr().err
        assert len(CLASSIFY_REMOVED_FLAGS) == 15 and len(CLASSIFY_REMOVED_KEYS) == 15
        for key in CLASSIFY_REMOVED_KEYS:
            config = tmp_path / "config.json"
            config.write_text(json.dumps({key: 1}))
            assert cli.main([*argv, "--config", str(config)]) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: {config}: unknown config keys") and repr(key) in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("case", ["scale", "scale flags", "iris csv", "3-feature csv"])
    def test_scores_the_dataset_of_its_reconstruct_run(self, tmp_path, monkeypatch, case):
        # the run is made in one directory and scored from another
        (tmp_path / "made").mkdir()
        (tmp_path / "scored").mkdir()
        monkeypatch.chdir(tmp_path / "made")
        rows = (3, 16) if case == "3-feature csv" else (18, 73)
        argv = ["reconstruct", "--samples", ",".join(map(str, rows)), "--epochs", "3",
                "--restarts", "1", "--out", "rec"]
        csv_path, lo, hi = bundled_iris_path(), 0.0, 5.0
        if case == "scale":
            Path("config.json").write_text(json.dumps({"scale_lo": 2, "scale_hi": 3}))
            argv += ["--config", "config.json"]
            lo, hi = 2, 3
        elif case == "scale flags":  # the same scaling as the config file's
            argv += ["--scale-lo", "2", "--scale-hi", "3"]
            lo, hi = 2, 3
        elif case == "iris csv":
            shutil.copy(bundled_iris_path(), "iris_copy.csv")
            argv += ["--csv", "iris_copy.csv"]
            csv_path = tmp_path / "made" / "iris_copy.csv"
        else:  # 20 rows of 3 features, 2 classes that alternate
            lines = ["x,y,z,class"] + [
                f"{1 + 3 * (i % 2) + 0.1 * i},{2 - (i % 2) + 0.05 * i},{0.5 + 0.02 * i * i},"
                + ("even" if i % 2 == 0 else "odd")
                for i in range(20)
            ]
            Path("table.csv").write_text("\n".join(lines) + "\n")
            argv += ["--csv", "table.csv"]
            csv_path = tmp_path / "made" / "table.csv"
        assert cli.main(argv) == 0
        monkeypatch.chdir(tmp_path / "scored")
        recon_dir = tmp_path / "made" / "rec"
        assert cli.main(["classify", "--reconstructed", str(recon_dir), "--out", "out"]) == 0

        run = json.loads((Path("out") / "run.json").read_text())
        recorded = json.loads((recon_dir / "run.json").read_text())
        # the reconstruct record holds the dataset, with its CSV absolute; classify's
        # record holds only its own options, the directory as typed
        assert recorded["csv"] == (None if case.startswith("scale") else str(csv_path.resolve()))
        assert (recorded["scale_lo"], recorded["scale_hi"]) == (lo, hi)
        assert recorded["samples"] == ",".join(map(str, rows))
        assert run == {"command": "classify", "reconstructed": str(recon_dir), "seed": 0,
                       "kinds": ",".join(classifiers.KINDS)}

        ds = load_iris_csv(csv_path)
        assert ds.features.shape == ((20, 3) if case == "3-feature csv" else (150, 4))
        features = minmax_scale(ds.features, lo, hi)
        train, test = classifiers.stratified_split(ds.labels, seed=0)
        records = [json.loads((recon_dir / f"sample_{i:05d}" / "result.json").read_text())
                   for i in rows]
        accuracy, agreement = [], []
        for kind in classifiers.KINDS:
            model = classifiers.fit(kind, features[train], ds.labels[train])
            predicted = classifiers.predict(model, features[test])
            accuracy.append([kind, float(np.mean(predicted == ds.labels[test]))])
            for record in records:
                pair = classifiers.predict(model, np.array([record["actual"], record["predicted"]]))
                agreement.append([record["sample_index"], kind, float(pair[0] == pair[1])])
        with open(Path("out") / "accuracy.csv", newline="") as f:
            assert [[r["kind"], float(r["accuracy"])] for r in csv.DictReader(f)] == accuracy
        with open(Path("out") / "agreement.csv", newline="") as f:
            assert [[int(r["sample_index"]), r["kind"], float(r["agreement"])]
                    for r in csv.DictReader(f)] == agreement

    def test_predicts_once_per_array_and_classifier(self, tmp_path, monkeypatch, reconstruct_run):
        # the test split, the original rows and the reconstructed rows
        calls = []
        predict = classifiers.predict
        monkeypatch.setattr(classifiers, "predict",
                            lambda model, x: calls.append(len(x)) or predict(model, x))
        monkeypatch.setattr(classifiers, "agreement_eval", lambda *args: pytest.fail("per-row eval"))
        assert cli.main(["classify", "--reconstructed", str(reconstruct_run),
                         "--out", str(tmp_path / "out")]) == 0
        assert calls == [30, 2, 2] * len(classifiers.KINDS)

    @pytest.mark.parametrize(
        "content, message",
        [
            (None, "No such file or directory"),
            ("{", "Expecting property name"),
            (DEEP_JSON, "JSON nested too deeply"),
            ("[]", "expected a JSON object"),
            ('{"command": "reconstruct"}', "not the run.json of a reconstruct run"),
            ({"command": "classify"}, "not the run.json of a reconstruct run"),
            ({"scale_hi": "3"}, "key 'scale_hi' must be of type float, got '3'"),
            ({"csv": 5}, "key 'csv' must be of type str, got 5"),
            ({"scale_lo": 5.0}, "need finite scale_lo < scale_hi"),
            ({"scale_lo": -1e308, "scale_hi": 1e308}, "a finite scale_hi - scale_lo"),
            # the dataset keys of a run made while reconstruct read iris_csv
            ('{"command": "reconstruct", "dataset": "iris", "iris_csv": null, "scale_lo": 0.0, '
             '"scale_hi": 5.0}', "unknown config keys: ['dataset', 'iris_csv']"),
            # a record made while reconstruct recorded each row's seed
            ({"sample_seeds": {"18": 1, "73": 2}}, "unknown config keys: ['sample_seeds']"),
            ({"command": None}, "not the run.json of a reconstruct run"),
            ('{"command": "reconstruct", "scale_lo": 0.0, "scale_hi": 5.0, "csv": null}',
             "not the run.json of a reconstruct run"),
        ],
        ids=["missing", "not JSON", "too deep", "not an object", "no dataset keys",
             "another command", "scale type", "path type", "empty scale", "overflowing scale",
             "iris_csv run", "sample_seeds run", "no command", "dataset keys only"],
    )
    def test_a_bad_run_json_leaves_no_output(self, tmp_path, capsys, reconstruct_run,
                                             content, message):
        recon_dir = tmp_path / "rec"
        shutil.copytree(reconstruct_run, recon_dir)
        run_json = recon_dir / "run.json"
        if content is None:
            run_json.unlink()
        elif isinstance(content, dict):
            run_json.write_text(json.dumps({**json.loads(run_json.read_text()), **content}))
        else:
            run_json.write_text(content)
        err = classify_error(capsys, recon_dir, tmp_path / "out")
        assert err.startswith("error:") and str(run_json) in err and message in err

    @pytest.mark.parametrize(
        "content, message",
        [
            ("[]", "expected a JSON object"),
            (DEEP_JSON, "JSON nested too deeply"),
            ({"predicted": [1.0, 2.0, 3.0]}, "predicted must list 4 finite numbers"),
            ({"actual": [1.0, 2.0, 3.0, float("nan")]}, "actual must list 4 finite numbers"),
            ({"actual": [1.0, 2.0, 3.0, "4"]}, "actual must list 4 finite numbers"),
            ({"sample_index": "18"}, "sample_index must be an integer, got '18'"),
        ],
        ids=["not an object", "too deep", "short predicted", "nan actual", "string actual",
             "string index"],
    )
    def test_a_bad_result_json_leaves_no_output(self, tmp_path, capsys, reconstruct_run,
                                                content, message):
        recon_dir = tmp_path / "rec"
        shutil.copytree(reconstruct_run, recon_dir)
        result_json = recon_dir / "sample_00073" / "result.json"
        if isinstance(content, dict):
            content = json.dumps({**json.loads(result_json.read_text()), **content})
        result_json.write_text(content)
        err = classify_error(capsys, recon_dir, tmp_path / "out")
        assert err.startswith(f"error: {result_json}: {message}")


class TestReconstructOutput:
    def test_coefficients_csv(self, tmp_path):
        code = cli.main(["reconstruct", "--samples", "18", "--epochs", "2", "--restarts", "1",
                         "--out", str(tmp_path)])
        assert code == 0
        sample_dir = tmp_path / "sample_00018"
        assert not (sample_dir / "hamiltonian.csv").exists()
        with open(sample_dir / "coefficients.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        # P = n(n + 1) / 2 rows for the 4 Iris features: 6 couplings, then 4 node weights
        assert [r["term"] for r in rows] == [
            "Z0Z1", "Z0Z2", "Z0Z3", "Z1Z2", "Z1Z3", "Z2Z3", "Z0", "Z1", "Z2", "Z3"
        ]
        result = json.loads((sample_dir / "result.json").read_text())
        target, _, _ = embed_and_sample(result["actual"], TrainConfig(seed=result["seed"]))
        assert [float(r["target"]) for r in rows] == target.tolist()
        assert [float(r["target"]) for r in rows[6:]] == result["actual"]
        assert [float(r["learned"]) for r in rows[6:]] == result["predicted"]
        # two epochs leave the BFGS phase one step, too few to converge
        assert result["stop_reason"] == "epochs"


    def test_a_row_at_every_column_minimum_has_no_cosine(self, tmp_path, capsys):
        # row 0 scales to all-zero node weights, a vector with no direction
        table = tmp_path / "table.csv"
        table.write_text("1,1,a\n2,2,b\n3,1,a\n")
        out = tmp_path / "out"
        assert cli.main(["reconstruct", "--csv", str(table), "--samples", "0", "--epochs", "3",
                         "--restarts", "1", "--out", str(out)]) == 0
        result = json.loads((out / "sample_00000" / "result.json").read_text())
        assert result["actual"] == [0.0, 0.0]
        assert result["metrics"]["cosine"] is None
        assert result["metrics"]["mse"] >= 0.0
        assert "cosine=n/a" in capsys.readouterr().out


class TestStopReason:
    def test_reveal_reports_an_early_stop(self, tmp_path, dict_file):
        assert hide(dict_file, tmp_path / "h") == 0
        code = cli.main(["reveal", "--seed", "4", "--restarts", "1", "--archive",
                         str(tmp_path / "h" / "archive.json"), "--dict", str(dict_file),
                         "--out", str(tmp_path / "v")])
        assert code == 0
        payload = json.loads((tmp_path / "v" / "reveal.json").read_text())
        with open(tmp_path / "v" / "cost_history.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert payload["stop_reason"] == "converged"
        # one row per epoch run, fewer than the 150 of --epochs
        assert [int(r["epoch"]) for r in rows] == list(range(1, len(rows) + 1))
        assert len(rows) < 150
        assert float(rows[-1]["cost"]) == payload["final_cost"]


class TestDeterminism:
    def test_outputs_repeat(self, tmp_path, dict_file):
        for run in ("a", "b"):
            assert hide(dict_file, tmp_path / run) == 0
        for name in ("archive.json", "run.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

        archive = tmp_path / "a" / "archive.json"
        for run in ("x", "y"):
            code = cli.main(["reveal", "--seed", "4", "--epochs", "20", "--archive", str(archive),
                             "--dict", str(dict_file), "--out", str(tmp_path / run)])
            assert code == 0
        for name in ("reveal.json", "cost_history.csv"):
            assert (tmp_path / "x" / name).read_bytes() == (tmp_path / "y" / name).read_bytes()

    def test_hide_epochs_has_no_effect(self, tmp_path, dict_file):
        for epochs in ("3", "150"):
            assert hide(dict_file, tmp_path / epochs, "--epochs", epochs) == 0
        archives = [(tmp_path / epochs / "archive.json").read_bytes() for epochs in ("3", "150")]
        assert archives[0] == archives[1]

    def test_reveal_batch_size_has_no_effect(self, tmp_path, dict_file):
        assert hide(dict_file, tmp_path / "h") == 0
        argv = ["reveal", "--seed", "4", "--archive", str(tmp_path / "h" / "archive.json"),
                "--dict", str(dict_file)]
        assert cli.main([*argv, "--out", str(tmp_path / "default")]) == 0
        assert cli.main([*argv, "--out", str(tmp_path / "b3"), "--batch-size", "3"]) == 0
        for name in ("reveal.json", "cost_history.csv"):
            assert (tmp_path / "default" / name).read_bytes() == (tmp_path / "b3" / name).read_bytes()

    def test_reconstruct_and_classify_repeat(self, tmp_path):
        for run in ("a", "b"):
            code = cli.main(["reconstruct", "--samples", "18,73", "--epochs", "6", "--restarts", "1",
                             "--out", str(tmp_path / run / "r")])
            assert code == 0
            code = cli.main(["classify", "--reconstructed", str(tmp_path / run / "r"),
                             "--out", str(tmp_path / run / "c")])
            assert code == 0
        files = [sorted(p.relative_to(tmp_path / run) for p in (tmp_path / run).rglob("*")
                        if p.is_file()) for run in "ab"]
        assert files[0] == files[1]
        assert len(files[0]) == 1 + 2 * 3 + 3
        for name in files[0]:
            if name != Path("c", "run.json"):
                assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name
        # classify records the directory it read, which differs between the runs
        runs = [json.loads((tmp_path / run / "c" / "run.json").read_text()) for run in "ab"]
        assert runs[0].pop("reconstructed") != runs[1].pop("reconstructed")
        assert runs[0] == runs[1]


    def test_reveal_across_blas_thread_counts(self, tmp_path, dict_file):
        # the n = 8 benchmark message: its cost_history.csv can differ in the last bit between
        # one and two BLAS threads, so assert only what holds across thread counts
        message = "juliet india hotel golf foxtrot echo delta charlie"
        assert cli.main(["hide", "--seed", "1", "--message", message, "--dict", str(dict_file),
                         "--out", str(tmp_path / "hide")]) == 0
        results = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads-{threads}"
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
            subprocess.run([sys.executable, "-m", "qgrnn.cli", "reveal", "--seed", "1",
                            "--restarts", "1", "--epochs", "60",
                            "--archive", str(tmp_path / "hide" / "archive.json"),
                            "--dict", str(dict_file), "--out", str(out)],
                           env=env, check=True, capture_output=True, timeout=60)
            results.append(json.loads((out / "reveal.json").read_text()))
        one, two = results
        assert one["words"] == two["words"] == message.split()
        assert one["attempts"] == two["attempts"] == 1
        assert abs(one["final_cost"] - two["final_cost"]) <= 1e-12


class TestFormerMisses:
    """Two instances that missed on random sample times and solve on the Chebyshev ones."""

    def test_iris_row_100_solves_on_the_first_attempt(self, tmp_path):
        # took 4 attempts
        assert cli.main(["reconstruct", "--seed", "0", "--samples", "100", "--out", str(tmp_path)]) == 0
        result = json.loads((tmp_path / "sample_00100" / "result.json").read_text())
        assert result["attempts"] == 1
        assert result["metrics"]["mse"] <= 1e-12

    def test_seed_7703_message_reveals_every_word_on_the_first_attempt(self, tmp_path, dict_file):
        # ran all 10 attempts and got 6 of 8 words
        message = "juliet india alpha golf foxtrot india alpha india"
        assert cli.main(["hide", "--seed", "7703", "--message", message, "--dict", str(dict_file),
                         "--out", str(tmp_path / "hide")]) == 0
        assert cli.main(["reveal", "--seed", "7703", "--archive", str(tmp_path / "hide" / "archive.json"),
                         "--dict", str(dict_file), "--truth", message,
                         "--out", str(tmp_path / "reveal")]) == 0
        result = json.loads((tmp_path / "reveal" / "reveal.json").read_text())
        assert result["words"] == message.split()
        assert result["accuracy"] == 100.0 and result["attempts"] == 1


# one run of each command, with the relative paths it was typed with
RECORDED_RUNS = {
    "reconstruct": ["--samples", "18", "--restarts", "1", "--epochs", "3"],
    "classify": ["--reconstructed", "reconstruct"],
    "hide": ["--message", "golf charlie", "--dict", "words.txt", "--epochs", "3"],
    "reveal": ["--archive", "hide/archive.json", "--dict", "words.txt", "--restarts", "1",
               "--epochs", "3"],
}


@pytest.fixture(scope="module")
def recorded_runs(tmp_path_factory):
    """A directory with one run of each command, each under the command's name."""
    root = tmp_path_factory.mktemp("runs")
    (root / "words.txt").write_text("\n".join(WORDS) + "\n")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(root)
        for command, argv in RECORDED_RUNS.items():
            assert cli.main([command, *argv, "--out", command]) == 0
    return root


def output_files(directory: Path) -> dict:
    """The bytes of each file under ``directory``, by relative path."""
    return {path.relative_to(directory): path.read_bytes()
            for path in sorted(p for p in directory.rglob("*") if p.is_file())}


class TestReplay:
    @pytest.mark.parametrize("command", COMMANDS)
    def test_a_run_json_holds_the_command_and_its_options(self, recorded_runs, command):
        run = json.loads((recorded_runs / command / "run.json").read_text())
        assert set(run) == {"command", *cli.OPTIONS[command]}
        assert run["command"] == command

    @pytest.mark.parametrize("command", COMMANDS)
    def test_a_replay_writes_the_same_bytes(self, recorded_runs, monkeypatch, command):
        # from the same directory, since paths are recorded as typed; the message is never recorded
        monkeypatch.chdir(recorded_runs)
        message = ["--message", "golf charlie"] if command == "hide" else []
        replay = f"{command}-replay"
        assert cli.main([command, "--config", f"{command}/run.json", *message, "--out", replay]) == 0
        original, replayed = output_files(Path(command)), output_files(Path(replay))
        assert len(original) == {"reconstruct": 4, "classify": 3, "hide": 2, "reveal": 3}[command]
        assert replayed == original

    @pytest.mark.parametrize("recorded", COMMANDS)
    def test_a_record_of_another_command_is_refused(self, recorded_runs, tmp_path, capsys, recorded):
        record = recorded_runs / recorded / "run.json"
        for command in (c for c in COMMANDS if c != recorded):
            message = ["--message", "golf charlie"] if command == "hide" else []
            out = tmp_path / command
            fails_fast(capsys, [command, "--config", str(record), *message, "--out", str(out)],
                       f"error: {record}: not the run.json of a {command} run")
            assert not out.exists()

    @pytest.mark.parametrize("command, key", [("classify", "reconstructed"), ("hide", "dict"),
                                              ("reveal", "archive"), ("reveal", "dict")])
    def test_a_missing_input_path_leaves_no_output(self, tmp_path, dict_file, capsys, command, key):
        argv = required_args(command, tmp_path, dict_file)
        flag = "--" + key
        del argv[argv.index(flag):argv.index(flag) + 2]
        out = tmp_path / "out"
        fails_fast(capsys, [command, *argv, "--out", str(out)], f"error: {flag} is required")
        assert not out.exists()
