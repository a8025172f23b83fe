import csv
import json
import time
from dataclasses import fields

import pytest

from qgrnn import cli
from qgrnn.datasets import bundled_iris_path
from qgrnn.pipeline import embed_and_sample
from qgrnn.training import TrainConfig

WORDS = ("alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel", "india", "juliet")


@pytest.fixture
def dict_file(tmp_path):
    path = tmp_path / "words.txt"
    path.write_text("\n".join(WORDS) + "\n")
    return path


COMMANDS = ("reconstruct", "classify", "hide", "reveal")
# the TrainConfig fields that are options of every command
OPTION_FIELDS = [f for f in fields(TrainConfig) if f.name != "seed"]
# former options, now constants or taken from the embedding: neither flags nor config keys
REMOVED_OPTIONS = ("learning_rate", "adam_beta1", "adam_beta2", "adam_epsilon",
                   "init_low", "init_high", "node_init_low", "node_init_high", "fd_step")


def required_args(command, tmp_path, dict_file):
    """Each command's required arguments; the input files need not exist."""
    return {
        "reconstruct": ["--samples", "18"],
        "classify": ["--reconstructed", str(tmp_path / "rec")],
        "hide": ["--message", "golf charlie", "--dict", str(dict_file)],
        "reveal": ["--archive", str(tmp_path / "archive.json"), "--dict", str(dict_file)],
    }[command]


def hide(dict_file, out, *flags):
    return cli.main(["hide", "--seed", "4", "--message", "golf charlie", "--dict", str(dict_file),
                     "--out", str(out), *flags])


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
    def test_mistyped_config_value_is_an_error(self, tmp_path, dict_file, capsys, file_cfg, field):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(file_cfg))
        assert hide(dict_file, tmp_path / "out", "--config", str(config)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and field in err

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
        ],
    )
    def test_out_of_range_flag_is_an_error(self, tmp_path, dict_file, capsys, flags, field):
        assert hide(dict_file, tmp_path / "out", *flags) == 1
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
        assert err.startswith("error: unknown config keys") and "fd_step" in err

    def test_huge_archive_time_fails_fast(self, tmp_path, dict_file, capsys):
        assert hide(dict_file, tmp_path / "hide") == 0
        archive = tmp_path / "hide" / "archive.json"
        payload = json.loads(archive.read_text())
        payload["t_max"] = payload["times"][0] = 1e9
        archive.write_text(json.dumps(payload))
        start = time.perf_counter()
        code = cli.main(["reveal", "--archive", str(archive), "--dict", str(dict_file),
                         "--out", str(tmp_path / "reveal")])
        assert time.perf_counter() - start < 1.0
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "layers" in err

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
        assert not list((tmp_path / "out").glob("sample_*"))

    @pytest.mark.parametrize(
        "file_text, field",
        [
            ('{"scale_lo": -1e400}', "scale_lo"),
            ('{"scale_hi": 1e400}', "scale_hi"),
            ('{"scale_hi": NaN}', "scale_hi"),
            ('{"scale_lo": 5.0}', "scale_lo < scale_hi"),
            ('{"scale_lo": 3.0, "scale_hi": 1.0}', "scale_lo < scale_hi"),
            ('{"pca_components": 0}', "pca_components"),
            ('{"pca_fit_count": -3}', "pca_fit_count"),
            ('{"pca_fit_count": 1}', "pca_fit_count"),
        ],
    )
    def test_reconstruct_rejects_an_out_of_range_dataset_option(self, tmp_path, capsys,
                                                                file_text, field):
        config = tmp_path / "config.json"
        config.write_text(file_text)
        fails_fast(capsys, ["reconstruct", "--samples", "18", "--config", str(config),
                            "--out", str(tmp_path / "out")], field)
        assert not list((tmp_path / "out").glob("sample_*"))

    def test_hide_rejects_a_register_beyond_the_qubit_limit(self, tmp_path, dict_file, capsys):
        message = " ".join(WORDS * 2)
        fails_fast(capsys, ["hide", "--message", message, "--dict", str(dict_file),
                            "--out", str(tmp_path)], "limit")
        assert not (tmp_path / "archive.json").exists()


class TestOptionsCheckedBeforeOutput:
    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize(
        "flags, key",
        [(["--restarts", "0"], "restarts"), (["--trotter-delta", "-1"], "trotter_delta")],
    )
    def test_bad_training_option_leaves_no_output(self, tmp_path, dict_file, capsys,
                                                  command, flags, key):
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
        fails_fast(capsys, ["reconstruct", "--iris-csv", str(short), "--out", str(out)],
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


class TestTrainingOptionSchema:
    @pytest.mark.parametrize("command", COMMANDS)
    def test_every_training_field_is_a_flag(self, tmp_path, dict_file, command):
        parser = cli.build_parser()
        for f in OPTION_FIELDS:
            args = parser.parse_args([command, *required_args(command, tmp_path, dict_file),
                                      "--out", str(tmp_path), "--" + f.name.replace("_", "-"), "3"])
            value = getattr(args, f.name)
            assert value == 3
            assert type(value) is type(f.default), f.name

    def test_the_training_flags_are_the_five_options(self):
        assert cli.TRAIN_KEYS == ("batch_size", "epochs", "trotter_delta", "t_max", "restarts")

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
            assert err.startswith("error: unknown config keys") and repr(name) in err
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
            for f in OPTION_FIELDS:
                assert run[f.name] == f.default and type(run[f.name]) is type(f.default), f.name
            assert not set(REMOVED_OPTIONS) & set(run)


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
    def test_outputs_repeat_except_the_creation_time(self, tmp_path, dict_file):
        for run in ("a", "b"):
            assert hide(dict_file, tmp_path / run) == 0
        archives = [json.loads((tmp_path / run / "archive.json").read_text()) for run in "ab"]
        for payload in archives:
            del payload["meta"]["created"]
        assert archives[0] == archives[1]

        archive = tmp_path / "a" / "archive.json"
        for run in ("x", "y"):
            code = cli.main(["reveal", "--seed", "4", "--epochs", "20", "--archive", str(archive),
                             "--dict", str(dict_file), "--out", str(tmp_path / run)])
            assert code == 0
        for name in ("reveal.json", "cost_history.csv"):
            assert (tmp_path / "x" / name).read_bytes() == (tmp_path / "y" / name).read_bytes()
