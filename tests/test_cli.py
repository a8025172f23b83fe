import json
import time

import pytest

from qgrnn import cli

WORDS = ("alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel", "india", "juliet")


@pytest.fixture
def dict_file(tmp_path):
    path = tmp_path / "words.txt"
    path.write_text("\n".join(WORDS) + "\n")
    return path


def hide(dict_file, out, *flags):
    return cli.main(["hide", "--seed", "4", "--message", "golf charlie", "--dict", str(dict_file),
                     "--out", str(out), *flags])


class TestConfigValidation:
    @pytest.mark.parametrize(
        "file_cfg, field",
        [
            ({"epochs": "5"}, "epochs"),
            ({"epochs": 2.5}, "epochs"),
            ({"learning_rate": "fast"}, "learning_rate"),
            ({"restarts": None}, "restarts"),
            ({"seed": True}, "seed"),
            ({"node_init_low": "0"}, "node_init_low"),
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

    @pytest.mark.parametrize(
        "flags, field",
        [
            (["--learning-rate", "-1"], "learning_rate"),
            (["--learning-rate", "0"], "learning_rate"),
            (["--adam-beta1", "1.0"], "adam_beta1"),
            (["--adam-beta2", "-0.1"], "adam_beta2"),
            (["--adam-epsilon", "0"], "adam_epsilon"),
            (["--init-low", "2", "--init-high", "1"], "init_low"),
            (["--node-init-low", "3", "--node-init-high", "3"], "node init range"),
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
        payload["t_max"] = payload["samples"][0]["t"] = 1e9
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
        payload["samples"][0]["t"] = float("inf")
        archive.write_text(json.dumps(payload))
        code = cli.main(["reveal", "--archive", str(archive), "--dict", str(dict_file),
                         "--out", str(tmp_path / "reveal")])
        assert code == 1
        assert "sample time t" in capsys.readouterr().err


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
