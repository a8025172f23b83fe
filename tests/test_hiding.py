import json
import math

import numpy as np
import pytest

from qgrnn.hiding import (
    ArchiveFormatError,
    build_dictionary,
    encode_message,
    load_archive,
    retrieval_accuracy,
    reveal_message,
    save_archive,
)
from qgrnn.training import TrainConfig

WORDS = ("alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel", "india", "juliet")


@pytest.fixture(scope="module")
def dictionary():
    return build_dictionary(WORDS)


class TestRoundTrip:
    @pytest.mark.parametrize(
        "seed, message",
        [
            (1, "india charlie"),
            (2, "juliet alpha golf"),
            (4, "bravo hotel echo foxtrot"),
            (7, "delta india alpha juliet charlie"),
            # both exhausted all 10 random restarts before the warm start existed
            (0, "alpha bravo charlie delta"),
            (12, "alpha foxtrot delta juliet"),
        ],
    )
    def test_reveal_returns_every_word_on_the_first_attempt(self, dictionary, seed, message):
        words = message.split()
        config = TrainConfig(seed=seed)
        archive = encode_message(words, dictionary, config, created="fixed")
        result = reveal_message(archive, dictionary, config)
        assert result.attempts == 1
        assert retrieval_accuracy(words, result.words) == 100.0


def valid_payload(dictionary, tmp_path):
    config = TrainConfig(seed=3, batch_size=4)
    path = tmp_path / "archive.json"
    save_archive(encode_message(["alpha", "juliet"], dictionary, config, created="fixed"), path)
    return json.loads(path.read_text())


def load_payload(payload, tmp_path):
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(payload))
    return load_archive(path)


class TestLoadArchive:
    def test_round_trip(self, dictionary, tmp_path):
        payload = valid_payload(dictionary, tmp_path)
        archive = load_payload(payload, tmp_path)
        assert archive.node_count == 2
        assert archive.t_max == payload["t_max"]
        assert [s.time for s in archive.samples] == [s["t"] for s in payload["samples"]]
        assert archive.created == "fixed"

    @pytest.mark.parametrize("t_max", [math.inf, -math.inf, math.nan, 0.0, -0.5])
    def test_rejects_bad_t_max(self, dictionary, tmp_path, t_max):
        payload = valid_payload(dictionary, tmp_path)
        payload["t_max"] = t_max
        with pytest.raises(ArchiveFormatError, match="t_max"):
            load_payload(payload, tmp_path)

    @pytest.mark.parametrize("t", [math.inf, math.nan, 0.0, -0.1, "late"])
    def test_rejects_bad_sample_time(self, dictionary, tmp_path, t):
        payload = valid_payload(dictionary, tmp_path)
        payload["samples"][1]["t"] = t
        with pytest.raises(ArchiveFormatError):
            load_payload(payload, tmp_path)

    def test_rejects_sample_time_above_t_max(self, dictionary, tmp_path):
        payload = valid_payload(dictionary, tmp_path)
        payload["samples"][0]["t"] = np.nextafter(payload["t_max"], np.inf)
        with pytest.raises(ArchiveFormatError, match="sample time t"):
            load_payload(payload, tmp_path)

    def test_sample_time_at_t_max_is_accepted(self, dictionary, tmp_path):
        payload = valid_payload(dictionary, tmp_path)
        payload["samples"][0]["t"] = payload["t_max"]
        assert load_payload(payload, tmp_path).samples[0].time == payload["t_max"]

    def test_rejects_empty_samples(self, dictionary, tmp_path):
        payload = valid_payload(dictionary, tmp_path)
        payload["samples"] = []
        with pytest.raises(ArchiveFormatError, match="samples"):
            load_payload(payload, tmp_path)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda p: p.pop("samples"),
            lambda p: p.__setitem__("version", 2),
            lambda p: p.__setitem__("initial", p["initial"][:-1]),
            lambda p: p["samples"][0].__setitem__("state", [[2.0, 0.0]] * 4),
        ],
        ids=["missing-samples", "wrong-version", "short-initial", "unnormalized-state"],
    )
    def test_rejects_malformed_fields(self, dictionary, tmp_path, edit):
        payload = valid_payload(dictionary, tmp_path)
        edit(payload)
        with pytest.raises(ArchiveFormatError):
            load_payload(payload, tmp_path)

    def test_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "truncated.json"
        path.write_text('{"version": 1, "node_count"')
        with pytest.raises(ArchiveFormatError, match="not valid JSON"):
            load_archive(path)
