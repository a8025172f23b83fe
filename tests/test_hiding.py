import base64
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from qgrnn.hiding import (
    ArchiveFormatError,
    build_dictionary,
    encode_message,
    encoded_state_length,
    load_archive,
    retrieval_accuracy,
    reveal_message,
    save_archive,
)
from qgrnn.pipeline import MAX_QUBITS
from qgrnn.training import TrainConfig

V1_ARCHIVE = Path(__file__).parent / "data" / "archive_v1.json"
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


class TestWideRegister:
    def test_eight_word_reveal_reaches_the_trotter_floor_in_60_epochs(self, dictionary):
        # one attempt of 60 epochs, as in the wide-register benchmark workload;
        # Adam alone ended at MSE 8.3e-5 and the second-order circuit at its
        # Trotter-bias floor of 1.7e-9; the fourth-order circuit reaches 2.4e-12
        words = "juliet india hotel golf foxtrot echo delta charlie".split()
        archive = encode_message(words, dictionary, TrainConfig(seed=1), created="fixed")
        result = reveal_message(archive, dictionary, TrainConfig(seed=1, epochs=60), restarts=1)
        truth = np.array([dictionary.value_of(w) for w in words])
        assert result.words == tuple(words)
        assert np.mean((result.learned_values - truth) ** 2) <= 1e-10


def valid_payload(dictionary, tmp_path):
    config = TrainConfig(seed=3, batch_size=4)
    path = tmp_path / "archive.json"
    save_archive(encode_message(["alpha", "juliet"], dictionary, config, created="fixed"), path)
    return json.loads(path.read_text())


def load_payload(payload, tmp_path):
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(payload))
    return load_archive(path)


def b64_state(amplitudes):
    return base64.b64encode(np.asarray(amplitudes, dtype="<c16").tobytes()).decode("ascii")


def replace_padding(text):
    """Same length, but the last group is all padding, so it decodes to fewer bytes."""
    return text[:-4] + "===="


BAD_AMPLITUDES = {"nan": [math.nan, 0.0, 0.0, 0.0], "inf": [math.inf, 0.0, 0.0, 0.0]}


class TestLoadArchive:
    def test_round_trip(self, dictionary, tmp_path):
        payload = valid_payload(dictionary, tmp_path)
        archive = load_payload(payload, tmp_path)
        assert archive.node_count == 2
        assert archive.t_max == payload["t_max"]
        assert [s.time for s in archive.samples] == [s["t"] for s in payload["samples"]]
        assert archive.created == "fixed"

    def test_writes_version_2_without_a_seed_fingerprint(self, dictionary, tmp_path):
        payload = valid_payload(dictionary, tmp_path)
        assert payload["version"] == 2
        assert payload["meta"] == {"created": "fixed"}
        states = [payload["initial"]] + [s["state"] for s in payload["samples"]]
        assert all(isinstance(x, str) and len(x) == encoded_state_length(2) for x in states)

    def test_round_trip_is_bit_exact(self, dictionary, tmp_path):
        archive = encode_message(["alpha", "juliet"], dictionary, TrainConfig(seed=3, batch_size=4))
        save_archive(archive, tmp_path / "archive.json")
        loaded = load_archive(tmp_path / "archive.json")
        assert np.array_equal(loaded.initial_state.amplitudes, archive.initial_state.amplitudes)
        for a, b in zip(loaded.samples, archive.samples, strict=True):
            assert a.time == b.time
            assert np.array_equal(a.state.amplitudes, b.state.amplitudes)

    @pytest.mark.parametrize("t_max", [math.inf, -math.inf, math.nan, 0.0, -0.5])
    def test_rejects_bad_t_max(self, dictionary, tmp_path, t_max):
        payload = valid_payload(dictionary, tmp_path)
        payload["t_max"] = t_max
        with pytest.raises(ArchiveFormatError, match="t_max must be finite and > 0"):
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

    @pytest.mark.parametrize("node_count", [0, -3, MAX_QUBITS + 1, 10**9])
    def test_rejects_node_count_outside_the_register_limit(self, dictionary, tmp_path, node_count):
        payload = valid_payload(dictionary, tmp_path)
        payload["node_count"] = node_count
        # the message, not the path (tmp_path holds the test name), must name the field
        with pytest.raises(ArchiveFormatError, match="node_count must lie in"):
            load_payload(payload, tmp_path)

    def test_rejects_empty_samples(self, dictionary, tmp_path):
        payload = valid_payload(dictionary, tmp_path)
        payload["samples"] = []
        with pytest.raises(ArchiveFormatError, match="samples is empty"):
            load_payload(payload, tmp_path)

    @pytest.mark.parametrize(
        "edit, match",
        [
            (lambda p: p.pop("samples"), "malformed archive"),
            (lambda p: p.__setitem__("version", 3), "unsupported archive version 3"),
            (lambda p: p.__setitem__("initial", p["initial"][:-1]), "base64 string of 88 characters"),
            (lambda p: p.__setitem__("initial", "*" + p["initial"][1:]), "not valid base64"),
            (lambda p: p["samples"][0].__setitem__("state", [[0.5, 0.0]] * 4),
             "base64 string of 88 characters"),
            (lambda p: p.__setitem__("initial", replace_padding(p["initial"])), "wrong shape"),
            (lambda p: p["samples"][0].__setitem__("state", b64_state([2.0, 0.0, 0.0, 0.0])),
             "state norm deviates from 1"),
        ],
        ids=["missing-samples", "wrong-version", "short-initial", "non-base64-initial",
             "list-state", "padding-only-group", "unnormalized-state"],
    )
    def test_rejects_malformed_fields(self, dictionary, tmp_path, edit, match):
        payload = valid_payload(dictionary, tmp_path)
        edit(payload)
        with pytest.raises(ArchiveFormatError, match=match):
            load_payload(payload, tmp_path)

    @pytest.mark.parametrize(
        "edit, match",
        [
            (lambda p: p.__setitem__("version", True), "unsupported archive version True"),
            (lambda p: p.__setitem__("node_count", 2.9), "node_count must be a JSON integer, got 2.9"),
            (lambda p: p.__setitem__("node_count", "2"), "node_count must be a JSON integer, got '2'"),
            (lambda p: p.__setitem__("node_count", True), "node_count must be a JSON integer, got True"),
            (lambda p: p.__setitem__("t_max", True), "t_max must be a JSON number, got True"),
            (lambda p: p.__setitem__("t_max", "0.5"), "t_max must be a JSON number, got '0.5'"),
            (lambda p: p["samples"][0].__setitem__("t", str(p["samples"][0]["t"])),
             "sample time t must be a JSON number, got '0."),
            (lambda p: p["samples"][0].__setitem__("t", True),
             "sample time t must be a JSON number, got True"),
            # a JSON integer too large for a float
            (lambda p: p.__setitem__("t_max", 10**400), "malformed archive: int too large"),
            (lambda p: p["samples"][0].__setitem__("t", 10**400), "malformed archive: int too large"),
        ],
        ids=["bool-version", "float-node-count", "str-node-count", "bool-node-count",
             "bool-t-max", "str-t-max", "str-t", "bool-t", "huge-t-max", "huge-t"],
    )
    def test_rejects_header_values_of_the_wrong_json_type(self, dictionary, tmp_path, edit, match):
        payload = valid_payload(dictionary, tmp_path)
        edit(payload)
        with pytest.raises(ArchiveFormatError, match=re.escape(match)):
            load_payload(payload, tmp_path)

    def test_accepts_an_integer_t_max(self, dictionary, tmp_path):
        payload = valid_payload(dictionary, tmp_path)
        payload["t_max"] = 1
        archive = load_payload(payload, tmp_path)
        assert archive.t_max == 1.0 and isinstance(archive.t_max, float)

    @pytest.mark.parametrize("bad", sorted(BAD_AMPLITUDES))
    def test_rejects_non_finite_amplitudes_in_version_2(self, dictionary, tmp_path, bad):
        payload = valid_payload(dictionary, tmp_path)
        payload["samples"][1]["state"] = b64_state(BAD_AMPLITUDES[bad])
        with pytest.raises(ArchiveFormatError, match="state norm deviates from 1"):
            load_payload(payload, tmp_path)

    @pytest.mark.parametrize("bad", sorted(BAD_AMPLITUDES))
    def test_rejects_non_finite_amplitudes_in_version_1(self, tmp_path, bad):
        # json.dumps writes NaN and Infinity, which json.loads reads back
        payload = json.loads(V1_ARCHIVE.read_text())
        payload["samples"][1]["state"] = [[a, 0.0] for a in BAD_AMPLITUDES[bad]]
        with pytest.raises(ArchiveFormatError, match="state norm deviates from 1"):
            load_payload(payload, tmp_path)

    @pytest.mark.parametrize("text", ["[1, 2]", "null", '"archive"'])
    def test_rejects_a_payload_that_is_not_an_object(self, tmp_path, text):
        path = tmp_path / "list.json"
        path.write_text(text)
        with pytest.raises(ArchiveFormatError, match="unsupported archive version None"):
            load_archive(path)

    def test_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "truncated.json"
        path.write_text('{"version": 1, "node_count"')
        with pytest.raises(ArchiveFormatError, match="not valid JSON"):
            load_archive(path)


class TestVersion1Archive:
    """tests/data/archive_v1.json: n = 2, batch_size 4, written by the version-1 save_archive."""

    def test_amplitudes_equal_the_decimal_pairs(self):
        payload = json.loads(V1_ARCHIVE.read_text())
        archive = load_archive(V1_ARCHIVE)
        assert payload["version"] == 1 and archive.node_count == 2
        assert archive.created == "fixed"
        states = [archive.initial_state] + [s.state for s in archive.samples]
        pairs = [payload["initial"]] + [s["state"] for s in payload["samples"]]
        assert len(states) == 5
        for state, rows in zip(states, pairs):
            rows = np.array(rows)
            assert np.array_equal(state.amplitudes.real, rows[:, 0])
            assert np.array_equal(state.amplitudes.imag, rows[:, 1])
        assert [s.time for s in archive.samples] == [s["t"] for s in payload["samples"]]

    def test_resaved_as_version_2_round_trips_exactly(self, tmp_path):
        archive = load_archive(V1_ARCHIVE)
        save_archive(archive, tmp_path / "v2.json")
        assert json.loads((tmp_path / "v2.json").read_text())["version"] == 2
        again = load_archive(tmp_path / "v2.json")
        assert np.array_equal(again.initial_state.amplitudes, archive.initial_state.amplitudes)
        for a, b in zip(again.samples, archive.samples, strict=True):
            assert a.time == b.time
            assert np.array_equal(a.state.amplitudes, b.state.amplitudes)


def test_archive_size_stays_binary(dictionary, tmp_path):
    """One n = 8 message with B = 15 samples fits (B + 1) base64 states plus 2 KB of JSON.

    A decimal encoding of the amplitudes is more than twice as large.
    """
    words = ["alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel"]
    config = TrainConfig(seed=5, batch_size=15)
    path = tmp_path / "archive.json"
    save_archive(encode_message(words, dictionary, config, created="fixed"), path)
    limit = (config.batch_size + 1) * encoded_state_length(len(words)) + 2048
    assert encoded_state_length(8) == 4 * math.ceil(16 * 2**8 / 3)
    assert path.stat().st_size <= limit
