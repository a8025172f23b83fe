import base64
import json
import math
import re
import warnings
import zlib
from pathlib import Path

import numpy as np
import pytest

from qgrnn import hiding
from qgrnn.hiding import (
    CARRIER_NORM_TOL,
    ArchiveFormatError,
    build_dictionary,
    encode_message,
    encoded_state_length,
    load_archive,
    retrieval_accuracy,
    reveal_message,
    save_archive,
)
from qgrnn.ising import draw_times
from qgrnn.pipeline import MAX_QUBITS
from qgrnn.statevector import NORM_TOL
from qgrnn.training import TrainConfig

V1_ARCHIVE = Path(__file__).parent / "data" / "archive_v1.json"
V2_ARCHIVE = Path(__file__).parent / "data" / "archive_v2.json"
V3_ARCHIVE = Path(__file__).parent / "data" / "archive_v3.json"
V4_ARCHIVE = Path(__file__).parent / "data" / "archive_v4.json"
V5_ARCHIVE = Path(__file__).parent / "data" / "archive_v5.json"
# version 5 as hide writes it since the sample times became Chebyshev points;
# the five archive_v<k>.json fixtures hold random times
V5_CHEBYSHEV_ARCHIVE = Path(__file__).parent / "data" / "archive_v5_chebyshev.json"
# the message every fixture hides, under seed 3 with batch_size 4
FIXTURE_WORDS = ("alpha", "juliet")
WORDS = ("alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel", "india", "juliet")


@pytest.fixture(scope="module")
def dictionary():
    return build_dictionary(WORDS)


class TestDictionary:
    """Code values and snapping; the 10 words of ``WORDS`` carry -4, -3, ..., 5."""

    @pytest.mark.parametrize(
        "words, values, spacing",
        [(WORDS[:2], [-4.0, 5.0], 9.0), (WORDS, np.arange(-4.0, 6.0), 1.0)],
    )
    def test_values_and_spacing(self, words, values, spacing):
        d = build_dictionary(words)
        assert d.spacing == spacing
        assert np.array_equal(d.values, values)
        assert [d.value_of(w) for w in words] == list(values)

    @pytest.mark.parametrize("value, index, distance", [(0.3, 4, 0.3), (0.7, 5, 0.3), (-2.9, 1, 0.1)])
    def test_the_nearest_word_wins(self, dictionary, value, index, distance):
        snapped, off = dictionary.snap(value)
        assert snapped == index and off == pytest.approx(distance)

    def test_an_exact_tie_takes_the_lower_value(self, dictionary):
        assert dictionary.snap(0.5) == (4, 0.5)
        assert build_dictionary(WORDS[:2]).snap(0.5) == (0, 4.5)

    @pytest.mark.parametrize("value, index, distance", [(-100.0, 0, 96.0), (-4.25, 0, 0.25),
                                                        (5.5, 9, 0.5), (1e6, 9, 1e6 - 5)])
    def test_values_outside_the_range_snap_to_the_end_words(self, dictionary, value, index, distance):
        assert dictionary.snap(value) == (index, distance)

    def test_an_unknown_word_is_a_key_error_naming_it(self, dictionary):
        with pytest.raises(KeyError) as info:
            dictionary.value_of("zulu")
        assert info.value.args == ("word not in dictionary: 'zulu'",)


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
        archive = encode_message(words, dictionary, config)
        result = reveal_message(archive, dictionary, config)
        assert result.attempts == 1
        assert retrieval_accuracy(words, result.words) == 100.0


class TestWideRegister:
    def test_eight_word_reveal_reaches_the_trotter_floor_in_60_epochs(self, dictionary):
        # one attempt of 60 epochs, as in the wide-register benchmark workload;
        # Adam alone ended at MSE 8.3e-5 and the second-order circuit at its
        # Trotter-bias floor of 1.7e-9; the fourth-order circuit reached 2.4e-12
        # and the sixth-order one reaches 4.6e-15
        words = "juliet india hotel golf foxtrot echo delta charlie".split()
        archive = encode_message(words, dictionary, TrainConfig(seed=1))
        result = reveal_message(archive, dictionary, TrainConfig(seed=1, epochs=60, restarts=1))
        truth = np.array([dictionary.value_of(w) for w in words])
        assert result.words == tuple(words)
        assert np.mean((result.learned_values - truth) ** 2) <= 1e-10

    def test_single_precision_archive_on_disk_reaches_the_same_floor(self, dictionary, tmp_path):
        # the same reveal through save_archive and load_archive: the complex64
        # carrier's rounding keeps the MSE near the in-memory 4.6e-15 (5.2e-15)
        words = "juliet india hotel golf foxtrot echo delta charlie".split()
        save_archive(encode_message(words, dictionary, TrainConfig(seed=1)),
                     tmp_path / "archive.json")
        archive = load_archive(tmp_path / "archive.json")
        result = reveal_message(archive, dictionary, TrainConfig(seed=1, epochs=60, restarts=1))
        truth = np.array([dictionary.value_of(w) for w in words])
        assert result.words == tuple(words)
        assert np.mean((result.learned_values - truth) ** 2) <= 1e-10


class TestNodeErrorThroughTheArchive:
    @pytest.mark.parametrize(
        "seed, message",
        [(2, "juliet alpha golf"), (6, "hotel delta golf"), (7, "delta india alpha juliet charlie")],
    )
    def test_node_error_fits_a_million_word_dictionary(self, dictionary, tmp_path, seed, message):
        # half the spacing of 10^6 words over [-4, 5] is 4.5e-6; the fourth-order
        # circuit's Trotter bias left 6.9e-6, 4.6e-6 and 9.3e-6 here, the
        # sixth-order one 1.0e-7, 7.6e-9 and 3.3e-7
        words = message.split()
        save_archive(encode_message(words, dictionary, TrainConfig(seed=seed)),
                     tmp_path / "archive.json")
        result = reveal_message(load_archive(tmp_path / "archive.json"), dictionary,
                                TrainConfig(seed=seed))
        truth = np.array([dictionary.value_of(w) for w in words])
        assert result.attempts == 1
        assert np.max(np.abs(result.learned_values - truth)) <= 1e-6


def valid_payload(dictionary, tmp_path):
    """The version-5 payload of the fixtures' message."""
    config = TrainConfig(seed=3, batch_size=4)
    path = tmp_path / "archive.json"
    save_archive(encode_message(FIXTURE_WORDS, dictionary, config), path)
    return json.loads(path.read_text())


def load_payload(payload, tmp_path):
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(payload))
    return load_archive(path)


def b64_state(amplitudes, dtype="<c8"):
    """A state string of version 3 (complex64), or of version 2 with dtype "<c16"."""
    return base64.b64encode(np.asarray(amplitudes, dtype=dtype).tobytes()).decode("ascii")


def planed_bytes(rows):
    """The byte planes of the float32 values of complex64 rows: every byte 0, then every byte 1, ..."""
    values = np.asarray(rows, dtype="<c8").reshape(-1).view("<f4")
    return bytes(b for plane in range(4) for b in values.view(np.uint8)[plane::4])


def b64_deflated(raw):
    return base64.b64encode(zlib.compress(raw)).decode("ascii")


def random_rows(count=5, nonzero=4):
    """Unit rows of 4 amplitudes, the first ``nonzero`` random: their mantissa bytes do not deflate."""
    rng = np.random.default_rng(0)
    rows = np.zeros((count, 4), complex)
    rows[:, :nonzero] = rng.standard_normal((count, nonzero)) + 1j * rng.standard_normal((count, nonzero))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def stored_rows(archive):
    """The amplitudes of the initial state and then of each sample, as loaded."""
    return np.array([archive.initial_state] + [s.state for s in archive.samples])


def as_version_3(archive):
    """The version-3 payload of an archive: one complex64 base64 string per state.

    A version-3 file also held ``t_max`` and ``meta``, which are ignored.
    """
    return {"version": 3, "node_count": archive.node_count,
            "initial": b64_state(archive.initial_state),
            "samples": [{"t": s.time, "state": b64_state(s.state)} for s in archive.samples]}


def single_precision(amplitudes):
    """What load_archive returns for a state saved as version 3 or 4."""
    widened = np.asarray(amplitudes).astype("<c8").astype(np.complex128)
    return widened / np.linalg.norm(widened)


def v2_payload():
    return json.loads(V2_ARCHIVE.read_text())


def v3_payload():
    return json.loads(V3_ARCHIVE.read_text())


def v4_payload():
    return json.loads(V4_ARCHIVE.read_text())


def assert_single_precision_copy(loaded, archive):
    """Same times, and every state exactly the rounded, renormalised original."""
    assert np.array_equal(loaded.initial_state, single_precision(archive.initial_state))
    for a, b in zip(loaded.samples, archive.samples, strict=True):
        assert a.time == b.time
        assert np.array_equal(a.state, single_precision(b.state))
        assert np.max(np.abs(a.state - b.state)) <= CARRIER_NORM_TOL


def assert_resaved_as_version_5(path, tmp_path):
    archive = load_archive(path)
    save_archive(archive, tmp_path / "v5.json")
    assert json.loads((tmp_path / "v5.json").read_text())["version"] == 5
    assert_single_precision_copy(load_archive(tmp_path / "v5.json"), archive)


def replace_padding(text):
    """Same length, but the last group is all padding, so it decodes to fewer bytes."""
    return text[:-4] + "===="


BAD_AMPLITUDES = {"nan": [math.nan, 0.0, 0.0, 0.0], "inf": [math.inf, 0.0, 0.0, 0.0]}


def bad_amplitudes(bad):
    if bad == "signalling-nan":
        return np.array([0x7FA00000, 0, 0, 0, 0, 0, 0, 0], dtype="<u4").view("<c8")
    return np.array(BAD_AMPLITUDES[bad], dtype="<c8")


class TestLoadArchive:
    def test_round_trip(self, dictionary, tmp_path):
        payload = valid_payload(dictionary, tmp_path)
        archive = load_payload(payload, tmp_path)
        assert archive.node_count == 2
        assert [s.time for s in archive.samples] == payload["times"]

    def test_writes_version_5_with_only_the_states_and_their_times(self, dictionary, tmp_path):
        # no seed fingerprint, t_max or creation time
        payload = valid_payload(dictionary, tmp_path)
        assert payload["version"] == 5
        assert sorted(payload) == ["node_count", "states", "times", "version"]
        assert len(payload["times"]) == 4 and isinstance(payload["states"], str)
        # the 5 states of 4 amplitudes, as complex64 byte planes
        rows = stored_rows(load_payload(payload, tmp_path))
        assert zlib.decompress(base64.b64decode(payload["states"])) == planed_bytes(rows)

    def test_round_trip_equals_the_rounded_renormalised_state(self, dictionary, tmp_path):
        archive = encode_message(FIXTURE_WORDS, dictionary, TrainConfig(seed=3, batch_size=4))
        save_archive(archive, tmp_path / "archive.json")
        assert_single_precision_copy(load_archive(tmp_path / "archive.json"), archive)

    def test_accepts_a_norm_moved_by_rounding_and_renormalises_it(self, dictionary, tmp_path):
        # off by more than NORM_TOL, which the package holds states to, but within CARRIER_NORM_TOL
        rng = np.random.default_rng(0)
        amps = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        amps = (amps * (1 + 5e-8) / np.linalg.norm(amps)).astype("<c8")
        assert NORM_TOL < abs(np.linalg.norm(amps.astype(np.complex128)) - 1) < CARRIER_NORM_TOL
        payload = valid_payload(dictionary, tmp_path)
        rows = stored_rows(load_payload(payload, tmp_path)).astype("<c8")
        rows[3] = amps
        payload["states"] = b64_deflated(planed_bytes(rows))
        state = load_payload(payload, tmp_path).samples[2].state
        assert abs(np.linalg.norm(state) - 1) <= NORM_TOL
        assert np.array_equal(state, single_precision(amps))

    def test_rejects_a_norm_beyond_single_precision(self, dictionary, tmp_path):
        payload = valid_payload(dictionary, tmp_path)
        rows = stored_rows(load_payload(payload, tmp_path))
        rows[1] *= 1 + 1e-3
        payload["states"] = b64_deflated(planed_bytes(rows))
        with pytest.raises(ArchiveFormatError, match="state norm deviates from 1"):
            load_payload(payload, tmp_path)

    @pytest.mark.parametrize("t", [math.inf, math.nan, 0.0, -0.1, "late"])
    def test_rejects_bad_sample_time(self, dictionary, tmp_path, t):
        payload = valid_payload(dictionary, tmp_path)
        payload["times"][1] = t
        with pytest.raises(ArchiveFormatError):
            load_payload(payload, tmp_path)

    @pytest.mark.parametrize(
        "edit",
        [lambda p: p.pop("t_max"), lambda p: p.pop("meta"),
         *(lambda p, v=v: p.__setitem__("t_max", v)
           for v in (math.inf, math.nan, -0.5, 1, True, "0.5", 10**400, None)),
         # below the sample times it once bounded
         lambda p: p.__setitem__("t_max", min(p["times"]) / 2),
         lambda p: p.__setitem__("meta", {"created": 7})],
        ids=["no-t-max", "no-meta", "inf-t-max", "nan-t-max", "negative-t-max", "int-t-max",
             "bool-t-max", "str-t-max", "huge-t-max", "null-t-max", "low-t-max", "int-created"],
    )
    def test_ignores_the_t_max_and_meta_of_version_4(self, tmp_path, edit):
        payload = v4_payload()
        edit(payload)
        archive = load_payload(payload, tmp_path)
        assert [s.time for s in archive.samples] == v4_payload()["times"]
        assert np.array_equal(stored_rows(archive), stored_rows(load_archive(V4_ARCHIVE)))

    @pytest.mark.parametrize("node_count", [0, -3, MAX_QUBITS + 1, 10**9])
    def test_rejects_node_count_outside_the_register_limit(self, dictionary, tmp_path, node_count):
        payload = valid_payload(dictionary, tmp_path)
        payload["node_count"] = node_count
        # the message, not the path (tmp_path holds the test name), must name the field
        with pytest.raises(ArchiveFormatError, match="node_count must lie in"):
            load_payload(payload, tmp_path)

    def test_rejects_empty_samples(self, dictionary, tmp_path):
        payload = valid_payload(dictionary, tmp_path)
        payload["times"] = []
        with pytest.raises(ArchiveFormatError, match="samples is empty"):
            load_payload(payload, tmp_path)
        payload = v3_payload()
        payload["samples"] = []
        with pytest.raises(ArchiveFormatError, match="samples is empty"):
            load_payload(payload, tmp_path)

    @pytest.mark.parametrize(
        "edit, match",
        [
            (lambda p: p.pop("samples"), "malformed archive"),
            (lambda p: p.__setitem__("version", 6), "unsupported archive version 6"),
            (lambda p: p.__setitem__("initial", p["initial"][:-1]), "base64 string of 44 characters"),
            (lambda p: p.__setitem__("initial", "*" + p["initial"][1:]), "not valid base64"),
            (lambda p: p["samples"][0].__setitem__("state", [[0.5, 0.0]] * 4),
             "base64 string of 44 characters"),
            (lambda p: p.__setitem__("initial", replace_padding(p["initial"])), "wrong shape"),
            (lambda p: p["samples"][0].__setitem__("state", b64_state([2.0, 0.0, 0.0, 0.0])),
             "state norm deviates from 1"),
            (lambda p: p["samples"][0].__setitem__("state", b64_state([0.5] * 4, "<c16")),
             "base64 string of 44 characters"),
        ],
        ids=["missing-samples", "wrong-version", "short-initial", "non-base64-initial",
             "list-state", "padding-only-group", "unnormalized-state", "version-2-string"],
    )
    def test_rejects_malformed_fields(self, tmp_path, edit, match):
        # the per-state fields of version 3
        payload = v3_payload()
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
            (lambda p: p["times"].__setitem__(0, str(p["times"][0])),
             "sample time t must be a JSON number, got '0."),
            (lambda p: p["times"].__setitem__(0, True),
             "sample time t must be a JSON number, got True"),
            # a JSON integer too large for a float
            (lambda p: p["times"].__setitem__(0, 10**400), "malformed archive: int too large"),
        ],
        ids=["bool-version", "float-node-count", "str-node-count", "bool-node-count",
             "str-t", "bool-t", "huge-t"],
    )
    def test_rejects_header_values_of_the_wrong_json_type(self, dictionary, tmp_path, edit, match):
        payload = valid_payload(dictionary, tmp_path)
        edit(payload)
        with pytest.raises(ArchiveFormatError, match=re.escape(match)):
            load_payload(payload, tmp_path)

    def test_accepts_an_integer_sample_time(self, dictionary, tmp_path):
        payload = valid_payload(dictionary, tmp_path)
        payload["times"][0] = 1
        time = load_payload(payload, tmp_path).samples[0].time
        assert time == 1.0 and isinstance(time, float)

    @pytest.mark.parametrize("bad", sorted(BAD_AMPLITUDES) + ["signalling-nan"])
    def test_rejects_non_finite_amplitudes_in_version_3(self, tmp_path, bad):
        payload = v3_payload()
        payload["samples"][1]["state"] = b64_state(bad_amplitudes(bad))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ArchiveFormatError, match="state norm deviates from 1"):
                load_payload(payload, tmp_path)

    @pytest.mark.parametrize("bad", sorted(BAD_AMPLITUDES))
    def test_rejects_non_finite_amplitudes_in_version_2(self, tmp_path, bad):
        payload = v2_payload()
        payload["samples"][1]["state"] = b64_state(BAD_AMPLITUDES[bad], "<c16")
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

    def test_rejects_an_archive_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"version": 4, "meta": {"created": "\xe9t\xe9"}}')
        with pytest.raises(ArchiveFormatError, match=f"^{re.escape(str(path))}: not UTF-8"):
            load_archive(path)

    def test_rejects_deeply_nested_json(self, tmp_path):
        # the parser's RecursionError becomes a format error
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        with pytest.raises(ArchiveFormatError, match="nested too deeply"):
            load_archive(path)

    @pytest.mark.parametrize("version", [1, 2, 3, 4, 5])
    def test_states_are_read_only(self, version):
        archive = load_archive(Path(__file__).parent / "data" / f"archive_v{version}.json")
        for state in [archive.initial_state] + [s.state for s in archive.samples]:
            with pytest.raises(ValueError):
                state[0] = 0.5


def record_inflation(monkeypatch):
    """Make zlib.decompressobj, as qgrnn.hiding calls it, record (max_length, bytes out) per call."""
    calls, real = [], zlib.decompressobj

    class Inflater:
        def __init__(self):
            self.inner = real()

        def decompress(self, data, max_length=0):
            out = self.inner.decompress(data, max_length)
            calls.append((max_length, len(out)))
            return out

        def __getattr__(self, name):
            return getattr(self.inner, name)

    monkeypatch.setattr(hiding.zlib, "decompressobj", Inflater)
    return calls


class TestVersion4Input:
    """Untrusted ``states`` and ``times`` of tests/data/archive_v4.json: n = 2 and 4 samples, so 8 * 5 * 4 = 160 bytes.

    Version 5 stores them as version 4 does, and is read by the same code.
    """

    EXPECTED = 160

    @pytest.mark.parametrize(
        "edit, match",
        [
            # far shorter than a third of what it claims to inflate to
            (lambda p, raw: p.__setitem__("states", b64_deflated(bytes(10 * len(raw)))),
             "must be 54 to 232 base64 characters"),
            # every byte inflates, but the checksum is cut short
            (lambda p, raw: p.__setitem__(
                "states", base64.b64encode(zlib.compress(raw)[:-2]).decode("ascii")),
             "do not inflate to exactly 5 states"),
            (lambda p, raw: p.__setitem__(
                "states", base64.b64encode(zlib.compress(raw) + b"\0").decode("ascii")),
             "do not inflate to exactly 5 states"),
            (lambda p, raw: p.__setitem__(
                "states", base64.b64encode(zlib.compress(raw)[:-4] + b"\0\0\0\0").decode("ascii")),
             "not valid deflated base64"),
            (lambda p, raw: p.__setitem__("states", base64.b64encode(raw).decode("ascii")),
             "not valid deflated base64"),
            (lambda p, raw: p.__setitem__("states", "*" + p["states"][1:]),
             "not valid deflated base64"),
            (lambda p, raw: p["times"].append(0.5), "do not inflate to exactly 6 states"),
            # five half-zero rows deflate to within the bounds for four
            (lambda p, raw: (p["times"].pop(), p.__setitem__(
                "states", b64_deflated(planed_bytes(random_rows(nonzero=2))))),
             "do not inflate to exactly 4 states"),
            (lambda p, raw: p["times"].pop(), "must be 43 to 188 base64 characters"),
            (lambda p, raw: p.__setitem__("states", b64_deflated(planed_bytes(
                [*random_rows(4), [math.nan, 0, 0, 0]]))),
             "state norm deviates from 1"),
            (lambda p, raw: p.__setitem__("states", b64_deflated(planed_bytes(2 * random_rows()))),
             "state norm deviates from 1"),
        ],
        ids=["zlib-bomb", "truncated", "trailing-byte", "bad-checksum", "not-deflated",
             "non-base64", "one-time-more", "one-time-fewer", "one-time-fewer-over-bound",
             "nan-row", "bad-norm"],
    )
    def test_rejects_within_the_expected_bytes(self, tmp_path, monkeypatch, edit, match):
        payload = v4_payload()
        raw = planed_bytes(stored_rows(load_payload(payload, tmp_path)))
        assert len(raw) == self.EXPECTED
        edit(payload, raw)
        calls = record_inflation(monkeypatch)
        with pytest.raises(ArchiveFormatError, match=match):
            load_payload(payload, tmp_path)
        expected = 8 * (len(payload["times"]) + 1) * 4
        assert all(limit == expected and produced <= expected for limit, produced in calls)

    def test_rejects_a_string_outside_the_length_bounds_before_decoding(self, tmp_path,
                                                                          monkeypatch):
        # zlib's compressBound(160) is 173 bytes, whose base64 has 232 characters; 3 * 54 >= 160
        payload = v4_payload()
        decoded = []
        monkeypatch.setattr(hiding.base64, "b64decode", lambda *a, **k: decoded.append(a))
        calls = record_inflation(monkeypatch)
        for states in ("A" * 233, "A" * 52, 7, None):
            payload["states"] = states
            with pytest.raises(ArchiveFormatError, match="must be 54 to 232 base64 characters"):
                load_payload(payload, tmp_path)
        assert decoded == [] and calls == []

    def test_rejects_a_widest_register_bomb_before_decoding(self, tmp_path, monkeypatch):
        """n = MAX_QUBITS and 100,000 times claim 13 GB; 64 MB of zeros deflate to 87 K characters."""
        payload = v4_payload()
        deflater = zlib.compressobj()
        blob = b"".join(deflater.compress(bytes(1 << 20)) for _ in range(64)) + deflater.flush()
        payload.update(node_count=MAX_QUBITS, times=[0.5] * 100_000,
                       states=base64.b64encode(blob).decode("ascii"))
        decoded = []
        monkeypatch.setattr(hiding.base64, "b64decode", lambda *a, **k: decoded.append(a))
        calls = record_inflation(monkeypatch)
        with pytest.raises(ArchiveFormatError, match="must be 4369110358 to "):
            load_payload(payload, tmp_path)
        assert decoded == [] and calls == []

    def test_accepts_an_incompressible_string_at_the_bound(self, tmp_path):
        # stored blocks: random bytes do not deflate, so zlib's output is near its bound
        payload = v4_payload()
        rng = np.random.default_rng(0)
        rows = rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        payload["states"] = b64_deflated(planed_bytes(rows))
        assert len(payload["states"]) <= 232
        loaded = stored_rows(load_payload(payload, tmp_path))
        assert all(np.array_equal(a, single_precision(b)) for a, b in zip(loaded, rows))

    @pytest.mark.parametrize("bad", sorted(BAD_AMPLITUDES) + ["signalling-nan"])
    def test_rejects_non_finite_amplitudes_in_version_4(self, tmp_path, bad):
        payload = v4_payload()
        rows = stored_rows(load_payload(payload, tmp_path)).astype("<c8")
        rows[2] = bad_amplitudes(bad)
        payload["states"] = b64_deflated(planed_bytes(rows))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ArchiveFormatError, match="state norm deviates from 1"):
                load_payload(payload, tmp_path)


@pytest.mark.parametrize("seed", range(12))
def test_random_messages_load_as_their_single_precision_copy(dictionary, tmp_path, seed):
    """save -> load returns every state rounded to complex64 and renormalised, as version 3 did."""
    rng = np.random.default_rng(seed)
    words = [WORDS[i] for i in rng.integers(0, len(WORDS), rng.integers(2, 9))]
    config = TrainConfig(seed=int(rng.integers(10**6)), batch_size=int(rng.integers(1, 16)),
                         t_max=float(rng.uniform(0.1, 1.0)))
    archive = encode_message(words, dictionary, config)
    save_archive(archive, tmp_path / "v5.json")
    loaded = load_archive(tmp_path / "v5.json")
    assert_single_precision_copy(loaded, archive)
    (tmp_path / "v3.json").write_text(json.dumps(as_version_3(archive)))
    assert np.array_equal(stored_rows(loaded), stored_rows(load_archive(tmp_path / "v3.json")))


class TestVersion1Archive:
    """tests/data/archive_v1.json: n = 2, batch_size 4, written by the version-1 save_archive."""

    def test_amplitudes_equal_the_decimal_pairs(self):
        payload = json.loads(V1_ARCHIVE.read_text())
        archive = load_archive(V1_ARCHIVE)
        assert payload["version"] == 1 and archive.node_count == 2
        states = [archive.initial_state] + [s.state for s in archive.samples]
        pairs = [payload["initial"]] + [s["state"] for s in payload["samples"]]
        assert len(states) == 5
        for state, rows in zip(states, pairs):
            rows = np.array(rows)
            assert np.array_equal(state.real, rows[:, 0])
            assert np.array_equal(state.imag, rows[:, 1])
        assert [s.time for s in archive.samples] == [s["t"] for s in payload["samples"]]

    def test_resaved_as_version_5_round_trips_to_single_precision(self, tmp_path):
        assert_resaved_as_version_5(V1_ARCHIVE, tmp_path)


class TestVersion2Archive:
    """tests/data/archive_v2.json: n = 2, batch_size 4, written by the version-2 save_archive."""

    def test_amplitudes_equal_the_complex128_bytes(self):
        payload = v2_payload()
        archive = load_archive(V2_ARCHIVE)
        assert payload["version"] == 2 and archive.node_count == 2
        states = [archive.initial_state] + [s.state for s in archive.samples]
        strings = [payload["initial"]] + [s["state"] for s in payload["samples"]]
        assert len(states) == 5
        for state, text in zip(states, strings):
            assert np.array_equal(state, np.frombuffer(base64.b64decode(text), "<c16"))
        assert [s.time for s in archive.samples] == [s["t"] for s in payload["samples"]]

    @pytest.mark.parametrize(
        "edit, match",
        [
            (lambda p: p.__setitem__("initial", p["initial"][:-1]), "base64 string of 88 characters"),
            (lambda p: p["samples"][0].__setitem__("state", [[0.5, 0.0]] * 4),
             "base64 string of 88 characters"),
            (lambda p: p["samples"][0].__setitem__("state", b64_state([0.5] * 4)),
             "base64 string of 88 characters"),
            (lambda p: p.__setitem__("initial", replace_padding(p["initial"])), "wrong shape"),
            (lambda p: p["samples"][0].__setitem__("state", b64_state([2.0, 0, 0, 0], "<c16")),
             "state norm deviates from 1"),
            # within the version-3 tolerance, but version 2 keeps NORM_TOL
            (lambda p: p["samples"][0].__setitem__("state", b64_state([1 + 1e-8, 0, 0, 0], "<c16")),
             "state norm deviates from 1"),
        ],
        ids=["short-initial", "list-state", "version-3-string", "padding-only-group",
             "unnormalized-state", "norm-beyond-norm-tol"],
    )
    def test_rejects_malformed_states(self, tmp_path, edit, match):
        assert encoded_state_length(2, version=2) == 88
        payload = v2_payload()
        edit(payload)
        with pytest.raises(ArchiveFormatError, match=match):
            load_payload(payload, tmp_path)

    def test_resaved_as_version_5_round_trips_to_single_precision(self, tmp_path):
        assert_resaved_as_version_5(V2_ARCHIVE, tmp_path)


class TestVersion3Archive:
    """tests/data/archive_v3.json: n = 2, batch_size 4, written by the version-3 save_archive."""

    def test_amplitudes_equal_the_renormalised_complex64_bytes(self):
        payload = v3_payload()
        archive = load_archive(V3_ARCHIVE)
        assert payload["version"] == 3 and archive.node_count == 2
        strings = [payload["initial"]] + [s["state"] for s in payload["samples"]]
        rows = stored_rows(archive)
        assert len(rows) == 5
        for amps, text in zip(rows, strings):
            assert np.array_equal(amps, single_precision(np.frombuffer(base64.b64decode(text), "<c8")))
        assert [s.time for s in archive.samples] == [s["t"] for s in payload["samples"]]

    def test_resaved_as_version_5_round_trips_to_single_precision(self, tmp_path):
        assert_resaved_as_version_5(V3_ARCHIVE, tmp_path)


class TestVersion4Archive:
    """tests/data/archive_v4.json: n = 2, batch_size 4, written by the version-4 save_archive."""

    def test_amplitudes_equal_the_renormalised_complex64_planes(self):
        payload = json.loads(V4_ARCHIVE.read_text())
        archive = load_archive(V4_ARCHIVE)
        assert payload["version"] == 4 and archive.node_count == 2
        # the t_max and creation time version 4 also stored, which are ignored
        assert payload["t_max"] == 0.5 and payload["meta"] == {"created": "fixed"}
        planes = np.frombuffer(zlib.decompress(base64.b64decode(payload["states"])), np.uint8)
        amplitudes = np.frombuffer(planes.reshape(4, -1).T.tobytes(), "<c8").reshape(5, 4)
        assert np.array_equal(planed_bytes(amplitudes), planes.tobytes())
        rows = stored_rows(archive)
        assert len(rows) == 5
        for amps, stored in zip(rows, amplitudes):
            assert np.array_equal(amps, single_precision(stored))
        assert [s.time for s in archive.samples] == payload["times"]

    def test_holds_the_states_of_the_version_3_fixture(self):
        # both fixtures carry the same message and seed, and both store complex64
        assert np.array_equal(stored_rows(load_archive(V4_ARCHIVE)), stored_rows(load_archive(V3_ARCHIVE)))

    def test_resaved_is_the_version_5_fixture(self, tmp_path):
        # both fixtures carry the same message and seed, and store the times and states alike
        save_archive(load_archive(V4_ARCHIVE), tmp_path / "v5.json")
        assert (tmp_path / "v5.json").read_bytes() == V5_ARCHIVE.read_bytes()


class TestVersion5Archive:
    """tests/data/archive_v5.json: n = 2, batch_size 4, written by the version-5 save_archive.

    It holds random sample times, as hide drew them before they became
    Chebyshev points; tests/data/archive_v5_chebyshev.json is what hide
    writes now.
    """

    def test_holds_only_the_states_and_their_times(self):
        payload = json.loads(V5_ARCHIVE.read_text())
        assert sorted(payload) == ["node_count", "states", "times", "version"]
        assert payload["version"] == 5 and payload["node_count"] == 2

    def test_is_what_hiding_the_message_writes(self, dictionary, tmp_path):
        # every byte follows from the message, the dictionary and the options
        archive = encode_message(FIXTURE_WORDS, dictionary, TrainConfig(seed=3, batch_size=4))
        save_archive(archive, tmp_path / "v5.json")
        assert (tmp_path / "v5.json").read_bytes() == V5_CHEBYSHEV_ARCHIVE.read_bytes()

    def test_times_are_chebyshev_points_and_the_old_fixture_is_not(self):
        new = json.loads(V5_CHEBYSHEV_ARCHIVE.read_text())
        assert sorted(new) == ["node_count", "states", "times", "version"]
        assert new["version"] == 5 and new["node_count"] == 2
        assert new["times"] == draw_times(4, 0.5).tolist()
        assert json.loads(V5_ARCHIVE.read_text())["times"] != new["times"]

    def test_resaved_is_the_same_file(self, tmp_path):
        save_archive(load_archive(V5_ARCHIVE), tmp_path / "v5.json")
        assert (tmp_path / "v5.json").read_bytes() == V5_ARCHIVE.read_bytes()


@pytest.mark.parametrize("version", [1, 2, 3, 4, 5, "5_chebyshev"])
def test_every_fixture_reveals_its_message(dictionary, version):
    archive = load_archive(Path(__file__).parent / "data" / f"archive_v{version}.json")
    result = reveal_message(archive, dictionary, TrainConfig(seed=3))
    assert result.words == FIXTURE_WORDS and result.attempts == 1


def test_archive_size_stays_binary(dictionary, tmp_path):
    """One n = 8 message with B = 15 samples fits 7/8 of (B + 1) version-3 states plus 1 KB of JSON.

    The byte planes let deflate shrink the sign-and-exponent bytes, a
    quarter of all bytes, to at most half; version 3 stored them whole and
    fails this bound, and version 2's complex128 strings were twice as long.
    """
    words = ["alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel"]
    config = TrainConfig(seed=5, batch_size=15)
    path = tmp_path / "archive.json"
    save_archive(encode_message(words, dictionary, config), path)
    limit = (config.batch_size + 1) * encoded_state_length(len(words)) * 7 // 8 + 1024
    assert encoded_state_length(8) == 4 * math.ceil(8 * 2**8 / 3) == 2732
    assert path.stat().st_size <= limit
