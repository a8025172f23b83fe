"""Information hiding in graph dynamics.

Encoding maps each word of a message to a code value from a shared
dictionary, embeds the values as node weights of a graph, evolves a random
initial state under the graph Hamiltonian, and keeps only the initial and
time-evolved states, deflated at single precision (``save_archive``). The
graph itself is discarded; retrieval must relearn the node weights from the
states and snap them back to dictionary values.
"""
from __future__ import annotations

import base64
import binascii
import json
import math
import zlib
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .ising import TimeEvolvedSample
from .pipeline import MAX_QUBITS, embed_and_sample, learn_from_states
from .statevector import NORM_TOL
from .training import TrainConfig, TrainResult

ARCHIVE_VERSION = 4
# Versions 1 to 3 stored one field per state: [re, im] pairs of decimal
# floats (1), base64 complex128 (2) or base64 complex64 (3). All are still
# read: an old file is the only copy of its hidden message.
READABLE_VERSIONS = (1, 2, 3, ARCHIVE_VERSION)
# the amplitude type of each version; version 1's [re, im] float64 pairs are complex128
AMPLITUDE_DTYPES = {1: np.dtype("<c16"), 2: np.dtype("<c16"), 3: np.dtype("<c8"), 4: np.dtype("<c8")}
# Rounding to complex64 moves a unit norm by at most the unit roundoff 2^-24;
# eps = 2^-23 leaves a factor of 2 to spare.
CARRIER_NORM_TOL = float(np.finfo(np.float32).eps)
DICTIONARY_LO = -4.0
DICTIONARY_HI = 5.0


class ArchiveFormatError(ValueError):
    """Raised when a state archive file is malformed or corrupted."""


@dataclass(frozen=True)
class Dictionary:
    """Ordered words with evenly spaced code values over [DICTIONARY_LO, DICTIONARY_HI].

    values[k] = DICTIONARY_LO + k * spacing with spacing =
    (DICTIONARY_HI - DICTIONARY_LO) / (word_count - 1), so the endpoints
    always carry the first and last word.
    """

    words: tuple[str, ...]
    values: np.ndarray

    @property
    def spacing(self) -> float:
        return (DICTIONARY_HI - DICTIONARY_LO) / (len(self.words) - 1)

    def value_of(self, word: str) -> float:
        try:
            return float(self.values[self.words.index(word)])
        except ValueError:
            raise KeyError(f"word not in dictionary: {word!r}") from None

    def snap(self, value: float) -> tuple[int, float]:
        """Index of the nearest code value and the distance to it; ties take the lower value."""
        distances = np.abs(self.values - value)
        idx = int(np.argmin(distances))
        return idx, float(distances[idx])


def build_dictionary(words) -> Dictionary:
    """The words in order, with code values spread evenly over [DICTIONARY_LO, DICTIONARY_HI]."""
    words = tuple(words)
    if len(words) < 2:
        raise ValueError("dictionary needs at least 2 words")
    seen = set()
    for word in words:
        if word in seen:
            raise ValueError(f"dictionary words must be unique, {word!r} repeats")
        seen.add(word)
    values = np.linspace(DICTIONARY_LO, DICTIONARY_HI, len(words))
    return Dictionary(words, values)


def load_dictionary(path) -> Dictionary:
    """One word per line; line order defines the value assignment. Errors name the file."""
    try:
        lines = [line.strip() for line in Path(path).read_text(encoding="utf-8").splitlines()]
        return build_dictionary([w for w in lines if w])
    except ValueError as exc:  # not UTF-8, or not a dictionary
        raise ValueError(f"{path}: {exc}") from None


@dataclass(frozen=True)
class StateArchive:
    """The hiding carrier: initial state plus time-evolved states, nothing else."""

    node_count: int
    # 2^node_count amplitudes; load_archive returns every state as a row of one read-only array
    initial_state: np.ndarray
    samples: tuple[TimeEvolvedSample, ...]
    t_max: float
    created: str


def encode_message(
    message,
    dictionary: Dictionary,
    config: TrainConfig,
    created: str | None = None,
) -> StateArchive:
    """Embed a message as node weights and return the archive of evolved states.

    The embedding graph exists only inside this call. Unknown words raise
    KeyError naming the word; messages need at least two words so the graph
    has edges.
    """
    words = tuple(message)
    if len(words) < 2:
        raise ValueError("message must contain at least 2 words")
    values = np.array([dictionary.value_of(w) for w in words])
    _, initial, samples = embed_and_sample(values, config)
    return StateArchive(
        node_count=len(words),
        initial_state=initial,
        samples=tuple(samples),
        t_max=config.t_max,
        created=created or datetime.now(timezone.utc).isoformat(),
    )


def encoded_state_length(node_count: int, version: int = 3) -> int:
    """Base64 characters of one version-2 (complex128) or version-3 (complex64) state string."""
    return 4 * math.ceil(AMPLITUDE_DTYPES[version].itemsize * (1 << node_count) / 3)


def save_archive(archive: StateArchive, path) -> None:
    """Write the archive as JSON in format version 4.

    ``times`` lists the sample times. ``states`` is one ASCII string: the
    initial state, then each sample's, as 2^node_count little-endian complex64
    amplitudes whose float32 bytes are split into planes (every byte 0, then
    every byte 1, ...), deflated by ``zlib.compress`` and base64-encoded.
    ``load_archive`` returns each state rounded to single precision and
    renormalised, far below the Trotter model's error; it refuses states that
    deflate below a quarter of their bytes, as random ones never do, but basis
    states would. ``meta`` holds the creation time only.
    """
    rows = np.array([archive.initial_state, *(s.state for s in archive.samples)])
    planes = rows.astype(AMPLITUDE_DTYPES[ARCHIVE_VERSION]).view(np.uint8).reshape(-1, 4).T
    payload = {
        "version": ARCHIVE_VERSION,
        "node_count": archive.node_count,
        "t_max": archive.t_max,
        "times": [s.time for s in archive.samples],
        "states": base64.b64encode(zlib.compress(planes.tobytes())).decode("ascii"),
        "meta": {"created": archive.created},
    }
    Path(path).write_text(json.dumps(payload), encoding="utf-8")


def _inflate_states(field, rows: int, node_count: int, path) -> bytes:
    expected = AMPLITUDE_DTYPES[ARCHIVE_VERSION].itemsize * rows << node_count
    # At most base64 of zlib's compressBound(expected); at least a third of expected, which random
    # mantissa bytes never deflate below: the work grows with the file, not with what it claims.
    shortest = -(-expected // 3)
    longest = 4 * math.ceil((expected + (expected >> 12) + (expected >> 14) + (expected >> 25) + 13) / 3)
    if not isinstance(field, str) or not shortest <= len(field) <= longest:
        raise ArchiveFormatError(f"{path}: states must be {shortest} to {longest} base64 characters")
    inflater = zlib.decompressobj()
    try:
        raw = inflater.decompress(base64.b64decode(field, validate=True), expected)
    except (binascii.Error, zlib.error) as exc:
        raise ArchiveFormatError(f"{path}: states are not valid deflated base64: {exc}") from None
    if len(raw) != expected or not inflater.eof or inflater.unconsumed_tail or inflater.unused_data:
        raise ArchiveFormatError(f"{path}: states do not inflate to exactly {rows} states")
    return np.frombuffer(raw, np.uint8).reshape(4, -1).T.tobytes()


def _state_bytes(field, version: int, node_count: int, path) -> bytes:
    if version == 1:
        arr = np.asarray(field, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] != 1 << node_count:
            raise ArchiveFormatError(f"{path}: state array has wrong shape {arr.shape}")
        return arr.tobytes()  # each [re, im] pair of float64 is one complex128
    # the length check bounds the decoding work by MAX_QUBITS
    length = encoded_state_length(node_count, version)
    if not isinstance(field, str) or len(field) != length:
        raise ArchiveFormatError(f"{path}: state must be a base64 string of {length} characters "
                                 f"for node_count {node_count}")
    try:
        raw = base64.b64decode(field, validate=True)
    except binascii.Error as exc:
        raise ArchiveFormatError(f"{path}: state is not valid base64: {exc}") from None
    if len(raw) != AMPLITUDE_DTYPES[version].itemsize << node_count:
        raise ArchiveFormatError(f"{path}: state array has wrong shape ({len(raw)} bytes)")
    return raw


def _is_json_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_json_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _checked_time(t, t_max: float, path) -> float:
    if not _is_json_number(t):
        raise ArchiveFormatError(f"{path}: sample time t must be a JSON number, got {t!r}")
    if not (math.isfinite(t) and 0 < t <= t_max):
        raise ArchiveFormatError(f"{path}: sample time t must lie in (0, t_max={t_max}], got {t}")
    return float(t)


def load_archive(path) -> StateArchive:
    """Read and validate an archive: node_count (up to MAX_QUBITS), shapes, norms, t_max, times.

    ``version`` and ``node_count`` must be JSON integers, and ``t_max`` and
    each sample time JSON numbers; a boolean or a string is rejected
    rather than coerced.

    Reads format version 4 (see ``save_archive``) and versions 1 to 3, with
    one field per state: [re, im] decimal pairs (1) or base64 complex128 (2)
    or complex64 (3); versions 1 and 2 load bit-exactly. Before decoding, a
    version-2 or -3 state string must have the length node_count implies, and
    version 4's ``states`` at least a third of, and at most the base64 of zlib's
    worst case for, the 8 * (len(times) + 1) * 2^node_count bytes it must
    inflate to exactly, where inflation stops. A version-3 or -4 state must have unit norm to single
    precision (``CARRIER_NORM_TOL``) and is renormalised; older versions must
    meet ``NORM_TOL``. A version-1 ``meta.note`` is ignored.
    """
    path = Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ArchiveFormatError(f"{path}: not valid JSON: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ArchiveFormatError(f"{path}: not UTF-8: {exc}") from None
    except RecursionError:
        raise ArchiveFormatError(f"{path}: JSON nested too deeply") from None
    version = payload.get("version") if isinstance(payload, dict) else None
    if not _is_json_int(version) or version not in READABLE_VERSIONS:
        raise ArchiveFormatError(f"{path}: unsupported archive version {version!r}")
    try:
        node_count = payload["node_count"]
        if not _is_json_int(node_count):
            raise ArchiveFormatError(
                f"{path}: node_count must be a JSON integer, got {node_count!r}"
            )
        if not 1 <= node_count <= MAX_QUBITS:
            raise ArchiveFormatError(
                f"{path}: node_count must lie in [1, {MAX_QUBITS}], got {node_count}"
            )
        t_max = payload["t_max"]
        if not _is_json_number(t_max):
            raise ArchiveFormatError(f"{path}: t_max must be a JSON number, got {t_max!r}")
        t_max = float(t_max)
        if not (math.isfinite(t_max) and t_max > 0):
            raise ArchiveFormatError(f"{path}: t_max must be finite and > 0, got {t_max}")
        entries = None if version == ARCHIVE_VERSION else payload["samples"]
        times = payload["times"] if entries is None else [s["t"] for s in entries]
        times = [_checked_time(t, t_max, path) for t in times]
        if not times:
            raise ArchiveFormatError(f"{path}: samples is empty")
        if entries is None:
            raw = _inflate_states(payload["states"], len(times) + 1, node_count, path)
        else:
            fields = [payload["initial"], *(s["state"] for s in entries)]
            raw = b"".join(_state_bytes(f, version, node_count, path) for f in fields)
        # one path for every version: widening a signalling NaN sets the invalid
        # flag, and the norm check, written to fail on a NaN or inf norm, rejects it
        with np.errstate(invalid="ignore"):
            rows = np.frombuffer(raw, AMPLITUDE_DTYPES[version]).astype(np.complex128).reshape(-1, 1 << node_count)
        norms = [np.linalg.norm(amps) for amps in rows]
        if not all(abs(norm - 1.0) <= (CARRIER_NORM_TOL if version >= 3 else NORM_TOL) for norm in norms):
            raise ArchiveFormatError(f"{path}: state norm deviates from 1")
        # everything downstream holds the norm to NORM_TOL
        if version >= 3:
            rows = np.array([amps / norm for amps, norm in zip(rows, norms)])
        rows.setflags(write=False)
        samples = tuple(map(TimeEvolvedSample, times, rows[1:]))
        created = str(payload["meta"]["created"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        if isinstance(exc, ArchiveFormatError):
            raise
        raise ArchiveFormatError(f"{path}: malformed archive: {exc}") from None
    return StateArchive(node_count, rows[0], samples, t_max, created)


@dataclass(frozen=True)
class RevealResult:
    words: tuple[str, ...]
    learned_values: np.ndarray
    snap_distances: np.ndarray
    train_result: TrainResult
    attempts: int


def reveal_message(archive: StateArchive, dictionary: Dictionary, config: TrainConfig) -> RevealResult:
    """Relearn the node weights from the archived states and snap them to words.

    Training starts from the linear inversion of the archived states. The
    fallback attempts of ``pipeline.learn_from_states`` draw the node
    weights over the dictionary's range, which the hidden values span.
    """
    result, attempts = learn_from_states(
        archive.initial_state, list(archive.samples), config, (DICTIONARY_LO, DICTIONARY_HI)
    )
    learned = result.learned_params[-archive.node_count :]
    snapped = [dictionary.snap(v) for v in learned]
    return RevealResult(
        words=tuple(dictionary.words[idx] for idx, _ in snapped),
        learned_values=learned,
        snap_distances=np.array([dist for _, dist in snapped]),
        train_result=result,
        attempts=attempts,
    )


def retrieval_accuracy(true_message, retrieved) -> float:
    """Positionwise word-match percentage."""
    a, b = list(true_message), list(retrieved)
    if len(a) != len(b):
        raise ValueError(f"message lengths differ: {len(a)} vs {len(b)}")
    return 100.0 * sum(x == y for x, y in zip(a, b)) / len(a)
