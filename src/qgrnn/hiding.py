"""Information hiding in graph dynamics.

Encoding maps each word of a message to a code value from a shared
dictionary, embeds the values as node weights of a graph, evolves a random
initial state under the graph Hamiltonian, and keeps only the initial and
time-evolved states. The graph itself is discarded; retrieval must relearn
the node weights from the states and snap them back to dictionary values.
"""
from __future__ import annotations

import base64
import binascii
import json
import math
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .ising import TimeEvolvedSample
from .pipeline import MAX_QUBITS, embed_and_sample, learn_from_states
from .statevector import NORM_TOL, StateVector
from .training import TrainConfig, TrainResult

ARCHIVE_VERSION = 3
# Version 1 stored each amplitude as a [re, im] pair of decimal floats and
# version 2 as complex128. Both are still read: an old file is the only copy
# of its hidden message.
READABLE_VERSIONS = (1, 2, ARCHIVE_VERSION)
# the amplitude type of each base64 version
AMPLITUDE_DTYPES = {2: np.dtype("<c16"), 3: np.dtype("<c8")}
# Rounding to complex64 moves a unit norm by at most the unit roundoff 2^-24;
# eps = 2^-23 leaves a factor of 2 to spare.
CARRIER_NORM_TOL = float(np.finfo(np.float32).eps)
DICTIONARY_LO = -4.0
DICTIONARY_HI = 5.0


class ArchiveFormatError(ValueError):
    """Raised when a state archive file is malformed or corrupted."""


@dataclass(frozen=True)
class Dictionary:
    """Ordered words with evenly spaced code values over [lo, hi].

    values[k] = lo + k * spacing with spacing = (hi - lo) / (word_count - 1),
    so the endpoints always carry the first and last word.
    """

    words: tuple[str, ...]
    lo: float
    hi: float
    values: np.ndarray

    @property
    def spacing(self) -> float:
        return (self.hi - self.lo) / (len(self.words) - 1)

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


def build_dictionary(words, lo: float = DICTIONARY_LO, hi: float = DICTIONARY_HI) -> Dictionary:
    words = tuple(words)
    if len(words) < 2:
        raise ValueError("dictionary needs at least 2 words")
    if len(set(words)) != len(words):
        raise ValueError("dictionary words must be unique")
    if hi <= lo:
        raise ValueError(f"require hi > lo, got lo={lo}, hi={hi}")
    return Dictionary(words, lo, hi, np.linspace(lo, hi, len(words)))


def load_dictionary(path) -> Dictionary:
    """One word per line; line order defines the value assignment."""
    lines = [line.strip() for line in Path(path).read_text(encoding="utf-8").splitlines()]
    return build_dictionary([w for w in lines if w])


@dataclass(frozen=True)
class StateArchive:
    """The hiding carrier: initial state plus time-evolved states, nothing else."""

    node_count: int
    initial_state: StateVector
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


def _encode_state(state: StateVector) -> str:
    amplitudes = state.amplitudes.astype(AMPLITUDE_DTYPES[ARCHIVE_VERSION])
    return base64.b64encode(amplitudes.tobytes()).decode("ascii")


def encoded_state_length(node_count: int, version: int = ARCHIVE_VERSION) -> int:
    """Characters in one state string of ``version`` (2 or 3, default 3).

    The base64 of 2^node_count amplitudes as complex64 (version 3) or
    complex128 (version 2).
    """
    return 4 * math.ceil(AMPLITUDE_DTYPES[version].itemsize * (1 << node_count) / 3)


def save_archive(archive: StateArchive, path) -> None:
    """Write the archive as JSON in format version 3.

    Each state (``initial`` and ``samples[i].state``) is one ASCII string:
    the base64 of its 2^node_count amplitudes as little-endian complex64
    bytes. ``load_archive`` returns each state rounded to single precision
    and renormalised; the fit's floor is set by the Trotter model, far above
    that rounding. ``meta`` holds the creation time only.
    """
    payload = {
        "version": ARCHIVE_VERSION,
        "node_count": archive.node_count,
        "t_max": archive.t_max,
        "initial": _encode_state(archive.initial_state),
        "samples": [{"t": s.time, "state": _encode_state(s.state)} for s in archive.samples],
        "meta": {"created": archive.created},
    }
    Path(path).write_text(json.dumps(payload), encoding="utf-8")


def _decode_state(field, version: int, node_count: int, path) -> StateVector:
    if version == 1:
        arr = np.asarray(field, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] != 1 << node_count:
            raise ArchiveFormatError(f"{path}: state array has wrong shape {arr.shape}")
        amps = arr[:, 0] + 1j * arr[:, 1]
    else:
        # the length check bounds the decoding work by MAX_QUBITS
        length = encoded_state_length(node_count, version)
        if not isinstance(field, str) or len(field) != length:
            raise ArchiveFormatError(
                f"{path}: state must be a base64 string of {length} characters "
                f"for node_count {node_count}"
            )
        try:
            raw = base64.b64decode(field, validate=True)
        except binascii.Error as exc:
            raise ArchiveFormatError(f"{path}: state is not valid base64: {exc}") from None
        dtype = AMPLITUDE_DTYPES[version]
        if len(raw) != dtype.itemsize << node_count:
            raise ArchiveFormatError(f"{path}: state array has wrong shape ({len(raw)} bytes)")
        # widening a signalling NaN sets the invalid flag; the norm check rejects it
        with np.errstate(invalid="ignore"):
            amps = np.frombuffer(raw, dtype=dtype).astype(np.complex128)
    norm = np.linalg.norm(amps)
    # written so that a NaN or infinite norm fails too
    if not abs(norm - 1.0) <= (CARRIER_NORM_TOL if version == 3 else NORM_TOL):
        raise ArchiveFormatError(f"{path}: state norm deviates from 1")
    if version == 3:
        # StateVector, and everything downstream, holds the norm to NORM_TOL
        amps = amps / norm
    return StateVector(node_count, amps)


def _is_json_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_json_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _sample_from_dict(sample, version: int, node_count: int, t_max: float, path) -> TimeEvolvedSample:
    t = sample["t"]
    if not _is_json_number(t):
        raise ArchiveFormatError(f"{path}: sample time t must be a JSON number, got {t!r}")
    if not (math.isfinite(t) and 0 < t <= t_max):
        raise ArchiveFormatError(f"{path}: sample time t must lie in (0, t_max={t_max}], got {t}")
    return TimeEvolvedSample(float(t), _decode_state(sample["state"], version, node_count, path))


def load_archive(path) -> StateArchive:
    """Read and validate an archive: node_count (up to MAX_QUBITS), shapes, norms, t_max, times.

    ``version`` and ``node_count`` must be JSON integers, and ``t_max`` and
    each sample's ``t`` JSON numbers; a boolean or a string is rejected
    rather than coerced.

    Reads format version 3 (see ``save_archive``), version 2, whose state
    strings hold complex128 amplitudes, and version 1, where each state is a
    list of [re, im] decimal pairs; versions 1 and 2 are never written and
    load bit-exactly. A state string must have exactly the length that
    node_count and the version imply before it is decoded. A version-3 state
    must have unit norm to single precision (``CARRIER_NORM_TOL``) and is
    renormalised; older versions must meet ``NORM_TOL``. A version-1
    ``meta.note`` is ignored.
    """
    path = Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ArchiveFormatError(f"{path}: not valid JSON: {exc}") from None
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
        initial = _decode_state(payload["initial"], version, node_count, path)
        samples = tuple(
            _sample_from_dict(s, version, node_count, t_max, path) for s in payload["samples"]
        )
        if not samples:
            raise ArchiveFormatError(f"{path}: samples is empty")
        created = str(payload["meta"]["created"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        if isinstance(exc, ArchiveFormatError):
            raise
        raise ArchiveFormatError(f"{path}: malformed archive: {exc}") from None
    return StateArchive(node_count, initial, samples, t_max, created)


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
    fallback attempts of ``pipeline.learn_from_states`` draw node parameters
    over the dictionary range unless the config pins its own range, since
    the hidden values span that range.
    """
    if config.node_init_low is None and config.node_init_high is None:
        config = replace(config, node_init_low=dictionary.lo, node_init_high=dictionary.hi)
    result, attempts = learn_from_states(archive.initial_state, list(archive.samples), config)
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
