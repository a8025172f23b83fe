"""Information hiding in graph dynamics.

Encoding maps each word of a message to a code value from a shared
dictionary, embeds the values as node weights of a graph, evolves a random
initial state under the graph Hamiltonian, and keeps only the initial and
time-evolved states. The graph itself is discarded; retrieval must relearn
the node weights from the states and snap them back to dictionary values.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .ising import TimeEvolvedSample
from .pipeline import ACCEPT_COST, DEFAULT_RESTARTS, MAX_QUBITS, embed_and_sample, learn_from_states
from .statevector import StateVector
from .training import TrainConfig, TrainResult

ARCHIVE_VERSION = 1
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

    format_version: int
    node_count: int
    initial_state: StateVector
    samples: tuple[TimeEvolvedSample, ...]
    t_max: float
    created: str
    note: str


def _seed_fingerprint(seed: int) -> str:
    return hashlib.sha256(f"seed:{seed}".encode()).hexdigest()[:16]


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
        format_version=ARCHIVE_VERSION,
        node_count=len(words),
        initial_state=initial,
        samples=tuple(samples),
        t_max=config.t_max,
        created=created or datetime.now(timezone.utc).isoformat(),
        note=f"carrier {_seed_fingerprint(config.seed)}",
    )


def _pairs(amps: np.ndarray) -> list[list[float]]:
    return [[float(a.real), float(a.imag)] for a in amps]


def save_archive(archive: StateArchive, path) -> None:
    payload = {
        "version": archive.format_version,
        "node_count": archive.node_count,
        "t_max": archive.t_max,
        "initial": _pairs(archive.initial_state.amplitudes),
        "samples": [
            {"t": s.time, "state": _pairs(s.state.amplitudes)} for s in archive.samples
        ],
        "meta": {"created": archive.created, "note": archive.note},
    }
    Path(path).write_text(json.dumps(payload), encoding="utf-8")


def _state_from_pairs(pairs, node_count: int, path) -> StateVector:
    arr = np.asarray(pairs, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] != 1 << node_count:
        raise ArchiveFormatError(f"{path}: state array has wrong shape {arr.shape}")
    amps = arr[:, 0] + 1j * arr[:, 1]
    if abs(np.linalg.norm(amps) - 1.0) > 1e-9:
        raise ArchiveFormatError(f"{path}: state norm deviates from 1")
    return StateVector(node_count, amps)


def _sample_from_dict(sample, node_count: int, t_max: float, path) -> TimeEvolvedSample:
    t = float(sample["t"])
    if not (math.isfinite(t) and 0 < t <= t_max):
        raise ArchiveFormatError(f"{path}: sample time t must lie in (0, t_max={t_max}], got {t}")
    return TimeEvolvedSample(t, _state_from_pairs(sample["state"], node_count, path))


def load_archive(path) -> StateArchive:
    """Read and validate an archive: node_count (up to MAX_QUBITS), shapes, norms, t_max, times."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ArchiveFormatError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(payload, dict) or payload.get("version") != ARCHIVE_VERSION:
        raise ArchiveFormatError(
            f"{path}: unsupported archive version {payload.get('version')!r}"
        )
    try:
        node_count = int(payload["node_count"])
        if not 1 <= node_count <= MAX_QUBITS:
            raise ArchiveFormatError(
                f"{path}: node_count must lie in [1, {MAX_QUBITS}], got {node_count}"
            )
        t_max = float(payload["t_max"])
        if not (math.isfinite(t_max) and t_max > 0):
            raise ArchiveFormatError(f"{path}: t_max must be finite and > 0, got {t_max}")
        initial = _state_from_pairs(payload["initial"], node_count, path)
        samples = tuple(_sample_from_dict(s, node_count, t_max, path) for s in payload["samples"])
        if not samples:
            raise ArchiveFormatError(f"{path}: samples is empty")
        meta = payload["meta"]
        created, note = str(meta["created"]), str(meta["note"])
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ArchiveFormatError):
            raise
        raise ArchiveFormatError(f"{path}: malformed archive: {exc}") from None
    return StateArchive(ARCHIVE_VERSION, node_count, initial, samples, t_max, created, note)


@dataclass(frozen=True)
class RevealResult:
    words: tuple[str, ...]
    learned_values: np.ndarray
    snap_distances: np.ndarray
    train_result: TrainResult
    attempts: int


def reveal_message(
    archive: StateArchive,
    dictionary: Dictionary,
    config: TrainConfig,
    restarts: int = DEFAULT_RESTARTS,
    accept_cost: float = ACCEPT_COST,
) -> RevealResult:
    """Relearn the node weights from the archived states and snap them to words.

    Training starts from the linear inversion of the archived states. The
    fallback restarts, run only when that attempt misses ``accept_cost``,
    draw node parameters over the dictionary range unless the config pins
    its own range, since the hidden values span that range.
    """
    if config.node_init_low is None and config.node_init_high is None:
        config = replace(config, node_init_low=dictionary.lo, node_init_high=dictionary.hi)
    result, attempts = learn_from_states(
        archive.initial_state, list(archive.samples), config, restarts, accept_cost
    )
    learned = result.learned_params.node_params
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
