"""Gate sets for the sample-time design: every Iris row, and seeded random messages.

    python3 experiments/sample_times.py --iris-seed 0 --messages 40 --generator-seed 20261019 --t-max 0.5,1.0
    python3 experiments/sample_times.py --rows 0 --messages 20 --generator-seed 20261021 --noise 0.01,0.1

Run from the root of a source checkout; the package is imported from that
checkout's ``src/``, so the same script measures any commit it is copied
into. It uses numpy and the package only, and writes nothing but temporary
archives.

Each item runs as the CLI would run it, with every option at the
package's default:

- **Iris.** The first ``--rows`` rows of the bundled Iris table (all 150
  by default), scaled onto ``pipeline.FEATURE_RANGE``, each reconstructed
  with the seed that ``reconstruct --seed <iris-seed>`` derives for it.
- **Messages.** The 8-word message ``juliet india alpha golf foxtrot india
  alpha india`` at seed 7703, then ``--messages`` random ones of 2 to 8
  words from the 10-word dictionary, with seeds below 10^6, both drawn from
  ``--generator-seed``. Each is hidden at every ``--t-max``, its archive
  saved and loaded, and revealed as ``reveal`` does: fitted to the deepest
  archived time.
- **Noise.** With ``--noise EPS[,EPS]``, the message sets run once per
  noise norm instead of noise-free. Each loaded state, the initial one and
  every sample, gains complex Gaussian noise of norm EPS and is then
  renormalised. The noise direction of each message is drawn from a stream
  seeded by the message's seed, so a set repeats exactly and every EPS
  scales the same directions.

For each set (one per ``--t-max`` and noise norm) it prints the attempts,
the wrong words (for Iris, the rows not solved on their first attempt and
the largest MSE), the archive bytes and the wall time. A second line gives
the training kernel's work: its forward passes and gradient calls, and the
layer-rows (one sample row through one layer) of those forward passes and
of the gradients' backward passes, which the script counts by wrapping
``CostEvaluator._evolve`` and ``CostEvaluator.gradient``. The calls count
whole passes, which an optimizer change saves; the layer-rows weigh each
pass by its depth, which the Trotter step sets. Unlike the wall time,
these counts do not drift with the host's load, so work can be compared
between commits.
Every item that needed a restart or lost a word follows.
"""
from __future__ import annotations

import argparse
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from qgrnn import seeding  # noqa: E402
from qgrnn.datasets import bundled_iris_path, load_iris_csv, minmax_scale  # noqa: E402
from qgrnn.hiding import (  # noqa: E402
    StateArchive, build_dictionary, encode_message, load_archive, reveal_message, save_archive,
)
from qgrnn.ising import TimeEvolvedSample  # noqa: E402
from qgrnn.pipeline import FEATURE_RANGE, reconstruct_sample  # noqa: E402
from qgrnn.training import CostEvaluator, TrainConfig  # noqa: E402

WORDS = ("alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel", "india", "juliet")
# (seed, message): the message that missed with 15 random sample times
KNOWN_MESSAGES = ((7703, "juliet india alpha golf foxtrot india alpha india"),)
# Forward passes and gradient calls so far, and the layer-rows of each kind of pass
WORK = {"passes": 0, "gradients": 0, "forward": 0, "backward": 0}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--iris-seed", type=int, default=0, help="master seed of the Iris rows")
    parser.add_argument("--rows", type=int, default=150, help="first Iris rows to reconstruct")
    parser.add_argument("--messages", type=int, default=40, help="random messages besides the known one")
    parser.add_argument("--generator-seed", type=int, default=20261019,
                        help="seed of the random messages and of their seeds")
    parser.add_argument("--t-max", default="0.5,1.0", help="comma-separated t_max values of the messages")
    parser.add_argument("--noise", default="0",
                        help="comma-separated norms of the noise added to every archived state; 0 adds none")
    return parser.parse_args(argv)


def floats(text: str) -> list[float]:
    return [float(t) for t in text.split(",") if t.strip()]


def random_messages(count: int, generator_seed: int) -> list[tuple[int, str]]:
    """The known messages, then ``count`` random (seed, message) pairs of 2 to 8 words."""
    rng = np.random.default_rng(generator_seed)
    drawn = []
    for _ in range(count):
        words = rng.choice(WORDS, int(rng.integers(2, 9)))
        drawn.append((int(rng.integers(10**6)), " ".join(words)))
    return [*KNOWN_MESSAGES, *drawn]


def noisy(archive: StateArchive, norm: float, seed: int) -> StateArchive:
    """The archive with complex Gaussian noise of norm ``norm`` added to every state, renormalised."""
    rng = np.random.default_rng(seed)

    def perturbed(state):
        noise = rng.standard_normal(state.size) + 1j * rng.standard_normal(state.size)
        state = state + norm * noise / np.linalg.norm(noise)
        return state / np.linalg.norm(state)

    return StateArchive(
        archive.node_count,
        perturbed(archive.initial_state),
        tuple(TimeEvolvedSample(s.time, perturbed(s.state)) for s in archive.samples),
    )


def count_work() -> None:
    """Wrap the kernel so each forward pass and each gradient counts itself and its layer-rows in ``WORK``.

    Every row runs its whole depth in a forward pass, and a gradient's
    backward pass walks every row back through the same layers.
    """
    def counted(calls, kind, method):
        def wrapper(self, *args, **kwargs):
            WORK[calls] += 1
            WORK[kind] += int(self.depths.sum())
            return method(self, *args, **kwargs)
        return wrapper

    CostEvaluator._evolve = counted("passes", "forward", CostEvaluator._evolve)
    CostEvaluator.gradient = counted("gradients", "backward", CostEvaluator.gradient)


def print_work(before: dict) -> None:
    passes, gradients, forward, backward = (WORK[kind] - before[kind] for kind in WORK)
    print(f"  work: {passes:,} forward passes and {gradients:,} gradients; {forward:,} forward and "
          f"{backward:,} backward layer-rows, {forward + 2 * backward:,} as forward + 2 x backward")


def iris_set(master_seed: int, rows: int) -> None:
    dataset = load_iris_csv(bundled_iris_path())
    features = minmax_scale(dataset.features, *FEATURE_RANGE)
    before = dict(WORK)
    start = time.perf_counter()
    attempts, worst, missed = [], 0.0, []
    for i in range(min(rows, features.shape[0])):
        seed = seeding.derive_seed(master_seed, seeding.RECONSTRUCT_SAMPLE, i)
        outcome = reconstruct_sample(features[i], TrainConfig(seed=seed))
        attempts.append(outcome.attempts)
        worst = max(worst, outcome.report.mse)
        if outcome.attempts > 1:
            missed.append(f"row {i}: {outcome.attempts} attempts, MSE {outcome.report.mse:.3g}")
    print(f"iris master seed {master_seed}: {len(attempts)} rows, {sum(attempts)} attempts, "
          f"largest MSE {worst:.3g}, {time.perf_counter() - start:.1f} s")
    print_work(before)
    for line in missed:
        print("  " + line)


def message_set(messages: list[tuple[int, str]], t_max: float, noise: float, work: Path) -> None:
    dictionary = build_dictionary(WORDS)
    before = dict(WORK)
    start = time.perf_counter()
    attempts = wrong = total_words = archive_bytes = 0
    notes = []
    for k, (seed, message) in enumerate(messages):
        words = message.split()
        config = TrainConfig(seed=seed, t_max=t_max)
        path = work / f"archive_{k}.json"
        save_archive(encode_message(words, dictionary, config), path)
        archive_bytes += path.stat().st_size
        archive = load_archive(path)
        if noise:
            archive = noisy(archive, noise, seed)
        deepest = max(s.time for s in archive.samples)
        result = reveal_message(archive, dictionary, replace(config, t_max=deepest))
        misses = sum(a != b for a, b in zip(words, result.words))
        attempts += result.attempts
        wrong += misses
        total_words += len(words)
        if result.attempts > 1 or misses:
            notes.append(f"seed {seed} ({len(words)} words): {result.attempts} attempts, "
                         f"{misses} wrong, final cost {result.train_result.final_cost:.6g}")
    label = f"t_max {t_max:g}" + (f", noise {noise:g}" if noise else "")
    print(f"messages at {label}: {len(messages)} messages, {attempts} attempts, "
          f"{wrong} wrong words of {total_words}, archives {archive_bytes:,} B, "
          f"{time.perf_counter() - start:.1f} s")
    print_work(before)
    for line in notes:
        print("  " + line)


def main(argv=None) -> int:
    args = parse_args(argv)
    count_work()
    if args.rows > 0:
        iris_set(args.iris_seed, args.rows)
    messages = random_messages(args.messages, args.generator_seed)
    with tempfile.TemporaryDirectory() as work:
        for t_max in floats(args.t_max):
            for noise in floats(args.noise):
                message_set(messages, t_max, noise, Path(work))
    return 0


if __name__ == "__main__":
    sys.exit(main())
