"""The benchmark's workloads: fixed items, the CLI commands that solve them, and output checks.

An item is one Iris row reconstructed or one message hidden and revealed.
Every command goes through ``qgrnn.cli.main(argv)`` in this process, as a
user would type it. The benchmark seed only permutes the order of the
items: the items are fixed because each workload is defined by their known
outcomes (see README.md), and the CLI derives every random stream from its
own ``--seed`` flag, so outcomes must not depend on the order.
"""
from __future__ import annotations

import csv
import functools
import io
import json
import random
import re
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ACCEPT_COST = -0.99  # the pipeline's accept threshold: a fit at or below it is solved

# hiding.build_dictionary spreads the dictionary evenly over [-4, 5]; ten
# words give code values -4, -3, ..., 5 (spacing 1.0).
DICTIONARY = ("alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel", "india", "juliet")
CODE_VALUES = {word: -4.0 + k for k, word in enumerate(DICTIONARY)}

IRIS_ROWS = (18, 31, 73, 82, 118, 141)
IRIS_SCALE = (0.0, 5.0)

# (CLI --seed, message). The first is the known failure: it exhausts all 10
# restarts at 66.7 %. The others need between 1 and 4 attempts.
HIDE_REVEAL_MESSAGES = (
    (3, "golf alpha juliet echo delta hotel"),
    (1, "hotel india echo golf"),
    (2, "juliet charlie foxtrot bravo"),
    (5, "echo hotel bravo juliet"),
    (6, "bravo golf juliet delta"),
    (8, "foxtrot juliet alpha echo"),
    (9, "charlie echo india golf"),
    (11, "golf india bravo charlie"),
)
WIDE_MESSAGE = (1, "juliet india hotel golf foxtrot echo delta charlie")
WIDE_REVEAL_FLAGS = ("--restarts", "1", "--epochs", "60")


class StampedWriter(io.TextIOBase):
    """Captures printed lines with the time each one was completed."""

    def __init__(self):
        self.lines: list[tuple[float, str]] = []
        self._partial = ""

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        now = time.perf_counter()
        *done, self._partial = (self._partial + text).split("\n")
        self.lines.extend((now, line) for line in done)
        return len(text)


@dataclass
class Command:
    argv: list[str]
    code: int | None
    start: float
    end: float
    lines: list[tuple[float, str]]
    stderr: str

    @property
    def seconds(self) -> float:
        return self.end - self.start


def run_cli(cli, argv) -> Command:
    """Run one CLI command in-process, capturing its output; an exception counts as a failure."""
    argv = [str(a) for a in argv]
    out, err = StampedWriter(), io.StringIO()
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    except Exception:
        code = None
        err.write(traceback.format_exc())
    return Command(argv, code, start, time.perf_counter(), out.lines, err.getvalue())


@dataclass
class Item:
    """One item's outcome, checked against the truth."""

    key: str
    seconds: float = 0.0
    attempts: int = 0
    epochs: int = 0
    final_cost: float = 0.0
    learned: list[float] = field(default_factory=list)
    truth: list[float] = field(default_factory=list)
    accuracy_pct: float = 0.0  # words right for a message, classifiers agreeing for an Iris row
    errors: list[str] = field(default_factory=list)

    @property
    def mse(self) -> float:
        return float(np.mean((np.array(self.learned) - np.array(self.truth)) ** 2))

    @property
    def solved(self) -> bool:
        return not self.errors and self.final_cost <= ACCEPT_COST and self.accuracy_pct == 100.0

    def outcome(self) -> dict:
        """The values that must repeat exactly from run to run."""
        return {
            "key": self.key,
            "attempts": self.attempts,
            "final_cost": repr(self.final_cost),
            "learned": [repr(v) for v in self.learned],
            "accuracy_pct": repr(self.accuracy_pct),
        }


@dataclass
class Pass:
    items: list[Item]
    commands: list[Command]
    out_bytes: int

    @property
    def wall_s(self) -> float:
        return sum(c.seconds for c in self.commands)

    @property
    def epochs(self) -> int:
        return sum(item.epochs for item in self.items)


def _command_errors(*commands: Command) -> list[str]:
    return [
        f"`qgrnn {' '.join(c.argv)}` exited with {c.code}: {c.stderr.strip()[-2000:]}"
        for c in commands
        if c.code != 0
    ]


def _read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def iris_truth(root: Path) -> np.ndarray:
    """Iris features scaled column-wise onto IRIS_SCALE, computed here from the raw CSV."""
    raw = np.loadtxt(root / "src" / "qgrnn" / "assets" / "iris.csv", delimiter=",",
                     skiprows=1, usecols=range(4))
    lo, hi = IRIS_SCALE
    span = raw.max(axis=0) - raw.min(axis=0)
    return lo + (raw - raw.min(axis=0)) / span * (hi - lo)


def iris_pass(cli, work: Path, seed: int, truth: np.ndarray, between) -> Pass:
    """`reconstruct` the Iris rows in seeded order, then `classify` that output."""
    rows = list(IRIS_ROWS)
    random.Random(seed).shuffle(rows)
    recon_dir, classify_dir = work / "reconstruct", work / "classify"
    recon = run_cli(cli, ["reconstruct", "--out", recon_dir, "--samples", ",".join(map(str, rows))])
    between()
    classify = run_cli(cli, ["classify", "--reconstructed", recon_dir, "--out", classify_dir])
    done = {}
    for stamp, line in recon.lines:
        match = re.match(r"sample (\d+):", line)
        if match:
            done[int(match.group(1))] = stamp
    errors = _command_errors(recon, classify)
    agreement: dict[int, list[float]] = {}
    if not errors:
        with open(classify_dir / "agreement.csv", newline="", encoding="utf-8") as f:
            for record in csv.DictReader(f):
                agreement.setdefault(int(record["sample_index"]), []).append(float(record["agreement"]))
    items, previous = [], recon.start
    for row in rows:
        item = Item(key=f"iris-{row}", errors=list(errors), truth=truth[row].tolist())
        items.append(item)
        if errors:
            continue
        if row not in done:
            item.errors.append(f"no progress line for sample {row}")
            continue
        item.seconds, previous = done[row] - previous, done[row]
        try:
            result = _read_json(recon_dir / f"sample_{row:05d}" / "result.json")
            epochs = _read_json(recon_dir / "run.json")["epochs"]
            item.attempts, item.final_cost = int(result["attempts"]), float(result["final_cost"])
            item.epochs = item.attempts * int(epochs)
            item.learned = [float(v) for v in result["predicted"]]
            item.accuracy_pct = 100.0 * float(np.mean(agreement[row]))
            if not np.allclose(result["actual"], item.truth, rtol=0, atol=1e-9):
                item.errors.append(f"sample {row}: reported features differ from the dataset")
            if not np.isclose(result["metrics"]["mse"], item.mse, rtol=1e-9, atol=0):
                item.errors.append(f"sample {row}: reported mse differs from the recomputed one")
            if len(agreement[row]) < 1 or not set(agreement[row]) <= {0.0, 1.0}:
                item.errors.append(f"sample {row}: malformed agreement rows")
        except (OSError, KeyError, ValueError, TypeError) as exc:
            item.errors.append(f"sample {row}: unreadable output: {exc!r}")
    return Pass(items, [recon, classify], _dir_bytes(work))


def message_item(cli, work: Path, dictionary: Path, seed: int, message: str, reveal_flags=()) -> tuple[Item, list[Command]]:
    """`hide` one message, `reveal` it from the archive, and check the words against the truth."""
    words = message.split()
    out = work / "-".join(words[:2] + [str(len(words)), str(seed)])
    hide = run_cli(cli, ["hide", "--seed", seed, "--message", message, "--dict", dictionary, "--out", out])
    reveal = run_cli(cli, ["reveal", "--seed", seed, *reveal_flags, "--archive", out / "archive.json",
                           "--dict", dictionary, "--out", out / "reveal", "--truth", message])
    item = Item(key=f"{seed}:{message}", seconds=reveal.end - hide.start,
                truth=[CODE_VALUES[w] for w in words], errors=_command_errors(hide, reveal))
    if item.errors:
        return item, [hide, reveal]
    try:
        payload = _read_json(out / "reveal" / "reveal.json")
        item.attempts, item.final_cost = int(payload["attempts"]), float(payload["final_cost"])
        item.epochs = item.attempts * int(_read_json(out / "reveal" / "run.json")["epochs"])
        item.learned = [float(v) for v in payload["learned_values"]]
        revealed = list(payload["words"])
        if len(revealed) != len(words) or len(item.learned) != len(words):
            item.errors.append("revealed message has the wrong length")
        elif not set(revealed) <= set(DICTIONARY):
            item.errors.append("revealed words outside the dictionary")
        else:
            item.accuracy_pct = 100.0 * sum(a == b for a, b in zip(words, revealed)) / len(words)
            if payload["accuracy"] != item.accuracy_pct:
                item.errors.append("reported accuracy differs from the recomputed one")
    except (OSError, KeyError, ValueError, TypeError) as exc:
        item.errors.append(f"unreadable output: {exc!r}")
    return item, [hide, reveal]


def messages_pass(cli, work: Path, seed: int, dictionary: Path, between, messages, reveal_flags=()) -> Pass:
    messages = list(messages)
    random.Random(seed).shuffle(messages)
    items, commands = [], []
    for k, (cli_seed, message) in enumerate(messages):
        if k:
            between()
        item, cmds = message_item(cli, work, dictionary, cli_seed, message, reveal_flags)
        items.append(item)
        commands.extend(cmds)
    return Pass(items, commands, _dir_bytes(work))


# Workload name -> pass function, called as f(cli, work, seed, inputs, between).
# The inputs are the Iris truth for "iris-reconstruct" and the dictionary
# file for the message workloads. `between()` is called between two commands
# while no item's clock runs; its time is part of no item and no command.
WORKLOADS = {
    "iris-reconstruct": iris_pass,
    "hide-reveal": functools.partial(messages_pass, messages=HIDE_REVEAL_MESSAGES),
    "wide-register": functools.partial(messages_pass, messages=[WIDE_MESSAGE], reveal_flags=WIDE_REVEAL_FLAGS),
}
