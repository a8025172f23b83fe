"""Command-line pipeline: reconstruct features, check classifier agreement, hide and reveal messages.

Every run writes ``run.json``: ``{"command": <command>, **options}``, each
option of ``OPTIONS`` resolved. ``--config <out>/run.json`` replays the run
and writes the same bytes, every file of every command alike; ``hide`` also
needs ``--message``, which is never recorded. Paths are recorded as typed,
so a replay runs from the same directory; reconstruct's CSV is recorded
absolute, for ``classify``. The same bytes need the same numpy, the same
BLAS build and the same BLAS thread count: under 1 and 2 OpenBLAS threads an
n = 8 ``reveal`` gives the same words, attempts and final cost to 1e-12,
but its cost history can differ in the last bit. ``reveal`` fits to the
deepest time of the archive it reads, which is its ``t_max``.

``reconstruct`` reads one dataset, a CSV table of numeric features and a
label (``datasets.load_iris_csv``), by default the bundled Iris copy.
``classify`` has no dataset options: it takes its dataset from
``<reconstructed>/run.json``, the record of the ``reconstruct`` run it
scores.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import classifiers, seeding
from .datasets import bundled_iris_path, load_iris_csv, minmax_scale
from .hiding import (
    ArchiveFormatError,
    encode_message,
    load_archive,
    load_dictionary,
    retrieval_accuracy,
    reveal_message,
    save_archive,
)
from .ising import complete_pairs
from .pipeline import DEFAULT_IRIS_ROWS, FEATURE_RANGE, MAX_QUBITS, reconstruct_sample
from .training import TrainConfig

# TrainConfig's fields and defaults; its seed is a command's master seed
_TRAIN = {f.name: f.default for f in fields(TrainConfig)}
# The default of an input path that has none: a run fails without one
REQUIRED = ""
# Every option of every command, with its default: a flag --<option> and a
# --config key of the default's type, or str where the default is None.
# TrainConfig range-checks the training options. hide's epochs and reveal's
# batch_size have no effect but stay until benchmarks/selftest.py stops
# passing them (ROADMAP item 1).
OPTIONS = {
    "reconstruct": {
        **_TRAIN,
        # the dataset options; classify reads the csv from the run it scores
        "csv": None, "samples": None,
    },
    "classify": {"reconstructed": REQUIRED, "seed": 0},
    "hide": {"dict": REQUIRED, **{key: _TRAIN[key] for key in ("seed", "batch_size", "epochs", "t_max")}},
    "reveal": {"archive": REQUIRED, "dict": REQUIRED,
               **{key: _TRAIN[key] for key in ("seed", "batch_size", "epochs", "restarts")}},
}


def _json_dump(obj, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _write_csv(path: Path, header: str, rows) -> None:
    lines = [header]
    lines.extend(",".join(repr(v) if isinstance(v, float) else str(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_fit(directory: Path, result, attempts: int) -> dict:
    """Write a fit's cost_history.csv; return the keys that say how the fit ended."""
    _write_csv(directory / "cost_history.csv", "epoch,cost", result.cost_history)
    return {"final_cost": result.final_cost, "stop_reason": result.stop_reason, "attempts": attempts}


def _split(text: str) -> list[str]:
    return [item.strip() for item in text.split(",") if item.strip()]


def _read_object(path) -> dict:
    """The JSON object in the file at ``path``; every error names the file."""
    try:
        value = json.loads(Path(path).read_text(encoding="utf-8"))
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply") from None
    except ValueError as exc:  # not JSON, or not UTF-8
        raise ValueError(f"{path}: {exc}") from None
    if not isinstance(value, dict):
        raise ValueError(f"{path}: expected a JSON object")
    return value


def _check_types(values: dict, defaults: dict, path) -> None:
    """Check that each value read from ``path`` has its option's JSON type.

    That is the default's type, or a string or null where the default is
    None (paths and sample lists). A float option also takes a JSON integer,
    but only one that ``float()`` can convert.
    """
    for key, value in values.items():
        if value is None and defaults[key] is None:
            continue
        expected = str if defaults[key] is None else type(defaults[key])
        accepted = (int, float) if expected is float else expected
        if not isinstance(value, accepted) or isinstance(value, bool):
            raise ValueError(f"{path}: key {key!r} must be of type {expected.__name__}, got {value!r}")
        if expected is float:
            try:
                float(value)
            except OverflowError:
                raise ValueError(f"{path}: key {key!r} is an integer too large for a float") from None


def _read_run(path, command: str, complete: bool = False) -> dict:
    """The options in ``path``, a --config file or, if ``complete``, the run.json of a ``command`` run.

    A config file may leave out the command and any option; every error names the file.
    """
    values = _read_object(path)
    options = OPTIONS[command]
    # a record names its command and holds every option
    if (values.pop("command", None if complete else command) != command
            or complete and values.keys() < options.keys()):
        raise ValueError(f"{path}: not the run.json of a {command} run")
    unknown = values.keys() - options.keys()
    if unknown:
        raise ValueError(f"{path}: unknown config keys: {sorted(unknown)}")
    _check_types(values, options, path)
    return values


def _resolve(args: argparse.Namespace) -> dict:
    """Defaults < --config values < explicit command-line flags."""
    cfg = dict(OPTIONS[args.command])
    if args.config:
        cfg.update(_read_run(args.config, args.command))
    for key in cfg:
        value = getattr(args, key)
        if value is not None:
            cfg[key] = value
    return cfg


def _start(args: argparse.Namespace) -> tuple[dict, Path]:
    """Resolve and check the command's options; --out is created by the first write, so bad input leaves none."""
    cfg = _resolve(args)
    missing = [key for key, default in OPTIONS[args.command].items() if cfg[key] == default == REQUIRED]
    if missing:
        raise ValueError(f"--{missing[0]} is required, as a flag or a --config key")
    if cfg["seed"] < 0:
        raise ValueError("seed must be >= 0")
    return cfg, Path(args.out)


def _train_config(cfg: dict, **archived) -> TrainConfig:
    """The TrainConfig of the training options in ``cfg`` and ``archived``, which it checks."""
    return TrainConfig(**{key: cfg[key] for key in _TRAIN if key in cfg}, **archived)


def _load_scaled_dataset(csv_path) -> tuple[np.ndarray, np.ndarray]:
    """The features of ``csv_path`` (by default the bundled Iris copy) on FEATURE_RANGE, and its labels."""
    ds = load_iris_csv(csv_path or bundled_iris_path())
    return minmax_scale(ds.features, *FEATURE_RANGE), ds.labels


def _sample_indices(cfg: dict, sample_count: int) -> list[int]:
    """The rows to reconstruct: at least one, each among the dataset's ``sample_count`` rows, none twice."""
    if cfg["samples"] is None:
        indices = list(DEFAULT_IRIS_ROWS)
    else:
        try:
            indices = [int(s) for s in _split(cfg["samples"])]
        except ValueError as exc:
            raise ValueError(f"--samples: {exc}") from None
        if not indices:
            raise ValueError(f"--samples must list at least one row index, got {cfg['samples']!r}")
    bad = [i for i in indices if not 0 <= i < sample_count]
    if bad:
        raise ValueError(f"--samples: sample indices out of range: {bad} for {sample_count} rows")
    seen = set()
    for i in indices:
        if i in seen:
            raise ValueError(f"--samples: sample indices must be unique, {i} repeats")
        seen.add(i)
    return indices


def cmd_reconstruct(args: argparse.Namespace) -> int:
    cfg, out = _start(args)
    config = _train_config(cfg)
    # absolute, so classify opens the same file from any working directory
    if cfg["csv"]:
        cfg["csv"] = str(Path(cfg["csv"]).resolve())
    features, _ = _load_scaled_dataset(cfg["csv"])
    indices = _sample_indices(cfg, features.shape[0])
    cfg["samples"] = ",".join(str(i) for i in indices)
    _json_dump({"command": "reconstruct", **cfg}, out / "run.json")

    for i in indices:
        sample_seed = seeding.derive_seed(cfg["seed"], seeding.RECONSTRUCT_SAMPLE, i)
        outcome = reconstruct_sample(features[i], replace(config, seed=sample_seed))
        sample_dir = out / f"sample_{i:05d}"
        sample_dir.mkdir(exist_ok=True)
        _json_dump(
            {
                "sample_index": i,
                "seed": sample_seed,
                "actual": outcome.actual.tolist(),
                "predicted": outcome.predicted.tolist(),
                "metrics": outcome.report.to_dict(),
                **_write_fit(sample_dir, outcome.train_result, outcome.attempts),
            },
            sample_dir / "result.json",
        )
        n = outcome.actual.size
        terms = [f"Z{i}Z{j}" for i, j in complete_pairs(n)] + [f"Z{i}" for i in range(n)]
        _write_csv(
            sample_dir / "coefficients.csv",
            "term,target,learned",
            zip(terms, outcome.target.tolist(), outcome.train_result.learned_params.tolist()),
        )
        cosine = "n/a" if outcome.report.cosine is None else f"{outcome.report.cosine:.6f}"
        print(
            f"sample {i}: mse={outcome.report.mse:.3g} cosine={cosine} "
            f"infidelity={1.0 + outcome.train_result.final_cost:.3g} attempts={outcome.attempts}"
        )
    return 0


def _read_result(path: Path, feature_count: int) -> dict:
    """A sample's result.json, with the keys classify reads checked."""
    record = _read_object(path)
    index = record.get("sample_index")
    if not isinstance(index, int) or isinstance(index, bool):
        raise ValueError(f"{path}: sample_index must be an integer, got {index!r}")
    for key in ("actual", "predicted"):
        values = record.get(key)
        if not (
            isinstance(values, list)
            and len(values) == feature_count
            and all(isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)
                    for v in values)
        ):
            raise ValueError(f"{path}: {key} must list {feature_count} finite numbers")
    return record


def cmd_classify(args: argparse.Namespace) -> int:
    cfg, out = _start(args)
    recon_dir = Path(cfg["reconstructed"])
    recon = _read_run(recon_dir / "run.json", "reconstruct", complete=True)
    results = sorted(recon_dir.glob("sample_*/result.json"))
    if not results:
        raise ValueError(f"no samples found under {recon_dir}")
    features, labels = _load_scaled_dataset(recon["csv"])
    records = [_read_result(p, features.shape[1]) for p in results]
    original = np.array([r["actual"] for r in records])
    reconstructed = np.array([r["predicted"] for r in records])

    train_idx, test_idx = classifiers.stratified_split(labels, seed=cfg["seed"])
    _json_dump({"command": "classify", **cfg}, out / "run.json")

    accuracy_rows, agreement_rows = [], []
    for kind in classifiers.KINDS:
        model = classifiers.fit(kind, features[train_idx], labels[train_idx])
        accuracy = float(
            np.mean(classifiers.predict(model, features[test_idx]) == labels[test_idx])
        )
        accuracy_rows.append((kind, accuracy))
        # whether each row keeps its predicted label through reconstruction
        agrees = classifiers.predict(model, original) == classifiers.predict(model, reconstructed)
        agreement_rows += [(r["sample_index"], kind, float(a)) for r, a in zip(records, agrees)]
        print(f"{kind}: accuracy={accuracy:.4f} agreement={np.mean(agrees):.4f}")
    _write_csv(out / "accuracy.csv", "kind,accuracy", accuracy_rows)
    _write_csv(out / "agreement.csv", "sample_index,kind,agreement", agreement_rows)
    return 0


def cmd_hide(args: argparse.Namespace) -> int:
    cfg, out = _start(args)
    dictionary = load_dictionary(cfg["dict"])
    message = args.message.split()
    archive = encode_message(message, dictionary, _train_config(cfg))
    archive_path = out / "archive.json"
    _json_dump({"command": "hide", **cfg}, out / "run.json")
    save_archive(archive, archive_path)
    print(f"hidden {len(message)} words in {archive_path} ({archive.node_count} nodes, "
          f"{len(archive.samples)} evolved states)")
    return 0


def cmd_reveal(args: argparse.Namespace) -> int:
    cfg, out = _start(args)
    dictionary = load_dictionary(cfg["dict"])
    archive = load_archive(cfg["archive"])
    # the fit runs to the deepest archived time, so TrainConfig checks the layer limit against it
    config = _train_config(cfg, t_max=max(s.time for s in archive.samples))
    truth = None if args.truth is None else args.truth.split()
    if truth is not None and len(truth) != archive.node_count:
        raise ValueError(f"--truth has {len(truth)} words, the archive hides {archive.node_count}")
    # written before the fit, so an --out that cannot be made fails at once
    _json_dump({"command": "reveal", **cfg}, out / "run.json")
    result = reveal_message(archive, dictionary, config)
    payload = {
        "words": list(result.words),
        "learned_values": result.learned_values.tolist(),
        "snap_distances": result.snap_distances.tolist(),
        **_write_fit(out, result.train_result, result.attempts),
    }
    print("message:", " ".join(result.words))
    for word, value, dist in zip(result.words, result.learned_values, result.snap_distances):
        print(f"  {word}: learned={value:.4f} snap_distance={dist:.4f}")
    if truth is not None:
        accuracy = retrieval_accuracy(truth, result.words)
        payload["accuracy"] = accuracy
        print(f"accuracy: {accuracy:.2f}%")
    _json_dump(payload, out / "reveal.json")
    return 0


def _add_command(sub, command: str, func, **texts) -> argparse.ArgumentParser:
    """The parser of ``command``, which runs ``func``: --config, --out and a flag per option."""
    p = sub.add_parser(command, **texts)
    p.set_defaults(func=func)
    p.add_argument("--config", help="JSON file of option values, such as a run's run.json (flags win)")
    p.add_argument("--out", required=True, help="output directory")
    for key, default in OPTIONS[command].items():
        if default == REQUIRED:
            shown = "required"
        else:
            # the epilog says what a None default stands for
            shown = "default: " + ("see below" if default is None else str(default))
        p.add_argument("--" + key.replace("_", "-"), type=str if default is None else type(default),
                       help=shown)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qgrnn",
        description="Embed data in graph dynamics, recover it by training, and hide messages. "
        "Every random stream of a command derives from its master seed, --seed.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _add_command(
        sub, "reconstruct", cmd_reconstruct,
        help="embed dataset features and learn them back",
        epilog="--csv is a table of k numeric features and then a class label per row, "
        f"2 <= k <= {MAX_QUBITS}, after an optional header row; it defaults to the bundled "
        "Iris copy (150 rows, 4 features). --samples is a comma-separated list of row "
        "indices, by default " + ",".join(map(str, DEFAULT_IRIS_ROWS)) + ", which the "
        "table must hold. Each feature is min-max scaled to "
        f"[{FEATURE_RANGE[0]:g}, {FEATURE_RANGE[1]:g}] and becomes a node weight. Writes "
        "per sample: result.json (with the row's seed), cost_history.csv (epoch,cost; "
        "one row per epoch run, which can be fewer than --epochs when training converges "
        "early, as result.json's stop_reason then says; cost is -fidelity, as is "
        "result.json's final_cost), coefficients.csv (term,target,learned; one row per "
        "Hamiltonian coefficient, the ZZ couplings then the Z node weights).",
    )

    p = _add_command(
        sub, "classify", cmd_classify,
        help="agreement between original and reconstructed features",
        epilog="--reconstructed is the output directory of a reconstruct run; classify "
        "scores that run's dataset, as its <reconstructed>/run.json records it, with each "
        f"classifier kind ({', '.join(classifiers.KINDS)}). Writes accuracy.csv "
        "(kind,accuracy) and agreement.csv (sample_index,kind,agreement).",
    )

    p = _add_command(
        sub, "hide", cmd_hide,
        help="encode a message into a state archive",
        epilog="--dict is a dictionary file, one word per line. Of the training options, "
        "--batch-size and --t-max set the evolved states, --batch-size of them (8 by "
        "default) at the Chebyshev points of (0, --t-max), not at random times, and "
        "--epochs has no effect. The "
        "message is never recorded, so a replay with --config <out>/run.json needs "
        "--message too. Writes archive.json (format version 5): version, "
        "node_count, times and states, so a replay writes the same bytes. states is "
        "the base64 of the deflated byte planes of the initial state and then each "
        "sample's state as little-endian complex64, exact to single precision. reveal "
        "also reads version 4, which held t_max and meta too, and versions 1 to 3, "
        "which stored one field per state.",
    )
    p.add_argument("--message", required=True, help="whitespace-separated words")

    p = _add_command(
        sub, "reveal", cmd_reveal,
        help="recover a message from a state archive",
        epilog="--archive is the archive.json of a hide run and --dict its dictionary "
        "file. Trains to the deepest time in the archive, with the training options "
        "--epochs and --restarts; --batch-size has no effect. Writes "
        "cost_history.csv (epoch,cost; one row per epoch run, which can be fewer than "
        "--epochs when training converges early, as reveal.json's stop_reason then "
        "says; cost is -fidelity, as is reveal.json's final_cost) and reveal.json; "
        "prints the message, per-word snap distances, and accuracy when --truth is given.",
    )
    p.add_argument("--truth", help="true message for accuracy reporting")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError, ArchiveFormatError) as exc:
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
