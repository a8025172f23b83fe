"""Command-line pipeline: reconstruct features, check classifier agreement, hide and reveal messages.

Every run writes ``run.json`` with the fully resolved configuration,
including all seeds. Rerunning the same command line reproduces every
output byte for byte, except ``meta.created``, the creation time that
``hide`` stamps into ``archive.json``. A command cannot yet read a
``run.json`` back as its ``--config`` (ROADMAP item 8).

``OPTIONS`` declares each command's options and their defaults; ``reveal``
takes ``t_max`` from the archive it reads.

``reconstruct`` reads one dataset, a CSV table of numeric features and a
label (``datasets.load_iris_csv``), by default the bundled Iris copy.
``classify`` has no dataset options: it takes its dataset from
``<reconstructed>/run.json``, the record of the ``reconstruct`` run it
scores, which stores the CSV path as an absolute path.
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
from .pipeline import DEFAULT_IRIS_ROWS, MAX_QUBITS, reconstruct_sample
from .training import TrainConfig

# TrainConfig's fields and defaults; its seed is a command's master seed
_TRAIN = {f.name: f.default for f in fields(TrainConfig)}
# Every option of every command, with its default: a flag --<option> and a
# --config key of the default's type, or str where the default is None.
# TrainConfig range-checks the training options. hide's epochs and reveal's
# batch_size have no effect but stay until benchmarks/selftest.py stops
# passing them (ROADMAP item 1).
OPTIONS = {
    "reconstruct": {
        **_TRAIN,
        # the dataset options, which classify reads from the run it scores
        "csv": None, "scale_lo": 0.0, "scale_hi": 5.0, "samples": None,
    },
    "classify": {"seed": 0, "kinds": ",".join(classifiers.KINDS)},
    "hide": {key: _TRAIN[key] for key in ("seed", "batch_size", "epochs", "t_max")},
    "reveal": {key: _TRAIN[key] for key in ("seed", "batch_size", "epochs", "trotter_delta", "restarts")},
}
DATASET_KEYS = [key for key in OPTIONS["reconstruct"] if key not in _TRAIN and key != "samples"]


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


def _check_unique(items: list, what: str) -> None:
    """Raise naming the first of ``items`` that repeats; ``what`` names the list."""
    seen = set()
    for item in items:
        if item in seen:
            raise ValueError(f"{what} must be unique, {item!r} repeats")
        seen.add(item)


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
    None (paths and sample lists).
    """
    for key, value in values.items():
        if value is None and defaults[key] is None:
            continue
        expected = str if defaults[key] is None else type(defaults[key])
        accepted = (int, float) if expected is float else expected
        if not isinstance(value, accepted) or isinstance(value, bool):
            raise ValueError(f"{path}: key {key!r} must be of type {expected.__name__}, got {value!r}")


def _resolve(args: argparse.Namespace, defaults: dict) -> dict:
    """Defaults < config-file values < explicit command-line flags."""
    cfg = dict(defaults)
    if args.config:
        file_cfg = _read_object(args.config)
        unknown = set(file_cfg) - set(defaults)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        _check_types(file_cfg, defaults, args.config)
        cfg.update(file_cfg)
    for key in defaults:
        value = getattr(args, key)
        if value is not None:
            cfg[key] = value
    return cfg


def _check_options(cfg: dict) -> None:
    """Range-check the options that are not TrainConfig's; _check_types checks only their types."""
    if "scale_lo" in cfg:
        lo, hi = cfg["scale_lo"], cfg["scale_hi"]
        # a finite width also makes both ends finite; minmax_scale multiplies by it
        if not (math.isfinite(hi - lo) and lo < hi):
            raise ValueError(f"need finite scale_lo < scale_hi and a finite scale_hi - scale_lo, "
                             f"got {lo!r} and {hi!r}")
    for key in ("samples", "kinds"):
        if cfg.get(key) is not None and not _split(cfg[key]):
            raise ValueError(f"{key} must list at least one entry, got {cfg[key]!r}")
    kinds = _split(cfg.get("kinds") or "")
    unknown = [kind for kind in kinds if kind not in classifiers.KINDS]
    if unknown:
        raise ValueError(f"kinds: unknown classifier kind {unknown[0]!r}, choose from {classifiers.KINDS}")
    _check_unique(kinds, "kinds: classifier kinds")


def _start(args: argparse.Namespace) -> tuple[dict, Path]:
    """Resolve and check the command's options; --out is created by the first write, so bad input leaves none."""
    cfg = _resolve(args, OPTIONS[args.command])
    _check_options(cfg)
    if cfg["seed"] < 0:
        raise ValueError("seed must be >= 0")
    return cfg, Path(args.out)


def _train_config(cfg: dict, **archived) -> TrainConfig:
    """The TrainConfig of the training options in ``cfg`` and ``archived``, which it checks."""
    return TrainConfig(**{key: cfg[key] for key in _TRAIN if key in cfg}, **archived)


def _load_scaled_dataset(cfg: dict) -> tuple[np.ndarray, np.ndarray]:
    """Scaled feature matrix (and labels) in the frame used for embedding."""
    ds = load_iris_csv(cfg["csv"] or bundled_iris_path())
    return minmax_scale(ds.features, cfg["scale_lo"], cfg["scale_hi"]), ds.labels


def _sample_indices(cfg: dict, sample_count: int) -> list[int]:
    """The rows to reconstruct, each checked against the dataset's ``sample_count`` rows and unique."""
    if cfg["samples"] is None:
        indices = list(DEFAULT_IRIS_ROWS)
    else:
        try:
            indices = [int(s) for s in _split(cfg["samples"])]
        except ValueError as exc:
            raise ValueError(f"--samples: {exc}") from None
    bad = [i for i in indices if not 0 <= i < sample_count]
    if bad:
        raise ValueError(f"--samples: sample indices out of range: {bad} for {sample_count} rows")
    _check_unique(indices, "--samples: sample indices")
    return indices


def cmd_reconstruct(args: argparse.Namespace) -> int:
    cfg, out = _start(args)
    config = _train_config(cfg)
    # absolute, so classify opens the same file from any working directory
    if cfg["csv"]:
        cfg["csv"] = str(Path(cfg["csv"]).resolve())
    features, _ = _load_scaled_dataset(cfg)
    indices = _sample_indices(cfg, features.shape[0])
    # node weights live in the scaling range; the restarts search there
    node_range = (cfg["scale_lo"], cfg["scale_hi"])
    cfg["samples"] = ",".join(str(i) for i in indices)
    cfg["sample_seeds"] = {
        str(i): seeding.derive_seed(cfg["seed"], seeding.RECONSTRUCT_SAMPLE, i) for i in indices
    }
    _json_dump({"command": "reconstruct", **cfg}, out / "run.json")

    for i in indices:
        sample_seed = cfg["sample_seeds"][str(i)]
        outcome = reconstruct_sample(features[i], replace(config, seed=sample_seed), node_range)
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
        print(
            f"sample {i}: mse={outcome.report.mse:.6f} cosine={outcome.report.cosine:.6f} "
            f"final_cost={outcome.train_result.final_cost:.6f} attempts={outcome.attempts}"
        )
    return 0


def _reconstruct_dataset(recon_dir: Path) -> dict:
    """The dataset options recorded by the reconstruct run in ``recon_dir``, checked as a config file's are."""
    path = recon_dir / "run.json"
    run = _read_object(path)
    if run.get("command") != "reconstruct" or not set(DATASET_KEYS) <= run.keys():
        raise ValueError(f"{path}: not the run.json of a reconstruct run")
    dataset = {key: run[key] for key in DATASET_KEYS}
    _check_types(dataset, OPTIONS["reconstruct"], path)
    try:
        _check_options(dataset)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return dataset


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
    recon_dir = Path(args.reconstructed)
    cfg.update(_reconstruct_dataset(recon_dir))
    results = sorted(recon_dir.glob("sample_*/result.json"))
    if not results:
        raise ValueError(f"no samples found under {recon_dir}")
    features, labels = _load_scaled_dataset(cfg)
    records = [_read_result(p, features.shape[1]) for p in results]
    original = np.array([r["actual"] for r in records])
    reconstructed = np.array([r["predicted"] for r in records])

    train_idx, test_idx = classifiers.stratified_split(labels, seed=cfg["seed"])
    kinds = _split(cfg["kinds"])
    cfg["samples"] = ",".join(str(r["sample_index"]) for r in records)
    _json_dump({"command": "classify", "reconstructed": str(recon_dir), **cfg}, out / "run.json")

    accuracy_rows, agreement_rows = [], []
    for kind in kinds:
        model = classifiers.fit(kind, features[train_idx], labels[train_idx])
        accuracy = float(
            np.mean(classifiers.predict(model, features[test_idx]) == labels[test_idx])
        )
        accuracy_rows.append((kind, accuracy))
        for record, orig, recon in zip(records, original, reconstructed):
            agreement = classifiers.agreement_eval(model, orig[None, :], recon[None, :])
            agreement_rows.append((record["sample_index"], kind, agreement))
        overall = classifiers.agreement_eval(model, original, reconstructed)
        print(f"{kind}: accuracy={accuracy:.4f} agreement={overall:.4f}")
    _write_csv(out / "accuracy.csv", "kind,accuracy", accuracy_rows)
    _write_csv(out / "agreement.csv", "sample_index,kind,agreement", agreement_rows)
    return 0


def cmd_hide(args: argparse.Namespace) -> int:
    cfg, out = _start(args)
    dictionary = load_dictionary(args.dict)
    message = args.message.split()
    archive = encode_message(message, dictionary, _train_config(cfg))
    archive_path = out / "archive.json"
    _json_dump(
        {"command": "hide", "dict": str(args.dict), "word_count": len(message), **cfg},
        out / "run.json",
    )
    save_archive(archive, archive_path)
    print(f"hidden {len(message)} words in {archive_path} ({archive.node_count} nodes, "
          f"{len(archive.samples)} evolved states)")
    return 0


def cmd_reveal(args: argparse.Namespace) -> int:
    cfg, out = _start(args)
    dictionary = load_dictionary(args.dict)
    archive = load_archive(args.archive)
    # the fit runs to the archive's t_max, so TrainConfig checks the layer limit against it
    config = _train_config(cfg, t_max=archive.t_max)
    truth = None if args.truth is None else args.truth.split()
    if truth is not None and len(truth) != archive.node_count:
        raise ValueError(f"--truth has {len(truth)} words, the archive hides {archive.node_count}")
    # written before the fit, so an --out that cannot be made fails at once
    _json_dump(
        {"command": "reveal", "archive": str(args.archive), "dict": str(args.dict), **cfg},
        out / "run.json",
    )
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
    p.add_argument("--config", help="JSON file of option values (flags win)")
    p.add_argument("--out", required=True, help="output directory")
    for key, default in OPTIONS[command].items():
        p.add_argument("--" + key.replace("_", "-"), type=str if default is None else type(default))
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
        "table must hold. Each feature is min-max scaled to [--scale-lo, --scale-hi] and "
        "becomes a node weight. "
        "Writes per sample: result.json, cost_history.csv (epoch,cost; one row "
        "per epoch run, which can be fewer than --epochs when training converges "
        "early, as result.json's stop_reason then says), coefficients.csv "
        "(term,target,learned; one row per Hamiltonian coefficient, the ZZ couplings "
        "then the Z node weights).",
    )

    p = _add_command(
        sub, "classify", cmd_classify,
        help="agreement between original and reconstructed features",
        epilog="Scores the dataset of the reconstruct run it reads, as that run's "
        "<reconstructed>/run.json records it. --kinds is a comma-separated list of "
        "classifier kinds. Writes accuracy.csv (kind,accuracy) and "
        "agreement.csv (sample_index,kind,agreement).",
    )
    p.add_argument("--reconstructed", required=True, help="output dir of a reconstruct run")

    p = _add_command(
        sub, "hide", cmd_hide,
        help="encode a message into a state archive",
        epilog="Of the training options, --batch-size and --t-max set the evolved states "
        "and --epochs has no effect. Writes archive.json (format version 4): version, "
        "node_count, t_max, times, states and meta (created). states is the base64 of "
        "the deflated byte planes of the initial state and then each sample's state as "
        "little-endian complex64, exact to single precision. reveal also reads "
        "versions 1 to 3, which stored one field per state.",
    )
    p.add_argument("--message", required=True, help="whitespace-separated words")
    p.add_argument("--dict", required=True, help="dictionary file, one word per line")

    p = _add_command(
        sub, "reveal", cmd_reveal,
        help="recover a message from a state archive",
        epilog="Trains to the t_max recorded in the archive, with the training options "
        "--epochs, --trotter-delta and --restarts; --batch-size has no effect. Writes "
        "cost_history.csv (epoch,cost; one row per epoch run, which can be fewer than "
        "--epochs when training converges early, as reveal.json's stop_reason then "
        "says) and reveal.json; prints the message, per-word snap distances, and "
        "accuracy when --truth is given.",
    )
    p.add_argument("--archive", required=True, help="archive.json path")
    p.add_argument("--dict", required=True, help="dictionary file, one word per line")
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
