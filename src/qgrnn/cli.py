"""Command-line pipeline: reconstruct features, check classifier agreement, hide and reveal messages.

Every run writes ``run.json`` with the fully resolved configuration,
including all seeds, so any output can be reproduced byte for byte, with one
exception: ``hide`` stamps the creation time into ``meta.created`` of
``archive.json``.
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
from .datasets import (
    bundled_iris_path,
    load_iris_csv,
    load_mnist_idx,
    minmax_scale,
    pca_fit,
    pca_transform,
)
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
from .pipeline import DEFAULT_IRIS_ROWS, reconstruct_sample
from .training import TrainConfig

# Every TrainConfig field is an option, with its type and default, except the
# seed, which the commands derive from their master seed, and fd_step, which
# only the benchmark reads. TrainConfig checks their values.
TRAIN_KEYS = tuple(f.name for f in fields(TrainConfig) if f.name not in ("seed", "fd_step"))

COMMON_DEFAULTS = {"seed": 0, **{key: getattr(TrainConfig(), key) for key in TRAIN_KEYS}}

DATASET_DEFAULTS = {
    "dataset": "iris",
    "iris_csv": None,
    "mnist_images": None,
    "mnist_labels": None,
    "samples": None,
    "pca_components": 6,
    "pca_fit_count": 10000,
    "scale_lo": 0.0,
    "scale_hi": 5.0,
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


def _resolve(args: argparse.Namespace, defaults: dict) -> dict:
    """Defaults < config-file values < explicit command-line flags.

    A config-file value must have its option's JSON type: that of the
    default, or a string or null where the default is None (paths and
    sample lists). TrainConfig checks the training options itself.
    """
    cfg = dict(defaults)
    if getattr(args, "config", None):
        try:
            file_cfg = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except RecursionError:
            raise ValueError(f"{args.config}: JSON nested too deeply") from None
        if not isinstance(file_cfg, dict):
            raise ValueError(f"{args.config}: config must be a JSON object")
        unknown = set(file_cfg) - set(defaults)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        for key, value in file_cfg.items():
            if key in TRAIN_KEYS or (value is None and defaults[key] is None):
                continue
            expected = str if defaults[key] is None else type(defaults[key])
            accepted = (int, float) if expected is float else expected
            if not isinstance(value, accepted) or isinstance(value, bool):
                raise ValueError(f"config key {key!r} must be of type {expected.__name__}, got {value!r}")
        cfg.update(file_cfg)
    for key in defaults:
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = value
    return cfg


def _check_options(cfg: dict) -> None:
    """Range-check the options that are not TrainConfig's; _resolve checks only their types."""
    if "scale_lo" in cfg:
        lo, hi = cfg["scale_lo"], cfg["scale_hi"]
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ValueError(f"need finite scale_lo < scale_hi, got {lo!r} and {hi!r}")
        for key, low in (("pca_components", 1), ("pca_fit_count", 2)):
            if cfg[key] < low:
                raise ValueError(f"{key} must be >= {low}, got {cfg[key]!r}")
    for key in ("samples", "kinds"):
        if cfg.get(key) is not None and not _split(cfg[key]):
            raise ValueError(f"{key} must list at least one entry, got {cfg[key]!r}")
    unknown = [kind for kind in _split(cfg.get("kinds") or "") if kind not in classifiers.KINDS]
    if unknown:
        raise ValueError(f"kinds: unknown classifier kind {unknown[0]!r}, choose from {classifiers.KINDS}")


def _start(args: argparse.Namespace, defaults: dict) -> tuple[dict, TrainConfig, Path]:
    """Resolve and check every option; --out is created by the first write, so bad input leaves none."""
    cfg = _resolve(args, defaults)
    _check_options(cfg)
    config = TrainConfig(seed=cfg["seed"], **{key: cfg[key] for key in TRAIN_KEYS})
    return cfg, config, Path(args.out)


def _load_scaled_dataset(cfg: dict) -> tuple[np.ndarray, np.ndarray]:
    """Scaled feature matrix (and labels) in the frame used for embedding."""
    if cfg["dataset"] == "iris":
        ds = load_iris_csv(cfg["iris_csv"] or bundled_iris_path())
        return minmax_scale(ds.features, cfg["scale_lo"], cfg["scale_hi"]), ds.labels
    if cfg["dataset"] == "mnist":
        if not cfg["mnist_images"] or not cfg["mnist_labels"]:
            raise ValueError("mnist dataset needs --mnist-images and --mnist-labels")
        ds = load_mnist_idx(cfg["mnist_images"], cfg["mnist_labels"])
        fit_rows = ds.features[: cfg["pca_fit_count"]]
        model = pca_fit(fit_rows, cfg["pca_components"])
        projected = pca_transform(model, ds.features)
        return minmax_scale(projected, cfg["scale_lo"], cfg["scale_hi"]), ds.labels
    raise ValueError(f"unknown dataset {cfg['dataset']!r}")


def _sample_indices(cfg: dict, sample_count: int) -> list[int]:
    if cfg["samples"] is None:
        return list(DEFAULT_IRIS_ROWS) if cfg["dataset"] == "iris" else list(range(10))
    try:
        indices = [int(s) for s in _split(cfg["samples"])]
    except ValueError as exc:
        raise ValueError(f"--samples: {exc}") from None
    bad = [i for i in indices if not 0 <= i < sample_count]
    if bad:
        raise ValueError(f"--samples: sample indices out of range: {bad}")
    return indices


def cmd_reconstruct(args: argparse.Namespace) -> int:
    cfg, config, out = _start(args, {**COMMON_DEFAULTS, **DATASET_DEFAULTS})
    features, _ = _load_scaled_dataset(cfg)
    indices = _sample_indices(cfg, features.shape[0])
    if config.node_init_low is None and config.node_init_high is None:
        # node weights live in the scaling range; start the search there
        cfg["node_init_low"], cfg["node_init_high"] = cfg["scale_lo"], cfg["scale_hi"]
        config = replace(config, node_init_low=cfg["scale_lo"], node_init_high=cfg["scale_hi"])
    cfg["samples"] = ",".join(str(i) for i in indices)
    cfg["sample_seeds"] = {
        str(i): seeding.derive_seed(cfg["seed"], seeding.RECONSTRUCT_SAMPLE, i) for i in indices
    }
    _json_dump({"command": "reconstruct", **cfg}, out / "run.json")

    for i in indices:
        sample_seed = cfg["sample_seeds"][str(i)]
        outcome = reconstruct_sample(features[i], config.with_seed(sample_seed))
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


def cmd_classify(args: argparse.Namespace) -> int:
    defaults = {**COMMON_DEFAULTS, **DATASET_DEFAULTS, "kinds": ",".join(classifiers.KINDS)}
    cfg, _, out = _start(args, defaults)
    recon_dir = Path(args.reconstructed)
    results = sorted(recon_dir.glob("sample_*/result.json"))
    if not results:
        raise ValueError(f"no samples found under {recon_dir}")
    records = [json.loads(p.read_text(encoding="utf-8")) for p in results]
    original = np.array([r["actual"] for r in records])
    reconstructed = np.array([r["predicted"] for r in records])

    features, labels = _load_scaled_dataset(cfg)
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
    cfg, config, out = _start(args, COMMON_DEFAULTS)
    dictionary = load_dictionary(args.dict)
    message = args.message.split()
    archive = encode_message(message, dictionary, config)
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
    cfg, config, out = _start(args, COMMON_DEFAULTS)
    dictionary = load_dictionary(args.dict)
    archive = load_archive(args.archive)
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
    if args.truth is not None:
        accuracy = retrieval_accuracy(args.truth.split(), result.words)
        payload["accuracy"] = accuracy
        print(f"accuracy: {accuracy:.2f}%")
    _json_dump(payload, out / "reveal.json")
    return 0


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON file of option defaults (flags win)")
    p.add_argument("--seed", type=int, help="master seed; all streams derive from it")
    p.add_argument("--out", required=True, help="output directory")
    for f in fields(TrainConfig):
        if f.name in TRAIN_KEYS:
            p.add_argument("--" + f.name.replace("_", "-"), type=int if f.type == "int" else float)


def _add_dataset(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dataset", choices=["iris", "mnist"])
    p.add_argument("--iris-csv", help="Iris CSV path (default: bundled copy)")
    p.add_argument("--mnist-images", help="IDX image file")
    p.add_argument("--mnist-labels", help="IDX label file")
    p.add_argument("--samples", help="comma-separated sample indices")
    p.add_argument("--pca-components", type=int)
    p.add_argument("--pca-fit-count", type=int)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qgrnn",
        description="Embed data in graph dynamics, recover it by training, and hide messages.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "reconstruct",
        help="embed dataset features and learn them back",
        epilog="Writes per sample: result.json, cost_history.csv (epoch,cost; one row "
        "per epoch run, which can be fewer than --epochs when training converges "
        "early, as result.json's stop_reason then says), coefficients.csv "
        "(term,target,learned; one row per Hamiltonian coefficient, the ZZ couplings "
        "then the Z node weights).",
    )
    _add_common(p)
    _add_dataset(p)
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser(
        "classify",
        help="agreement between original and reconstructed features",
        epilog="Writes accuracy.csv (kind,accuracy) and agreement.csv "
        "(sample_index,kind,agreement).",
    )
    _add_common(p)
    _add_dataset(p)
    p.add_argument("--reconstructed", required=True, help="output dir of a reconstruct run")
    p.add_argument("--kinds", help="comma-separated classifier kinds")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser(
        "hide",
        help="encode a message into a state archive",
        epilog="Writes archive.json (format version 4): version, node_count, t_max, "
        "times, states and meta (created). states is the base64 of the deflated byte "
        "planes of the initial state and then each sample's state as little-endian "
        "complex64, exact to single precision. reveal also reads versions 1 to 3, "
        "which stored one field per state.",
    )
    _add_common(p)
    p.add_argument("--message", required=True, help="whitespace-separated words")
    p.add_argument("--dict", required=True, help="dictionary file, one word per line")
    p.set_defaults(func=cmd_hide)

    p = sub.add_parser(
        "reveal",
        help="recover a message from a state archive",
        epilog="Writes cost_history.csv (epoch,cost; one row per epoch run, which can "
        "be fewer than --epochs when training converges early, as reveal.json's "
        "stop_reason then says) and reveal.json; prints the "
        "message, per-word snap distances, and accuracy when --truth is given.",
    )
    _add_common(p)
    p.add_argument("--archive", required=True, help="archive.json path")
    p.add_argument("--dict", required=True, help="dictionary file, one word per line")
    p.add_argument("--truth", help="true message for accuracy reporting")
    p.set_defaults(func=cmd_reveal)
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
