"""qgrnn benchmark: time to solution of the ``qgrnn`` CLI, paired with the outcome it bought.

    python3 benchmarks/run.py --workload hide-reveal --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. With ``--trace 0`` whole passes over the workload's items repeat,
untraced, until the measured time is within half a pass of ``--seconds``,
and the end-to-end metrics are printed. With ``--trace 1`` one untraced
and one traced pass run, followed by the kernel scan at n = 4, 6, 8 and
10, and the per-layer metrics are printed together with the tracing
overhead (the calibrated cost of one span times the spans recorded).

Human-readable report lines come first; the last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``, which holds the metrics that BENCHMARK.json lists for the
mode. README.md beside this file describes the workloads and metrics.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = HERE / ".work"
NPROC = len(os.sched_getaffinity(0))
BLAS_THREADS = min(2, NPROC)
# Set-up is timed in fresh interpreters spread through the run: a few
# before the passes, others between passes and between the commands of a
# pass, and the rest after, at least SETUP_PROBES in all, so that the
# median spans the machine's drifts in speed.
SETUP_PROBES = 15
SETUP_PROBES_FIRST = 5
# The warm-up makes the first BLAS calls at a size every workload uses. A
# larger size would add the wake-up of the BLAS threads, whose cost swings
# with the host's load, to set-up.
WARM_UP_QUBITS = 4
SCAN_SIZES = (4, 6, 8, 10)
IRIS_WORKLOAD = "iris-reconstruct"
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("iris-reconstruct", "hide-reveal", "wide-register"))
    parser.add_argument("--seed", type=int, default=0, help="permutes the order of the items")
    parser.add_argument("--seconds", type=float, default=25.0, help="target measured time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only set up (import, inputs, warm-up) and exit; timed by the parent")
    return parser.parse_args(argv)


def set_up(workload_name: str):
    """Import every layer, load the workload's inputs and make the first BLAS calls."""
    import numpy as np
    import qgrnn.cli  # noqa: F401  (imports every layer)
    from qgrnn import datasets, hiding, pipeline, training
    import workloads

    if workload_name == IRIS_WORKLOAD:
        ds = datasets.load_iris_csv(datasets.bundled_iris_path())
        datasets.minmax_scale(ds.features, *workloads.IRIS_SCALE)
    else:
        hiding.build_dictionary(workloads.DICTIONARY)
    n, config = WARM_UP_QUBITS, training.TrainConfig()
    _, initial, samples = pipeline.embed_and_sample(np.linspace(-1.0, 1.0, n), config)
    training.CostEvaluator(initial, samples, config.trotter_delta).cost(np.zeros(n * (n + 1) // 2))


def setup_seconds(workload_name: str) -> float:
    """Time from starting a fresh interpreter until it has set up, as a user's first command pays.

    The clock stops when the child reports that it is ready, so the
    interpreter's shutdown is not counted.
    """
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload_name, "--setup-probe"]
    start = time.perf_counter()
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as child:
        ready = child.stdout.readline()
        seconds = time.perf_counter() - start
        child.stdout.read()
    if ready != "ready\n" or child.returncode != 0:
        raise RuntimeError(f"set-up probe failed with exit code {child.returncode}")
    return seconds


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or "unavailable"
    except (OSError, subprocess.SubprocessError):
        git = "unavailable"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARIABLES},
        "nproc": NPROC,
        "machine": platform.machine(),
        "git_revision": git,
        "seed": seed,
    }


def outcome_digest(items) -> str:
    outcomes = sorted((item.outcome() for item in items), key=lambda o: o["key"])
    return hashlib.sha256(json.dumps(outcomes, sort_keys=True).encode()).hexdigest()


def code_key(env: dict) -> str:
    """A hash of the package's files, this benchmark's code and the numpy build in use.

    Outcomes may change only when one of these does, so runs are compared
    only with earlier runs under the same key.
    """
    digest = hashlib.sha256()
    files = sorted(p for p in SRC.rglob("*") if p.is_file() and "__pycache__" not in p.parts)
    for path in files + sorted(HERE.glob("*.py")):
        digest.update(f"{path.relative_to(ROOT).as_posix()}\0".encode())
        digest.update(path.read_bytes())
    build = {k: env[k] for k in ("python", "numpy", "blas", "blas_threads", "machine")}
    digest.update(json.dumps(build, sort_keys=True).encode())
    return digest.hexdigest()


def check_recorded_digest(workload_name: str, key: str, digest: str) -> str | None:
    """Compare with the digest an earlier run of the same code recorded in this checkout; record it if first."""
    path = WORK_ROOT / "outcomes.json"
    recorded = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    previous = recorded.setdefault(f"{workload_name} {key}", digest)
    path.write_text(json.dumps(recorded, indent=2) + "\n", encoding="utf-8")
    if previous != digest:
        return (f"outcomes differ from an earlier run of the same code in this checkout "
                f"({previous[:12]} != {digest[:12]})")
    return None


def end_to_end(passes, setup_s: float) -> dict[str, tuple[float, str]]:
    items = [item for p in passes for item in p.items]
    good = [item for item in items if not item.errors] or items
    median = statistics.median
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (median(p.wall_s for p in passes), "s"),
        "item_s_p50": (median(item.seconds for item in items), "s"),
        "item_s_max": (median(max(item.seconds for item in p.items) for p in passes), "s"),
        "epochs_per_s": (median(p.epochs / p.wall_s for p in passes), "1/s"),
        "attempts_per_item": (statistics.fmean(item.attempts for item in items), "count"),
        "items_solved_pct": (100.0 * statistics.fmean(item.solved for item in items), "%"),
        "accuracy_pct": (statistics.fmean(item.accuracy_pct for item in items), "%"),
        "accuracy_min_pct": (min(item.accuracy_pct for item in items), "%"),
        "recon_mse_max": (max(item.mse for item in good), "1"),
        "final_infidelity_max": (1.0 + max(item.final_cost for item in good), "1"),
        "out_bytes": (median(p.out_bytes for p in passes), "B"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def kernel_scan(seed: int) -> dict[str, tuple[float, str]]:
    """One data generation, evaluator set-up, cost and gradient at each register size."""
    import numpy as np
    from qgrnn import pipeline, training
    from trace_layers import Tracer

    rng = np.random.default_rng(seed)
    config = training.TrainConfig(seed=seed)
    metrics = {}
    for n in SCAN_SIZES:
        weights = rng.uniform(-4.0, 5.0, n)
        flat = rng.uniform(config.init_low, config.init_high, n * (n + 1) // 2)
        # The first call at a new size pays one-off BLAS costs (thread wake-up,
        # buffers), so the sequence runs twice and the second run is reported.
        for tracer in (Tracer(), Tracer()):
            with tracer:
                _, initial, samples = pipeline.embed_and_sample(weights, config)
                evaluator = training.CostEvaluator(initial, samples, config.trotter_delta)
                evaluator.cost(flat)
                evaluator.gradient(flat, config.fd_step)
        totals = tracer.span_totals()
        for metric, span in (
            ("training.gradient_s", "training.gradient"),
            ("training.cost_s", "training.cost"),
            ("training.evaluator_init_s", "training.evaluator_init"),
            ("ising.sample_evolution_s", "ising.sample_evolution"),
        ):
            metrics[f"{metric}.n{n}"] = (totals.get(span, (0.0,))[0], "s")
    return metrics


def report_pass(label: str, p) -> None:
    print(f"{label}: wall {p.wall_s:.3f} s, {len(p.items)} items, {p.epochs} epochs, {p.out_bytes} B written")
    for item in p.items:
        status = "solved" if item.solved else ("ERROR" if item.errors else "FAILED")
        print(f"  {item.key}: {item.seconds:.3f} s, attempts {item.attempts}, final cost "
              f"{item.final_cost:.6f}, accuracy {item.accuracy_pct:.1f} %, mse {item.mse if item.learned else float('nan'):.3g}, {status}")
        for error in item.errors:
            print(f"    error: {error}")


def run(args) -> int:
    name = args.workload
    setup_times = [] if args.trace else [setup_seconds(name) for _ in range(SETUP_PROBES_FIRST)]
    start = time.perf_counter()
    import qgrnn
    import workloads
    from trace_layers import Tracer, traced_bindings

    if not Path(qgrnn.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported qgrnn from {qgrnn.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    WORK_ROOT.mkdir(exist_ok=True)
    # A relative path of fixed length: the CLI records paths in its outputs,
    # and out_bytes must not depend on where the checkout is.
    run_dir = Path(os.path.relpath(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT)))

    def run_pass(label: str, between=lambda: None):
        work = run_dir / label
        work.mkdir()
        return workloads.WORKLOADS[name](cli, work, args.seed, inputs, between)

    def probe():
        setup_times.append(setup_seconds(name))

    try:
        set_up(name)
        if name == IRIS_WORKLOAD:
            inputs = workloads.iris_truth(ROOT)
        else:
            inputs = run_dir / "dictionary.txt"
            inputs.write_text("\n".join(workloads.DICTIONARY) + "\n", encoding="utf-8")
        inproc_setup_s = time.perf_counter() - start
        cli = sys.modules["qgrnn.cli"]

        env = environment(args.seed)
        print(f"qgrnn benchmark: workload {name}, seed {args.seed}, "
              f"seconds {args.seconds:g}, trace {args.trace}")
        print("environment:", json.dumps(env, sort_keys=True))
        print(f"in-process set-up: {inproc_setup_s:.3f} s")
        problems: list[str] = []
        if args.trace:
            untraced = run_pass("untraced")
            with Tracer() as tracer:
                traced = run_pass("traced")
            problems += [f"not traced: {missing}" for missing in tracer.missing]
            problems += [f"binding left wrapped: {wrapped}" for wrapped in traced_bindings()]
            passes = [untraced, traced]
            report_pass("untraced pass", untraced)
            report_pass("traced pass", traced)
            metrics = tracer.layer_metrics()
            metrics.update(kernel_scan(args.seed))
            overhead = tracer.overhead_s()
            metrics["trace.overhead_s"] = (overhead, "s")
            print(f"tracing overhead: {overhead:.4f} s estimated for {len(tracer.spans)} spans; "
                  f"traced minus untraced pass {traced.wall_s - untraced.wall_s:+.3f} s on a "
                  f"{untraced.wall_s:.3f} s pass, which includes the host's drift")
        else:
            # Whole passes repeat until their command time is within half a pass
            # of --seconds. Set-up probes run between passes and between the
            # commands of a pass; their time is part of no pass.
            passes = []
            while not passes or (sum(p.wall_s for p in passes)
                                 + statistics.fmean(p.wall_s for p in passes) / 2 < args.seconds):
                if passes:
                    probe()
                # Labels of fixed width: the CLI records paths in its outputs.
                passes.append(run_pass(f"pass{len(passes):03d}", probe))
                report_pass(f"pass {len(passes)}", passes[-1])
            setup_times += [setup_seconds(name) for _ in range(SETUP_PROBES - len(setup_times))]
            print("set-up probes:", ", ".join(f"{t:.3f} s" for t in setup_times))
            metrics = end_to_end(passes, statistics.median(setup_times))
            items = passes[0].items
            print(f"items: {len(items)} per pass, {len(passes)} passes; items_failed_frac "
                  f"{sum(not i.solved for i in items) / len(items):.4f}")

        contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        gated = [m["name"] for m in contract["per_layer" if args.trace else "end_to_end"]]
        if set(gated) - set(metrics):
            problems.append(f"metrics in BENCHMARK.json not measured: {sorted(set(gated) - set(metrics))}")
        items = [item for p in passes for item in p.items]
        failed = sum(bool(item.errors) for item in items)
        digests = {outcome_digest(p.items) for p in passes}
        if len(digests) > 1:
            problems.append("outcomes differ between passes of this run: " + ", ".join(sorted(digests)))
        elif not failed:
            problems += filter(None, [check_recorded_digest(name, code_key(env), digests.pop())])
        for problem in problems:
            print("FLAGGED:", problem)
        for metric, (value, unit) in metrics.items():
            print(f"{metric} = {value:.6g} {unit}" + ("" if metric in gated else "  (reported, not gated)"))
        result = {
            "correct": failed == 0 and not problems,
            "attempted": len(items),
            "failed": failed,
            "metrics": {metric: {"value": metrics[metric][0], "unit": metrics[metric][1]}
                        for metric in gated if metric in metrics},
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qgrnn" / "__init__.py").is_file():
        print(f"error: no qgrnn sources under {SRC}; run from the root of a source checkout",
              file=sys.stderr)
        return 2
    # Fixed before numpy is imported, so every run uses the same BLAS thread count.
    for variable in BLAS_THREAD_VARIABLES:
        os.environ[variable] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        set_up(args.workload)
        print("ready", flush=True)
        return 0
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
