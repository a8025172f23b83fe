"""Self-test of the layer tracer on a tiny configuration.

    python3 benchmarks/selftest.py

Runs `reconstruct` + `classify` on one Iris row and `hide` + `reveal` of a
two-word message, a few epochs each, under the tracer. It fails unless
every per-layer metric's span was recorded at least once, every traced
name was found, and every binding the tracer replaced is restored after it.
"""
from __future__ import annotations

import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import qgrnn.cli  # noqa: E402
from trace_layers import FUNCTIONS, LAYER_METRICS, Tracer, package_modules, traced_bindings  # noqa: E402
from workloads import DICTIONARY, run_cli  # noqa: E402

TINY = ("--epochs", "3", "--batch-size", "3")


def bindings() -> dict[str, object]:
    """Every name in the package's modules and every attribute of their classes, by identity."""
    found = {}
    for module in package_modules():
        for attr, value in vars(module).items():
            found[f"{module.__name__}.{attr}"] = value
            if isinstance(value, type):
                for name, member in vars(value).items():
                    found[f"{module.__name__}.{attr}.{name}"] = member
    return found


def main() -> int:
    work = HERE / ".work" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cli = sys.modules["qgrnn.cli"]
    dictionary = work / "dictionary.txt"
    dictionary.write_text("\n".join(DICTIONARY) + "\n", encoding="utf-8")
    before = bindings()
    originals = [getattr(sys.modules[m], attr) for m, attr, _, _ in FUNCTIONS if m in sys.modules]
    try:
        with Tracer() as tracer:
            commands = [
                run_cli(cli, ["reconstruct", "--out", work / "r", "--samples", "18", "--restarts", "1", *TINY]),
                run_cli(cli, ["classify", "--reconstructed", work / "r", "--out", work / "c"]),
                run_cli(cli, ["hide", "--message", "alpha bravo", "--dict", dictionary, "--out", work / "h", *TINY]),
                run_cli(cli, ["reveal", "--archive", work / "h" / "archive.json", "--dict", dictionary,
                              "--out", work / "v", "--restarts", "2", *TINY]),
            ]
            during = bindings()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failures = [f"`qgrnn {' '.join(c.argv)}` exited with {c.code}: {c.stderr}" for c in commands if c.code != 0]
    failures += [f"not found: {name}" for name in tracer.missing]
    totals = tracer.span_totals()
    failures += [
        f"{metric}: no {span} span recorded"
        for metric, (_, span, _) in LAYER_METRICS.items()
        if totals.get(span, (0.0, 0.0, 0))[2] < 1
    ]
    failures += [f"left unwrapped while tracing: {name}" for name, value in during.items()
                 if any(value is f for f in originals)]
    after = bindings()
    failures += [f"not restored: {name}" for name, value in before.items() if after.get(name) is not value]
    failures += [f"still wrapped: {name}" for name in traced_bindings()]
    for failure in failures:
        print("FAIL:", failure)
    wrapped = sum(before.get(name) is not value for name, value in during.items())
    print(f"{len(LAYER_METRICS)} per-layer metrics, {wrapped} bindings wrapped, "
          f"{len(tracer.spans)} spans: {'FAILED' if failures else 'ok'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
