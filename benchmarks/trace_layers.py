"""Span tracer that times qgrnn's layers from outside the package.

The tracer wraps public functions and methods of the package. A module
that imports a function by name (``from .training import train_qgrnn`` in
``qgrnn.pipeline``) holds a second binding of it, so every binding in every
loaded ``qgrnn`` module is replaced and a call is traced whichever name the
caller used. ``uninstall`` puts every original binding back.

Spans nest: each records its name, start, end and the span that was open
when it began, so a layer's self time is its span time minus its children.
"""
from __future__ import annotations

import functools
import inspect
import os
import statistics
import sys
import time
from collections import defaultdict

PACKAGE = "qgrnn"


def _count_attempts(tracer, arguments, result):
    train_result, attempts = result
    tracer.counts["pipeline.attempts"] += attempts
    tracer.counts["pipeline.accepted"] += train_result.final_cost <= arguments["accept_cost"]


def _count_epochs(tracer, arguments, result):
    tracer.counts["training.epochs"] += len(result.cost_history)


def _record_depths(tracer, arguments, result):
    from qgrnn.ansatz import layer_count

    delta = arguments["delta"]
    depth = sum(layer_count(s.time, delta) for s in arguments["samples"])
    tracer.depth_sums[id(arguments["self"])] = depth


def _count_columns(tracer, arguments, result):
    columns = arguments["flat_matrix"].shape[1]
    tracer.counts["training.circuit_columns"] += columns
    tracer.counts["training.layer_column_products"] += (
        columns * tracer.depth_sums[id(arguments["self"])]
    )


def _archive_bytes(tracer, arguments, result):
    tracer.counts["hiding.archive_bytes"] += os.path.getsize(arguments["path"])


def _snap_margin(tracer, arguments, result):
    spacing = arguments["dictionary"].spacing
    margin = float(min((spacing / 2 - d) / spacing for d in result.snap_distances))
    tracer.minima["hiding.snap_margin"] = min(tracer.minima.get("hiding.snap_margin", margin), margin)


# (module, attribute, span name, hook run on the call's bound arguments and result)
FUNCTIONS = (
    ("qgrnn.cli", "main", "cli.command", None),
    ("qgrnn.datasets", "load_iris_csv", "datasets.load", None),
    ("qgrnn.datasets", "load_mnist_idx", "datasets.load", None),
    ("qgrnn.classifiers", "fit", "classifiers.fit", None),
    ("qgrnn.classifiers", "predict", "classifiers.predict", None),
    ("qgrnn.classifiers", "agreement_eval", "classifiers.predict", None),
    ("qgrnn.pipeline", "reconstruct_sample", "pipeline.reconstruct_sample", None),
    ("qgrnn.pipeline", "embed_and_sample", "pipeline.embed_and_sample", None),
    ("qgrnn.pipeline", "learn_from_states", "pipeline.learn", _count_attempts),
    ("qgrnn.ising", "sample_evolution", "ising.sample_evolution", None),
    ("qgrnn.statevector", "random_state", "statevector.random_state", None),
    ("qgrnn.ansatz", "coupling_columns", "ansatz.coupling_columns", None),
    ("qgrnn.ansatz", "transverse_layer_matrix", "ansatz.transverse_layer_matrix", None),
    ("qgrnn.training", "train_qgrnn", "training.train_attempt", _count_epochs),
    ("qgrnn.training", "adam_step", "training.adam_step", None),
    ("qgrnn.hiding", "load_dictionary", "hiding.load_dictionary", None),
    ("qgrnn.hiding", "encode_message", "hiding.encode", None),
    ("qgrnn.hiding", "save_archive", "hiding.save_archive", _archive_bytes),
    ("qgrnn.hiding", "load_archive", "hiding.load_archive", None),
    ("qgrnn.hiding", "reveal_message", "hiding.reveal", _snap_margin),
)

# (module, class, method, span name, hook)
METHODS = (
    ("qgrnn.training", "CostEvaluator", "__init__", "training.evaluator_init", _record_depths),
    ("qgrnn.training", "CostEvaluator", "gradient", "training.gradient", None),
    ("qgrnn.training", "CostEvaluator", "cost", "training.cost", None),
    ("qgrnn.training", "CostEvaluator", "costs", "training.costs", _count_columns),
)

# Per-layer metric -> (unit, span it is taken from, how: total | calls | self | a counter).
LAYER_METRICS = {
    "training.gradient_s": ("s", "training.gradient", "total"),
    "training.gradient_calls": ("count", "training.gradient", "calls"),
    "training.cost_s": ("s", "training.cost", "total"),
    "training.cost_calls": ("count", "training.cost", "calls"),
    "training.circuit_columns": ("count", "training.costs", "training.circuit_columns"),
    "training.layer_column_products": ("count", "training.costs", "training.layer_column_products"),
    "training.evaluator_init_s": ("s", "training.evaluator_init", "total"),
    "training.adam_step_s": ("s", "training.adam_step", "total"),
    "training.train_attempt_s": ("s", "training.train_attempt", "total"),
    "training.epochs": ("count", "training.train_attempt", "training.epochs"),
    "ansatz.coupling_columns_s": ("s", "ansatz.coupling_columns", "total"),
    "ansatz.transverse_layer_matrix_s": ("s", "ansatz.transverse_layer_matrix", "total"),
    "statevector.random_state_s": ("s", "statevector.random_state", "total"),
    "pipeline.learn_s": ("s", "pipeline.learn", "total"),
    "pipeline.attempts": ("count", "pipeline.learn", "pipeline.attempts"),
    "pipeline.accept_ratio": ("1", "pipeline.learn", "pipeline.accept_ratio"),
    "pipeline.embed_and_sample_s": ("s", "pipeline.embed_and_sample", "total"),
    "ising.sample_evolution_s": ("s", "ising.sample_evolution", "total"),
    "hiding.encode_s": ("s", "hiding.encode", "total"),
    "hiding.save_archive_s": ("s", "hiding.save_archive", "total"),
    "hiding.load_archive_s": ("s", "hiding.load_archive", "total"),
    "hiding.archive_bytes": ("B", "hiding.save_archive", "hiding.archive_bytes"),
    "hiding.reveal_s": ("s", "hiding.reveal", "total"),
    "hiding.snap_margin_min": ("1", "hiding.reveal", "hiding.snap_margin"),
    "datasets.load_s": ("s", "datasets.load", "total"),
    "classifiers.fit_s": ("s", "classifiers.fit", "total"),
    "cli.self_s": ("s", "cli.command", "self"),
}


def package_modules() -> list:
    return [
        m for key, m in list(sys.modules.items())
        if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
    ]


def traced_bindings() -> list[str]:
    """Bindings in loaded package modules, and methods of their classes, still wrapped by a tracer."""
    found = []
    for module in package_modules():
        for attr, value in list(vars(module).items()):
            if hasattr(value, "_traced_span"):
                found.append(f"{module.__name__}.{attr}")
            if isinstance(value, type):
                found += [f"{module.__name__}.{attr}.{m}" for m, v in vars(value).items()
                          if hasattr(v, "_traced_span")]
    return found


class Tracer:
    """Records nested spans and counters for the calls it wraps, in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: dict[str, float] = defaultdict(float)
        self.minima: dict[str, float] = {}
        self.depth_sums: dict[int, int] = {}
        self.missing: list[str] = []
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, hook):
        tracer = self
        signature = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), None, tracer._open[-1] if tracer._open else None]
            tracer._open.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._open.pop()
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(tracer, bound.arguments, result)
            return result

        traced._traced_span = name
        return traced

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> "Tracer":
        """Wrap every traced function at each of its bindings, and every traced method."""
        modules = package_modules()
        for module_name, attr, name, hook in FUNCTIONS:
            original = getattr(sys.modules.get(module_name), attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrap(original, name, hook)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)
        for module_name, cls_name, attr, name, hook in METHODS:
            cls = getattr(sys.modules.get(module_name), cls_name, None)
            original = vars(cls).get(attr) if cls is not None else None
            if original is None:
                self.missing.append(f"{module_name}.{cls_name}.{attr}")
                continue
            self._patch(cls, attr, self._wrap(original, name, hook))
        return self

    def uninstall(self) -> None:
        """Restore every binding that ``install`` replaced, latest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def span_totals(self) -> dict[str, tuple[float, float, int]]:
        """Span name -> (total seconds, self seconds, calls)."""
        child = defaultdict(float)
        for _, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        totals: dict[str, list] = defaultdict(lambda: [0.0, 0.0, 0])
        for index, (name, start, end, _) in enumerate(self.spans):
            entry = totals[name]
            entry[0] += end - start
            entry[1] += end - start - child[index]
            entry[2] += 1
        return {name: tuple(v) for name, v in totals.items()}

    def overhead_s(self) -> float:
        """Estimated time that tracing added: the calibrated cost of one span times the spans recorded."""
        plain, hooked = span_cost()
        with_hook = {name for *_, name, hook in FUNCTIONS + METHODS if hook is not None}
        hooked_spans = sum(span[0] in with_hook for span in self.spans)
        return plain * (len(self.spans) - hooked_spans) + hooked * hooked_spans

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Every metric of LAYER_METRICS; a layer the run never reached reads 0."""
        totals = self.span_totals()
        counts = dict(self.counts)
        if counts.get("pipeline.attempts"):
            counts["pipeline.accept_ratio"] = counts["pipeline.accepted"] / counts["pipeline.attempts"]
        out = {}
        for metric, (unit, span, how) in LAYER_METRICS.items():
            total, own, calls = totals.get(span, (0.0, 0.0, 0))
            if how == "total":
                value = total
            elif how == "self":
                value = own
            elif how == "calls":
                value = calls
            else:
                value = self.minima.get(how, counts.get(how, 0.0))
            out[metric] = (float(value), unit)
        return out


def span_cost(calls: int = 20000, repeats: int = 5) -> tuple[float, float]:
    """Seconds one traced call costs over the bare call: (without a hook, with a hook).

    A no-op function is timed bare and wrapped, alternately; each figure is
    the median over ``repeats`` of the per-call difference.
    """
    def noop(a, b=None):
        return a

    def hook(tracer, arguments, result):
        return None

    tracer = Tracer()

    def per_call(fn) -> float:
        tracer.spans.clear()
        start = time.perf_counter()
        for _ in range(calls):
            fn(1)
        return (time.perf_counter() - start) / calls

    costs = []
    for wrapped in (tracer._wrap(noop, "calibration", None), tracer._wrap(noop, "calibration", hook)):
        costs.append(statistics.median(per_call(wrapped) - per_call(noop) for _ in range(repeats)))
    return costs[0], costs[1]
