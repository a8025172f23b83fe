"""Graph-embedded feature reconstruction from quantum time evolution, plus information hiding."""

from .statevector import basis_state, random_state
from .ising import TimeEvolvedSample, sample_evolution
from .training import TrainConfig, TrainResult, train_qgrnn
from .metrics import MetricReport, evaluate

__version__ = "0.1.0"

__all__ = [
    "basis_state",
    "random_state",
    "TimeEvolvedSample",
    "sample_evolution",
    "TrainConfig",
    "TrainResult",
    "train_qgrnn",
    "MetricReport",
    "evaluate",
    "__version__",
]
