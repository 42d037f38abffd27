"""GraphDynS accelerator: configuration, timing, micro-model, top level."""

from .config import DEFAULT_CONFIG, GraphDynSConfig
from .timing import GraphDynSTimingModel
from .micro import MicroScatterResult, simulate_scatter_microarch
from .accelerator import GraphDynS

__all__ = [
    "DEFAULT_CONFIG",
    "GraphDynSConfig",
    "GraphDynSTimingModel",
    "MicroScatterResult",
    "simulate_scatter_microarch",
    "GraphDynS",
]
