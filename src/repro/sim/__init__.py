"""Queue and port primitives for the hardware micro-models."""

from .port import Port
from .queues import BoundedQueue, DoubleBuffer, QueueEmptyError, QueueFullError

__all__ = [
    "Port",
    "BoundedQueue",
    "DoubleBuffer",
    "QueueEmptyError",
    "QueueFullError",
]
