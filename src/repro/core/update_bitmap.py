"""Ready-to-Update Bitmap (Section 5.3.1).

During the Scatter phase each Reducing Unit marks the vertices whose
temporary property it actually modified; during the Apply phase only marked
work is prefetched and dispatched, eliminating the unnecessary computation
and memory traffic of update irregularity (up to 88% of update operations
for BFS, Fig. 14d).

To keep the hardware cheap, one bit covers a *block* of 256 consecutive
vertices ("we use 1 bit to represent the ready status of 256 consecutive
vertices"): a marked block schedules all 256, so some slack remains -- the
model reproduces that granularity loss exactly.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable

import numpy as np

__all__ = ["ReadyToUpdateBitmap", "BitmapStats"]


@dataclasses.dataclass(frozen=True)
class BitmapStats:
    """Apply-phase work selected by the bitmap for one iteration."""

    num_vertices: int
    vertices_scheduled: int
    vertices_modified: int
    blocks_set: int
    total_blocks: int

    @property
    def work_reduction(self) -> float:
        """Fraction of Apply work eliminated vs. checking every vertex."""
        if self.num_vertices == 0:
            return 0.0
        return 1.0 - self.vertices_scheduled / self.num_vertices

    @property
    def slack(self) -> int:
        """Scheduled-but-unmodified vertices (block granularity cost)."""
        return self.vertices_scheduled - self.vertices_modified


class ReadyToUpdateBitmap:
    """Block-granular dirty bitmap over the vertex id space."""

    def __init__(self, num_vertices: int, block_size: int = 256) -> None:
        if block_size < 1:
            raise ValueError("block_size must be >= 1")
        if num_vertices < 0:
            raise ValueError("num_vertices must be >= 0")
        self.num_vertices = num_vertices
        self.block_size = block_size
        self.num_blocks = -(-num_vertices // block_size) if num_vertices else 0
        self._bits = np.zeros(self.num_blocks, dtype=bool)

    def mark(self, vertex_ids: np.ndarray | Iterable[int]) -> None:
        """Set the bit of every block containing a modified vertex."""
        ids = np.asarray(list(vertex_ids) if not isinstance(vertex_ids, np.ndarray) else vertex_ids, dtype=np.int64)
        if ids.size == 0:
            return
        if ids.min() < 0 or ids.max() >= self.num_vertices:
            raise IndexError("vertex id out of range")
        self._bits[ids // self.block_size] = True

    def is_marked(self, vertex_id: int) -> bool:
        """Whether ``vertex_id``'s block is scheduled for update."""
        if not (0 <= vertex_id < self.num_vertices):
            raise IndexError("vertex id out of range")
        return bool(self._bits[vertex_id // self.block_size])

    @property
    def blocks_set(self) -> int:
        return int(np.count_nonzero(self._bits))

    def scheduled_vertices(self) -> np.ndarray:
        """Vertex ids the Apply phase will actually process."""
        blocks = np.flatnonzero(self._bits)
        if blocks.size == 0:
            return np.zeros(0, dtype=np.int64)
        starts = blocks * self.block_size
        ids = (starts[:, None] + np.arange(self.block_size)).ravel()
        return ids[ids < self.num_vertices]

    def stats(self, modified_ids: np.ndarray) -> BitmapStats:
        """Summarize this iteration's selection quality."""
        return BitmapStats(
            num_vertices=self.num_vertices,
            vertices_scheduled=int(self.scheduled_vertices().size),
            vertices_modified=int(np.asarray(modified_ids).size),
            blocks_set=self.blocks_set,
            total_blocks=self.num_blocks,
        )

    def clear(self) -> None:
        """Reset for the next iteration (done as Apply drains)."""
        self._bits[:] = False

    @staticmethod
    def scheduled_count(
        modified_ids: np.ndarray, num_vertices: int, block_size: int = 256
    ) -> int:
        """Closed-form count of scheduled vertices (timing-layer fast path).

        Exact for ids in any order: the distinct blocks are flagged in a
        ``ceil(V / block_size)``-entry mask, not found by sorting.
        """
        ids = np.asarray(modified_ids, dtype=np.int64)
        if ids.size == 0 or num_vertices == 0:
            return 0
        marked = np.zeros(-(-num_vertices // block_size), dtype=bool)
        marked[ids // block_size] = True
        scheduled = int(np.count_nonzero(marked)) * block_size
        # The last block may be truncated by the vertex count.
        partial = num_vertices % block_size
        if partial and marked[-1]:
            scheduled -= block_size - partial
        return scheduled
