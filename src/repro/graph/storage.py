"""Out-of-core CSR storage backends.

The paper's headline results run on 10^7-10^8-edge graphs; holding three
fully-materialized CSR arrays (plus generation temporaries) in a Python
process puts those operating points out of reach.  This module is the
storage seam that closes the gap:

``GraphStorage``
    The backend contract: ``adopt`` takes ownership of a graph's arrays
    (possibly rewriting them into a different residency) and ``close``
    releases every OS resource deterministically.  Storages are context
    managers, so spill files can never outlive the code that needs them.

``InMemoryStorage``
    The historical default: arrays live on the heap, ``adopt`` is the
    identity, ``close`` is a no-op.

``MmapStorage``
    The out-of-core backend: arrays are spilled once to ``.npy`` member
    files under a spill directory and reopened memory-mapped read-only
    (``np.load(..., mmap_mode="r")``), so a :class:`CSRGraph` never
    fully materializes -- the OS pages CSR data in and out on demand,
    and concurrent worker processes mapping the same spill share one
    page-cache copy instead of multiplying resident memory.

``assemble_csr``
    Two-pass out-of-core CSR construction from an edge-chunk stream:
    pass 1 counts per-source degrees, pass 2 places each chunk into the
    (possibly memory-mapped) destination arrays through per-vertex
    cursors.  Peak resident memory is one chunk plus two vertex-sized
    arrays, independent of the edge count -- this is what makes the
    paper-scale RMAT specs (``RM22-FULL``..) buildable at all.

Every spill directory records :data:`STORAGE_FORMAT_VERSION` in its
``meta.json``; the dataset fingerprint folds the same constant in, so a
format change invalidates persistent results instead of misreading them.
"""

from __future__ import annotations

import abc
import glob
import json
import os
import shutil
import tempfile
import time
import weakref
from typing import Callable, Iterable, List, Optional, Tuple

import numpy as np

from .csr import CSRGraph, GraphError, index_dtype, radix_argsort

__all__ = [
    "STORAGE_FORMAT_VERSION",
    "STORAGE_KINDS",
    "StorageError",
    "GraphStorage",
    "InMemoryStorage",
    "MmapStorage",
    "create_storage",
    "assemble_csr",
    "gc_stale_spills",
    "spill_dir_root",
]

#: Version of the on-disk spill layout; folded into dataset fingerprints.
STORAGE_FORMAT_VERSION = 1

#: Registered storage backend kinds, in preference order.
STORAGE_KINDS: Tuple[str, ...] = ("memory", "mmap")

#: Environment override for where spill directories are created.
SPILL_DIR_ENV = "REPRO_SPILL_DIR"

_SPILL_META = "meta.json"
_SPILL_MEMBERS = ("offsets", "edges", "weights")
#: Ownership marker written into every *owned* anonymous spill dir so a
#: garbage collector can tell live spills (owner pid still running) from
#: orphans left behind by a killed process.
_SPILL_OWNER = "owner.json"
_SPILL_PREFIX = "repro-spill-"


class StorageError(RuntimeError):
    """A storage backend was used after close, or a spill is invalid."""


def spill_dir_root() -> str:
    """Directory under which anonymous spill directories are created."""
    return os.environ.get(SPILL_DIR_ENV) or tempfile.gettempdir()


class GraphStorage(abc.ABC):
    """Where a :class:`CSRGraph`'s arrays live.

    A storage is a context manager owning OS resources (spill files,
    memory maps).  ``adopt`` rewrites a graph into this storage's
    residency; ``close`` releases everything deterministically --
    repeated matrix runs must never leak file descriptors or temp
    directories (``clear_cache`` in :mod:`repro.graph.datasets` closes
    every storage it opened).
    """

    kind: str = "?"

    def __init__(self) -> None:
        self._closed = False

    # -- contract ------------------------------------------------------
    @abc.abstractmethod
    def adopt(self, graph: CSRGraph) -> CSRGraph:
        """A graph equal to ``graph`` whose arrays live in this storage."""

    def close(self) -> None:
        """Release maps/files; idempotent."""
        self._closed = True

    @property
    def closed(self) -> bool:
        return self._closed

    def _check_open(self) -> None:
        if self._closed:
            raise StorageError(f"{type(self).__name__} is closed")

    # -- context management --------------------------------------------
    def __enter__(self) -> "GraphStorage":
        self._check_open()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self._closed else "open"
        return f"<{type(self).__name__} kind={self.kind} {state}>"


class InMemoryStorage(GraphStorage):
    """Heap-resident arrays: the historical default behaviour."""

    kind = "memory"

    def adopt(self, graph: CSRGraph) -> CSRGraph:
        self._check_open()
        return graph


class MmapStorage(GraphStorage):
    """Arrays spilled to ``.npy`` files and memory-mapped read-only.

    Args:
        directory: spill directory; created (and owned, i.e. removed on
            :meth:`close`) when ``None``.
        keep: keep the spill directory on close even when owned; useful
            for warm restarts of paper-scale graphs.
    """

    kind = "mmap"

    def __init__(
        self, directory: Optional[str] = None, keep: bool = False
    ) -> None:
        super().__init__()
        if directory is None:
            directory = tempfile.mkdtemp(
                prefix=_SPILL_PREFIX, dir=spill_dir_root()
            )
            self._owned = True
            _write_spill_owner(directory)
        else:
            os.makedirs(directory, exist_ok=True)
            self._owned = False
        self.directory = directory
        self.keep = keep
        self._maps: List[np.ndarray] = []
        # Last-resort cleanup if the owner forgets to close(); the
        # deterministic path is close()/clear_cache()/context exit.
        self._finalizer = weakref.finalize(
            self, _cleanup_spill, directory if self._owned and not keep else None
        )

    # -- helpers -------------------------------------------------------
    def _member_path(self, member: str) -> str:
        return os.path.join(self.directory, f"{member}.npy")

    def _write_meta(self, graph: CSRGraph) -> None:
        meta = {
            "format": STORAGE_FORMAT_VERSION,
            "name": graph.name,
            "num_vertices": graph.num_vertices,
            "num_edges": graph.num_edges,
        }
        path = os.path.join(self.directory, _SPILL_META)
        with open(path, "w") as handle:
            json.dump(meta, handle, sort_keys=True)

    def _read_meta(self) -> dict:
        path = os.path.join(self.directory, _SPILL_META)
        try:
            with open(path) as handle:
                meta = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise StorageError(f"invalid spill at {self.directory}: {exc}")
        if meta.get("format") != STORAGE_FORMAT_VERSION:
            raise StorageError(
                f"spill at {self.directory} has format "
                f"{meta.get('format')!r}, expected {STORAGE_FORMAT_VERSION}"
            )
        return meta

    def _map_member(self, member: str) -> np.ndarray:
        array = np.load(self._member_path(member), mmap_mode="r")
        self._maps.append(array)
        return array

    def _graph_from_maps(self, name: str) -> CSRGraph:
        # The spill was validated (or assembled) when written; skip the
        # full-array validation scan so opening a paper-scale spill does
        # not page every byte in.
        offsets = self._map_member("offsets")
        edges = self._map_member("edges")
        width = index_dtype(offsets.size - 1, edges.size)
        if offsets.dtype != width or edges.dtype != width:
            # Widening or narrowing would copy the mapped arrays into
            # memory; a spill in another index width is rebuilt instead.
            raise StorageError(
                f"spill at {self.directory} holds {edges.dtype} ids, "
                f"expected {width}"
            )
        return CSRGraph(
            offsets=offsets,
            edges=edges,
            weights=self._map_member("weights"),
            name=name,
            validate=False,
        )

    # -- contract ------------------------------------------------------
    def adopt(self, graph: CSRGraph) -> CSRGraph:
        """Spill ``graph``'s arrays and return an mmap-backed twin."""
        self._check_open()
        for member in _SPILL_MEMBERS:
            np.save(self._member_path(member), getattr(graph, member))
        self._write_meta(graph)
        return self._graph_from_maps(graph.name)

    def load(self) -> CSRGraph:
        """Reopen an existing spill directory written by :meth:`adopt`."""
        self._check_open()
        meta = self._read_meta()
        for member in _SPILL_MEMBERS:
            if not os.path.exists(self._member_path(member)):
                raise StorageError(
                    f"spill at {self.directory} is missing {member}.npy"
                )
        return self._graph_from_maps(str(meta.get("name", "spill")))

    def allocate_member(
        self, member: str, shape: Tuple[int, ...], dtype: np.dtype
    ) -> np.memmap:
        """Create a writable ``.npy`` memmap for out-of-core assembly."""
        self._check_open()
        array = np.lib.format.open_memmap(
            self._member_path(member), mode="w+", dtype=dtype, shape=shape
        )
        self._maps.append(array)
        return array

    def seal(self, name: str) -> CSRGraph:
        """Flush writable members and reopen everything read-only."""
        self._check_open()
        self._release_maps()
        graph = self._graph_from_maps(name)
        meta_graph = graph
        self._write_meta(meta_graph)
        return graph

    # -- cleanup -------------------------------------------------------
    def _release_maps(self) -> None:
        for array in self._maps:
            mm = getattr(array, "_mmap", None)
            if mm is not None:
                try:
                    array.flush()
                except (ValueError, OSError):  # read-only or already gone
                    pass
                try:
                    mm.close()
                except (BufferError, OSError):
                    # A live external view still references the buffer;
                    # dropping our reference is the best we can do.
                    pass
        self._maps.clear()

    def close(self) -> None:
        if self._closed:
            return
        self._release_maps()
        self._finalizer.detach()
        if self._owned and not self.keep:
            shutil.rmtree(self.directory, ignore_errors=True)
        super().close()


def _cleanup_spill(directory: Optional[str]) -> None:
    if directory:
        shutil.rmtree(directory, ignore_errors=True)


def _write_spill_owner(directory: str) -> None:
    payload = {"pid": os.getpid(), "created": time.time()}
    try:
        with open(os.path.join(directory, _SPILL_OWNER), "w") as handle:
            json.dump(payload, handle, sort_keys=True)
    except OSError:  # ownership marking is best-effort, never fatal
        pass


def _pid_alive(pid: int) -> bool:
    """True when ``pid`` exists (signal-0 probe; EPERM counts as alive)."""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - other-user process
        return True
    except OSError:  # pragma: no cover - exotic platforms
        return False
    return True


def spill_owner_pid(directory: str) -> Optional[int]:
    """The pid recorded in a spill's ownership marker, if readable."""
    try:
        with open(os.path.join(directory, _SPILL_OWNER)) as handle:
            return int(json.load(handle)["pid"])
    except (OSError, ValueError, KeyError, TypeError):
        return None


def gc_stale_spills(
    root: Optional[str] = None, grace_seconds: float = 60.0
) -> List[str]:
    """Remove orphaned ``repro-spill-*`` directories; return what was removed.

    A spill is an *orphan* when its recorded owner pid no longer exists;
    a spill with no readable owner marker (pre-marker layout, or torn by
    a kill) is only collected once it has been idle for ``grace_seconds``
    — never a directory another live process may still be mapping.  The
    serving daemon calls this at startup so repeated crash/restart
    cycles cannot leak temp space.
    """
    removed: List[str] = []
    now = time.time()
    pattern = os.path.join(root or spill_dir_root(), _SPILL_PREFIX + "*")
    for directory in sorted(glob.glob(pattern)):
        if not os.path.isdir(directory):
            continue
        pid = spill_owner_pid(directory)
        if pid is not None:
            if pid == os.getpid() or _pid_alive(pid):
                continue
        else:
            try:
                age = now - os.path.getmtime(directory)
            except OSError:
                continue
            if age < grace_seconds:
                continue
        shutil.rmtree(directory, ignore_errors=True)
        removed.append(directory)
    return removed


def create_storage(kind: str, **options: object) -> GraphStorage:
    """Instantiate a storage backend by kind (``"memory"``/``"mmap"``)."""
    folded = kind.lower()
    if folded == "memory":
        return InMemoryStorage()
    if folded == "mmap":
        return MmapStorage(**options)  # type: ignore[arg-type]
    raise ValueError(
        f"unknown storage kind {kind!r}; expected one of {STORAGE_KINDS}"
    )


# ----------------------------------------------------------------------
# Out-of-core CSR assembly
# ----------------------------------------------------------------------

EdgeChunk = Tuple[np.ndarray, np.ndarray, np.ndarray]


def _chunk_positions(
    src: np.ndarray, cursor: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Destination indices for one chunk's edges, stable within sources.

    Returns ``(order, positions)`` where ``order`` stably sorts the
    chunk by source and ``positions[i]`` is the CSR slot of the
    ``order[i]``-th edge.  ``cursor`` (next free slot per vertex) is
    advanced in place.
    """
    order = radix_argsort(src, cursor.size)
    s_sorted = src[order]
    # Group boundaries of the sorted sources: ramp within each group.
    first = np.flatnonzero(np.r_[True, s_sorted[1:] != s_sorted[:-1]])
    sizes = np.diff(np.r_[first, s_sorted.size])
    ramp = np.arange(s_sorted.size, dtype=np.int64) - np.repeat(first, sizes)
    group_sources = s_sorted[first]
    positions = np.repeat(cursor[group_sources], sizes) + ramp
    cursor[group_sources] += sizes
    return order, positions


def assemble_csr(
    num_vertices: int,
    chunk_factory: Callable[[], Iterable[EdgeChunk]],
    storage: Optional[GraphStorage] = None,
    name: str = "graph",
) -> CSRGraph:
    """Build a CSR graph from an edge-chunk stream without materializing it.

    Two passes over ``chunk_factory()`` (which must yield the *same*
    chunk sequence each call): pass 1 accumulates per-source degree
    counts into the offsets array; pass 2 places every chunk's edges
    into the destination arrays through per-vertex cursors, stable in
    generation order within each source -- exactly the ordering
    :meth:`CSRGraph.from_edge_list` produces, so in-memory and
    out-of-core assembly of the same stream are array-identical.

    Args:
        num_vertices: total vertex count.
        chunk_factory: zero-argument callable returning an iterable of
            ``(src, dst, weight)`` array triples.
        storage: where the destination arrays live; in-memory when
            ``None``.  :class:`MmapStorage` keeps peak residency at one
            chunk plus two vertex-sized arrays.
        name: dataset name of the assembled graph.
    """
    if num_vertices < 0:
        raise GraphError("num_vertices must be non-negative")
    counts = np.zeros(num_vertices + 1, dtype=np.int64)
    num_edges = 0
    for src, dst, _w in chunk_factory():
        src = np.asarray(src)
        if src.size and (src.min() < 0 or src.max() >= num_vertices):
            raise GraphError("edge source out of range")
        counts[1:] += np.bincount(src, minlength=num_vertices)
        num_edges += src.size
    offsets = np.cumsum(counts)

    # The members are allocated in the graph's index width, known once
    # pass 1 has counted the edges.
    width = index_dtype(num_vertices, num_edges)
    if isinstance(storage, MmapStorage):
        offsets_out = storage.allocate_member(
            "offsets", (num_vertices + 1,), width
        )
        edges_out = storage.allocate_member("edges", (num_edges,), width)
        weights_out = storage.allocate_member(
            "weights", (num_edges,), np.dtype(np.float32)
        )
    else:
        offsets_out = np.zeros(num_vertices + 1, dtype=width)
        edges_out = np.zeros(num_edges, dtype=width)
        weights_out = np.zeros(num_edges, dtype=np.float32)
    offsets_out[:] = offsets

    cursor = offsets[:-1].copy()
    placed = 0
    for src, dst, w in chunk_factory():
        src = np.asarray(src)
        dst = np.asarray(dst)
        w = np.asarray(w, dtype=np.float32)
        if dst.size and (dst.min() < 0 or dst.max() >= num_vertices):
            raise GraphError("edge destination out of range")
        if not (src.size == dst.size == w.size):
            raise GraphError("chunk arrays must be parallel")
        if src.size == 0:
            continue
        order, positions = _chunk_positions(src, cursor)
        edges_out[positions] = dst[order]
        weights_out[positions] = w[order]
        placed += src.size
    if placed != num_edges:
        raise GraphError(
            f"chunk_factory yielded {placed} edges on pass 2, "
            f"expected {num_edges} (streams must be repeatable)"
        )

    if isinstance(storage, MmapStorage):
        return storage.seal(name)
    graph = CSRGraph(
        offsets=offsets_out, edges=edges_out, weights=weights_out, name=name
    )
    if storage is not None:
        return storage.adopt(graph)
    return graph
