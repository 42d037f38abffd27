"""The benchmark's three workloads.

Each workload has a ``setup`` (graph builds, churn trace, initial
fixpoints and one untimed warm-up op on a graph outside the timed set)
and a ``run`` (the timed ops, with the output checks between them, off
the clock).  The amount of work is fixed by ``--seconds`` through a
nominal rate measured once, so a given ``(seed, seconds)`` always does
the same work and yields the same output digest: a faster program
finishes sooner, it does not do more.

Only public entry points are driven: ``RunService.cell``,
``datasets.load``, ``DynamicGraph.apply`` and ``run_vcpm_incremental``
(plus ``run_vcpm`` as the unsharded / full-rerun reference in checks).
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import os
import shutil
import statistics
import tempfile
import time
from typing import Callable, ContextManager, Dict, List, Optional, Tuple

import numpy as np

from repro import backends
from repro.graph import datasets
from repro.graph.dynamic import DynamicGraph, EdgeBatch
from repro.harness.service import RunService, canonical_reports_json
from repro.vcpm.algorithms import algorithm_names, get_algorithm
from repro.vcpm.engine import run_vcpm
from repro.vcpm.incremental import run_vcpm_incremental


@dataclasses.dataclass
class Outcome:
    """What one timed phase did, and whether its outputs were right."""

    #: Durations of the units the op percentiles are taken over.
    op_s: List[float]
    #: Time of the timed phase: the sum of the timed ops.
    wall_s: float
    #: Sum of ``VCPMResult.total_edges_processed`` over every op.
    edges: int
    attempted: int
    failed: int
    digest: str
    bytes_written: int = 0
    notes: List[str] = dataclasses.field(default_factory=list)


def _sha256(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk if isinstance(chunk, bytes) else chunk.encode("utf-8"))
    return h.hexdigest()


def _dir_bytes(path: str) -> int:
    return sum(entry.stat().st_size for entry in os.scandir(path) if entry.is_file())


class Workload:
    """Shared plumbing: sizing, the work dir, and the untraced-check scope."""

    name = "?"

    def __init__(self, seed: int, seconds: float, work_dir: str) -> None:
        self.seed = seed
        self.seconds = seconds
        self.work_dir = work_dir
        #: Scope for program calls made by checks; the traced run swaps in
        #: the tracer's ``paused`` so checks are not attributed to layers.
        self.unrecorded: Callable[[], ContextManager] = contextlib.nullcontext

    def repeats(self, nominal_s: float, minimum: int = 1) -> int:
        """How many units of ``nominal_s`` seconds fill ``--seconds``."""
        return max(minimum, round(self.seconds / nominal_s))

    def setup(self) -> None:
        raise NotImplementedError

    def run(self) -> Outcome:
        raise NotImplementedError


class _MatrixWorkload(Workload):
    """A batch job: cold passes over a fixed list of (algorithm, graph) cells.

    The op the percentiles are taken over is one whole pass, because
    per-cell percentiles on heterogeneous cells are rank statistics that
    jump between cells.
    """

    graphs: Tuple[str, ...] = ()
    #: Nominal seconds per pass (Xeon @ 2.1 GHz, 2 cores), sizes the run.
    pass_s = 1.0

    def cells(self) -> List[Tuple[str, str]]:
        return [(a, g) for a in algorithm_names() for g in self.graphs]

    def service(self, cache_dir: Optional[str]) -> RunService:
        raise NotImplementedError

    def check_pass(self, index: int, svc: RunService, cells, cache_dir) -> int:
        """Failed-cell count of one pass; runs off the clock."""
        raise NotImplementedError

    def run(self) -> Outcome:
        pairs = self.cells()
        pass_s: List[float] = []
        edges = failed = written = 0
        notes: List[str] = []
        self.reference = None
        for index in range(self.repeats(self.pass_s)):
            cache_dir = tempfile.mkdtemp(prefix="cache-", dir=self.work_dir)
            try:
                svc = self.service(cache_dir)
                cells, elapsed = [], 0.0
                for algorithm, graph_key in pairs:
                    start = time.perf_counter()
                    cell = svc.cell(algorithm, graph_key)
                    elapsed += time.perf_counter() - start
                    cells.append(cell)
                    edges += cell.functional.total_edges_processed
                pass_s.append(elapsed)
                with self.unrecorded():
                    bad = self.check_pass(index, svc, cells, cache_dir)
                if bad:
                    notes.append(f"pass {index}: {bad} cell(s) failed their check")
                failed += bad
                written += _dir_bytes(cache_dir)
            finally:
                shutil.rmtree(cache_dir, ignore_errors=True)
        return Outcome(
            op_s=pass_s,
            wall_s=sum(pass_s),
            edges=edges,
            attempted=len(pairs) * len(pass_s),
            failed=failed,
            digest=self.digest,
            bytes_written=written,
            notes=notes,
        )


class Table4Cold(_MatrixWorkload):
    """Cold Table-4 matrix over the three smallest proxies, all backends.

    Every cell is a miss into a fresh, empty cache dir and writes its
    envelope, as a first ``repro matrix`` does.
    """

    name = "table4-cold"
    graphs = ("FR", "PK", "LJ")
    pass_s = 15.0

    def service(self, cache_dir: Optional[str]) -> RunService:
        return RunService(cache_dir=cache_dir)

    def setup(self) -> None:
        datasets.clear_cache()
        for key in self.graphs:
            datasets.load(key)
        RunService(use_cache=False).cell("BFS", "RM22")  # warm-up op

    def check_pass(self, index, svc, cells, cache_dir) -> int:
        text = canonical_reports_json(cells)
        if index == 0:
            self.reference = text
            self.digest = _sha256([text])
        stats = svc.stats
        if (
            text != self.reference
            or stats.hits
            or stats.memory_hits
            or stats.misses != len(cells)
        ):
            # A pass that was not cold, or differs from the first pass.
            return len(cells)
        reread = RunService(cache_dir=cache_dir)
        failed = sum(
            canonical_reports_json([reread.cell(c.algorithm, c.graph_key)])
            != canonical_reports_json([c])
            for c in cells
        )
        if reread.stats.hits != len(cells) or reread.stats.misses:
            return len(cells)
        return failed


class RmatSharded(_MatrixWorkload):
    """Fig. 14f RMAT scaling row on the destination-sharded engine.

    mmap storage, 4 shards fanned out over a 2-process pool per cell,
    GraphDynS only.  AO is on, so conflict counting never runs here.
    """

    name = "rmat-sharded"
    graphs = ("RM22", "RM23", "RM24", "RM25", "RM26")
    pass_s = 9.0

    def service(self, cache_dir: Optional[str]) -> RunService:
        return RunService(
            backends=[backends.create("graphdyns")],
            use_cache=False,
            storage="mmap",
            shards=4,
            executor="process",
            jobs=2,
        )

    def setup(self) -> None:
        datasets.clear_cache()
        for key in self.graphs:
            datasets.load(key, storage="mmap")
        datasets.load("FR", storage="mmap")
        self.service(None).cell("BFS", "FR")  # warm-up op

    def check_pass(self, index, svc, cells, cache_dir) -> int:
        failed = 0
        if index == 0:
            self.reference = []
            for cell in cells:
                graph = datasets.load(cell.graph_key, storage="mmap")
                unsharded = run_vcpm(
                    graph, get_algorithm(cell.algorithm), source=svc.default_source
                )
                self.reference.append(unsharded.properties.tobytes())
            self.reference_text = canonical_reports_json(cells)
            self.digest = _sha256(
                [self.reference_text, *(c.functional.properties.tobytes() for c in cells)]
            )
        elif canonical_reports_json(cells) != self.reference_text:
            return len(cells)
        for cell, expected in zip(cells, self.reference):
            if cell.functional.properties.tobytes() != expected:
                failed += 1
        return failed


def churn_trace(
    graph, ops: int, batch_edges: int, rng: np.random.Generator
) -> List[EdgeBatch]:
    """Repeating insert, insert, mixed batches, valid in sequence.

    Inserts have uniform endpoints and integer weights in [1, 255] (the
    paper's weight convention); a mixed batch deletes ``batch_edges // 2``
    edges sampled from the multiset as it stands at that point of the
    trace and inserts the rest.
    """
    num_vertices = graph.num_vertices
    src = graph.edge_sources().astype(np.int64)
    dst = np.asarray(graph.edges, dtype=np.int64)
    wts = np.asarray(graph.weights, dtype=np.float32)
    batches = []
    for op in range(ops):
        n_del = batch_edges // 2 if op % 3 == 2 else 0
        n_ins = batch_edges - n_del
        victims = rng.choice(src.size, size=n_del, replace=False)
        deletes = np.stack([src[victims], dst[victims]], axis=1)
        delete_weights = wts[victims]
        inserts = rng.integers(0, num_vertices, size=(n_ins, 2), dtype=np.int64)
        insert_weights = rng.integers(1, 256, size=n_ins).astype(np.float32)
        batches.append(EdgeBatch(inserts, insert_weights, deletes, delete_weights))
        keep = np.ones(src.size, dtype=bool)
        keep[victims] = False
        src = np.concatenate([src[keep], inserts[:, 0]])
        dst = np.concatenate([dst[keep], inserts[:, 1]])
        wts = np.concatenate([wts[keep], insert_weights])
    return batches


class ChurnPK(Workload):
    """PK proxy under 2 insert-only : 1 mixed batches of 1% of its edges.

    One op is ``DynamicGraph.apply`` plus incremental BFS and SSSP, with
    no observers.  Insert-only ops set the median, mixed ops the tail.
    """

    name = "churn-pk"
    base = "PK"
    algorithms = ("BFS", "SSSP")
    batch_fraction = 0.01
    #: Nominal seconds per insert, insert, mixed cycle, sizes the run.
    cycle_s = 1.1

    def setup(self) -> None:
        datasets.clear_cache()
        graph = datasets.load(self.base)
        ops = 3 * self.repeats(self.cycle_s, minimum=2)
        batch_edges = round(self.batch_fraction * graph.num_edges)
        rng = np.random.default_rng(self.seed)
        self.batches = churn_trace(graph, ops, batch_edges, rng)
        self.dynamic = DynamicGraph(graph, key=f"{self.base}-CHURN")
        self.previous = {
            name: run_vcpm(self.dynamic.graph, get_algorithm(name), source=0)
            for name in self.algorithms
        }
        self._warm_up(rng)

    def _warm_up(self, rng: np.random.Generator) -> None:
        graph = datasets.load("FR")
        warm = DynamicGraph(graph, key="FR-WARMUP")
        (batch,) = churn_trace(graph, 1, round(self.batch_fraction * graph.num_edges), rng)
        warm.apply(batch)
        for name in self.algorithms:
            spec = get_algorithm(name)
            run_vcpm_incremental(warm.graph, spec, batch, run_vcpm(graph, spec, source=0))

    def run(self) -> Outcome:
        specs = [get_algorithm(name) for name in self.algorithms]
        previous: Dict[str, object] = dict(self.previous)
        op_s: List[float] = []
        edges = failed = 0
        notes: List[str] = []
        digest = hashlib.sha256()
        for index, batch in enumerate(self.batches):
            start = time.perf_counter()
            self.dynamic.apply(batch)
            graph = self.dynamic.graph
            outcomes = [
                run_vcpm_incremental(graph, spec, batch, previous[spec.name], source=0)
                for spec in specs
            ]
            op_s.append(time.perf_counter() - start)
            ok = True
            with self.unrecorded():
                for spec, outcome in zip(specs, outcomes):
                    result = outcome.result
                    previous[spec.name] = result
                    edges += result.total_edges_processed
                    digest.update(outcome.mode.encode("utf-8"))
                    digest.update(result.properties.tobytes())
                    full = run_vcpm(graph, spec, source=0)
                    if full.properties.tobytes() != result.properties.tobytes():
                        ok = False
                        notes.append(f"op {index} {spec.name}: differs from a full rerun")
                    if batch.insert_only and outcome.mode != "delta":
                        ok = False
                        notes.append(f"op {index} {spec.name}: fell back ({outcome.reason})")
            failed += not ok
        return Outcome(
            op_s=op_s,
            wall_s=sum(op_s),
            edges=edges,
            attempted=len(op_s),
            failed=failed,
            digest=digest.hexdigest(),
            notes=notes,
        )


WORKLOADS = {cls.name: cls for cls in (Table4Cold, RmatSharded, ChurnPK)}


def op_percentiles(op_s: List[float]) -> Tuple[float, float, str]:
    """(median, tail, tail label).

    The tail is the highest percentile with at least ten samples beyond
    it; with ten samples or fewer there is none, and the maximum stands
    in.
    """
    ordered = sorted(op_s)
    n = len(ordered)
    if n >= 11:
        rank = n - 11
        return statistics.median(ordered), ordered[rank], f"p{100 * (rank + 1) // n} of {n}"
    return statistics.median(ordered), ordered[-1], f"max of {n}"
