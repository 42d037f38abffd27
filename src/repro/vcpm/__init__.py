"""Vertex-Centric Programming Model: specs, algorithms, engines, references."""

from .spec import AlgorithmSpec, ReduceOp
from .algorithms import (
    ALGORITHMS,
    BFS,
    CC,
    PAGERANK,
    PR_ALPHA,
    PR_BETA,
    SSSP,
    SSWP,
    algorithm_names,
    get_algorithm,
)
from .engine import (
    Frontier,
    IterationData,
    IterationObserver,
    IterationTrace,
    VCPMResult,
    gather_edge_indices,
    run_vcpm,
)
from .incremental import (
    IncrementalOutcome,
    run_vcpm_incremental,
    supports_delta,
)
from .optimized import (
    ActiveVertex,
    OptimizedRunResult,
    VertexListWorkload,
    dispatch_apply,
    dispatch_scatter,
    run_optimized,
)
from .partitioned import (
    ShardRunner,
    ShardScatterTask,
    run_vcpm_partitioned,
    scatter_shard_task,
)
from .pull import run_vcpm_pull
from .sliced import run_vcpm_sliced
from .extensions import (
    DEGREE_COUNT,
    EXTENSION_ALGORITHMS,
    MAX_INCOMING,
    REACHABILITY,
    SPMV,
    get_extension,
)
from . import reference

__all__ = [
    "AlgorithmSpec",
    "ReduceOp",
    "ALGORITHMS",
    "BFS",
    "SSSP",
    "CC",
    "SSWP",
    "PAGERANK",
    "PR_ALPHA",
    "PR_BETA",
    "algorithm_names",
    "get_algorithm",
    "Frontier",
    "IterationData",
    "IterationObserver",
    "IterationTrace",
    "VCPMResult",
    "gather_edge_indices",
    "run_vcpm",
    "IncrementalOutcome",
    "run_vcpm_incremental",
    "supports_delta",
    "ActiveVertex",
    "OptimizedRunResult",
    "VertexListWorkload",
    "dispatch_apply",
    "dispatch_scatter",
    "run_optimized",
    "run_vcpm_pull",
    "run_vcpm_sliced",
    "ShardRunner",
    "ShardScatterTask",
    "run_vcpm_partitioned",
    "scatter_shard_task",
    "SPMV",
    "DEGREE_COUNT",
    "MAX_INCOMING",
    "REACHABILITY",
    "EXTENSION_ALGORITHMS",
    "get_extension",
    "reference",
]
