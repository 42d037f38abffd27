#!/usr/bin/env python
"""Head-to-head: GraphDynS vs Graphicionado vs Gunrock on one dataset.

Reproduces a single column of Figs. 6/7/9 -- pick a Table 4 proxy graph and
an algorithm, run all three system models on the identical functional
execution, and print speedup, throughput, traffic, and energy.

    python examples/compare_accelerators.py [GRAPH] [ALGO]
    python examples/compare_accelerators.py HO PR
"""

import sys

from repro.graph import datasets
from repro.harness import RunService, render_table


def main() -> None:
    graph_key = sys.argv[1] if len(sys.argv) > 1 else "LJ"
    algorithm = sys.argv[2] if len(sys.argv) > 2 else "SSSP"

    graph = datasets.load(graph_key)
    spec_row = datasets.DATASETS[graph_key]
    print(
        f"{spec_row.full_name} proxy: V={graph.num_vertices:,} "
        f"E={graph.num_edges:,} (paper: V={spec_row.paper_vertices/1e6:.2f}M "
        f"E={spec_row.paper_edges/1e6:.1f}M)"
    )

    cell = RunService().cell(algorithm, graph_key)
    gunrock = cell.reports["Gunrock"]

    rows = []
    for system in ("Gunrock", "Graphicionado", "GraphDynS"):
        report = cell.reports[system]
        energy = cell.energy[system]
        rows.append(
            [
                system,
                report.gteps,
                report.speedup_over(gunrock),
                report.total_traffic_bytes / 1e6,
                100.0 * report.bandwidth_utilization,
                energy.total_j * 1e3,
                100.0 * energy.normalized_to(cell.energy["Gunrock"]),
            ]
        )
    print(
        render_table(
            [
                "system", "GTEPS", "speedup", "traffic_MB",
                "bw_util_%", "energy_mJ", "energy_vs_GUN_%",
            ],
            rows,
            title=f"\n{algorithm} on {graph_key}",
        )
    )
    gds = cell.reports["GraphDynS"]
    print(
        f"\nGraphDynS stats: {gds.iterations} iterations, "
        f"{gds.scheduling_ops:,} scheduling ops, "
        f"{gds.update_operations:,} update ops "
        f"(of {gds.iterations * graph.num_vertices:,} naive)"
    )


if __name__ == "__main__":
    main()
