"""Fig. 6: speedup over Gunrock, 5 algorithms x 6 real-world graphs.

Paper: GraphDynS 4.4x GM (with half the GPU's memory bandwidth);
Graphicionado in between; CC shows the smallest speedups because Gunrock's
online filtering prunes CC work; PR shows the largest.
"""

from conftest import run_once

from repro.harness import figure6, geomean


def test_fig6_speedup(benchmark, service):
    result = run_once(benchmark, lambda: figure6(service))
    print()
    print(result.render())

    gm = result.rows[-1]
    gio_gm, gds_gm = gm[2], gm[3]
    # Shape: GraphDynS GM in the paper's band, above Graphicionado, above 1.
    assert 3.0 < gds_gm < 7.0, f"GraphDynS GM speedup {gds_gm}"
    assert 1.0 < gio_gm < gds_gm

    by_algo = {}
    for row in result.rows[:-1]:
        by_algo.setdefault(row[0], []).append(row[3])
    algo_gm = {algo: geomean(vals) for algo, vals in by_algo.items()}
    assert min(algo_gm, key=algo_gm.get) == "CC"
    top_two = sorted(algo_gm, key=algo_gm.get)[-2:]
    assert "PR" in top_two, algo_gm
