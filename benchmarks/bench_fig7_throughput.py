"""Fig. 7: throughput in GTEPS (ideal peak 128).

Paper GM: Gunrock 8, Graphicionado 21, GraphDynS 43; GraphDynS PR reaches
the highest throughput (paper: 87.5 GTEPS average for PR); nothing reaches
the 128 GTEPS peak because DRAM refresh and vertex traffic consume
bandwidth.
"""

from conftest import run_once

from repro.harness import figure7, geomean


def test_fig7_throughput(benchmark, service):
    result = run_once(benchmark, lambda: figure7(service))
    print()
    print(result.render())

    gm = result.rows[-1]
    gun_gm, gio_gm, gds_gm = gm[2], gm[3], gm[4]
    assert 4.0 < gun_gm < 16.0, f"Gunrock GM {gun_gm}"
    assert 12.0 < gio_gm < 40.0, f"Graphicionado GM {gio_gm}"
    assert 30.0 < gds_gm < 75.0, f"GraphDynS GM {gds_gm}"
    assert gun_gm < gio_gm < gds_gm

    # No cell exceeds the 128 edges/cycle hardware ceiling.
    for row in result.rows[:-1]:
        assert row[4] < 128.0

    # PR is GraphDynS's best algorithm.
    pr = geomean([row[4] for row in result.rows[:-1] if row[0] == "PR"])
    others = geomean([row[4] for row in result.rows[:-1] if row[0] != "PR"])
    assert pr > others
