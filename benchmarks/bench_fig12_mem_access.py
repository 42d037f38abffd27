"""Fig. 12: total off-chip data accessed, normalized to Gunrock.

Paper GM: GraphDynS 36% (64% reduction), Graphicionado 53% (47% less than
Gunrock); Graphicionado's excess over GraphDynS is the per-edge src_vid
(1.65x edge traffic) and full-vertex Apply traffic.
"""

from conftest import run_once

from repro.harness import figure12


def test_fig12_mem_access(benchmark, service):
    result = run_once(benchmark, lambda: figure12(service))
    print()
    print(result.render())

    gm = result.rows[-1]
    gio_pct, gds_pct = gm[2], gm[3]
    assert 20.0 < gds_pct < 50.0, f"GraphDynS accesses {gds_pct}%"
    assert gds_pct < gio_pct < 75.0

    # Per-cell: GraphDynS never accesses more than Graphicionado.
    for row in result.rows[:-1]:
        assert row[3] <= row[2], row
