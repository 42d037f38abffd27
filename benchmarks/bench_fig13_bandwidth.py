"""Fig. 13: average memory bandwidth utilization.

Paper GM: Gunrock 31% (random accesses), Graphicionado and GraphDynS both
around 56% -- Graphicionado's extra src_vid bytes stream sequentially, so
its raw utilization is comparable even though GraphDynS uses the bandwidth
more *usefully*.
"""

from conftest import run_once

from repro.harness import figure13


def test_fig13_bandwidth(benchmark, service):
    result = run_once(benchmark, lambda: figure13(service))
    print()
    print(result.render())

    gm = result.rows[-1]
    gun_pct, gio_pct, gds_pct = gm[2], gm[3], gm[4]
    assert 15.0 < gun_pct < 45.0, f"Gunrock utilization {gun_pct}%"
    assert 40.0 < gio_pct < 85.0, f"Graphicionado utilization {gio_pct}%"
    assert 40.0 < gds_pct < 90.0, f"GraphDynS utilization {gds_pct}%"
    # Both accelerators sit well above the GPU.
    assert gun_pct < gio_pct
    assert gun_pct < gds_pct
