"""Fig. 9: energy consumption normalized to Gunrock (including HBM).

Paper: GraphDynS cuts energy 91.4% vs Gunrock (GM normalized ~8.6%) and
45% vs Graphicionado.
"""

from conftest import run_once

from repro.harness import figure9


def test_fig9_energy(benchmark, service):
    result = run_once(benchmark, lambda: figure9(service))
    print()
    print(result.render())

    gm = result.rows[-1]
    gio_pct, gds_pct = gm[2], gm[3]
    assert 4.0 < gds_pct < 20.0, f"GraphDynS normalized energy {gds_pct}%"
    assert gds_pct < gio_pct < 40.0
    # vs Graphicionado: a substantial reduction (paper: 45%).
    assert gds_pct / gio_pct < 0.8

    # Every single cell is an energy win over the GPU.
    for row in result.rows[:-1]:
        assert row[3] < 100.0, row
