"""Fig. 11: maximum off-chip storage normalized to Gunrock.

Paper GM: GraphDynS 35%, Graphicionado 63%.  GraphDynS stores no src_vid
and no preprocessing metadata; Graphicionado adds src_vid per edge;
Gunrock stores >2x the base graph in preprocessing metadata.
"""

from conftest import run_once

from repro.harness import figure11


def test_fig11_storage(benchmark, service):
    result = run_once(benchmark, lambda: figure11(service))
    print()
    print(result.render())

    gm = result.rows[-1]
    gio_pct, gds_pct = gm[2], gm[3]
    assert 25.0 < gds_pct < 45.0, f"GraphDynS storage {gds_pct}%"
    assert 45.0 < gio_pct < 75.0, f"Graphicionado storage {gio_pct}%"
    assert gds_pct < gio_pct

    # Weighted algorithms widen the gap (src_vid is a third field instead
    # of a half).
    for row in result.rows[:-1]:
        assert row[2] < 100.0 and row[3] < 100.0
