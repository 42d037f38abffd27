"""Fig. 10: GraphDynS energy breakdown.

Paper: ~92.2% of energy goes to HBM (graph analytics has an extremely low
compute-to-communication ratio); the Processor consumes ~4%, the Updater
~3%, everything else under 0.8%.
"""

from conftest import run_once

from repro.harness import figure10


def test_fig10_energy_breakdown(benchmark, service):
    result = run_once(benchmark, lambda: figure10(service))
    print()
    print(result.render())

    mean = result.rows[-1]
    components = dict(zip(result.headers[2:], mean[2:]))
    assert components["HBM"] > 70.0, components
    assert components["HBM"] < 99.0
    # On-chip components are each small relative to HBM.
    for name in ("Prefetcher", "Dispatcher", "Processor", "Updater"):
        assert components[name] < 15.0, (name, components[name])
    # Shares are a valid partition.
    assert abs(sum(components.values()) - 100.0) < 1.0
