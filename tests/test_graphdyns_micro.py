"""Event-driven Scatter micro-model vs the analytic crossbar formula."""

import numpy as np
import pytest

from repro.graphdyns import GraphDynSConfig
from repro.graphdyns.micro import simulate_scatter_microarch
from repro.memory import Crossbar


def _tiny_config(num_pes=2, n_simt=2, num_ues=4):
    return GraphDynSConfig(num_pes=num_pes, n_simt=n_simt, num_ues=num_ues)


class TestExactCases:
    def test_single_stream_conflict_free(self):
        cfg = _tiny_config(num_pes=1, n_simt=2, num_ues=4)
        # 8 results, 2 per cycle, all to distinct UEs round-robin.
        stream = np.arange(8) % 4
        result = simulate_scatter_microarch([stream], cfg)
        assert result.results_delivered == 8
        # 2 issued per cycle, retire same cycle -> 4 cycles.
        assert result.cycles == 4
        assert result.backpressure_events == 0

    def test_hot_ue_serializes(self):
        cfg = _tiny_config(num_pes=1, n_simt=4, num_ues=4)
        stream = np.zeros(10, dtype=np.int64)  # all to UE0
        result = simulate_scatter_microarch([stream], cfg, ue_queue_depth=2)
        # One retire per cycle from UE0 -> >= 10 cycles.
        assert result.cycles >= 10
        assert result.backpressure_events > 0

    def test_empty(self):
        result = simulate_scatter_microarch([np.zeros(0, dtype=np.int64)])
        assert result.cycles == 0
        assert result.throughput == 0.0

    def test_cycle_budget_guard(self):
        cfg = _tiny_config()
        with pytest.raises(RuntimeError):
            simulate_scatter_microarch(
                [np.zeros(100, dtype=np.int64)], cfg, max_cycles=3
            )


class TestAgainstAnalyticModel:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_elastic_formula_within_tolerance(self, seed):
        """The closed form max(groups, max_ue_load) tracks the exact
        simulation within ~25% on random streams (finite buffering adds
        some slack the formula ignores)."""
        rng = np.random.default_rng(seed)
        cfg = _tiny_config(num_pes=4, n_simt=4, num_ues=8)
        streams = [rng.integers(0, 64, size=200) for _ in range(4)]
        exact = simulate_scatter_microarch(streams, cfg, ue_queue_depth=8)

        all_dst = np.concatenate(streams)
        xbar = Crossbar(cfg.num_ues, cfg.num_pes * cfg.n_simt)
        loads = np.bincount(all_dst % cfg.num_ues, minlength=cfg.num_ues)
        analytic = xbar.route_batch(loads).cycles
        assert exact.cycles >= analytic * 0.95
        assert exact.cycles <= analytic * 1.4

    def test_skewed_stream_bound_by_hot_ue(self):
        rng = np.random.default_rng(7)
        cfg = _tiny_config(num_pes=4, n_simt=4, num_ues=8)
        # 40% of results hit one vertex.
        hot = np.zeros(400, dtype=np.int64)
        cold = rng.integers(1, 1000, size=600)
        dst = np.concatenate([hot, cold])
        rng.shuffle(dst)
        streams = np.array_split(dst, 4)
        exact = simulate_scatter_microarch(streams, cfg, ue_queue_depth=8)
        hot_load = int(np.bincount(dst % cfg.num_ues).max())
        assert exact.cycles >= hot_load  # one op/cycle on the hot UE

    def test_throughput_upper_bound(self):
        rng = np.random.default_rng(3)
        cfg = _tiny_config(num_pes=4, n_simt=4, num_ues=16)
        streams = [rng.integers(0, 4096, size=300) for _ in range(4)]
        exact = simulate_scatter_microarch(streams, cfg)
        assert exact.throughput <= cfg.num_pes * cfg.n_simt
