"""Backend registry and run-service tests.

Covers the registry contract (lookup, errors, extension), the persistent
result cache (hit/miss/invalidation-on-config-change/stale rejection),
store-failure accounting, a hypothesis round-trip suite for the cache
envelope, parallel-vs-serial matrix equivalence, and the versioned
report schema.
"""

import base64
import dataclasses
import io
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import backends
from repro.backends import (
    BaseBackend,
    GraphDynSBackend,
    GunrockBackend,
    config_digest,
)
from repro.graph import datasets
from repro.graphdyns.config import DEFAULT_CONFIG
from repro.harness import (
    CacheStoreWarning,
    CellExecutionError,
    RunService,
    default_backends,
)
from repro.harness.service import (
    _functional_from_dict,
    _functional_to_dict,
)
from repro.metrics.serialize import (
    SCHEMA_VERSION,
    SchemaMismatchError,
    report_from_dict,
    report_to_dict,
)
from repro.vcpm.engine import IterationTrace, VCPMResult


def _reports_json(cells):
    """Canonical JSON of every cell's reports (bit-exact comparison)."""
    return json.dumps(
        [
            {name: report_to_dict(r) for name, r in cell.reports.items()}
            for cell in cells
        ],
        sort_keys=True,
    )


class TestRegistry:
    def test_builtins_registered(self):
        names = backends.available()
        assert names[:3] == ["GraphDynS", "Graphicionado", "Gunrock"]

    def test_lookup_is_case_insensitive(self):
        assert backends.get("graphdyns") is backends.get("GRAPHDYNS")

    def test_unknown_backend_lists_available(self):
        with pytest.raises(KeyError) as excinfo:
            backends.get("tpu")
        message = str(excinfo.value)
        assert "tpu" in message
        for name in ("GraphDynS", "Graphicionado", "Gunrock"):
            assert name in message

    def test_register_rejects_duplicates(self):
        with pytest.raises(ValueError):
            backends.register("gunrock", GunrockBackend)

    def test_register_and_unregister_custom_backend(self):
        class FakeBackend(BaseBackend):
            name = "Fake"

        backends.register("Fake", FakeBackend)
        try:
            assert backends.is_registered("fake")
            assert isinstance(backends.create("fake"), FakeBackend)
            assert "Fake" in backends.available()
        finally:
            backends.unregister("Fake")
        assert not backends.is_registered("fake")

    def test_create_with_config_override(self):
        config = DEFAULT_CONFIG.with_num_ues(64)
        backend = backends.create("graphdyns", config)
        assert backend.config.num_ues == 64

    def test_config_digest_changes_with_config(self):
        default = GraphDynSBackend()
        tweaked = GraphDynSBackend(DEFAULT_CONFIG.with_num_ues(64))
        assert default.config_digest() != tweaked.config_digest()
        assert default.config_digest() == GraphDynSBackend().config_digest()

    def test_config_digest_of_plain_values(self):
        assert config_digest({"a": 1}) == config_digest({"a": 1})
        assert config_digest({"a": 1}) != config_digest({"a": 2})

    def test_default_backends_applies_overrides(self):
        config = DEFAULT_CONFIG.with_num_ues(32)
        built = default_backends({"GraphDynS": config})
        by_name = {b.name: b for b in built}
        assert by_name["GraphDynS"].config.num_ues == 32


class TestPersistentCache:
    def test_miss_then_hit_across_services(self, tmp_path):
        cache = str(tmp_path / "cache")
        first = RunService(cache_dir=cache)
        cell = first.cell("BFS", "FR")
        assert (first.stats.misses, first.stats.hits) == (1, 0)
        assert first.stats.stores == 1

        second = RunService(cache_dir=cache)
        replayed = second.cell("BFS", "FR")
        assert (second.stats.misses, second.stats.hits) == (0, 1)
        assert second.stats.hit_rate == 1.0
        assert _reports_json([cell]) == _reports_json([replayed])
        # Functional outcome survives the round trip too.
        assert replayed.functional.converged == cell.functional.converged
        assert (
            replayed.functional.properties == cell.functional.properties
        ).all()
        # Energy is recomputed consistently from the cached reports.
        for name in cell.energy:
            assert replayed.energy[name].total_j == pytest.approx(
                cell.energy[name].total_j
            )

    def test_config_change_invalidates(self, tmp_path):
        cache = str(tmp_path / "cache")
        RunService(cache_dir=cache).cell("BFS", "FR")
        tweaked = RunService(
            cache_dir=cache,
            backend_configs={"graphdyns": DEFAULT_CONFIG.with_num_ues(64)},
        )
        tweaked.cell("BFS", "FR")
        assert tweaked.stats.misses == 1
        assert tweaked.stats.hits == 0

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = str(tmp_path / "cache")
        service = RunService(cache_dir=cache)
        request = service.request_for("BFS", "FR")
        path = service._cache_path(request)
        (tmp_path / "cache").mkdir(exist_ok=True)
        with open(path, "w") as handle:
            handle.write("{not json")
        service.cell("BFS", "FR")
        assert service.stats.misses == 1

    def test_stale_schema_is_a_miss(self, tmp_path):
        cache = str(tmp_path / "cache")
        service = RunService(cache_dir=cache)
        service.cell("BFS", "FR")
        request = service.request_for("BFS", "FR")
        path = service._cache_path(request)
        with open(path) as handle:
            envelope = json.load(handle)
        envelope["schema"] = SCHEMA_VERSION - 1
        with open(path, "w") as handle:
            json.dump(envelope, handle)
        rerun = RunService(cache_dir=cache)
        rerun.cell("BFS", "FR")
        assert rerun.stats.misses == 1

    def test_no_cache_dir_means_no_files(self, tmp_path):
        service = RunService()
        service.cell("BFS", "FR")
        assert not service.persistent
        assert list(tmp_path.iterdir()) == []

    def test_cacheless_cell_writes_nothing_under_home(self, tmp_path):
        """A fresh process's first cell builds and stores nothing on the side.

        Runs in a subprocess with ``HOME`` pointed at an empty directory
        and every ``REPRO_*`` variable cleared, so no earlier test (and
        no caller environment) can have pre-populated or redirected a
        per-user cache.
        """
        import subprocess
        import sys

        home = tmp_path / "home"
        home.mkdir()
        env = {
            key: value
            for key, value in os.environ.items()
            if not key.startswith("REPRO_")
        }
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env.update(HOME=str(home), PYTHONPATH=os.path.abspath(src))
        subprocess.run(
            [
                sys.executable,
                "-c",
                "from repro.harness.service import RunService; "
                "RunService(use_cache=False).cell('BFS', 'FR')",
            ],
            env=env,
            check=True,
            timeout=120,
        )
        assert not (home / ".cache").exists()


    def test_envelope_bytes_match_json_dump(self, tmp_path):
        """The stored bytes are what ``json.dump`` of the envelope writes.

        ``json.dump`` into a stream was the original cache encoder; pin the
        on-disk format to it so the encoder cannot drift.
        """
        service = RunService(cache_dir=str(tmp_path / "cache"))
        service.cell("BFS", "FR")
        path = service._cache_path(service.request_for("BFS", "FR"))
        with open(path) as handle:
            stored = handle.read()
        expected = io.StringIO()
        json.dump(json.loads(stored), expected)
        assert stored == expected.getvalue()


class TestParallelMatrix:
    def test_parallel_matches_serial_bit_exact(self):
        serial = RunService(use_cache=False)
        parallel = RunService(use_cache=False, jobs=4)
        algorithms, graphs = ["BFS", "CC"], ["FR"]
        a = serial.matrix(algorithms, graphs, jobs=1)
        b = parallel.matrix(algorithms, graphs)
        assert _reports_json(a) == _reports_json(b)

    def test_matrix_order_is_algorithm_major(self):
        service = RunService(use_cache=False)
        cells = service.matrix(["BFS", "CC"], ["FR"], jobs=2)
        assert [(c.algorithm, c.graph_key) for c in cells] == [
            ("BFS", "FR"),
            ("CC", "FR"),
        ]


class TestProcessExecutor:
    def test_process_matrix_matches_serial_bit_exact(self):
        serial = RunService(use_cache=False)
        procs = RunService(use_cache=False, executor="process")
        algorithms, graphs = ["BFS", "CC"], ["FR"]
        a = serial.matrix(algorithms, graphs, jobs=1)
        b = procs.matrix(algorithms, graphs, jobs=2)
        assert _reports_json(a) == _reports_json(b)
        assert procs.stats.misses == 2

    def test_process_executor_uses_parent_caches(self, tmp_path):
        cache = str(tmp_path / "cache")
        warm = RunService(cache_dir=cache, executor="process")
        warm.matrix(["BFS"], ["FR"], jobs=2)
        assert warm.stats.misses == 1
        replay = RunService(cache_dir=cache, executor="process")
        replay.matrix(["BFS"], ["FR"], jobs=2)
        # Served from the persistent cache in-parent: no subprocess work.
        assert (replay.stats.misses, replay.stats.hits) == (0, 1)

    def test_rejects_unknown_executor(self):
        with pytest.raises(ValueError):
            RunService(executor="greenlet")

    def test_per_call_executor_override(self):
        service = RunService(use_cache=False)  # thread default
        cells = service.matrix(["BFS"], ["FR"], jobs=2, executor="process")
        assert [(c.algorithm, c.graph_key) for c in cells] == [("BFS", "FR")]


class TestSerializeSchema:
    def test_reports_are_stamped(self):
        service = RunService(use_cache=False)
        report = service.cell("BFS", "FR").reports["GraphDynS"]
        data = report_to_dict(report)
        assert data["schema"] == SCHEMA_VERSION

    def test_mismatched_stamp_rejected(self):
        service = RunService(use_cache=False)
        report = service.cell("BFS", "FR").reports["Gunrock"]
        data = report_to_dict(report)
        data["schema"] = SCHEMA_VERSION + 1
        with pytest.raises(SchemaMismatchError):
            report_from_dict(data)

    def test_region_keys_and_extra_survive_roundtrip(self):
        service = RunService(use_cache=False)
        report = service.cell("BFS", "FR").reports["GraphDynS"]
        report.extra["custom_metric"] = 1.25
        rebuilt = report_from_dict(report_to_dict(report))
        assert rebuilt.traffic.read_bytes == report.traffic.read_bytes
        assert rebuilt.traffic.write_bytes == report.traffic.write_bytes
        assert rebuilt.extra == report.extra
        assert rebuilt.extra["custom_metric"] == 1.25


class TestStoreFailures:
    def test_unwritable_cache_path_warns_and_counts(self, tmp_path):
        # The cache dir's parent is a regular file, so every mkdir/write
        # under it raises OSError -- even when running as root (which
        # ignores mode bits, making chmod-based tests unreliable).
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        service = RunService(cache_dir=str(blocker / "cache"))
        with pytest.warns(CacheStoreWarning):
            cell = service.cell("BFS", "FR")
        assert cell.reports  # the result itself still comes back
        assert service.stats.store_failures == 1
        assert service.stats.stores == 0
        assert service.stats.misses == 1

    @pytest.mark.skipif(
        hasattr(os, "geteuid") and os.geteuid() == 0,
        reason="root bypasses directory permission bits",
    )
    def test_readonly_cache_dir_warns_and_counts(self, tmp_path):
        cache = tmp_path / "cache"
        cache.mkdir()
        cache.chmod(0o500)
        try:
            service = RunService(cache_dir=str(cache))
            with pytest.warns(CacheStoreWarning):
                service.cell("BFS", "FR")
            assert service.stats.store_failures == 1
            assert service.stats.stores == 0
        finally:
            cache.chmod(0o700)

    def test_store_failure_does_not_poison_memo(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("x")
        service = RunService(cache_dir=str(blocker / "cache"))
        with pytest.warns(CacheStoreWarning):
            first = service.cell("BFS", "FR")
        assert service.cell("BFS", "FR") is first
        assert service.stats.memory_hits == 1


class TestMatrixFailurePropagation:
    """The thread fan-out must not leak queued futures on failure."""

    class _ExplodingService(RunService):
        def __init__(self, fail_on, **kwargs):
            super().__init__(**kwargs)
            self.fail_on = fail_on
            self.executed = []

        def _run_cell(self, request):
            if (request.algorithm, request.graph_key) == self.fail_on:
                self.executed.append(self.fail_on)
                raise ValueError("boom")
            import time

            time.sleep(0.05)  # keep workers busy so queued cells stay queued
            self.executed.append((request.algorithm, request.graph_key))
            return super()._run_cell(request)

    def test_failure_names_cell_and_cancels_queue(self):
        service = self._ExplodingService(
            fail_on=("BFS", "FR"), use_cache=False
        )
        algorithms = ["BFS", "CC", "SSSP", "PR", "SSWP"]
        with pytest.raises(CellExecutionError) as excinfo:
            service.matrix(algorithms, ["FR", "PK"], jobs=2)
        assert excinfo.value.algorithm == "BFS"
        assert excinfo.value.graph_key == "FR"
        assert "BFS" in str(excinfo.value) and "FR" in str(excinfo.value)
        assert excinfo.value.__cause__ is not None
        # The failing cell dies immediately; cancellation must stop the
        # pool from grinding through the whole queued matrix.
        assert len(service.executed) < len(algorithms) * 2

    def test_serial_matrix_failure_names_cell_too(self):
        service = self._ExplodingService(
            fail_on=("CC", "FR"), use_cache=False
        )
        with pytest.raises(ValueError):
            # Serial path: no futures to leak; original error surfaces.
            service.matrix(["CC"], ["FR"], jobs=1)


def _traces():
    small = st.integers(min_value=0, max_value=10_000)
    return st.builds(
        IterationTrace,
        iteration=small,
        num_active=small,
        num_edges=small,
        num_modified=small,
        num_activated=small,
    )


def _functional_results():
    floats = st.floats(
        allow_nan=True, allow_infinity=True, width=64
    )
    return st.builds(
        VCPMResult,
        algorithm=st.sampled_from(["BFS", "SSSP", "CC", "SSWP", "PR"]),
        graph_name=st.text(
            alphabet=st.characters(min_codepoint=32, max_codepoint=126),
            max_size=12,
        ),
        properties=st.lists(floats, min_size=0, max_size=24).map(
            lambda xs: np.asarray(xs, dtype=np.float64)
        ),
        iterations=st.lists(_traces(), max_size=6),
        converged=st.booleans(),
        source=st.one_of(st.none(), st.integers(0, 1 << 30)),
    )


class TestEnvelopeRoundTrip:
    """Hypothesis round-trip suite for the persistent-cache envelope."""

    @settings(max_examples=40, deadline=None)
    @given(result=_functional_results())
    def test_functional_round_trips_through_json(self, result):
        rebuilt = _functional_from_dict(
            json.loads(json.dumps(_functional_to_dict(result)))
        )
        assert rebuilt.algorithm == result.algorithm
        assert rebuilt.graph_name == result.graph_name
        assert rebuilt.converged == result.converged
        assert rebuilt.source == result.source
        assert rebuilt.iterations == result.iterations
        assert rebuilt.properties.dtype == np.float64
        assert np.array_equal(
            rebuilt.properties, result.properties, equal_nan=True
        )

    @settings(max_examples=40, deadline=None)
    @given(result=_functional_results())
    def test_round_trip_is_canonical(self, result):
        # Serializing the rebuilt result reproduces the same envelope:
        # the dict form is a fixed point, so cached entries never churn.
        once = _functional_to_dict(result)
        twice = _functional_to_dict(
            _functional_from_dict(json.loads(json.dumps(once)))
        )
        assert json.dumps(once, sort_keys=True) == json.dumps(
            twice, sort_keys=True
        )


def _stored_properties(envelope):
    stored = envelope["functional"]["properties"]
    return np.frombuffer(base64.b64decode(stored["b64"]), dtype=stored["dtype"])


class TestLazyCachedProperties:
    def test_warm_fr_figures_decode_no_properties(self, tmp_path, monkeypatch):
        from repro.harness import figures, service as service_module

        cache = str(tmp_path / "cache")
        algorithms = ["BFS", "PR"]
        cold = RunService(cache_dir=cache)
        expected = [
            figure(cold, algorithms=algorithms, graph_keys=["FR"]).rows
            for figure in (figures.figure6, figures.figure7)
        ]
        cold_bytes = [
            cold.cell(a, "FR").functional.properties.tobytes() for a in algorithms
        ]

        decoded = []
        real = service_module._properties_from_dict

        def counted(data):
            decoded.append(data["count"])
            return real(data)

        monkeypatch.setattr(service_module, "_properties_from_dict", counted)
        warm = RunService(cache_dir=cache)
        rows = [
            figure(warm, algorithms=algorithms, graph_keys=["FR"]).rows
            for figure in (figures.figure6, figures.figure7)
        ]
        assert rows == expected
        assert warm.stats.hits and not warm.stats.misses
        assert decoded == []
        cells = [warm.cell(a, "FR") for a in algorithms]
        assert [c.functional.properties.tobytes() for c in cells] == cold_bytes
        assert [c.functional.properties.tobytes() for c in cells] == cold_bytes
        assert len(decoded) == len(algorithms)  # once per cell


@pytest.fixture(scope="module")
def warm_entry(tmp_path_factory):
    """One real cached cell: (service, request, path, envelope text)."""
    cache = str(tmp_path_factory.mktemp("envelope") / "cache")
    service = RunService(cache_dir=cache)
    service.cell("BFS", "FR")
    request = service.request_for("BFS", "FR")
    path = service._cache_path(request)
    with open(path) as handle:
        text = handle.read()
    return service, request, path, text


class TestLoadCachedRejection:
    """Every malformed envelope is a miss, never an exception."""

    def _fresh(self, warm_entry):
        service, request, path, text = warm_entry
        rerun = RunService(cache_dir=service.cache_dir)
        return rerun, rerun.request_for("BFS", "FR"), path, text

    def test_sanity_valid_entry_loads(self, warm_entry):
        service, request, path, text = self._fresh(warm_entry)
        with open(path, "w") as handle:
            handle.write(text)
        assert service._load_cached(path, request) is not None

    def test_envelope_with_retired_tier_fields_is_a_persistent_hit(
        self, warm_entry
    ):
        """Entries written while kernel tiers existed still hit.

        Such envelopes carry the tier twice: in the serialized request
        and in a ``meta`` block.  Neither is part of the content key.
        """
        service, request, path, text = self._fresh(warm_entry)
        envelope = json.loads(text)
        retired = "kernel" "_tier"  # the removed field's name
        envelope["request"][retired] = "auto"
        envelope["meta"] = {retired: "compiled"}
        with open(path, "w") as handle:
            json.dump(envelope, handle)
        assert service._load_cached(path, request) is not None
        assert service.probe("BFS", "FR")[2] == "persistent"
        service.cell("BFS", "FR")
        assert (service.stats.hits, service.stats.misses) == (1, 0)

    @pytest.mark.parametrize("keep_fraction", [0.0, 0.25, 0.5, 0.99])
    def test_truncated_json_rejected(self, warm_entry, keep_fraction):
        service, request, path, text = self._fresh(warm_entry)
        with open(path, "w") as handle:
            handle.write(text[: int(len(text) * keep_fraction)])
        assert service._load_cached(path, request) is None

    def test_wrong_schema_rejected(self, warm_entry):
        service, request, path, text = self._fresh(warm_entry)
        envelope = json.loads(text)
        envelope["schema"] = SCHEMA_VERSION + 1
        with open(path, "w") as handle:
            json.dump(envelope, handle)
        assert service._load_cached(path, request) is None

    def test_missing_backend_rejected(self, warm_entry):
        service, request, path, text = self._fresh(warm_entry)
        envelope = json.loads(text)
        del envelope["reports"]["GraphDynS"]
        with open(path, "w") as handle:
            json.dump(envelope, handle)
        assert service._load_cached(path, request) is None

    def test_mismatched_key_rejected(self, warm_entry):
        service, request, path, text = self._fresh(warm_entry)
        envelope = json.loads(text)
        envelope["key"] = "0" * 32
        with open(path, "w") as handle:
            json.dump(envelope, handle)
        assert service._load_cached(path, request) is None

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda env: env.pop("functional"),
            lambda env: env.pop("reports"),
            lambda env: env.update(reports=[1, 2, 3]),
            lambda env: env["functional"].pop("properties"),
            lambda env: env["functional"].update(iterations=[{"bad": 1}]),
            lambda env: env["functional"]["properties"].update(
                b64=env["functional"]["properties"]["b64"][:-8]
            ),
            lambda env: env["functional"]["properties"].update(
                count=env["functional"]["properties"]["count"] + 1
            ),
            lambda env: env["functional"]["properties"].update(dtype="<f4"),
            lambda env: env["functional"].update(
                properties=_stored_properties(env).tolist()
            ),
        ],
        ids=[
            "no-functional",
            "no-reports",
            "reports-not-a-dict",
            "no-properties",
            "bad-iteration-fields",
            "truncated-payload",
            "count-mismatch",
            "wrong-dtype",
            "old-list-form",
        ],
    )
    def test_structurally_broken_envelopes_rejected(
        self, warm_entry, mutate
    ):
        service, request, path, text = self._fresh(warm_entry)
        envelope = json.loads(text)
        mutate(envelope)
        with open(path, "w") as handle:
            json.dump(envelope, handle)
        assert service._load_cached(path, request) is None

    def test_missing_file_rejected(self, warm_entry):
        service, request, path, _ = self._fresh(warm_entry)
        assert service._load_cached(path + ".nope", request) is None


class TestDatasetCache:
    def test_load_is_identity_stable(self):
        assert datasets.load("FR") is datasets.load("FR")

    def test_fingerprint_is_stable_and_distinct(self):
        assert datasets.fingerprint("FR") == datasets.fingerprint("FR")
        assert datasets.fingerprint("FR") != datasets.fingerprint("PK")

    def test_fingerprint_tracks_spec_changes(self):
        spec = datasets.DATASETS["FR"]
        original = datasets.fingerprint("FR")
        try:
            datasets.DATASETS["FR"] = dataclasses.replace(spec, seed=99)
            assert datasets.fingerprint("FR") != original
        finally:
            datasets.DATASETS["FR"] = spec

    def test_fingerprint_unknown_key(self):
        with pytest.raises(KeyError):
            datasets.fingerprint("NOPE")
