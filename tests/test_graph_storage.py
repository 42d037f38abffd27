"""Out-of-core storage backend tests (spill, mmap, streamed assembly)."""

import gc
import json
import os
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

from repro.graph import (
    CSRGraph,
    InMemoryStorage,
    MmapStorage,
    StorageError,
    assemble_csr,
    create_storage,
    datasets,
)
from repro.graph.generators import rmat_edge_chunks
from repro.graph.storage import (
    STORAGE_FORMAT_VERSION,
    SPILL_DIR_ENV,
    gc_stale_spills,
    spill_dir_root,
    spill_owner_pid,
)


def _is_mmapped(array):
    return isinstance(array, np.memmap) or isinstance(
        getattr(array, "base", None), np.memmap
    )


class TestInMemoryStorage:
    def test_adopt_is_identity(self, tiny_graph):
        with InMemoryStorage() as storage:
            assert storage.adopt(tiny_graph) is tiny_graph

    def test_closed_storage_rejects_adopt(self, tiny_graph):
        storage = InMemoryStorage()
        storage.close()
        with pytest.raises(StorageError):
            storage.adopt(tiny_graph)

    def test_close_is_idempotent(self):
        storage = InMemoryStorage()
        storage.close()
        storage.close()
        assert storage.closed


class TestMmapStorage:
    def test_adopt_round_trips_content(self, tiny_graph, tmp_path):
        with MmapStorage(directory=str(tmp_path / "spill")) as storage:
            twin = storage.adopt(tiny_graph)
            np.testing.assert_array_equal(twin.offsets, tiny_graph.offsets)
            np.testing.assert_array_equal(twin.edges, tiny_graph.edges)
            np.testing.assert_array_equal(twin.weights, tiny_graph.weights)

    def test_adopted_arrays_are_memory_mapped(self, tiny_graph, tmp_path):
        with MmapStorage(directory=str(tmp_path / "spill")) as storage:
            twin = storage.adopt(tiny_graph)
            for member in (twin.offsets, twin.edges, twin.weights):
                assert _is_mmapped(member)

    def test_owned_directory_removed_on_close(self, tiny_graph):
        storage = MmapStorage()
        directory = storage.directory
        storage.adopt(tiny_graph)
        assert os.path.isdir(directory)
        storage.close()
        assert not os.path.exists(directory)

    def test_external_directory_survives_close(self, tiny_graph, tmp_path):
        spill = tmp_path / "spill"
        storage = MmapStorage(directory=str(spill))
        storage.adopt(tiny_graph)
        storage.close()
        assert spill.is_dir()
        assert (spill / "meta.json").exists()

    def test_keep_preserves_owned_directory(self, tiny_graph):
        storage = MmapStorage(keep=True)
        directory = storage.directory
        storage.adopt(tiny_graph)
        storage.close()
        try:
            assert os.path.isdir(directory)
        finally:
            import shutil

            shutil.rmtree(directory, ignore_errors=True)

    def test_load_reopens_spill(self, tiny_graph, tmp_path):
        spill = str(tmp_path / "spill")
        with MmapStorage(directory=spill) as writer:
            writer.adopt(tiny_graph)
        with MmapStorage(directory=spill) as reader:
            reloaded = reader.load()
            np.testing.assert_array_equal(reloaded.offsets, tiny_graph.offsets)
            np.testing.assert_array_equal(reloaded.edges, tiny_graph.edges)
            np.testing.assert_array_equal(reloaded.weights, tiny_graph.weights)
            assert reloaded.name == tiny_graph.name

    def test_load_rejects_missing_member(self, tiny_graph, tmp_path):
        spill = str(tmp_path / "spill")
        with MmapStorage(directory=spill) as writer:
            writer.adopt(tiny_graph)
        os.remove(os.path.join(spill, "edges.npy"))
        with MmapStorage(directory=spill) as reader:
            with pytest.raises(StorageError):
                reader.load()

    def test_load_rejects_bad_format_version(self, tiny_graph, tmp_path):
        import json

        spill = str(tmp_path / "spill")
        with MmapStorage(directory=spill) as writer:
            writer.adopt(tiny_graph)
        meta_path = os.path.join(spill, "meta.json")
        with open(meta_path) as handle:
            meta = json.load(handle)
        meta["format"] = STORAGE_FORMAT_VERSION + 1
        with open(meta_path, "w") as handle:
            json.dump(meta, handle)
        with MmapStorage(directory=spill) as reader:
            with pytest.raises(StorageError):
                reader.load()

    def test_spill_keeps_the_index_width_and_rejects_another(
        self, tiny_graph, tmp_path
    ):
        spill = str(tmp_path / "spill")
        with MmapStorage(directory=spill) as writer:
            mapped = writer.adopt(tiny_graph)
            assert mapped.offsets.dtype == mapped.edges.dtype == np.int32
        # A spill written with int64 ids is rebuilt, not copied into
        # memory at the new width.
        for member in ("offsets", "edges"):
            path = os.path.join(spill, f"{member}.npy")
            np.save(path, np.load(path).astype(np.int64))
        with MmapStorage(directory=spill) as reader:
            with pytest.raises(StorageError, match="int64"):
                reader.load()

    def test_load_rejects_empty_directory(self, tmp_path):
        with MmapStorage(directory=str(tmp_path / "empty")) as storage:
            with pytest.raises(StorageError):
                storage.load()

    def test_closed_storage_rejects_everything(self, tiny_graph, tmp_path):
        storage = MmapStorage(directory=str(tmp_path / "spill"))
        storage.close()
        with pytest.raises(StorageError):
            storage.adopt(tiny_graph)
        with pytest.raises(StorageError):
            storage.load()
        with pytest.raises(StorageError):
            storage.allocate_member("offsets", (4,), np.dtype(np.int64))

    def test_spill_dir_env_override(self, monkeypatch, tmp_path):
        root = tmp_path / "spills"
        root.mkdir()
        monkeypatch.setenv(SPILL_DIR_ENV, str(root))
        assert spill_dir_root() == str(root)
        with MmapStorage() as storage:
            assert storage.directory.startswith(str(root))

    def test_finalizer_reclaims_forgotten_spill(self, tiny_graph):
        storage = MmapStorage()
        directory = storage.directory
        storage.adopt(tiny_graph)
        storage._release_maps()  # drop maps so the rmtree can win on all OSes
        del storage
        gc.collect()
        assert not os.path.exists(directory)


class TestStaleSpillGC:
    """gc_stale_spills: reclaim orphans, never touch live owners."""

    def _make_spill(self, root, name, pid=None):
        directory = os.path.join(str(root), f"repro-spill-{name}")
        os.makedirs(directory)
        if pid is not None:
            with open(os.path.join(directory, "owner.json"), "w") as handle:
                json.dump({"pid": pid, "created": 0.0}, handle)
        return directory

    def test_dead_owner_is_reclaimed(self, tmp_path):
        # A reaped child's pid is guaranteed dead.
        child = subprocess.Popen([sys.executable, "-c", "pass"])
        child.wait()
        dead = self._make_spill(tmp_path, "dead", pid=child.pid)
        removed = gc_stale_spills(root=str(tmp_path))
        assert removed == [dead]
        assert not os.path.exists(dead)

    def test_live_owner_is_skipped(self, tmp_path):
        mine = self._make_spill(tmp_path, "mine", pid=os.getpid())
        assert gc_stale_spills(root=str(tmp_path)) == []
        assert os.path.exists(mine)

    def test_markerless_dir_respects_grace_window(self, tmp_path):
        fresh = self._make_spill(tmp_path, "fresh")
        assert gc_stale_spills(root=str(tmp_path), grace_seconds=60.0) == []
        assert os.path.exists(fresh)
        # Once older than the grace window it is fair game.
        old = time.time() - 3600
        os.utime(fresh, (old, old))
        assert gc_stale_spills(root=str(tmp_path), grace_seconds=60.0) == [
            fresh
        ]

    def test_unrelated_dirs_are_never_touched(self, tmp_path):
        other = tmp_path / "not-a-spill"
        other.mkdir()
        assert gc_stale_spills(root=str(tmp_path)) == []
        assert other.exists()

    def test_owner_marker_written_for_owned_spills(self, monkeypatch, tmp_path):
        monkeypatch.setenv(SPILL_DIR_ENV, str(tmp_path))
        with MmapStorage() as storage:
            # Owned spills (auto-created temp dirs) carry our pid, so a
            # later gc_stale_spills in this process leaves them alone.
            assert spill_owner_pid(storage.directory) == os.getpid()
            assert gc_stale_spills(root=str(tmp_path)) == []


class TestClearCacheResilience:
    """clear_cache skips unclosable spills with a single warning."""

    class _StuckBackend:
        directory = "/nowhere/stuck"

        def close(self):
            raise OSError("still mapped elsewhere")

    def _inject_stuck(self, monkeypatch, count=2):
        from repro.graph.datasets import _storages

        for i in range(count):
            _storages[("STUCK", f"mmap-{i}")] = self._StuckBackend()

    def test_failures_warn_once_and_do_not_abort(self, monkeypatch):
        monkeypatch.setattr(datasets, "_cleanup_warned", False)
        self._inject_stuck(monkeypatch)
        with pytest.warns(datasets.SpillCleanupWarning, match="2 spill"):
            datasets.clear_cache()
        # The latch suppresses repeats on later sweeps.
        self._inject_stuck(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            datasets.clear_cache()

    def test_clean_sweep_emits_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            datasets.clear_cache()


class TestCreateStorage:
    def test_kinds(self):
        with create_storage("memory") as storage:
            assert isinstance(storage, InMemoryStorage)
        with create_storage("mmap") as storage:
            assert isinstance(storage, MmapStorage)

    def test_case_insensitive(self):
        with create_storage("MMAP") as storage:
            assert storage.kind == "mmap"

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError):
            create_storage("tape")


class TestAssembleCSR:
    def _chunks(self, graph, chunk_edges=7):
        """Split a graph's edge list into repeatable (src, dst, w) chunks."""
        src = np.repeat(
            np.arange(graph.num_vertices, dtype=np.int64), np.diff(graph.offsets)
        )
        chunks = []
        for lo in range(0, graph.num_edges, chunk_edges):
            hi = min(lo + chunk_edges, graph.num_edges)
            chunks.append(
                (src[lo:hi], graph.edges[lo:hi], graph.weights[lo:hi])
            )
        return lambda: iter(chunks)

    def test_matches_from_edge_list(self, small_powerlaw):
        rebuilt = assemble_csr(
            small_powerlaw.num_vertices,
            self._chunks(small_powerlaw),
            name=small_powerlaw.name,
        )
        np.testing.assert_array_equal(rebuilt.offsets, small_powerlaw.offsets)
        np.testing.assert_array_equal(rebuilt.edges, small_powerlaw.edges)
        np.testing.assert_array_equal(rebuilt.weights, small_powerlaw.weights)

    def test_mmap_assembly_identical_to_memory(self, small_powerlaw, tmp_path):
        with MmapStorage(directory=str(tmp_path / "spill")) as storage:
            spilled = assemble_csr(
                small_powerlaw.num_vertices,
                self._chunks(small_powerlaw),
                storage=storage,
                name=small_powerlaw.name,
            )
            np.testing.assert_array_equal(spilled.offsets, small_powerlaw.offsets)
            np.testing.assert_array_equal(spilled.edges, small_powerlaw.edges)
            np.testing.assert_array_equal(spilled.weights, small_powerlaw.weights)

    def test_rmat_stream_matches_batch_generator(self):
        # The streamed RMAT chunk generator must reproduce a single
        # coherent graph; assemble it twice (memory + mmap) and compare.
        scale, seed = 6, 3
        factory = lambda: rmat_edge_chunks(scale, edge_factor=8, seed=seed)
        in_memory = assemble_csr(1 << scale, factory, name="rmat-mem")
        with MmapStorage() as storage:
            spilled = assemble_csr(
                1 << scale, factory, storage=storage, name="rmat-mmap"
            )
            np.testing.assert_array_equal(in_memory.offsets, spilled.offsets)
            np.testing.assert_array_equal(in_memory.edges, spilled.edges)
            np.testing.assert_array_equal(in_memory.weights, spilled.weights)

    def test_empty_stream(self):
        graph = assemble_csr(5, lambda: iter(()), name="empty")
        assert graph.num_vertices == 5
        assert graph.num_edges == 0

    def test_rejects_out_of_range_source(self):
        bad = [(np.array([9]), np.array([0]), np.array([1.0]))]
        with pytest.raises(Exception):
            assemble_csr(4, lambda: iter(bad))

    def test_rejects_unrepeatable_stream(self):
        chunk = (np.array([0, 1]), np.array([1, 0]), np.array([1.0, 1.0]))
        passes = iter([[chunk], []])  # second call yields nothing

        def factory():
            return iter(next(passes))

        with pytest.raises(Exception):
            assemble_csr(2, factory)

    def test_adopts_into_generic_storage(self, tiny_graph, tmp_path):
        # A non-mmap storage goes through the in-memory path + adopt().
        with InMemoryStorage() as storage:
            graph = assemble_csr(
                tiny_graph.num_vertices,
                self._chunks(tiny_graph),
                storage=storage,
                name="adopted",
            )
            assert isinstance(graph, CSRGraph)
            assert graph.num_edges == tiny_graph.num_edges


class TestDatasetStorageKnob:
    def test_mmap_load_matches_memory_load(self):
        mem = datasets.load("FR")
        mapped = datasets.load("FR", storage="mmap")
        assert mem is not mapped
        np.testing.assert_array_equal(mem.offsets, mapped.offsets)
        np.testing.assert_array_equal(mem.edges, mapped.edges)
        np.testing.assert_array_equal(mem.weights, mapped.weights)

    def test_mmap_load_is_cached_per_storage_kind(self):
        a = datasets.load("FR", storage="mmap")
        b = datasets.load("FR", storage="mmap")
        assert a is b

    def test_unknown_storage_kind_raises(self):
        with pytest.raises(ValueError):
            datasets.load("FR", storage="tape")

    def test_clear_cache_removes_spill_dirs(self, monkeypatch, tmp_path):
        # S2: repeated mmap loads + clear_cache never accumulate temp
        # spill directories or open maps.
        root = tmp_path / "spills"
        root.mkdir()
        monkeypatch.setenv(SPILL_DIR_ENV, str(root))
        datasets.clear_cache()
        for _ in range(3):
            datasets.load("FR", storage="mmap")
            datasets.clear_cache()
            gc.collect()
            assert list(root.iterdir()) == []

    def test_uncached_mmap_load_ties_spill_to_graph(self, monkeypatch, tmp_path):
        root = tmp_path / "spills"
        root.mkdir()
        monkeypatch.setenv(SPILL_DIR_ENV, str(root))
        graph = datasets.load("FR", use_cache=False, storage="mmap")
        assert len(list(root.iterdir())) == 1
        del graph
        gc.collect()
        assert list(root.iterdir()) == []


@pytest.mark.large
class TestPaperScaleOutOfCore:
    def test_rm18_full_assembles_and_runs_out_of_core(self):
        """RM18-FULL (262K vertices, 4.2M edges) end-to-end via mmap."""
        from repro.vcpm import ALGORITHMS, run_vcpm_partitioned

        graph = datasets.load("RM18-FULL", use_cache=False, storage="mmap")
        try:
            spec = datasets.PAPER_DATASETS["RM18-FULL"]
            assert graph.num_vertices == spec.proxy_vertices
            assert graph.num_edges == spec.proxy_edges
            result = run_vcpm_partitioned(
                graph, ALGORITHMS["BFS"], shards=4, source=0
            )
            assert result.converged
        finally:
            storage = getattr(graph, "_storage", None)
            if storage is not None:
                storage.close()
