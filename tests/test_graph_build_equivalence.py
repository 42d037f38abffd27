"""The dataset build path reproduces its numpy oracles exactly.

Building a proxy draws endpoints with a guide-table inverse-CDF draw
(``generators._weighted_draw``) and orders edges with an LSD radix sort
(``csr.radix_argsort``).  Each is held equal to the library call it
stands in for -- ``Generator.choice(n, size, p=p)``,
``np.argsort(kind="stable")`` and ``np.lexsort`` -- and the registry
graphs are pinned by content digests, so any drift in the arrays (or a
numpy release that redefines ``choice``) fails here.
"""

import ast
import hashlib
import inspect
import textwrap

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.graph import CSRGraph, GraphError, datasets, dynamic, generators, storage
from repro.graph import power_law_graph
from repro.graph.csr import int64_blocks, radix_argsort

#: sha256 over ``offsets || edges || weights`` of every registry graph,
#: recorded before the build path moved to the radix sort and the
#: guide-table draw, with the ids rendered as little-endian int64.
PINNED_DIGESTS = {
    "FR": "6d94da77b17058117d6ff43585bcc653ae70efd74db3ca585c1804b98ad5f1ed",
    "PK": "25dc7d0a6092f0f300ac997f71f24b4ff4a8a22fa51fea0155df0087615ed0cf",
    "LJ": "503ef474a6a66bc63369abd9fefa350d65509704ea4afb7f4ed5681cfd129a0f",
    "HO": "9451c6794e53230a314ebbdb061fa94cd0b6ea81c8d62a65396ee41c5cfc5845",
    "IN": "703c344a2685da094f497affb46856d43271d59ad518b421526b3ffc2ae4ac6b",
    "OR": "047b187285e063fb498e5ab6e18586eca87ec3738b699ee3b0df060eacde5601",
    "RM22": "b0a82c2a42758cd3e2e912ec1affaf2501ea516aa9fb4a13a70eb9a1320aae41",
    "RM23": "96d0ac10d1a228ff2cbbf57d1288b7e4c3f450e86d0de17f03b2d507c08160cf",
    "RM24": "6ed3d1d8ca6c95437c2ebbc1b1ac33838354d9246306ce1b19fca3ca8929e48d",
    "RM25": "c999afb8eed8893c77838b8fbfeeab608b00562bbf0b9caec05199f12bf7ebc4",
    "RM26": "8d1a5544468d1216977a66295ee7d2c9a1e7c848e18e316f7155cb8b75174aa8",
    "RM18-FULL": "f7c748e523a9026154906d1516efbd9addb13faf5d605bd9d30b57d5ef81f519",
}

#: ``datasets.fingerprint`` of the tier-1 keys at the same point.
PINNED_FINGERPRINTS = {
    "FR": "3f8aa09a866c3b73",
    "PK": "f8819a058c4e97fb",
    "LJ": "1ece2bef045d2b08",
    "RM22": "3315fdf0d23b75dc",
}


def _content_digest(graph: CSRGraph) -> str:
    """The digest of the pins: ids as int64 whatever the graph's width."""
    h = hashlib.sha256()
    for arr in (graph.offsets, graph.edges):
        for block in int64_blocks(arr):
            h.update(block)
    h.update(np.ascontiguousarray(graph.weights, dtype="<f4"))
    return h.hexdigest()


# ----------------------------------------------------------------------
# Radix stable order
# ----------------------------------------------------------------------
_EDGE_KEYS = [0, 1, (1 << 16) - 1, 1 << 16, (1 << 16) + 1, (1 << 31) - 1]


class TestRadixArgsort:
    @settings(max_examples=200, deadline=None)
    @given(
        values=st.lists(
            st.one_of(
                st.sampled_from(_EDGE_KEYS),
                st.integers(0, 40),
                st.integers(0, (1 << 31) - 1),
            ),
            max_size=200,
        ),
        dtype=st.sampled_from([np.int32, np.int64]),
        slack=st.sampled_from([1, 2, 1 << 16, 1 << 40]),
    )
    @example(values=[], dtype=np.int32, slack=1)
    @example(values=[5], dtype=np.int64, slack=1)
    @example(values=[7] * 9, dtype=np.int32, slack=1)
    @example(values=[1 << 16, (1 << 16) - 1, 0, 1 << 16], dtype=np.int64, slack=1)
    def test_matches_stable_argsort(self, values, dtype, slack):
        keys = np.asarray(values, dtype=dtype)
        bound = (int(keys.max()) + 1 if keys.size else 0) + slack - 1
        expected = np.argsort(keys, kind="stable")
        got = radix_argsort(keys, bound)
        assert got.dtype == expected.dtype
        np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize(
        "top", [(1 << 16) - 1, 1 << 16, (1 << 32) - 1, 1 << 32, (1 << 48) + 3]
    )
    def test_digit_boundaries(self, top):
        rng = np.random.default_rng(top % 1000)
        keys = rng.integers(0, top + 1, size=500)
        keys[::7] = top
        keys[3::11] = 0
        np.testing.assert_array_equal(
            radix_argsort(keys, top + 1), np.argsort(keys, kind="stable")
        )


def _argsort_csr(num_vertices, src, dst, weights):
    order = np.argsort(src, kind="stable")
    offsets = np.zeros(num_vertices + 1, dtype=np.int64)
    np.add.at(offsets, src + 1, 1)
    return np.cumsum(offsets), dst[order], weights[order]


class TestFromArrays:
    @settings(max_examples=100, deadline=None)
    @given(
        data=st.data(),
        num_vertices=st.sampled_from([1, 2, 9, (1 << 16) + 3]),
        num_edges=st.integers(0, 150),
    )
    def test_matches_argsort_build(self, data, num_vertices, num_edges):
        ids = st.lists(
            st.integers(0, num_vertices - 1), min_size=num_edges, max_size=num_edges
        )
        src = np.asarray(data.draw(ids), dtype=np.int64)
        dst = np.asarray(data.draw(ids), dtype=np.int64)
        weights = np.arange(num_edges, dtype=np.float32)
        offsets, edges, wts = _argsort_csr(num_vertices, src, dst, weights)
        pairs = np.stack([src, dst], axis=1)
        for graph in (
            CSRGraph.from_arrays(num_vertices, src, dst, weights),
            CSRGraph.from_edge_list(num_vertices, pairs, weights),
        ):
            np.testing.assert_array_equal(graph.offsets, offsets)
            np.testing.assert_array_equal(graph.edges, edges)
            np.testing.assert_array_equal(graph.weights, wts)

    def test_rejects_unparallel_arrays(self):
        with pytest.raises(GraphError):
            CSRGraph.from_arrays(3, [0, 1], [1])
        with pytest.raises(GraphError):
            CSRGraph.from_arrays(3, [0, 1], [1, 2], weights=[1.0])
        with pytest.raises(GraphError):
            CSRGraph.from_arrays(3, [0, 3], [1, 2])


# ----------------------------------------------------------------------
# Canonical (src, dst, weight) order of a DynamicGraph
# ----------------------------------------------------------------------
_SPECIAL_WEIGHTS = [0.0, -0.0, 1.0, -1.0, 2.5, np.inf, -np.inf, np.nan, -np.nan]


def _lexsort_canonical(num_vertices, src, dst, weights):
    order = np.lexsort((weights, dst, src))
    offsets = np.zeros(num_vertices + 1, dtype=np.int64)
    np.add.at(offsets, src + 1, 1)
    return np.cumsum(offsets), dst[order], weights[order]


class TestCanonicalOrder:
    @settings(max_examples=150, deadline=None)
    @given(
        data=st.data(),
        num_vertices=st.sampled_from([1, 3, 17, (1 << 16) + 5]),
        num_edges=st.integers(0, 120),
    )
    def test_matches_lexsort(self, data, num_vertices, num_edges):
        ids = st.one_of(
            st.integers(0, min(num_vertices - 1, 4)),
            st.integers(0, num_vertices - 1),
        )
        src = np.asarray(
            data.draw(st.lists(ids, min_size=num_edges, max_size=num_edges)),
            dtype=np.int64,
        )
        dst = np.asarray(
            data.draw(st.lists(ids, min_size=num_edges, max_size=num_edges)),
            dtype=np.int64,
        )
        weights = np.asarray(
            data.draw(
                st.lists(
                    st.one_of(
                        st.sampled_from(_SPECIAL_WEIGHTS),
                        st.floats(width=32, allow_nan=True),
                    ),
                    min_size=num_edges,
                    max_size=num_edges,
                )
            ),
            dtype=np.float32,
        )
        graph = dynamic._canonical_csr(num_vertices, src, dst, weights, "G")
        offsets, edges, wts = _lexsort_canonical(num_vertices, src, dst, weights)
        np.testing.assert_array_equal(graph.offsets, offsets)
        np.testing.assert_array_equal(graph.edges, edges)
        # Bit patterns: the sign of every zero and the payload of every
        # NaN must land where lexsort puts them.
        np.testing.assert_array_equal(
            graph.weights.view(np.uint32), wts.view(np.uint32)
        )

    def test_repeated_triples_keep_input_order(self):
        src = np.array([1, 0, 1, 0, 1], dtype=np.int64)
        dst = np.array([2, 2, 2, 2, 2], dtype=np.int64)
        weights = np.array([-0.0, 0.0, 0.0, -0.0, -0.0], dtype=np.float32)
        graph = dynamic._canonical_csr(3, src, dst, weights, "G")
        _, _, wts = _lexsort_canonical(3, src, dst, weights)
        assert np.signbit(graph.weights).tolist() == [False, True, True, False, True]
        np.testing.assert_array_equal(
            graph.weights.view(np.uint32), wts.view(np.uint32)
        )

    def test_weight_keys_order_like_numpy_sort(self):
        values = np.array(
            [np.nan, np.inf, 3.0, 1e-45, 0.0, -0.0, -1e-45, -3.0, -np.inf, -np.nan],
            dtype=np.float32,
        )
        keys = dynamic._weight_keys(values)
        assert keys.dtype == np.uint32
        np.testing.assert_array_equal(
            np.argsort(keys, kind="stable"), np.argsort(values, kind="stable")
        )
        assert keys[4] == keys[5]  # 0.0 ties with -0.0
        assert keys[0] == keys[9] == np.iinfo(np.uint32).max  # NaNs tie, last


# ----------------------------------------------------------------------
# Guide-table inverse-CDF draw
# ----------------------------------------------------------------------
def _capped_zipf(n, exponent=2.1, cap=0.0015):
    p = np.arange(1, n + 1, dtype=np.float64) ** (-1.0 / (exponent - 1.0))
    p /= p.sum()
    cap = max(cap, 1.0 / (n * 10.0))
    for _ in range(4):
        p = np.minimum(p, cap)
        p /= p.sum()
    return p


def _profile(name, n):
    if name == "uniform":
        return np.full(n, 1.0 / n)
    if name == "single":
        p = np.zeros(n)
        p[n // 2] = 1.0
        return p
    if name == "zeros":  # leading, inner and trailing zero entries
        p = (np.arange(n) % 3 == 1).astype(np.float64)
        if not p.any():
            p[0] = 1.0
        return p / p.sum()
    return _capped_zipf(n)


def _draw_like_choice(seed, p, size):
    rng = np.random.default_rng(seed)
    cdf, guide = generators._inverse_cdf(p)
    out = np.empty(size, dtype=np.int64)
    return generators._weighted_draw(rng, cdf, guide, out), rng.random()


def _choice(seed, p, size):
    rng = np.random.default_rng(seed)
    return rng.choice(p.size, size=size, p=p), rng.random()


class TestWeightedDraw:
    @pytest.mark.parametrize("profile", ["uniform", "single", "zeros", "zipf"])
    @pytest.mark.parametrize("n", [1, 2, 7, 1000])
    @pytest.mark.parametrize("size", [0, 1, 5000])
    def test_matches_choice_and_generator_state(self, profile, n, size):
        p = _profile(profile, n)
        got, got_next = _draw_like_choice(3, p, size)
        expected, expected_next = _choice(3, p, size)
        assert got.dtype == expected.dtype
        np.testing.assert_array_equal(got, expected)
        assert got_next == expected_next

    @settings(max_examples=100, deadline=None)
    @given(
        weights=st.lists(
            st.one_of(st.just(0.0), st.floats(1e-300, 1e3)), min_size=1, max_size=60
        ).filter(lambda w: sum(w) > 0),
        size=st.integers(0, 300),
        block=st.sampled_from([1, 7, 64, 1 << 16]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_choice_in_any_block_size(self, weights, size, block, seed):
        p = np.asarray(weights, dtype=np.float64)
        p /= p.sum()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(generators, "_DRAW_BLOCK", block)
            got, got_next = _draw_like_choice(seed, p, size)
        expected, expected_next = _choice(seed, p, size)
        np.testing.assert_array_equal(got, expected)
        assert got_next == expected_next

    @pytest.mark.parametrize("profile", ["uniform", "zeros", "zipf"])
    def test_exact_at_cdf_values_and_grid_points(self, profile):
        """Uniforms that equal a cdf entry or a guide-table boundary."""
        cdf, guide = generators._inverse_cdf(_profile(profile, 12))
        grid = np.arange(guide.size) / guide.size
        u = np.concatenate(
            [cdf[:-1], grid, np.nextafter(grid[1:], 0.0), [np.nextafter(1.0, 0.0)]]
        )
        u = u[u < 1.0]  # random() never returns 1.0 (trailing zeros reach it)

        class Replay:
            def __init__(self, values):
                self.values = values

            def random(self, n):
                head, self.values = self.values[:n], self.values[n:]
                return head

        out = np.empty(u.size, dtype=np.int64)
        generators._weighted_draw(Replay(u), cdf, guide, out)
        np.testing.assert_array_equal(out, cdf.searchsorted(u, side="right"))

    @pytest.mark.parametrize("block", [1, 7, 1000])
    def test_power_law_graph_is_independent_of_the_block(self, block):
        default = power_law_graph(300, 2500, seed=5)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(generators, "_DRAW_BLOCK", block)
            blocked = power_law_graph(300, 2500, seed=5)
        assert _content_digest(blocked) == _content_digest(default)

    def test_guide_counts_cdf_entries_at_each_grid_point(self):
        cdf, guide = generators._inverse_cdf(_capped_zipf(300))
        scale = guide.size
        assert scale >= 4 * cdf.size and scale & (scale - 1) == 0
        grid = np.arange(scale) / scale
        np.testing.assert_array_equal(guide, np.searchsorted(cdf, grid, side="right"))


# ----------------------------------------------------------------------
# Registry graphs are byte-identical
# ----------------------------------------------------------------------
class TestPinnedContent:
    @pytest.mark.parametrize("key", ["FR", "PK", "LJ", "RM22"])
    def test_tier1_keys(self, key):
        graph = datasets.get_spec(key).build()
        assert _content_digest(graph) == PINNED_DIGESTS[key]
        assert datasets.fingerprint(key) == PINNED_FINGERPRINTS[key]

    @pytest.mark.parametrize("num_vertices", [1000, (1 << 17) + 7])
    def test_chunked_assembly_equals_in_memory_build(self, num_vertices):
        rng = np.random.default_rng(num_vertices)
        src = rng.integers(0, num_vertices, size=5000)
        dst = rng.integers(0, num_vertices, size=5000)
        # Sources that share their low 16 bits, interleaved in each chunk.
        hot = np.array([3, 3 + (1 << 16), 3 + (1 << 17)]) % num_vertices
        src[::3] = hot[rng.integers(0, 3, size=src[::3].size)]
        weights = rng.random(5000).astype(np.float32)
        chunks = [
            (src[lo:lo + 700], dst[lo:lo + 700], weights[lo:lo + 700])
            for lo in range(0, 5000, 700)
        ]
        assembled = storage.assemble_csr(num_vertices, lambda: iter(chunks))
        in_memory = CSRGraph.from_arrays(num_vertices, src, dst, weights)
        assert _content_digest(assembled) == _content_digest(in_memory)


@pytest.mark.large
class TestPinnedContentLarge:
    @pytest.mark.parametrize("key", sorted(datasets.DATASETS))
    def test_registry_key(self, key):
        graph = datasets.get_spec(key).build()
        assert _content_digest(graph) == PINNED_DIGESTS[key]

    def test_rm18_full_assembly_equals_in_memory_build(self):
        spec = datasets.PAPER_DATASETS["RM18-FULL"]
        assembled = spec.build()
        assert _content_digest(assembled) == PINNED_DIGESTS["RM18-FULL"]
        chunks = list(spec._chunk_factory()())
        in_memory = CSRGraph.from_arrays(
            spec.proxy_vertices,
            np.concatenate([c[0] for c in chunks]),
            np.concatenate([c[1] for c in chunks]),
            np.concatenate([c[2] for c in chunks]),
        )
        assert _content_digest(in_memory) == PINNED_DIGESTS["RM18-FULL"]


# ----------------------------------------------------------------------
# Tooling guard: the general library calls stay off the build path
# ----------------------------------------------------------------------
def _banned_calls(obj):
    """``choice(..., p=...)``, ``argsort(..., kind="stable")`` and
    ``lexsort(...)`` calls in ``obj``'s code (docstrings excluded)."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(obj)))
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
        keywords = {kw.arg: kw.value for kw in node.keywords}
        kind = keywords.get("kind")
        if (
            (name == "choice" and "p" in keywords)
            or (name == "argsort" and isinstance(kind, ast.Constant) and kind.value == "stable")
            or name == "lexsort"
        ):
            found.append(ast.unparse(node))
    return found


class TestBuildPathGuard:
    @pytest.mark.parametrize(
        "obj",
        [
            generators,
            CSRGraph.from_edge_list,
            CSRGraph.from_arrays,
            storage._chunk_positions,
            dynamic._canonical_csr,
        ],
        ids=lambda obj: getattr(obj, "__qualname__", getattr(obj, "__name__", "")),
    )
    def test_no_general_sort_or_choice(self, obj):
        """Keep the dataset build path on the O(E) draw and radix order.

        ``choice(p=...)``'s binary search and the comparison-based
        stable sorts measured 2.5-4x slower than their replacements
        here (numpy 2.4, 2-vCPU Xeon: 211 vs 71-90 ms per LJ draw,
        182 vs 64 ms for LJ's source order, 243 vs 61 ms for PK's
        canonical order).
        """
        assert _banned_calls(obj) == []

    def test_guard_sees_the_banned_calls(self):
        def sample(rng, src, dst, w, p):
            rng.choice(3, size=2, p=p)
            np.argsort(src, kind="stable")
            return np.lexsort((w, dst, src))

        assert len(_banned_calls(sample)) == 3
