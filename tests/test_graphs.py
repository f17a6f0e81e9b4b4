import warnings

import numpy as np
import pytest
import scipy.sparse
from counting import count_normalize, traced_peak
from oracles import power_iteration_radius

import pgcn.errors
import pgcn.graphs
from pgcn.errors import DataError, ParameterError, ShapeError
from pgcn.graphs import (
    AffinityGraph,
    MetaColumn,
    build_affinity,
    build_edges,
    build_graph,
    load_edge_list,
    normalize,
    random_graph,
    save_edge_list,
    similarity_matrix,
)
from pgcn.linalg import SYMMETRY_TOL, SparseSymMatrix, _validate_symmetry


def random_weights(n, density, rng):
    sim = np.clip(rng.normal(size=(n, n)), -1, 1)
    sim = 0.5 * (sim + sim.T)
    edges = np.triu(rng.random((n, n)) < density, k=1)
    edges = edges | edges.T
    return build_affinity(sim, edges)


class TestBuildEdges:
    def test_continuous_threshold(self):
        col = MetaColumn("age", "continuous", [30.0, 31.0, 50.0])
        adj = build_edges(col, beta=2.0)
        expected = np.zeros((3, 3), dtype=bool)
        expected[0, 1] = expected[1, 0] = True
        np.testing.assert_array_equal(adj, expected)

    def test_continuous_default_threshold(self):
        assert pgcn.graphs.DEFAULT_BETA == 2.0
        col = MetaColumn("age", "continuous", [30.0, 31.99, 34.0, 36.0])  # only 30 and 31.99 lie within 2.0
        expected = np.zeros((4, 4), dtype=bool)
        expected[0, 1] = expected[1, 0] = True
        np.testing.assert_array_equal(build_edges(col), expected)

    def test_categorical_equality(self):
        col = MetaColumn("gender", "categorical", ["A", "B", "A"])
        adj = build_edges(col)
        expected = np.zeros((3, 3), dtype=bool)
        expected[0, 2] = expected[2, 0] = True
        np.testing.assert_array_equal(adj, expected)

    def test_identical_continuous_complete(self):
        col = MetaColumn("age", "continuous", [40.0] * 5)
        adj = build_edges(col, beta=0.5)
        expected = ~np.eye(5, dtype=bool)
        np.testing.assert_array_equal(adj, expected)

    def test_nonpositive_beta_rejected(self):
        col = MetaColumn("age", "continuous", [1.0, 2.0])
        with pytest.raises(ParameterError):
            build_edges(col, beta=0.0)
        with pytest.raises(ParameterError):
            build_edges(col, beta=-1.0)

    def test_non_finite_metadata_rejected(self):
        with pytest.raises(DataError):
            MetaColumn("age", "continuous", [1.0, np.nan])

    def test_single_subject_rejected(self):
        with pytest.raises(ParameterError):
            build_edges(MetaColumn("age", "continuous", [1.0]), beta=1.0)

    def test_symmetric_no_self_edges(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            col = MetaColumn("v", "continuous", rng.normal(size=12))
            adj = build_edges(col, beta=0.7)
            np.testing.assert_array_equal(adj, adj.T)
            assert not np.any(np.diag(adj))

    def test_continuous_peak_below_one_and_a_half_float_matrices(self):
        n = 1000
        col = MetaColumn("age", "continuous", np.random.default_rng(0).uniform(20, 80, n))
        assert traced_peak(lambda: build_edges(col, beta=2.0)) < 1.5 * 8 * n * n


class TestSimilarityMatrix:
    def test_identical_rows(self):
        x = np.tile(np.array([1.0, 2.0, 3.0]), (3, 1))
        sim = similarity_matrix(x)
        np.testing.assert_allclose(sim, np.ones((3, 3)), atol=1e-12)

    def test_zero_mean_orthogonal(self):
        # both rows zero-mean with orthogonal residuals -> correlation 0
        sim = similarity_matrix(np.array([[1.0, -1.0, 0.0], [1.0, 1.0, -2.0]]))
        assert abs(sim[0, 1]) <= 1e-12

    def test_anti_correlation(self):
        row = np.array([0.3, -1.2, 2.0, 0.1])
        sim = similarity_matrix(np.vstack([row, -row]))
        np.testing.assert_allclose(sim[0, 1], -1.0, atol=1e-12)

    def test_zero_variance_names_subject(self):
        x = np.array([[1.0, 2.0], [3.0, 3.0], [0.0, 1.0]])
        with pytest.raises(DataError) as exc:
            similarity_matrix(x)
        assert "subject 1" in str(exc.value)

    @pytest.mark.parametrize("metric", ["pearson", "cosine"])
    @pytest.mark.parametrize("build", ["build_graph", "similarity_matrix"])
    @pytest.mark.parametrize("fault, row, message", [
        ("inf", 2, "feature values too large"),
        ("nan", 2, "feature value is nan"),
        ("times-1e200", 0, "feature values too large"),  # every row: each sum of squares overflows
    ])
    def test_row_a_dataset_refuses_names_its_subject(self, metric, build, fault, row, message):
        # a row holding a nan or an infinity, or whose sum of squares overflows, has no similarity to weight
        x = np.random.default_rng(5).normal(size=(6, 3))
        if fault == "times-1e200":
            x *= 1e200
        else:
            x[2, 1] = float(fault)
        col = MetaColumn("g", "categorical", ["a", "b"] * 3)
        step = {"build_graph": lambda: build_graph(col, x, metric=metric),
                "similarity_matrix": lambda: similarity_matrix(x, metric)}[build]
        with pytest.raises(DataError, match=rf"^subject {row}: {message}"):
            step()

    def test_cosine_metric(self):
        x = np.array([[1.0, 0.0], [0.0, 2.0], [3.0, 0.0]])
        sim = similarity_matrix(x, metric="cosine")
        assert sim[0, 1] == pytest.approx(0.0, abs=1e-12)
        assert sim[0, 2] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("metric", ["pearson", "cosine"])
    def test_one_subject(self, metric):
        sim = similarity_matrix(np.array([[1.0, 2.0, 4.0]]), metric=metric)
        assert sim.dtype == np.float64
        np.testing.assert_array_equal(sim, [[1.0]])

    def test_unknown_metric(self):
        with pytest.raises(ParameterError):
            similarity_matrix(np.ones((2, 3)), metric="manhattan")

    @pytest.mark.parametrize("metric", ["pearson", "cosine"])
    def test_peak_below_one_and_a_half_float_matrices(self, metric):
        n = 1000
        x = np.random.default_rng(0).normal(size=(n, 8))
        assert traced_peak(lambda: similarity_matrix(x, metric=metric)) < 1.5 * 8 * n * n


class TestBuildAffinity:
    def test_hadamard_mask(self):
        sim = np.array([[1.0, 0.5], [0.5, 1.0]])
        edges = np.array([[False, True], [True, False]])
        w = build_affinity(sim, edges)
        np.testing.assert_array_equal(w.to_dense(), np.array([[0.0, 0.5], [0.5, 0.0]]))

    def test_empty_edges(self):
        sim = np.ones((3, 3))
        w = build_affinity(sim, np.zeros((3, 3), dtype=bool))
        assert w.nnz == 0

    def test_negative_similarity_clamped(self):
        sim = np.array([[1.0, -0.3], [-0.3, 1.0]])
        edges = np.array([[False, True], [True, False]])
        w = build_affinity(sim, edges)
        np.testing.assert_array_equal(w.to_dense(), np.zeros((2, 2)))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            build_affinity(np.ones((2, 2)), np.zeros((3, 3), dtype=bool))

    def test_asymmetric_adjacency_is_data_error(self):
        edges = np.zeros((3, 3), dtype=bool)
        edges[0, 1] = edges[1, 0] = edges[1, 2] = True  # (1, 2) without (2, 1)
        with pytest.raises(DataError, match="not symmetric"):
            build_affinity(np.ones((3, 3)), edges)

    def test_zero_exactly_off_edges(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            n = 10
            sim = np.clip(rng.normal(size=(n, n)), -1, 1)
            sim = 0.5 * (sim + sim.T)
            edges = np.triu(rng.random((n, n)) < 0.4, k=1)
            edges = edges | edges.T
            w = build_affinity(sim, edges).to_dense()
            assert np.all(w[~edges] == 0.0)
            assert np.all(w >= 0.0)


class TestNormalize:
    def test_two_node_path(self):
        w = SparseSymMatrix.from_dense(np.array([[0.0, 1.0], [1.0, 0.0]]))
        a_hat = normalize(w).to_dense()
        np.testing.assert_allclose(a_hat, np.full((2, 2), 0.5), atol=1e-15)

    def test_isolated_node(self):
        w = SparseSymMatrix.from_dense(np.zeros((1, 1)))
        np.testing.assert_array_equal(normalize(w).to_dense(), np.array([[1.0]]))

    def test_isolated_node_in_larger_graph(self):
        dense = np.zeros((3, 3))
        dense[0, 1] = dense[1, 0] = 2.0
        a_hat = normalize(SparseSymMatrix.from_dense(dense)).to_dense()
        assert a_hat[2, 2] == 1.0

    def test_spectral_radius_random(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            w = random_weights(10, 0.5, rng)
            a_hat = normalize(w)
            dense = a_hat.to_dense()
            np.testing.assert_allclose(dense, dense.T, atol=1e-12)
            assert power_iteration_radius(dense) <= 1.0 + 1e-9

    def test_matches_dense_formula(self):
        rng = np.random.default_rng(23)
        w = random_weights(8, 0.6, rng)
        dense_w = w.to_dense()
        deg = dense_w.sum(axis=1) + 1.0
        expected = (dense_w + np.eye(8)) / np.sqrt(np.outer(deg, deg))
        np.testing.assert_allclose(normalize(w).to_dense(), expected, atol=1e-14)

    def test_nonpositive_degree_names_vertex(self):
        dense = np.zeros((3, 3))
        dense[1, 2] = dense[2, 1] = -2.0  # vertices 1 and 2 have degree 1 + (-2) = -1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match=r"vertex 1 has degree -1\.0"):
                normalize(SparseSymMatrix.from_dense(dense))

    def test_dense_input_is_shape_error(self):
        with pytest.raises(ShapeError, match="SparseSymMatrix"):
            normalize(np.zeros((2, 2)))

    def test_peak_bytes_per_stored_entry(self):
        # the random control graph of the dense benchmark workload: about 500k stored entries of W + I
        w = random_graph(1000, 0.5, seed=4).weights
        entries = w.nnz + w.dim
        # scaling W + I's values out of place through an int64 row index peaked at 60 bytes an entry, and in
        # place 44 while the operator's constructor copied the sum and checked its symmetry; adopted, it reads 30
        assert traced_peak(lambda: normalize(w)) < 34 * entries

    @pytest.mark.parametrize("weight, within", [(0.25, True), (2.0, True), (-0.999, False)])
    def test_operator_keeps_the_symmetry_bound_of_w_while_degrees_are_at_least_one(self, weight, within):
        # W's two entries differ by just under what its constructor's check lets through
        w = SparseSymMatrix(2, [0, 1, 2], [1, 0], [weight, weight + 0.9 * SYMMETRY_TOL])
        assert (np.min(w.row_sums()) >= 0.0) == within  # every degree 1 + row sum is at least 1
        a_hat = normalize(w).scipy()
        if within:
            _validate_symmetry(a_hat)
        else:  # degrees near 1e-3 scale W's difference by about 1000
            with pytest.raises(DataError, match="values are not symmetric"):
                _validate_symmetry(a_hat)

    def test_exact_entries_with_isolated_vertex_and_diagonal_weight(self):
        dense = np.zeros((4, 4))
        dense[0, 1] = dense[1, 0] = 0.3
        dense[1, 2] = dense[2, 1] = 0.7
        dense[1, 1] = 0.45  # explicit diagonal weight; vertex 3 is isolated
        a_hat = normalize(SparseSymMatrix.from_dense(dense))
        s = 1.0 / np.sqrt(dense.sum(axis=1) + 1.0)
        w_plus_i = dense + np.eye(4)
        rows, cols = np.nonzero(w_plus_i)
        np.testing.assert_array_equal(a_hat.indptr, [0, 2, 5, 7, 8])
        np.testing.assert_array_equal(a_hat.indices, cols)
        # bitwise equality with (W + I)_ij * s_i * s_j, multiplied in that order
        np.testing.assert_array_equal(a_hat.data, w_plus_i[rows, cols] * s[rows] * s[cols])
        assert a_hat.to_dense()[3, 3] == 1.0


class TestAffinityGraph:
    def test_operator_is_derived_from_weights(self):
        weights = random_weights(12, 0.5, np.random.default_rng(4))
        graph = AffinityGraph(weights, "g")
        assert_same_csr(graph.normalized, normalize(weights))
        with pytest.raises(TypeError):
            AffinityGraph(weights, "g", normalized=normalize(weights))

    def test_operator_is_derived_once_on_first_use(self, monkeypatch):
        calls = count_normalize(monkeypatch)
        weights = random_weights(12, 0.5, np.random.default_rng(4))
        graph = AffinityGraph(weights, "g")
        assert calls == []
        operator = graph.normalized
        assert graph.normalized is operator
        assert calls == [weights]

    @pytest.mark.parametrize("build", ["metadata", "random", "dense-random"])
    def test_build_beyond_physical_memory(self, monkeypatch, build):
        n, d = 100, 4
        col = MetaColumn("site", "categorical", np.arange(n) % 3)  # codes held by 34, 33 and 33 subjects
        x = np.random.default_rng(0).normal(size=(n, d))
        if build == "metadata":
            entries = 34 * 33 + 2 * 33 * 32  # each subject's code-mates, every edge counted from both ends
            # every subject's run (itself and its code-mates), one block of products (n < 256 rows), centred features
            needed = (entries + n) * pgcn.graphs._BUILD_ENTRY_BYTES + 8 * n * n + 8 * n * d
            error, need = DataError, rf"n={n} with {entries} edge entries needs {needed} bytes to build a graph"
            step = lambda: build_graph(col, x)  # noqa: E731
        else:
            # at density 0.1 the draw's N x N float64 and N x N bool; at density 1, two N x N bools and 33 bytes for
            # each of about N x N stored entries
            density, per_pair = (0.1, 9) if build == "random" else (1.0, 35)
            needed = per_pair * n * n
            error, need = ParameterError, rf"n={n} needs {needed} bytes of N x N arrays"
            step = lambda: random_graph(n, density, seed=0)  # noqa: E731
        monkeypatch.setattr(pgcn.errors, "_physical_memory_bytes", lambda: needed)
        assert step().n == n
        monkeypatch.setattr(pgcn.errors, "_physical_memory_bytes", lambda: needed - 1)
        monkeypatch.setattr(pgcn.graphs, "_edge_pairs", forbidden)  # refused before any array is sized by the edges
        monkeypatch.setattr(np.random, "default_rng", forbidden)  # and before random_graph's draw
        with pytest.raises(error, match=need):
            step()

    @pytest.mark.parametrize("kind", ["categorical", "continuous"])
    def test_build_peak_is_bounded_per_edge_entry(self, kind):
        n, d = 20_000, 4
        rng = np.random.default_rng(3)
        # about 10 subjects a run either way
        values = rng.integers(0, 2000, n) if kind == "categorical" else rng.uniform(20.0, 80.0, n)
        col, x = MetaColumn("site", kind, values), rng.normal(size=(n, d))
        peak = traced_peak(lambda: build_graph(col, x, beta=0.015))
        entries = build_graph(col, x, beta=0.015).weights.nnz
        bound = (entries + n) * pgcn.graphs._BUILD_ENTRY_BYTES + 8 * n * 256 + 8 * n * d  # the preflight's count
        assert peak < bound
        assert bound < 8 * n * n / 50  # one N x N float64 is 3.2 GB


def forbidden(*args):
    raise AssertionError("called after the memory check failed")


class TestRandomGraph:
    @pytest.mark.parametrize("density, per_pair", [(0.01, 9), (0.5, 18.5), (1.0, 35)])
    def test_peak_bytes_per_vertex_pair(self, density, per_pair):
        # the draw is one N x N float64 and one N x N bool; the stored edges then take two N x N bools and 33 bytes
        # an entry, which peaks at 18.5 bytes a pair at density 0.5 and 35 at density 1.  The memory check sizes
        # the same peak, less a few array headers: going through a dense float64 copy of the adjacency peaked at 31
        # bytes a pair at 0.5
        n = 1000
        assert traced_peak(lambda: random_graph(n, density, seed=4)) < per_pair * n * n + 4096
        memory = n * n * max(pgcn.graphs.GRAPH_BUILD_PAIR_BYTES, 2 + pgcn.graphs.RANDOM_ENTRY_BYTES * density)
        assert memory == pytest.approx(per_pair * n * n)

    def test_deterministic(self):
        g1 = random_graph(20, 0.3, seed=99)
        g2 = random_graph(20, 0.3, seed=99)
        np.testing.assert_array_equal(g1.edges.toarray(), g2.edges.toarray())
        np.testing.assert_array_equal(g1.normalized.data, g2.normalized.data)

    def test_full_density(self):
        g = random_graph(6, 1.0, seed=1)
        np.testing.assert_array_equal(g.edges.toarray(), ~np.eye(6, dtype=bool))

    def test_edge_count_within_3_sigma(self):
        n, density = 100, 0.1
        pairs = n * (n - 1) // 2
        expected = pairs * density
        sigma = np.sqrt(pairs * density * (1 - density))
        g = random_graph(n, density, seed=4)
        assert abs(g.edge_count - expected) <= 3 * sigma

    def test_bad_density(self):
        with pytest.raises(ParameterError):
            random_graph(10, 0.0, seed=0)
        with pytest.raises(ParameterError):
            random_graph(10, 1.5, seed=0)


def built_random_and_reloaded(tmp_path):
    """A built graph whose anti-correlated pairs keep zero-weight edges, a random graph, and a reload."""
    col = MetaColumn("g", "categorical", ["a", "b", "a", "b", "a", "a"])
    x = np.random.default_rng(0).normal(size=(6, 3))
    built = build_graph(col, x)
    path = tmp_path / "g.txt"
    save_edge_list(built, path)
    return built, random_graph(6, 0.5, seed=0), load_edge_list(path)


class TestAffinityGraphEdges:
    def test_edges_are_read_only(self, tmp_path):
        for graph in built_random_and_reloaded(tmp_path):
            pattern = graph.edges
            assert not any(a.flags.writeable for a in (pattern.data, pattern.indices, pattern.indptr))
            i, j = pattern.nonzero()
            with pytest.raises(ValueError):
                pattern[i[0], j[0]] = False

    def test_edge_sum_counts_zero_weight_edges(self, tmp_path):
        built, random, reloaded = built_random_and_reloaded(tmp_path)
        assert np.count_nonzero(built.weights.data == 0.0) > 0
        for graph in (built, random, reloaded):
            assert graph.edges.sum() == 2 * graph.edge_count == graph.weights.nnz
        assert_same_csr(reloaded.weights, built.weights)

    def test_load_edge_list_allocates_no_adjacency(self, tmp_path):
        n = 100_000
        path = tmp_path / "g.txt"
        path.write_text(f"n {n}\n0 1 0.5\n")
        # the header check's count bounds everything sized from N; a bool adjacency would be n^2 bytes
        assert traced_peak(lambda: load_edge_list(path)) < n * pgcn.graphs.EDGE_LIST_VERTEX_BYTES


BUILDERS = ["categorical", "continuous", "loaded", "random"]


def built_weights(builder, tmp_path):
    """``(W, arrays)``: the weights one of pgcn's graph builders makes, and the arrays it was built from."""
    rng = np.random.default_rng(BUILDERS.index(builder))
    n, x = 40, rng.normal(size=(40, 5))
    site = MetaColumn("site", "categorical", rng.integers(0, 3, n))
    if builder == "categorical":
        return build_graph(site, x).weights, (x, site.values)
    if builder == "continuous":
        age = MetaColumn("age", "continuous", rng.uniform(20.0, 80.0, n))
        return build_graph(age, x, beta=10.0).weights, (x, age.values)
    if builder == "random":
        return random_graph(n, 0.3, seed=2).weights, ()
    save_edge_list(build_graph(site, x), tmp_path / "site.txt")
    return load_edge_list(tmp_path / "site.txt").weights, ()


class TestBuiltOperatorsMatchTheCheckedConstructor:
    @pytest.mark.parametrize("normalized", [False, True], ids=["weights", "normalized"])
    @pytest.mark.parametrize("builder", BUILDERS)
    def test_bytes_frozen_unshared_and_symmetric(self, tmp_path, builder, normalized):
        op, inputs = built_weights(builder, tmp_path)
        if normalized:
            op, inputs = normalize(op), (op.indptr, op.indices, op.data)
        if builder != "random" and not normalized:  # anti-correlated pairs keep their edges as stored zeros
            assert np.any(op.data == 0.0)
        checked = SparseSymMatrix(op.dim, op.indptr, op.indices, op.data)
        assert_same_csr(op, checked)
        for arr in (op.indptr, op.indices, op.data):
            assert not arr.flags.writeable
            assert not any(np.shares_memory(arr, given) for given in inputs)
        _validate_symmetry(op.scipy())


class TestPermutationEquivariance:
    def test_pipeline_is_equivariant(self):
        rng = np.random.default_rng(31)
        n = 14
        x = rng.normal(size=(n, 6))
        ages = rng.uniform(20, 60, size=n)
        col = MetaColumn("age", "continuous", ages)
        pi = rng.permutation(n)

        adj = build_edges(col, beta=5.0)
        adj_p = build_edges(MetaColumn("age", "continuous", ages[pi]), beta=5.0)
        np.testing.assert_array_equal(adj_p, adj[np.ix_(pi, pi)])

        w = build_affinity(similarity_matrix(x), adj).to_dense()
        w_p = build_affinity(similarity_matrix(x[pi]), adj_p).to_dense()
        np.testing.assert_allclose(w_p, w[np.ix_(pi, pi)], atol=1e-12)

        a_hat = normalize(SparseSymMatrix.from_dense(w)).to_dense()
        a_hat_p = normalize(SparseSymMatrix.from_dense(w_p)).to_dense()
        np.testing.assert_allclose(a_hat_p, a_hat[np.ix_(pi, pi)], atol=1e-12)


class TestEdgeListRoundTrip:
    def test_round_trip_preserves_structure_and_weights(self, tmp_path):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(9, 5))
        col = MetaColumn("site", "categorical", rng.choice(["a", "b", "c"], size=9))
        graph = build_graph(col, x)
        path = tmp_path / "graph.txt"
        save_edge_list(graph, path)
        loaded = load_edge_list(path)
        assert loaded.source == "graph"  # the file name without its extension
        np.testing.assert_array_equal(loaded.edges.toarray(), graph.edges.toarray())
        np.testing.assert_array_equal(loaded.weights.to_dense(), graph.weights.to_dense())
        np.testing.assert_array_equal(loaded.normalized.data, graph.normalized.data)

    def test_round_trip_keeps_clamped_zero_weight_edges(self, tmp_path):
        sim = np.array([[1.0, -0.4, 0.6], [-0.4, 1.0, 0.2], [0.6, 0.2, 1.0]])
        edges = ~np.eye(3, dtype=bool)
        graph_w = build_affinity(sim, edges)
        g = AffinityGraph(graph_w, "toy")
        path = tmp_path / "clamped.txt"
        save_edge_list(g, path)
        text = path.read_text()
        assert text.splitlines()[0] == "n 3"
        assert len(text.splitlines()) == 4  # header + 3 edges, incl. the clamped one
        loaded = load_edge_list(path)
        np.testing.assert_array_equal(loaded.edges.toarray(), edges)
        assert loaded.weights.to_dense()[0, 1] == 0.0

    def test_negative_zero_weight_is_stored_and_written_as_zero(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("n 3\n0 1 -0\n1 2 0.5\n")
        graph = load_edge_list(path)
        assert graph.edge_count == 2 and graph.edges.sum() == 4
        save_edge_list(graph, path)
        assert path.read_text() == "n 3\n0 1 0\n1 2 0.5\n"

    def test_malformed_files(self, tmp_path):
        bad_header = tmp_path / "bad1.txt"
        bad_header.write_text("3\n0 1 0.5\n")
        with pytest.raises(DataError):
            load_edge_list(bad_header)

        dup = tmp_path / "bad2.txt"
        dup.write_text("n 3\n0 1 0.5\n0 1 0.5\n")
        with pytest.raises(DataError):
            load_edge_list(dup)

        out_of_range = tmp_path / "bad3.txt"
        out_of_range.write_text("n 3\n0 3 0.5\n")
        with pytest.raises(DataError):
            load_edge_list(out_of_range)


def dense_reference_affinity(sim, edges):
    """The dense weighting ``build_affinity`` replaced, kept as its oracle."""
    w = np.maximum(np.where(edges, sim, 0.0), 0.0)
    return 0.5 * (w + w.T)


def stored_on(edges, dense):
    """``dense`` stored at exactly the entries of the boolean ``edges``, zeros included."""
    pattern = scipy.sparse.csr_matrix(edges)
    return SparseSymMatrix(len(edges), pattern.indptr, pattern.indices, dense[edges])


def reference_edge_list_text(edges, dense):
    """The per-line writer ``save_edge_list`` replaced, kept as its oracle."""
    rows, cols = np.nonzero(np.triu(edges, k=1))
    return f"n {len(edges)}\n" + "".join(f"{i} {j} {dense[i, j]:.17g}\n" for i, j in zip(rows.tolist(), cols.tolist()))


def reference_loaded_weights(text):
    """Dense build of an edge list's edges and weights, one line at a time, as the old loader did."""
    lines = [ln.split() for ln in text.splitlines() if ln.strip()]
    n = int(lines[0][1])
    edges, w = np.zeros((n, n), dtype=bool), np.zeros((n, n))
    for i, j, weight in lines[1:]:
        i, j = int(i), int(j)
        edges[i, j] = edges[j, i] = True
        w[i, j] = w[j, i] = float(weight)
    return edges, w


def assert_same_csr(a, b):
    for name in ("indptr", "indices", "data"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype, name
        assert x.tobytes() == y.tobytes(), name


def oracle_graph(n, density, seed):
    """Edges at ``density`` with vertex 0 isolated, and an asymmetric similarity with negatives."""
    rng = np.random.default_rng(seed)
    sim = rng.uniform(-1.0, 1.0, size=(n, n))
    upper = np.triu(rng.random((n, n)) < density, k=1)
    edges = upper | upper.T
    edges[0, :] = edges[:, 0] = False
    return sim, edges


class TestBulkPathsMatchDenseReference:
    @pytest.mark.parametrize("n", [2, 3, 50, 400])
    @pytest.mark.parametrize("density", [0.0, 0.4, 1.0])
    def test_build_affinity_bytes(self, n, density):
        sim, edges = oracle_graph(n, density, seed=n)
        got, ref = build_affinity(sim, edges), dense_reference_affinity(sim, edges)
        assert_same_csr(got, stored_on(edges, ref))
        assert_same_csr(normalize(got), normalize(SparseSymMatrix.from_dense(ref)))
        if n > 3 and density > 0:
            assert np.count_nonzero(got.data == 0.0) > 0  # clamped-zero edges are stored zeros

    @pytest.mark.parametrize("n, density", [(2, 1.0), (3, 0.0), (50, 0.4), (400, 0.4), (60, 1.0)])
    def test_edge_list_bytes_and_reload(self, tmp_path, n, density):
        sim, edges = oracle_graph(n, density, seed=n + 1)
        weights = build_affinity(sim, edges)
        graph = AffinityGraph(weights, "g")
        path = tmp_path / "g.txt"
        save_edge_list(graph, path)
        text = path.read_text()
        assert text == reference_edge_list_text(edges, dense_reference_affinity(sim, edges))
        loaded = load_edge_list(path)
        ref_edges, ref_weights = reference_loaded_weights(text)
        np.testing.assert_array_equal(loaded.edges.toarray(), ref_edges)
        assert_same_csr(loaded.weights, stored_on(ref_edges, ref_weights))
        assert_same_csr(loaded.normalized, normalize(SparseSymMatrix.from_dense(ref_weights)))
        save_edge_list(loaded, path)
        assert path.read_text() == text

    def test_edge_list_io_allocates_no_dense_float_matrix(self, tmp_path):
        n = 2000
        edges = np.zeros((n, n), dtype=bool)
        edges[0, 1:4] = edges[1:4, 0] = True
        weights = SparseSymMatrix.from_dense(edges.astype(np.float64))
        graph = AffinityGraph(weights, "g")
        path = tmp_path / "g.txt"
        for step in (lambda: save_edge_list(graph, path), lambda: load_edge_list(path)):
            assert traced_peak(step) < 8 * n * n // 2  # an N x N float64 array would be 8 n^2 bytes


def dense_rule_edges(col, beta):
    """The literal N x N edge rules the pair path replaced, kept as its oracle."""
    v = col.values
    adj = np.abs(v[:, None] - v[None, :]) < beta if col.kind == "continuous" else v[:, None] == v[None, :]
    np.fill_diagonal(adj, False)
    return adj


def oracle_column(case, n, rng):
    """``(column, beta)`` for one named case of the edge-rule oracle."""
    if case == "one-code":
        return MetaColumn("c", "categorical", ["a"] * n), None
    if case == "singletons":
        return MetaColumn("c", "categorical", rng.permutation(n)), None
    if case == "many-codes":
        return MetaColumn("c", "categorical", [f"s{k}" for k in rng.integers(0, max(2, n // 8), n)]), None
    if case == "ties":
        return MetaColumn("c", "continuous", rng.integers(0, 12, n).astype(float)), 2.0
    if case == "negative":
        return MetaColumn("c", "continuous", rng.normal(-3.0, 2.0, n)), 0.7
    if case == "gap-equal-beta":  # 0.1 apart on a grid: fl(b - a) falls on either side of 0.1
        return MetaColumn("c", "continuous", rng.integers(-20, 20, n) * 0.1), 0.1
    assert case == "near-1e12"  # beta is below the values' ulp, so only equal values are within it
    return MetaColumn("c", "continuous", 1e12 + rng.integers(0, 4, n) * 2.0 ** -13), 1e-5


ORACLE_CASES = ("one-code", "singletons", "many-codes", "ties", "negative", "gap-equal-beta", "near-1e12")


class TestEdgePairsMatchDenseRules:
    @pytest.mark.parametrize("case", ORACLE_CASES)
    @pytest.mark.parametrize("n", [2, 7, 300, 513])
    def test_edges(self, case, n):
        col, beta = oracle_column(case, n, np.random.default_rng([n, len(case)]))
        np.testing.assert_array_equal(build_edges(col, beta=beta), dense_rule_edges(col, beta))

    @pytest.mark.parametrize("metric", ["pearson", "cosine"])
    @pytest.mark.parametrize("case", ORACLE_CASES)
    @pytest.mark.parametrize("n, d", [(2, 3), (7, 2), (300, 5), (513, 6)])
    def test_build_graph_equals_the_dense_chain(self, metric, case, n, d):
        rng = np.random.default_rng([n, d, len(case)])
        col, beta = oracle_column(case, n, rng)
        x = rng.normal(size=(n, d))
        graph = build_graph(col, x, beta=beta, metric=metric)
        dense = build_affinity(similarity_matrix(x, metric=metric), dense_rule_edges(col, beta))
        assert_same_csr(graph.weights, dense)
        w = graph.weights.to_dense()
        assert w.tobytes() == w.T.tobytes()  # symmetric to the bit

    @pytest.mark.parametrize("n, d", [(777, 5), (500, 2), (1500, 300), (1000, 64)])
    def test_similarity_within_two_eps_of_corrcoef(self, n, d):
        x = np.random.default_rng([n, d]).normal(size=(n, d))
        eps = np.finfo(np.float64).eps
        reference = np.clip(np.corrcoef(x), -1.0, 1.0)
        np.fill_diagonal(reference, 1.0)
        np.testing.assert_allclose(similarity_matrix(x), reference, rtol=0, atol=2 * eps)
        unit = x / np.linalg.norm(x, axis=1)[:, None]
        reference = np.clip(unit @ unit.T, -1.0, 1.0)
        np.fill_diagonal(reference, 1.0)
        np.testing.assert_allclose(similarity_matrix(x, metric="cosine"), reference, rtol=0, atol=2 * eps)


class TestEdgeListFaults:
    @pytest.mark.parametrize(
        "body, message",
        [
            ("0 1 0.5\n\n0 2\n", ":4: expected 'i j weight', got '0 2'"),
            ("0 1 0.5\n\n0 two 0.5\n", ":4: unparseable edge '0 two 0.5'"),
            ("0 1 0.5\n\n0 3 0.5\n", ":4: edge (0, 3) out of range for n=3"),
            ("0 1 0.5\n\n2 1 0.5\n", ":4: edge (2, 1) out of range for n=3"),
            ("0 1 0.5\n\n99999999999999999999 1 0.5\n",
             ":4: edge (99999999999999999999, 1) out of range for n=3"),
            ("0 1 0.5\n\n0 2 -1\n", ":4: invalid weight -1"),
            ("0 1 0.5\n\n0 2 nan\n", ":4: invalid weight nan"),
            ("0 1 0.5\n\n\n0 1 0.5\n", ":5: duplicate edge (0, 1)"),
        ],
        ids=["field-count", "unparseable", "out-of-range", "reversed", "int64-overflow", "negative-weight",
             "nan-weight", "duplicate"],
    )
    def test_message_names_file_line(self, tmp_path, body, message):
        path = tmp_path / "bad.txt"
        path.write_text("n 3\n" + body)
        with pytest.raises(DataError) as exc:
            load_edge_list(path)
        assert str(exc.value) == f"{path}{message}"

    @pytest.mark.parametrize(
        "body, message",
        [
            ("0 1 0.5\n0 2 -1\n\n1 2 x\n", ":3: invalid weight -1"),
            ("0 1 1\n\n0 1 1\n0 9 1\n", ":4: duplicate edge (0, 1)"),
            ("0 1 1\n0 1 1\n1 2 3 4\n", ":3: duplicate edge (0, 1)"),
            ("0 x 1\n\n0 9 1\n", ":2: unparseable edge '0 x 1'"),
            ("0 9 1\n\n0 1 x\n", ":2: edge (0, 9) out of range for n=3"),
            ("1 2 -1\n\n99999999999999999999 1 0.5\n", ":2: invalid weight -1"),
        ],
        ids=["weight-before-parse", "duplicate-before-range", "duplicate-before-count", "parse-before-range",
             "range-before-parse", "weight-before-overflow"],
    )
    def test_earlier_line_wins(self, tmp_path, body, message):
        path = tmp_path / "bad.txt"
        path.write_text("n 3\n" + body)
        with pytest.raises(DataError) as exc:
            load_edge_list(path)
        assert str(exc.value) == f"{path}{message}"

    def test_blank_lines_allowed_and_tokens_parse_as_int_and_float(self, tmp_path):
        path = tmp_path / "ok.txt"
        path.write_text("\n  n 12 \n\n0 1_0 +.5\n\t\n2 3 1e-3\n\n")
        graph = load_edge_list(path)
        assert graph.edge_count == 2
        assert graph.weights.to_dense()[0, 10] == 0.5
        assert graph.weights.to_dense()[3, 2] == 1e-3

    def test_header_beyond_physical_memory(self, tmp_path, monkeypatch):
        path = tmp_path / "g.txt"
        path.write_text("n 100\n0 1 0.5\n")
        monkeypatch.setattr(pgcn.errors, "_physical_memory_bytes", lambda: 100 * 96)
        assert load_edge_list(path).n == 100
        monkeypatch.setattr(pgcn.errors, "_physical_memory_bytes", lambda: 100 * 96 - 1)
        with pytest.raises(DataError, match=r"n=100 needs 9600 bytes of vertex arrays"):
            load_edge_list(path)

    def test_header_beyond_address_space(self, tmp_path):
        path = tmp_path / "huge.txt"
        path.write_text("n 10000000000\n")  # 9.6e11 bytes of vertex arrays: no allocation could succeed
        with pytest.raises(DataError, match=r"n=10000000000 needs"):
            load_edge_list(path)

    def test_bulk_parse_accepts_exactly_the_files_without_a_faulty_line(self, monkeypatch):
        scan = pgcn.graphs._scan_edges
        scanned = []
        monkeypatch.setattr(pgcn.graphs, "_scan_edges", lambda *args: scanned.append(args) or scan(*args))
        rng = np.random.default_rng(12)
        paths = {"bulk": 0, "scan": 0, "fault": 0}
        for _ in range(MUTANT_EDGE_BODIES):
            n, body = mutant_edge_body(rng)
            scanned.clear()
            try:
                scan("g.txt", 2, body, n)
            except DataError as fault:  # the line-by-line scan names a faulty line: the bulk step must not accept
                with pytest.raises(DataError) as exc:
                    pgcn.graphs._parse_edges("g.txt", 2, body, n)
                assert str(exc.value) == str(fault), body
                paths["fault"] += 1
                continue
            i, j, weight = pgcn.graphs._parse_edges("g.txt", 2, body, n)
            fields = [line.split() for line in body if line.split()]
            assert i.tolist() == [int(f[0]) for f in fields] and j.tolist() == [int(f[1]) for f in fields], body
            assert weight.tobytes() == np.array([float(f[2]) for f in fields]).tobytes(), body
            paths["scan" if scanned else "bulk"] += 1
        assert min(paths.values()) > 0.025 * MUTANT_EDGE_BODIES, paths  # every path is exercised

    @pytest.mark.parametrize("text", ["n 3", "n 3\n", "n 3\n\n  \n\t\n\x0c\n"],
                             ids=["header", "newline", "blank-lines"])
    def test_edge_free_file_loads_without_warning(self, tmp_path, text):
        path = tmp_path / "g.txt"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            graph = load_edge_list(path)
        assert graph.n == 3 and graph.edge_count == 0


MUTANT_EDGE_BODIES = 2000
# Tokens where np.loadtxt and int()/float() could part ways, plus plain faults.
EDGE_TOKENS = ("1_0", "+.5", "1e400", "nan", "inf", "-0", "1.0", "0x1", "-1", "1e3",
               "9223372036854775808", "99999999999999999999", "x", "#", "\t", "\x0c", "\x1c", "\r")


def mutant_edge_body(rng):
    """``(n, lines)``: the body of a small valid edge list after up to three seeded mutations."""
    n = int(rng.integers(2, 8))
    lines = [f"{i} {j} {rng.random():.17g}" for i in range(n) for j in range(i + 1, n) if rng.random() < 0.6]
    for _ in range(int(rng.integers(4))):
        k = int(rng.integers(len(lines) + 1))
        kind = int(rng.integers(5))
        if kind == 0:
            lines.insert(k, " \t" * int(rng.integers(2)))
        elif kind == 1:  # a stray line of one to four small integers
            lines.insert(k, " ".join(str(v) for v in rng.integers(-1, n + 1, size=int(rng.integers(1, 5)))))
        elif lines and kind == 2:
            lines.insert(k, lines[int(rng.integers(len(lines)))])
        elif lines and kind == 3:
            k = min(k, len(lines) - 1)
            lines[k] = lines[k][:int(rng.integers(len(lines[k]) + 1))]
        elif lines:
            k = min(k, len(lines) - 1)
            tokens = lines[k].split() or ["0"]
            tokens[int(rng.integers(len(tokens)))] = EDGE_TOKENS[int(rng.integers(len(EDGE_TOKENS)))]
            lines[k] = " ".join(tokens)
    return n, lines
