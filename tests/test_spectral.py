import inspect

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import eigsh

from conftest import hop_distances, make_random_graph, make_tree_graph
from popgcn.errors import ContractError, ParameterError
from popgcn.gcn import scaled_operator
from popgcn.dataset import SyntheticConfig, generate_synthetic
from popgcn.popgraph import GraphSpec, PopulationGraph, build_graph
from popgcn import spectral
from popgcn.spectral import (
    BLOCK_NODE_LIMIT,
    LaplacianMatrix,
    chebyshev_basis,
    chebyshev_weighted_sum,
    estimate_lambda_max,
    normalized_laplacian,
    scale_laplacian,
)
from oracles import laplacian_difference, spectral_filter_oracle


def k2_graph(weight=1.0):
    return PopulationGraph.from_edges(2, [0], [1], [weight])


def empty_graph(n=4):
    return PopulationGraph.from_edges(n, [], [], [])


def apply_filter(scaled, x, theta):
    basis = chebyshev_basis(scaled, x, len(theta) - 1)
    out = theta[0] * basis[0]
    for k in range(1, len(theta)):
        out = out + theta[k] * basis[k]
    return out


class TestNormalizedLaplacian:
    def test_k2_closed_form(self):
        lap = normalized_laplacian(k2_graph())
        np.testing.assert_allclose(lap.dense(), [[1.0, -1.0], [-1.0, 1.0]], atol=1e-15)
        eigvals = np.linalg.eigvalsh(lap.dense())
        np.testing.assert_allclose(eigvals, [0.0, 2.0], atol=1e-14)

    def test_isolated_node_row_is_identity_row(self):
        g = PopulationGraph.from_edges(3, [0], [1], [2.0])
        lap = normalized_laplacian(g).dense()
        np.testing.assert_array_equal(lap[2], [0.0, 0.0, 1.0])
        np.testing.assert_array_equal(lap[:, 2], [0.0, 0.0, 1.0])

    def test_smallest_eigenvalue_zero_with_degree_eigenvector(self):
        g = make_random_graph(10, density=0.4, seed=3)
        lap = normalized_laplacian(g)
        eigvals = np.linalg.eigvalsh(lap.dense())
        assert abs(eigvals[0]) < 1e-8
        # D^{1/2} 1 must be annihilated on a connected graph.
        w = np.sqrt(g.adjacency.sum(axis=1))
        assert np.linalg.norm(lap.dense() @ w) < 1e-8 * np.linalg.norm(w)

    def test_symmetric_exactly(self):
        g = make_random_graph(17, density=0.3, seed=5)
        lap = normalized_laplacian(g).dense()
        assert np.max(np.abs(lap - lap.T)) == 0.0

    def test_spectrum_in_range_and_zero_multiplicity_counts_components(self):
        for seed in range(6):
            parts = 1 + seed % 3
            g = make_random_graph(24, density=0.3, seed=seed, n_components=parts)
            lap = normalized_laplacian(g)
            eigvals = np.linalg.eigvalsh(lap.dense())
            assert eigvals[0] > -1e-8
            assert eigvals[-1] < 2.0 + 1e-8
            n_zero = int(np.sum(np.abs(eigvals) < 1e-7))
            n_comp = connected_components(g.adjacency, directed=False)[0]
            assert n_zero == n_comp == parts

    def test_sparse_representation_matches_dense(self):
        g = make_random_graph(230, density=0.01, seed=2)
        lap = normalized_laplacian(g)
        assert lap.is_sparse
        w = np.zeros((g.n_nodes, g.n_nodes))
        w[g.edges_u, g.edges_v] = g.weights
        w[g.edges_v, g.edges_u] = g.weights
        degrees = w.sum(axis=1)
        d_half = np.diag(np.where(degrees > 0, degrees**-0.5, 0.0))
        dense = np.eye(g.n_nodes) - d_half @ w @ d_half
        np.testing.assert_allclose(lap.dense(), (dense + dense.T) / 2, atol=1e-12)


class TestLaplacianDifference:
    def test_constant_signal_vanishes(self):
        g = make_random_graph(8, density=0.5, seed=1)
        x = np.full(8, 3.7)
        for i in range(8):
            assert laplacian_difference(g, x, i) == pytest.approx(0.0, abs=1e-12)

    def test_k2_direct_substitution(self):
        assert laplacian_difference(k2_graph(), np.array([1.0, 0.0]), 0) == 1.0

    def test_matches_matrix_form(self, rng):
        g = make_random_graph(6, density=0.6, seed=4)
        x = rng.standard_normal(6)
        w = g.adjacency
        oracle = (np.diag(w.sum(axis=1)) - w) @ x
        for i in range(6):
            assert laplacian_difference(g, x, i) == pytest.approx(oracle[i], abs=1e-10)


class TestConnectedComponents:
    @staticmethod
    def assert_matches_csgraph(matrix):
        count, labels = connected_components(matrix, directed=False)
        got_count, got_labels = spectral.connected_components(matrix)
        assert got_count == count
        np.testing.assert_array_equal(got_labels, labels)

    def test_random_graphs_with_isolated_nodes_and_explicit_zeros(self):
        rng = np.random.default_rng(0)
        for _ in range(60):
            n = int(rng.integers(1, 400))
            nnz = int(rng.integers(0, 2 * n))
            rows, cols = rng.integers(0, n, nnz), rng.integers(0, n, nnz)
            # A third of the stored entries are explicit zeros; the pattern
            # need not be symmetric, and each entry links both ways.
            values = rng.choice([0.0, 0.5, 1.0], nnz)
            matrix = sp.csr_matrix((values, (rows, cols)), shape=(n, n))
            self.assert_matches_csgraph(matrix)

    def test_explicit_zero_is_an_edge(self):
        matrix = sp.csr_matrix((np.zeros(1), ([0], [2])), shape=(4, 4))
        assert matrix.nnz == 1
        count, labels = spectral.connected_components(matrix)
        assert count == 3
        np.testing.assert_array_equal(labels, [0, 1, 0, 2])

    def test_path_graph_in_shuffled_order(self):
        n = 3000
        order = np.random.default_rng(1).permutation(n)
        matrix = sp.csr_matrix((np.ones(n - 1), (order[:-1], order[1:])), shape=(n, n))
        count, labels = spectral.connected_components(matrix)
        assert count == 1 and not labels.any()
        self.assert_matches_csgraph(matrix)

    def test_cached_once_per_operator(self, monkeypatch):
        g = make_random_graph(230, density=0.01, seed=2, n_components=3)
        lap = normalized_laplacian(g)
        calls = []
        real = spectral.connected_components
        monkeypatch.setattr(
            spectral, "connected_components", lambda m: calls.append(1) or real(m)
        )
        assert lap.components[0] == 3
        assert lap.components is lap.components
        assert len(calls) == 1


class TestLambdaMax:
    def test_k2_known_spectrum(self):
        est = estimate_lambda_max(normalized_laplacian(k2_graph()))
        assert est.value == pytest.approx(2.0, abs=1e-12)
        assert not est.used_fallback

    def test_empty_graph_falls_back_to_analytic_bound(self):
        est = estimate_lambda_max(normalized_laplacian(empty_graph()))
        assert est.value == 2.0
        assert est.used_fallback

    def test_matches_dense_eigensolver(self):
        for seed in range(5):
            g = make_random_graph(20, density=0.35, seed=seed)
            lap = normalized_laplacian(g)
            est = estimate_lambda_max(lap)
            truth = np.linalg.eigvalsh(lap.dense())[-1]
            assert est.value == pytest.approx(truth, rel=1e-5)

    def test_exact_on_dense_population_graph(self):
        # SEX+SITE kernel graph: the top eigenvalues cluster within 2e-4 of
        # each other, where power iteration does not converge.
        features, records = generate_synthetic(SyntheticConfig(
            n_subjects=320, scans_per_subject=(1, 1), n_sites=6, n_features=40, seed=3
        ))
        spec = GraphSpec(measures=("SEX", "SITE"), sim_mode="correlation_kernel")
        lap = normalized_laplacian(build_graph(features, records, spec))
        assert not lap.is_sparse
        truth = np.linalg.eigvalsh(lap.dense())
        assert truth[-1] - truth[-4] < 1e-3
        est = estimate_lambda_max(lap)
        assert not est.used_fallback
        assert abs(est.value - truth[-1]) <= 1e-9 * truth[-1]

    def test_exact_and_reproducible_on_sparse_longitudinal_graph(self):
        # One component per subject, of at most BLOCK_NODE_LIMIT nodes, so
        # the dense blocks give lambda_max with no Lanczos step; with one to
        # three scans, lambda_max = 2 is repeated once per two-scan subject.
        # Every two-scan subject is bipartite, so lambda_max is exactly 2 and
        # the scaled operator stores no diagonal entry.
        spec = GraphSpec(measures=("AGE", "SEX", "GENE"), sim_mode="longitudinal")
        for scans in ((1, 3), (3, 4)):
            features, records = generate_synthetic(SyntheticConfig(
                n_subjects=120, scans_per_subject=scans, n_sites=4, n_features=20, seed=3
            ))
            lap = normalized_laplacian(build_graph(features, records, spec))
            assert lap.is_sparse
            truth = np.linalg.eigvalsh(lap.dense())[-1]
            est = estimate_lambda_max(lap)
            assert not est.used_fallback
            assert est.iterations == 0
            assert abs(est.value - truth) <= 1e-12 * truth
            assert estimate_lambda_max(lap) == est
            if scans == (1, 3):
                assert est.value == 2.0
                scaled = scale_laplacian(lap, est.value)
                assert scaled.matrix.nnz == lap.matrix.nnz - lap.n

    @staticmethod
    def longitudinal_graph_with_star(star_nodes):
        """The longitudinal graph of 200 subjects with one to three scans,
        plus a star of star_nodes nodes and unit weights."""
        features, records = generate_synthetic(SyntheticConfig(
            n_subjects=200, scans_per_subject=(1, 3), n_features=5, seed=3
        ))
        spec = GraphSpec(measures=("AGE", "SEX", "GENE"), sim_mode="longitudinal")
        g = build_graph(features, records, spec)
        hub = g.n_nodes
        return PopulationGraph.from_edges(
            hub + star_nodes,
            np.r_[g.edges_u, np.full(star_nodes - 1, hub)],
            np.r_[g.edges_v, np.arange(hub + 1, hub + star_nodes)],
            np.r_[g.weights, np.ones(star_nodes - 1)],
        )

    def test_reproducible_where_lanczos_restarts(self, monkeypatch):
        # The star is a component of more than BLOCK_NODE_LIMIT nodes, so
        # Lanczos runs. Its spectrum is {0, 1, 2} and every two-scan subject
        # is a bipartite component, so lambda_max = 2 is repeated many times,
        # the Krylov space stops growing and ARPACK asks for restart vectors.
        lap = normalized_laplacian(self.longitudinal_graph_with_star(BLOCK_NODE_LIMIT + 1))
        assert lap.is_sparse
        assert np.bincount(lap.components[1]).max() > BLOCK_NODE_LIMIT
        made = []
        real_default_rng = np.random.default_rng

        def recording_rng(seed):
            rng = real_default_rng(seed)
            made.append((rng, rng.bit_generator.state))
            return rng

        monkeypatch.setattr(spectral.np.random, "default_rng", recording_rng)
        estimates = [estimate_lambda_max(lap) for _ in range(6)]
        truth = np.linalg.eigvalsh(lap.dense())[-1]
        assert estimates[0].iterations > 0
        assert not estimates[0].used_fallback
        assert abs(estimates[0].value - truth) <= 1e-9 * truth
        assert estimates == [estimates[0]] * 6
        if "rng" in inspect.signature(eigsh).parameters:
            # Beyond the start vector, ARPACK drew restart vectors.
            rng, start = made[0]
            start_only = real_default_rng()
            start_only.bit_generator.state = start
            start_only.standard_normal(lap.n)
            assert rng.bit_generator.state != start_only.bit_generator.state

    def test_blocks_match_dense_eigensolver_on_small_components(self):
        # Components of several sizes up to the limit, isolated nodes among
        # them, with random weights; a component of one node more takes
        # Lanczos.
        for seed, largest in ((0, BLOCK_NODE_LIMIT), (1, BLOCK_NODE_LIMIT + 1)):
            parts = [make_random_graph(m, density=0.3, seed=seed + m) for m in (2, 3, 5)]
            parts.append(make_random_graph(7 * 30, density=0.3, seed=seed, n_components=30))
            parts.append(make_random_graph(largest, density=0.3, seed=seed))
            parts.append(empty_graph(5))
            u, v, w, offset = [], [], [], 0
            for part in parts:
                u.append(part.edges_u + offset)
                v.append(part.edges_v + offset)
                w.append(part.weights)
                offset += part.n_nodes
            g = PopulationGraph.from_edges(
                offset, np.concatenate(u), np.concatenate(v), np.concatenate(w)
            )
            lap = normalized_laplacian(g)
            assert lap.is_sparse
            truth = np.linalg.eigvalsh(lap.dense())[-1]
            est = estimate_lambda_max(lap)
            assert (est.iterations == 0) == (largest <= BLOCK_NODE_LIMIT)
            assert abs(est.value - truth) <= (1e-12 if est.iterations == 0 else 1e-9) * truth

    def test_requires_normalized_kind(self):
        lap = scale_laplacian(normalized_laplacian(k2_graph()), 2.0)
        with pytest.raises(ContractError):
            estimate_lambda_max(lap)


class TestScaleLaplacian:
    def test_lambda_two_is_l_minus_identity(self):
        g = make_random_graph(7, density=0.5, seed=0)
        lap = normalized_laplacian(g)
        scaled = scale_laplacian(lap, 2.0)
        np.testing.assert_allclose(scaled.dense(), lap.dense() - np.eye(7), atol=1e-15)
        assert scaled.kind == "scaled"

    def test_k2_closed_form(self):
        scaled = scale_laplacian(normalized_laplacian(k2_graph()), 2.0)
        np.testing.assert_allclose(scaled.dense(), [[0.0, -1.0], [-1.0, 0.0]], atol=1e-15)
        np.testing.assert_allclose(np.linalg.eigvalsh(scaled.dense()), [-1.0, 1.0], atol=1e-14)

    def test_spectrum_within_chebyshev_domain(self):
        for seed in range(4):
            g = make_random_graph(15, density=0.4, seed=seed)
            lap = normalized_laplacian(g)
            lam_true = np.linalg.eigvalsh(lap.dense())[-1]
            scaled = scale_laplacian(lap, lam_true)
            eigvals = np.linalg.eigvalsh(scaled.dense())
            assert eigvals[0] >= -1.0 - 1e-8
            assert eigvals[-1] <= 1.0 + 1e-8

    def test_invalid_lambda(self):
        for lambda_max in (0.0, float("nan")):
            with pytest.raises(ParameterError, match="lambda_max must be > 0"):
                scale_laplacian(normalized_laplacian(k2_graph()), lambda_max)


class TestChebyshevBasis:
    def scaled(self, seed=0, n=9):
        g = make_random_graph(n, density=0.4, seed=seed)
        lap = normalized_laplacian(g)
        return scale_laplacian(lap, estimate_lambda_max(lap).value)

    def test_order_zero(self, rng):
        x = rng.standard_normal((9, 3))
        basis = chebyshev_basis(self.scaled(), x, 0)
        assert len(basis) == 1
        np.testing.assert_array_equal(basis[0], x)

    def test_order_one(self, rng):
        scaled = self.scaled()
        x = rng.standard_normal((9, 3))
        basis = chebyshev_basis(scaled, x, 1)
        np.testing.assert_array_equal(basis[0], x)
        np.testing.assert_allclose(basis[1], scaled.dense() @ x, atol=1e-14)

    def test_scalar_chebyshev_identities(self):
        # 1x1 operator: the terms are the classic polynomials of c.
        c = 0.37
        scaled = LaplacianMatrix(matrix=np.array([[c]]), kind="scaled")
        basis = chebyshev_basis(scaled, np.array([[1.0]]), 3)
        values = [float(t[0, 0]) for t in basis]
        expected = [1.0, c, 2 * c**2 - 1, 4 * c**3 - 3 * c]
        np.testing.assert_allclose(values, expected, atol=1e-15)

    def test_terms_count(self, rng):
        x = rng.standard_normal((9, 2))
        for k in range(5):
            assert len(chebyshev_basis(self.scaled(), x, k)) == k + 1

    @pytest.mark.parametrize("sparse", [False, True])
    def test_terms_keep_the_float_dtype_the_operator_holds(self, rng, sparse):
        scaled = self.scaled()
        matrix = sp.csr_matrix(scaled.matrix) if sparse else scaled.matrix
        single = LaplacianMatrix(matrix=matrix.astype(np.float32), kind="scaled")
        x = rng.standard_normal((9, 3))
        basis = chebyshev_basis(single, x.astype(np.float32), 3)
        assert [t.dtype for t in basis] == [np.float32] * 4
        np.testing.assert_allclose(basis[3], chebyshev_basis(scaled, x, 3)[3], atol=1e-5)
        with pytest.raises(ContractError, match="operator dtype float32 != feature dtype float64"):
            chebyshev_basis(single, x, 3)
        # Other dtypes are read as float64, which a float32 operator refuses.
        integers = np.arange(27).reshape(9, 3)
        assert chebyshev_basis(scaled, integers, 1)[0].dtype == np.float64
        with pytest.raises(ContractError, match="feature dtype float64"):
            chebyshev_basis(single, integers.astype(np.float16), 1)

    def test_rejects_normalized_kind(self, rng):
        g = make_random_graph(5, seed=1)
        with pytest.raises(ContractError):
            chebyshev_basis(normalized_laplacian(g), rng.standard_normal((5, 2)), 2)
        with pytest.raises(ContractError):
            chebyshev_weighted_sum(normalized_laplacian(g), [rng.standard_normal((5, 2))] * 3)

    def test_clenshaw_equals_naive_sum(self, rng):
        scaled = self.scaled(seed=7)
        dense = scaled.dense()
        t_mats = [np.eye(9), dense]
        for _ in range(2, 4):
            t_mats.append(2 * dense @ t_mats[-1] - t_mats[-2])
        for order in range(1, 4):
            parts = [rng.standard_normal((9, 4)) for _ in range(order + 1)]
            got = chebyshev_weighted_sum(scaled, parts)
            naive = sum(t_mats[k] @ parts[k] for k in range(order + 1))
            np.testing.assert_allclose(got, naive, atol=1e-12)


class TestSpectralFilterOracle:
    def setup_case(self, n=12, seed=0):
        g = make_random_graph(n, density=0.4, seed=seed)
        lap = normalized_laplacian(g)
        lam = estimate_lambda_max(lap).value
        return lap, scale_laplacian(lap, lam), lam

    def test_identity_filter(self, rng):
        lap, _, lam = self.setup_case()
        x = rng.standard_normal(12)
        out = spectral_filter_oracle(lap, x, [1.0, 0.0, 0.0], lambda_max=lam)
        np.testing.assert_allclose(out, x, atol=1e-10)

    def test_first_order_filter(self, rng):
        lap, scaled, lam = self.setup_case(seed=3)
        x = rng.standard_normal(12)
        out = spectral_filter_oracle(lap, x, [0.0, 1.0], lambda_max=lam)
        np.testing.assert_allclose(out, scaled.dense() @ x, atol=1e-10)

    def test_matches_recursion_on_30_nodes(self, rng):
        g = make_random_graph(30, density=0.25, seed=11)
        lap = normalized_laplacian(g)
        lam = estimate_lambda_max(lap).value
        scaled = scale_laplacian(lap, lam)
        theta = rng.standard_normal(5)
        x = rng.standard_normal(30)
        recursion = apply_filter(scaled, x, theta)
        oracle = spectral_filter_oracle(lap, x, theta, lambda_max=lam)
        assert np.max(np.abs(recursion - oracle)) < 1e-8

    def test_matrix_signal(self, rng):
        lap, scaled, lam = self.setup_case(seed=5)
        theta = rng.standard_normal(4)
        x = rng.standard_normal((12, 3))
        recursion = apply_filter(scaled, x, theta)
        oracle = spectral_filter_oracle(lap, x, theta, lambda_max=lam)
        np.testing.assert_allclose(oracle, recursion, atol=1e-9)


class TestKLocality:
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_filter_is_strictly_k_localized(self, order, rng):
        g = make_tree_graph(20, seed=order)
        lap = normalized_laplacian(g)
        scaled = scale_laplacian(lap, estimate_lambda_max(lap).value)
        dist = hop_distances(g, source=0)
        far = np.flatnonzero(dist > order)
        assert len(far) > 0, "tree too small for the locality bound"
        theta = rng.standard_normal(order + 1)
        x = rng.standard_normal(20)
        base = apply_filter(scaled, x, theta)
        x2 = x.copy()
        x2[far[0]] += 7.5
        perturbed = apply_filter(scaled, x2, theta)
        assert perturbed[0] == base[0]  # exactly unchanged beyond K hops

    def test_all_basis_terms_symmetric_operators(self):
        g = make_random_graph(10, density=0.4, seed=9)
        lap = normalized_laplacian(g)
        scaled = scale_laplacian(lap, estimate_lambda_max(lap).value)
        t_k = chebyshev_basis(scaled, np.eye(10), 4)
        for term in t_k:
            assert np.max(np.abs(term - term.T)) < 1e-12


class TestDenseOperatorOrientation:
    """A dense operator equals its transpose bit for bit, and the recursions
    apply it as they apply its CSR copy, at either precision."""

    @pytest.mark.parametrize("strategy", ["phenotypic", "knn", "complete", "all", "random"])
    def test_every_dense_scaled_operator_equals_its_transpose(self, strategy):
        features, records = generate_synthetic(SyntheticConfig(
            n_subjects=50, scans_per_subject=(1, 2), n_sites=3, n_features=10, seed=4
        ))
        scaled = scaled_operator(build_graph(features, records, GraphSpec(strategy=strategy)))
        assert not scaled.is_sparse
        matrix = scaled.matrix
        np.testing.assert_array_equal(matrix.view(np.int64), matrix.T.view(np.int64))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("layout", ["C", "F", "column block"])
    @pytest.mark.parametrize("width", [1, 2, 16])
    def test_recursions_match_the_operator_stored_as_csr(self, rng, width, layout, dtype):
        matrix = scaled_operator(make_random_graph(40, density=0.3, seed=width)).matrix
        assert isinstance(matrix, np.ndarray)
        matrix = matrix.astype(dtype)
        dense = LaplacianMatrix(matrix=matrix, kind="scaled")
        csr = LaplacianMatrix(matrix=sp.csr_matrix(matrix), kind="scaled")
        # 1e-12 in float64, scaled to the dtype's machine epsilon.
        atol = 1e-12 * np.finfo(dtype).eps / np.finfo(np.float64).eps

        def signal():
            x = rng.standard_normal((40, 3 * width)).astype(dtype)
            if layout == "column block":
                return x[:, width:2 * width]
            return np.asarray(x[:, :width], order=layout)

        for order in range(5):
            x = signal()
            for got, want in zip(chebyshev_basis(dense, x, order), chebyshev_basis(csr, x, order)):
                assert got.dtype == want.dtype == dtype
                np.testing.assert_allclose(got, want, rtol=0, atol=atol)
            parts = [signal() for _ in range(order + 1)]
            got = chebyshev_weighted_sum(dense, parts)
            assert got.dtype == dtype
            np.testing.assert_allclose(
                got, chebyshev_weighted_sum(csr, parts), rtol=0, atol=atol,
            )
