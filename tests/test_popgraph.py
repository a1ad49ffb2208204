import itertools
import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from popgcn.dataset import AcquisitionRecord, FeatureMatrix, SyntheticConfig, generate_synthetic
from popgcn.errors import ContractError, DegenerateInputError, IntegrityError, ParameterError
from popgcn.popgraph import (
    DENSE_DENSITY_LIMIT,
    MEASURES,
    GraphSpec,
    PopulationGraph,
    build_complete_graph,
    build_graph,
    build_knn_graph,
    build_phenotypic_graph,
    build_random_graph,
    correlation_distance_matrix,
    pairwise_correlation,
    save_graph,
)
from popgcn.spectral import estimate_lambda_max, normalized_laplacian
from conftest import read_graph_csv
from oracles import gamma_categorical, gamma_quantitative, longitudinal_sim, similarity_kernel


def rec(i, subject=None, label=0, site="siteA", sex="M", age=30.0, gene=None):
    return AcquisitionRecord(
        acquisition_id=f"a{i}",
        subject_id=subject or f"s{i}",
        label=label,
        site=site,
        sex=sex,
        age=age,
        gene_flag=gene,
    )


def feats(values):
    values = np.asarray(values, dtype=float)
    return FeatureMatrix(ids=[f"a{i}" for i in range(len(values))], values=values)


class TestGamma:
    def test_categorical(self):
        assert gamma_categorical("M", "M") == 1
        assert gamma_categorical("M", "F") == 0
        assert gamma_categorical("siteA", "siteA") == 1

    def test_quantitative_inside_window(self):
        assert gamma_quantitative(30, 31, theta=2) == 1

    def test_quantitative_boundary_is_strict(self):
        assert gamma_quantitative(30, 32, theta=2) == 0

    def test_quantitative_zero_difference(self):
        for theta in (0.5, 2, 100):
            assert gamma_quantitative(17.3, 17.3, theta) == 1

    def test_theta_must_be_positive(self):
        with pytest.raises(ParameterError):
            gamma_quantitative(1, 2, theta=0)


class TestSimilarityKernel:
    def test_identical_vectors(self):
        x = np.array([1.0, 2.0, 3.0, 1.5])
        assert similarity_kernel(x, x, sigma=1.0) == pytest.approx(1.0, abs=1e-14)

    def test_negated_vector(self):
        # Oracle: Pearson(x, -x) = -1, rho = 2, kernel = exp(-4/2) = exp(-2).
        x = np.array([0.3, -1.2, 2.0, 0.7])
        r = np.corrcoef(x, -x)[0, 1]
        oracle = math.exp(-((1 - r) ** 2) / 2.0)
        got = similarity_kernel(x, -x, sigma=1.0)
        assert got == pytest.approx(oracle, abs=1e-12)
        assert got == pytest.approx(math.exp(-2.0), abs=1e-12)

    def test_uncorrelated_pair(self):
        # Pearson = 0 by construction, so rho = 1 and kernel = exp(-0.5).
        x_v = np.array([1.0, -1.0, 1.0, -1.0])
        x_w = np.array([1.0, 1.0, -1.0, -1.0])
        assert np.corrcoef(x_v, x_w)[0, 1] == pytest.approx(0.0, abs=1e-15)
        got = similarity_kernel(x_v, x_w, sigma=1.0)
        assert got == pytest.approx(math.exp(-0.5), abs=1e-12)

    def test_degenerate_vector(self):
        with pytest.raises(DegenerateInputError):
            similarity_kernel(np.ones(4), np.array([1.0, 2.0, 3.0, 4.0]), sigma=1.0)

    def test_symmetry(self, rng):
        x = rng.standard_normal(6)
        y = rng.standard_normal(6)
        assert similarity_kernel(x, y, 0.7) == similarity_kernel(y, x, 0.7)

    @given(a=st.floats(min_value=0.05, max_value=20.0), b=st.floats(-5, 5), seed=st.integers(0, 500))
    @settings(max_examples=40, deadline=None)
    def test_scale_and_shift_invariance(self, a, b, seed):
        g = np.random.default_rng(seed)
        x = g.standard_normal(8)
        y = g.standard_normal(8)
        base = similarity_kernel(x, y, sigma=1.0)
        assert similarity_kernel(a * x + b, y, sigma=1.0) == pytest.approx(base, abs=1e-9)

    def test_range(self, rng):
        for _ in range(20):
            x, y = rng.standard_normal(5), rng.standard_normal(5)
            val = similarity_kernel(x, y, sigma=0.8)
            assert 0.0 < val <= 1.0

    def test_bad_sigma(self):
        with pytest.raises(ParameterError):
            similarity_kernel(np.arange(3.0), np.arange(3.0), sigma=0.0)


class TestLongitudinalSim:
    def test_same_subject(self):
        assert longitudinal_sim("s1", "s1", lam=10.0) == 10.0

    def test_different_subject(self):
        assert longitudinal_sim("s1", "s2", lam=10.0) == 0.0

    def test_other_lambda(self):
        assert longitudinal_sim("s1", "s1", lam=1.5) == 1.5

    def test_lambda_must_exceed_one(self):
        with pytest.raises(ParameterError):
            longitudinal_sim("s1", "s1", lam=1.0)


class TestPhenotypicGraph:
    def test_two_nodes_same_sex_same_site_identical_features(self):
        features = feats([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])
        records = [rec(0, sex="M", site="siteA"), rec(1, sex="M", site="siteA")]
        g = build_phenotypic_graph(features, records, GraphSpec(measures=("SEX", "SITE")))
        assert g.edge_list() == [(0, 1, pytest.approx(2.0, abs=1e-12))]

    def test_adni_style_no_agreement_gives_no_edge(self):
        features = feats([[1.0, 2.0, 3.0], [2.0, 1.0, 0.0]])
        records = [
            rec(0, subject="s1", sex="M", age=50.0),
            rec(1, subject="s2", sex="F", age=60.0),
        ]
        spec = GraphSpec(measures=("SEX", "AGE"), sim_mode="longitudinal", theta=2.0, lam=10.0)
        g = build_phenotypic_graph(features, records, spec)
        assert g.n_edges == 0

    def test_longitudinal_same_subject_edge(self):
        features = feats([[1.0, 2.0, 3.0], [2.0, 1.0, 0.0]])
        records = [
            rec(0, subject="s1", sex="M", age=50.0),
            rec(1, subject="s1", sex="M", age=51.0),
        ]
        spec = GraphSpec(measures=("SEX", "AGE"), sim_mode="longitudinal", theta=2.0, lam=10.0)
        g = build_phenotypic_graph(features, records, spec)
        # Same subject: Sim = 10; sex and age both agree -> weight 20.
        assert g.edge_list() == [(0, 1, pytest.approx(20.0))]

    def test_three_nodes_sex_only(self):
        features = feats([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        records = [rec(0, sex="M"), rec(1, sex="M"), rec(2, sex="F")]
        spec = GraphSpec(measures=("SEX",), sim_mode="none")
        g = build_phenotypic_graph(features, records, spec)
        assert g.edge_list() == [(0, 1, 1.0)]

    @pytest.mark.parametrize("strategy", ["phenotypic", "random"])
    @pytest.mark.parametrize("sim_mode", ["none", "correlation_kernel", "longitudinal"])
    def test_empty_measures_rejected(self, strategy, sim_mode):
        # W = Sim * sum of gammas is identically 0 without a measure; the
        # spec is rejected when made, so no graph is built from it.
        with pytest.raises(ParameterError, match="at least one measure"):
            GraphSpec(strategy=strategy, measures=(), sim_mode=sim_mode)

    def test_empty_measures_allowed_where_unused(self):
        features = feats([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        g = build_graph(features, [rec(i) for i in range(3)], GraphSpec("complete", measures=()))
        assert g.n_edges == 3

    def test_adding_a_measure_never_decreases_weights(self, rng):
        n = 12
        features = feats(rng.standard_normal((n, 6)))
        sites = ["siteA", "siteB", "siteC"]
        records = [
            rec(i, sex="MF"[int(rng.integers(2))], site=sites[int(rng.integers(3))],
                age=float(rng.uniform(20, 60)))
            for i in range(n)
        ]
        # Sim held fixed across specs via a fixed kernel width.
        base = GraphSpec(measures=("SEX",), sigma=0.9)
        wider = GraphSpec(measures=("SEX", "SITE"), sigma=0.9)
        w1 = build_phenotypic_graph(features, records, base).adjacency
        w2 = build_phenotypic_graph(features, records, wider).adjacency
        assert np.all(w2 >= w1 - 1e-12)

    def test_gene_measure_and_missing_values(self):
        features = feats([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        records = [
            rec(0, gene="carrier"),
            rec(1, gene="carrier"),
            rec(2, gene=None),
        ]
        spec = GraphSpec(measures=("GENE",), sim_mode="none")
        g = build_phenotypic_graph(features, records, spec)
        assert g.edge_list() == [(0, 1, 1.0)]

    def test_degenerate_feature_vector_propagates(self):
        features = feats([[1.0, 1.0, 1.0], [1.0, 2.0, 3.0]])
        records = [rec(0), rec(1)]
        with pytest.raises(DegenerateInputError):
            build_phenotypic_graph(features, records, GraphSpec())

    def test_misaligned_inputs_rejected(self):
        features = feats([[1.0, 2.0], [3.0, 4.0]])
        records = [rec(1), rec(0)]
        with pytest.raises(ContractError):
            build_phenotypic_graph(features, records, GraphSpec())


MEASURE_SUBSETS = [
    subset for size in range(1, len(MEASURES) + 1)
    for subset in itertools.combinations(MEASURES, size)
]
ATTRS = {"SEX": "sex", "SITE": "site", "GENE": "gene_flag"}


def longitudinal_cohort(rng, n_subjects, max_scans):
    """1..max_scans scans per subject in shuffled order; a scan's sex, site and
    gene flag may differ from its subject's or be missing. Ages lie on a
    half-year grid, so age differences of exactly theta occur."""
    rows = []
    for s in range(n_subjects):
        sex, site, gene = rng.choice(["M", "F"]), f"site{rng.integers(3)}", rng.choice(["c", "n"])
        age = float(rng.integers(55, 85))
        for _ in range(int(rng.integers(1, max_scans + 1))):
            draw = rng.random(3)
            rows.append((
                f"s{s}",
                None if draw[0] < 0.1 else (sex if draw[0] < 0.8 else "MF".replace(sex, "")),
                site if draw[1] < 0.8 else f"site{rng.integers(3)}",
                None if draw[2] < 0.2 else gene,
                age + 0.5 * rng.integers(0, 6),  # differences hit theta = 1.5
            ))
    rows = [rows[i] for i in rng.permutation(len(rows))]
    records = [
        AcquisitionRecord(f"a{i}", subject, 0, site, sex, age, gene)
        for i, (subject, sex, site, gene, age) in enumerate(rows)
    ]
    return feats(rng.standard_normal((len(records), 3))), records


def dense_longitudinal_formula(records, spec):
    """W = lambda * [same subject] * sum_h gamma_h, with a missing
    categorical value agreeing with nothing, and a zero diagonal."""
    n = len(records)
    subjects = np.array([r.subject_id for r in records])
    gamma = np.zeros((n, n))
    for measure in spec.measures:
        if measure == "AGE":
            ages = np.array([r.age for r in records])
            gamma += np.abs(ages[:, None] - ages[None, :]) < spec.theta
        else:
            vals = np.array([getattr(r, ATTRS[measure]) for r in records], dtype=object)
            present = np.array([v is not None for v in vals])
            gamma += (vals[:, None] == vals[None, :]) & present[:, None]
    w = spec.lam * (subjects[:, None] == subjects[None, :]) * gamma
    np.fill_diagonal(w, 0.0)
    return w


class TestLongitudinalGraph:
    @pytest.mark.parametrize("measures", MEASURE_SUBSETS, ids="+".join)
    @pytest.mark.parametrize("n_subjects", [25, 120])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_dense_formula(self, measures, n_subjects, seed):
        # Storage follows density alone: both cohorts are sparse, the
        # 25-subject one (at most 100 nodes) included.
        rng = np.random.default_rng(seed)
        features, records = longitudinal_cohort(rng, n_subjects, max_scans=4)
        spec = GraphSpec(measures=measures, sim_mode="longitudinal", theta=1.5, lam=7.5)
        g = build_graph(features, records, spec)
        expected = dense_longitudinal_formula(records, spec)
        sparse = sp.issparse(g.adjacency)
        assert sparse == (g.density <= DENSE_DENSITY_LIMIT)
        if sparse:
            assert g.adjacency.has_canonical_format
            canonical = sp.csr_matrix(expected)
            np.testing.assert_array_equal(g.adjacency.indptr, canonical.indptr)
            np.testing.assert_array_equal(g.adjacency.indices, canonical.indices)
            np.testing.assert_array_equal(g.adjacency.data, canonical.data)
        else:
            np.testing.assert_array_equal(g.adjacency, expected)
        assert g.n_edges == np.count_nonzero(expected) // 2

    @pytest.mark.parametrize("n_subjects", [30, 250])
    def test_no_repeat_scans_is_edgeless(self, n_subjects):
        features, records = longitudinal_cohort(
            np.random.default_rng(3), n_subjects, max_scans=1
        )
        spec = GraphSpec(measures=("AGE", "SEX", "GENE"), sim_mode="longitudinal")
        g = build_graph(features, records, spec)
        assert g.n_edges == 0
        assert g.adjacency.format == "csr"
        assert g.provenance["lambda"] == spec.lam
        assert estimate_lambda_max(normalized_laplacian(g)) == (2.0, True, 0)

    def test_build_memory_grows_with_edges_not_nodes(self):
        # One dense 3000 x 3000 float64 matrix alone is 72 MB.
        features, records = longitudinal_cohort(
            np.random.default_rng(4), n_subjects=1300, max_scans=4
        )
        assert len(records) >= 3000
        spec = GraphSpec(measures=("AGE", "SEX", "GENE"), sim_mode="longitudinal")
        tracemalloc.start()
        try:
            g = build_graph(features, records, spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert g.adjacency.format == "csr"
        assert peak < 5e6


class TestKnnGraph:
    def test_k_equals_n_minus_one_matches_weighted_complete(self, rng):
        features = feats(rng.standard_normal((7, 5)))
        knn = build_knn_graph(features, k=6, sigma=1.0)
        records = [rec(i) for i in range(7)]
        allg = build_graph(features, records, GraphSpec(strategy="all", sigma=1.0))
        assert knn.edge_list() == allg.edge_list()

    def test_four_nodes_k1_against_brute_force(self):
        # One well-separated, mutually most-similar pair (rows 0 and 1).
        x = np.array(
            [
                [1.0, 2.0, 3.0, 4.0],
                [1.1, 2.1, 3.1, 4.1],
                [4.0, -1.0, 2.0, -3.0],
                [-2.0, 5.0, -4.0, 1.0],
            ]
        )
        features = feats(x)
        g = build_knn_graph(features, k=1, sigma=1.0)
        # Brute-force oracle: rank every pair by the pairwise kernel.
        kern = np.zeros((4, 4))
        for i in range(4):
            for j in range(4):
                if i != j:
                    kern[i, j] = similarity_kernel(x[i], x[j], sigma=1.0)
        expected = set()
        for u in range(4):
            v = int(np.argmax(kern[u]))
            expected.add((min(u, v), max(u, v)))
        assert {(u, v) for u, v, _ in g.edge_list()} == expected
        assert (0, 1) in expected

    def test_minimum_degree_k(self, rng):
        features = feats(rng.standard_normal((15, 6)))
        g = build_knn_graph(features, k=4)
        assert np.all(np.count_nonzero(g.adjacency, axis=1) >= 4)

    def test_edge_weights_are_kernel_values(self, rng):
        x = rng.standard_normal((6, 5))
        g = build_knn_graph(feats(x), k=2, sigma=0.8)
        for u, v, w in g.edge_list():
            assert w == pytest.approx(similarity_kernel(x[u], x[v], 0.8), abs=1e-12)

    def test_k_out_of_range(self, rng):
        features = feats(rng.standard_normal((5, 4)))
        with pytest.raises(ParameterError):
            build_knn_graph(features, k=5)
        with pytest.raises(ParameterError):
            build_knn_graph(features, k=0)


class TestCompleteGraph:
    def test_unweighted_four_nodes(self):
        g = build_complete_graph(4)
        assert g.n_edges == 6
        assert np.all(g.weights == 1.0)

    def test_weighted_identical_rows(self):
        features = feats([[1.0, 2.0, 3.0]] * 4)
        records = [rec(i) for i in range(4)]
        g = build_graph(features, records, GraphSpec(strategy="all", sigma=1.0))
        assert g.n_edges == 6
        np.testing.assert_allclose(g.weights, 1.0, atol=1e-12)

    def test_two_nodes(self):
        g = build_complete_graph(2)
        assert g.edge_list() == [(0, 1, 1.0)]


class TestRandomGraph:
    def make_reference(self, rng):
        features = feats(rng.standard_normal((10, 5)))
        records = [rec(i, sex="MF"[i % 2], site=f"site{i % 3}") for i in range(10)]
        return build_phenotypic_graph(features, records, GraphSpec())

    def test_edge_count_preserved(self, rng):
        ref = self.make_reference(rng)
        out = build_random_graph(ref, seed=3)
        assert out.n_edges == ref.n_edges
        assert out.n_nodes == ref.n_nodes

    def test_weight_multiset_preserved(self, rng):
        ref = self.make_reference(rng)
        out = build_random_graph(ref, seed=3)
        np.testing.assert_allclose(np.sort(out.weights), np.sort(ref.weights))

    def test_same_seed_identical(self, rng):
        ref = self.make_reference(rng)
        a = build_random_graph(ref, seed=5)
        b = build_random_graph(ref, seed=5)
        assert a.edge_list() == b.edge_list()

    def test_different_seed_differs(self, rng):
        ref = self.make_reference(rng)
        a = build_random_graph(ref, seed=1)
        b = build_random_graph(ref, seed=2)
        assert a.edge_list() != b.edge_list()

    def test_requires_nonempty_reference(self):
        empty = PopulationGraph.from_edges(3, [], [], [])
        with pytest.raises(ParameterError):
            build_random_graph(empty, seed=0)


class TestGraphInvariants:
    def test_all_builders_produce_valid_graphs(self, rng):
        features = feats(rng.standard_normal((12, 6)))
        records = [rec(i, sex="MF"[i % 2], site=f"site{i % 3}", age=20.0 + i) for i in range(12)]
        for strategy in ("phenotypic", "knn", "complete", "all", "random"):
            spec = GraphSpec(strategy=strategy, k=3, seed=1)
            g = build_graph(features, records, spec)
            w = g.adjacency
            np.testing.assert_array_equal(w, w.T)
            assert np.all(np.diag(w) == 0)
            assert np.all(g.edges_u < g.edges_v)
            assert np.all(g.weights >= 0)

    def test_pairwise_correlation_matches_numpy(self, rng):
        x = rng.standard_normal((8, 7))
        got = pairwise_correlation(x)
        np.testing.assert_allclose(got, np.corrcoef(x), atol=1e-12)

    def test_estimate_sigma_subset(self, rng):
        x = rng.standard_normal((10, 6))
        subset = [0, 2, 4, 6]
        rho = 1.0 - np.corrcoef(x[subset])
        iu, ju = np.triu_indices(len(subset), k=1)
        records = [rec(i) for i in range(10)]
        g = build_graph(feats(x), records, GraphSpec(strategy="all"), sigma_rows=subset)
        assert g.provenance["sigma"] == pytest.approx(rho[iu, ju].mean(), abs=1e-12)
        # The kernel still covers every pair, at that width.
        assert g.n_edges == 45
        kern = np.exp(-correlation_distance_matrix(x) ** 2 / (2 * g.provenance["sigma"] ** 2))
        np.testing.assert_allclose(g.adjacency, kern - np.diag(np.diag(kern)), atol=1e-12)

    def test_kernel_matches_allocating_formula_bitwise(self, rng):
        # The in-place kernel performs the same operations as these
        # expressions on the C-ordered copy it takes of a Fortran-ordered
        # input, as RFE once returned.
        x = np.asfortranarray(rng.standard_normal((300, 500)))
        c = np.ascontiguousarray(x)
        centered = c - c.mean(axis=1, keepdims=True)
        z = centered / np.linalg.norm(centered, axis=1)[:, None]
        rho = 1.0 - np.clip(z @ z.T, -1.0, 1.0)
        rho[rho < 1e-12] = 0.0
        sigma = rho[np.triu_indices(300, k=1)].mean()
        expected = np.exp(-(rho**2) / (2.0 * sigma**2))
        g = build_graph(feats(x), [rec(i) for i in range(300)], GraphSpec(strategy="all"))
        assert g.provenance["sigma"] == sigma
        np.fill_diagonal(expected, 0.0)
        np.testing.assert_array_equal(g.adjacency.view(np.int64), expected.view(np.int64))

    def test_memory_layout_does_not_change_bits(self, rng):
        x = rng.standard_normal((120, 300)) * rng.uniform(0.1, 10.0, size=300)
        f = np.asfortranarray(x)
        assert x.flags.c_contiguous and f.flags.f_contiguous
        corr_c, corr_f = pairwise_correlation(x), pairwise_correlation(f)
        np.testing.assert_array_equal(corr_f.view(np.int64), corr_c.view(np.int64))
        records = [rec(i, sex="MF"[i % 2], site=f"s{i % 3}") for i in range(120)]
        g_c, g_f = (build_graph(feats(v), records, GraphSpec()) for v in (x, f))
        assert g_c.provenance["sigma"] == g_f.provenance["sigma"]
        np.testing.assert_array_equal(g_f.adjacency.view(np.int64), g_c.adjacency.view(np.int64))

    @pytest.mark.parametrize(
        "rows, message",
        [
            (["0,1,1.0", "0,1,2.0"], "duplicate edge"),
            (["1,1,1.0"], "u < v"),
            (["2,1,1.0"], "u < v"),
            (["0,3,1.0"], "out of range"),
            (["-1,1,1.0"], "out of range"),
            (["0,1,-0.5"], "negative edge weight"),
            (["0,1,1.0", "1,2,nan"], "non-finite edge weight"),
            (["1,2,inf"], "non-finite edge weight"),
        ],
    )
    def test_from_edges_rejects_bad_edges(self, rows, message):
        u, v, w = zip(*(row.split(",") for row in rows))
        with pytest.raises(IntegrityError, match=message):
            PopulationGraph.from_edges(3, list(map(int, u)), list(map(int, v)), list(map(float, w)))

    def test_edge_views_are_row_major_upper_triangle(self):
        g = PopulationGraph.from_edges(4, [0, 1, 0, 2], [3, 2, 1, 3], [1.0, 2.0, 3.0, 0.0])
        assert g.edge_list() == [(0, 1, 3.0), (0, 3, 1.0), (1, 2, 2.0)]
        assert g.n_edges == 3  # a zero weight is no edge


class TestGraphSerialization:
    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
    def test_save_load_roundtrip(self, tmp_path, rng, sparse):
        if sparse:
            features, records = generate_synthetic(SyntheticConfig(
                n_subjects=80, scans_per_subject=(3, 4), n_sites=4, n_features=20, seed=3
            ))
            spec = GraphSpec(measures=("AGE", "SEX", "GENE"), sim_mode="longitudinal")
            g = build_graph(features, records, spec)
            assert g.density <= DENSE_DENSITY_LIMIT
            assert g.adjacency.format == "csr"
        else:
            features = feats(rng.standard_normal((9, 5)))
            records = [rec(i, sex="MF"[i % 2]) for i in range(9)]
            g = build_phenotypic_graph(features, records, GraphSpec())
        path = tmp_path / "graph.csv"
        save_graph(g, path)
        loaded = read_graph_csv(path)
        assert loaded.n_nodes == g.n_nodes
        assert loaded.edge_list() == g.edge_list()
        assert loaded.provenance == g.provenance
        assert sp.issparse(loaded.adjacency) == sparse
        assert abs(loaded.adjacency - g.adjacency).max() == 0

    def test_header_contains_provenance(self, tmp_path):
        g = build_complete_graph(3)
        path = tmp_path / "graph.csv"
        save_graph(g, path)
        first = path.read_text().splitlines()[0]
        assert first.startswith("# provenance:")
        assert "complete" in first
